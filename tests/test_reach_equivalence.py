"""The graph walk reproduces the pinned answers of the re-simulating
walk.

The engine model derives modeled JasperGold hours from the explorer's
transition counts, so :class:`repro.verifier.reach.GraphExplorer` must
give exactly the answers of a walk that re-simulates the design for
every property — verdicts, bounds, ``states_explored``, per-layer work
profiles, fired assumptions, counterexample traces, and the resulting
modeled hours — or the Figure 13/14 numbers would drift.  Those answers
are pinned in ``tests/fixtures/golden_verdicts.json`` (one digest per
test and memory variant, captured while both walks still existed and
asserted equal) and as literals below; these tests replay them over the
full 56-test suite, on the buggy-memory counterexample path, and for
budget-truncated covering walks.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from repro import CONFIGS, RTLCheck, get_test, paper_suite
from repro.verifier import Budget, GraphExplorer
from repro.verifier.config import EXPLORER_BUDGET

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from regen_golden_verdicts import (  # noqa: E402
    strip_seconds,
    verification_digest,
    verification_view,
)

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "golden_verdicts.json"
)

with open(FIXTURE) as _handle:
    DIGESTS = {
        (row["test"], variant): row[f"verifier_{variant}_digest"]
        for row in json.load(_handle)["tests"]
        for variant in ("fixed", "buggy")
    }

#: Hybrid-configuration verifications: (digest, modeled hours).
HYBRID_SAMPLE = {
    "mp": (
        "04ffbce70703a8fab5eb7e38026ca25b11f238f467d93bfae25e8402c4511fe1",
        0.049889405574146305,
    ),
    "iwp24": (
        "2c27fc2d4d0bede86c46e90886dba2513bea6cae0414b43748da7800a4733b75",
        2.0,
    ),
    "iriw": (
        "e6e58dc6ba7ba3b939bc60e843f69a1f59bf30faa169e19b93312102a90ca583",
        11.0,
    ),
    "rfi000": (
        "54d5469499381be63e4b4fef2f42b3027f90ed303082555ca9f7328bff7eabd0",
        0.18567114010577493,
    ),
}

#: iwp24 (fixed) covering walks under truncated budgets.
TRUNCATED_COVERS = {
    "tiny-states": (
        Budget(max_states=5, max_depth=3),
        {
            "verdict": "unknown",
            "depth_completed": 1,
            "states_explored": 5,
            "transitions": 5,
            "counterexample": None,
            "fired_assumptions": ["init_dmem_x", "init_dmem_y"],
            "exhausted": False,
            "layer_transitions": [4, 1],
        },
    ),
    "tiny-both": (
        Budget(max_states=10, max_depth=2),
        {
            "verdict": "unknown",
            "depth_completed": 1,
            "states_explored": 10,
            "transitions": 10,
            "counterexample": None,
            "fired_assumptions": ["init_dmem_x", "init_dmem_y"],
            "exhausted": False,
            "layer_transitions": [4, 6],
        },
    ),
    "depth-only": (
        Budget(max_states=2_000_000, max_depth=4),
        {
            "verdict": "unknown",
            "depth_completed": 4,
            "states_explored": 101,
            "transitions": 276,
            "counterexample": None,
            "fired_assumptions": [
                "init_dmem_x",
                "init_dmem_y",
                "load_value_i2",
            ],
            "exhausted": False,
            "layer_transitions": [4, 16, 64, 192],
        },
    ),
}


class TestFullSuiteEquivalence:
    def test_fixed_design_full_suite(self):
        """Verdicts, bounds, fired assumptions, and modeled hours match
        the pinned digests for all 56 tests."""
        rtlcheck = RTLCheck()
        for test in paper_suite():
            result = rtlcheck.verify_test(test)
            assert verification_digest(result) == DIGESTS[test.name, "fixed"], (
                test.name
            )

    def test_hybrid_config_sample(self):
        """The Hybrid engine configuration consumes the same ground
        truth, so a sample of tests must match there too."""
        rtlcheck = RTLCheck(config=CONFIGS["Hybrid"])
        for name, (digest, hours) in HYBRID_SAMPLE.items():
            result = rtlcheck.verify_test(get_test(name))
            assert verification_digest(result) == digest, name
            assert result.modeled_hours == hours, name

    def test_buggy_design_counterexamples(self):
        """Counterexample traces (inputs and frames) on the buggy memory
        match the pinned digests (ssl's buggy run is discharged by the
        covering walk instead)."""
        rtlcheck = RTLCheck()
        for name in ["mp", "sb", "ssl"]:
            result = rtlcheck.verify_test(get_test(name), memory_variant="buggy")
            assert verification_digest(result) == DIGESTS[name, "buggy"], name


class TestExplorerLevelEquivalence:
    def _explorer(self, name, variant="fixed"):
        from repro.litmus import compile_test
        from repro.mapping import MultiVScaleProgramMapping
        from repro.sva import AssumptionChecker
        from repro.vscale.soc import MultiVScale

        compiled = compile_test(get_test(name))
        assumptions = MultiVScaleProgramMapping(compiled).all_assumptions()
        return GraphExplorer(
            MultiVScale(compiled, variant), AssumptionChecker(assumptions)
        )

    def test_cover_equivalence(self):
        """A standalone covering walk gives the cover pinned inside the
        iwp24 verification digest."""
        verification = RTLCheck().verify_test(get_test("iwp24"))
        assert verification_digest(verification) == DIGESTS["iwp24", "fixed"]
        cover = self._explorer("iwp24").cover_assumptions(EXPLORER_BUDGET)
        expected = verification_view(verification)["cover"]
        assert strip_seconds(cover.to_dict()) == expected

    @pytest.mark.parametrize("budget_id", list(TRUNCATED_COVERS))
    def test_truncated_budgets_agree(self, budget_id):
        """Budget-truncated walks stop at the pinned expansion (the
        graph expands lazily, so a truncated walk never simulates states
        a re-simulating walk would not have)."""
        budget, expected = TRUNCATED_COVERS[budget_id]
        cover = self._explorer("iwp24").cover_assumptions(budget)
        assert strip_seconds(cover.to_dict()) == expected

    def test_graph_is_reused_across_walks(self):
        """The second walk over the same GraphExplorer performs zero
        additional design simulation."""
        explorer = self._explorer("iwp24")
        explorer.cover_assumptions(EXPLORER_BUDGET)
        sims_after_cover = explorer.graph.sim_transitions
        assert sims_after_cover > 0
        explorer.cover_assumptions(EXPLORER_BUDGET)
        assert explorer.graph.sim_transitions == sims_after_cover
