"""Golden verdict table for the 56-test paper suite.

``tests/fixtures/golden_verdicts.json`` pins, per test, the model
verdicts (SC/TSO/axiomatic), the exhaustive-RTL-enumeration agreement
with SC on both memory variants, and RTLCheck's bug_found /
verified_by_cover verdicts on both variants plus a digest of each full
verification (every verdict, bound, transition count, work profile,
fired assumption, counterexample, and modeled hour).  These tests replay the
pipeline against the fixture, so *any* behaviour change in an oracle
layer — model semantics, RTL simulation, property generation, verifier
engines — surfaces as a diff against a reviewed table rather than as a
silent drift.

The model columns replay for all 56 tests on every tier-1 run (~3s).
The verifier/RTL columns replay on a small fixed subset by default;
``RTLCHECK_GOLDEN_FULL=1`` replays them for the whole table (minutes —
CI's scheduled job, or after touching the verifier).  Regenerate an
intentionally-changed table with ``tools/regen_golden_verdicts.py``.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from repro import RTLCheck, get_test, paper_suite
from repro.difftest.oracles import (
    axiomatic_verdicts,
    operational_verdicts,
    rtl_verdicts,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from regen_golden_verdicts import verification_digest  # noqa: E402

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "golden_verdicts.json"
)

#: Small-but-diverse default subset for the expensive columns: a buggy
#: memory bug with and without cover-shortcut on fixed (mp, sb), two
#: clean tests (lb, n1 — n1 is the known verifier-blind-spot shape),
#: and the smallest test in the suite (ssl).
FAST_SUBSET = ("mp", "sb", "lb", "n1", "ssl")

GOLDEN_FULL = os.environ.get("RTLCHECK_GOLDEN_FULL") == "1"


def _table():
    with open(FIXTURE) as handle:
        document = json.load(handle)
    assert document["kind"] == "rtlcheck-golden-verdicts"
    assert document["schema_version"] == 1
    return {row["test"]: row for row in document["tests"]}


TABLE = _table()


class TestFixtureShape:
    def test_covers_whole_suite_exactly(self):
        suite_names = [test.name for test in paper_suite()]
        assert sorted(TABLE) == sorted(suite_names)
        assert len(suite_names) == 56

    def test_every_row_carries_both_digests(self):
        for row in TABLE.values():
            for variant in ("fixed", "buggy"):
                digest = row[f"verifier_{variant}_digest"]
                assert len(digest) == 64, row["test"]
                int(digest, 16)

    def test_fast_subset_rows_exist(self):
        for name in FAST_SUBSET:
            assert name in TABLE

    def test_pinned_cross_layer_invariants(self):
        """The fixture itself must satisfy the difftest invariants: the
        two SC implementations agree everywhere, the fixed design is SC
        everywhere, and the verifier never flags the fixed design."""
        for row in TABLE.values():
            assert row["axiomatic_matches_operational"], row["test"]
            assert row["axiomatic_allowed"] == row["sc_allowed"], row["test"]
            assert row["rtl_fixed_matches_sc"], row["test"]
            assert not row["verifier_fixed_bug_found"], row["test"]
            # SC-allowed implies TSO-allowed (TSO only weakens SC).
            if row["sc_allowed"]:
                assert row["tso_allowed"], row["test"]

    def test_buggy_memory_diverges_everywhere(self):
        """Every suite test exercises at least one store, and the buggy
        memory drops its final buffered store — so exhaustive buggy
        enumeration never matches SC, while the verifier (which only
        sees the candidate-outcome slice) flags a strict subset."""
        for row in TABLE.values():
            assert not row["rtl_buggy_matches_sc"], row["test"]
        flagged = sum(1 for r in TABLE.values() if r["verifier_buggy_bug_found"])
        assert 0 < flagged < len(TABLE)


class TestModelColumns:
    """Replay the cheap columns for the full suite on every run."""

    @pytest.mark.parametrize("test", paper_suite(), ids=lambda t: t.name)
    def test_model_verdicts_match_golden(self, test):
        row = TABLE[test.name]
        op_set, sc_ok, tso_ok = operational_verdicts(test)
        ax_set, ax_ok = axiomatic_verdicts(test)
        assert sc_ok == row["sc_allowed"]
        assert tso_ok == row["tso_allowed"]
        assert ax_ok == row["axiomatic_allowed"]
        assert len(op_set) == row["outcome_count"]
        assert (op_set == ax_set) == row["axiomatic_matches_operational"]
        assert test.num_threads == row["threads"]
        assert test.instruction_count() == row["instructions"]


def _verifier_names():
    return sorted(TABLE) if GOLDEN_FULL else list(FAST_SUBSET)


class TestVerifierColumns:
    """Replay the expensive columns (RTL enumeration + RTLCheck) on the
    fast subset by default, everything under RTLCHECK_GOLDEN_FULL=1."""

    @pytest.mark.parametrize("name", _verifier_names())
    @pytest.mark.parametrize("variant", ["fixed", "buggy"])
    def test_rtl_and_verifier_match_golden(self, name, variant):
        row = TABLE[name]
        test = get_test(name)
        op_set, _sc, _tso = operational_verdicts(test)
        rtl = rtl_verdicts(test, variant)
        assert rtl.complete == row[f"rtl_{variant}_complete"]
        assert (rtl.complete and rtl.outcomes == op_set) == (
            row[f"rtl_{variant}_matches_sc"]
        )
        result = RTLCheck().verify_test(test, variant)
        assert result.bug_found == row[f"verifier_{variant}_bug_found"]
        assert (
            result.verified_by_cover
            == row[f"verifier_{variant}_verified_by_cover"]
        )
        assert verification_digest(result) == row[f"verifier_{variant}_digest"]
