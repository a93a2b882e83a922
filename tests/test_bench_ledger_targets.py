"""The benchmark ledger's wrap points still exist.

``benchmarks/perf/ledger.py`` times each layer from outside by
replacing the public entry points listed in its ``TARGETS`` table,
looked up as ``owner.__dict__[attr]``.  A refactor that moves or
renames one of them would otherwise break only the traced benchmark
runs.  This test imports the ledger without installing it and checks
that every target resolves exactly as :meth:`Ledger.install` would
resolve it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "ledger.py"


def _load_ledger():
    spec = importlib.util.spec_from_file_location("bench_perf_ledger", LEDGER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_ledger().TARGETS


@pytest.mark.parametrize(
    "module_name, class_name, attr, span",
    TARGETS,
    ids=[f"{m}:{c or ''}.{a}" for m, c, a, _span in TARGETS],
)
def test_target_resolves_in_owner_dict(module_name, class_name, attr, span):
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert attr in owner.__dict__, f"{span}: {module_name}.{class_name}.{attr}"
    assert callable(owner.__dict__[attr])


def test_walk_explorer_exposes_its_graph():
    """The ledger reads ``explorer.graph`` after each walk to charge
    graph-build time."""
    from repro import get_test
    from repro.litmus import compile_test
    from repro.mapping import MultiVScaleProgramMapping
    from repro.sva import AssumptionChecker
    from repro.verifier.explorer import InstrumentedExplorer
    from repro.verifier.reach import GraphExplorer, ReachGraph
    from repro.vscale.soc import MultiVScale

    compiled = compile_test(get_test("mp"))
    checker = AssumptionChecker(
        MultiVScaleProgramMapping(compiled).all_assumptions()
    )
    explorer = GraphExplorer(MultiVScale(compiled), checker)
    assert isinstance(explorer, InstrumentedExplorer)
    assert isinstance(explorer.graph, ReachGraph)
