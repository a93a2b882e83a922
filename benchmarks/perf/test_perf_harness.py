"""Checks of the benchmark harness itself, on small inputs.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q`` (this
directory is outside the tier-1 ``testpaths``).
"""

import importlib
import json
import re

import pytest

import bench
import ledger as ledger_mod
import workloads
from repro.core.rtlcheck import RTLCheck
from repro.litmus.suite import paper_suite

SUITE = {"kind": "suite", "only": ["mp", "sb", "iwp24"]}
FUZZ = {"kind": "fuzz", "campaign_seed": 0, "budget": 3}
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _originals():
    out = {}
    for module, cls, attr, _ in ledger_mod.TARGETS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        out[(module, cls, attr)] = (owner, owner.__dict__[attr])
    return out


@pytest.fixture(scope="module", params=[SUITE, FUZZ], ids=["suite", "fuzz"])
def passes(request, tmp_path_factory):
    """An untraced and a traced pass of one small input, plus the
    entry points as they were before the traced pass."""
    before = _originals()
    runs = {}
    for traced in (False, True):
        cache = tmp_path_factory.mktemp("cache")
        runs[traced] = workloads.run_pass(
            dict(request.param, cache_dir=str(cache), trace=traced)
        )
    return before, runs[False], runs[True]


def test_wrappers_are_removed_after_a_traced_pass(passes):
    before, _, _ = passes
    for (_, _, attr), (owner, original) in before.items():
        assert owner.__dict__[attr] is original


def test_traced_and_untraced_digests_agree(passes):
    _, untraced, traced = passes
    assert untraced["failures"] == traced["failures"] == []
    assert untraced["digest"] == traced["digest"]


def test_layer_self_times_account_for_the_wall(passes):
    _, _, traced = passes
    layers, wall = traced["layers"], traced["traced_wall_s"]
    assert layers["other_s"] < 0.05 * wall
    self_times = sum(layers[f"{name}_s"] for name in ledger_mod.LAYER_SPANS)
    assert self_times + layers["other_s"] == pytest.approx(wall, rel=0.05)


def test_graph_build_is_counted_once():
    tests = [t for t in paper_suite() if t.name in SUITE["only"]]
    ledger = ledger_mod.Ledger()
    ledger.install()
    try:
        root = ledger.open(ledger_mod.ROOT_SPAN)
        results = RTLCheck().verify_suite(tests)
        ledger.close(root)
    finally:
        ledger.uninstall()
    table = ledger.self_times()
    built = sum(r.graph_build_seconds for r in results.values())
    assert built > 0
    assert table["reach.build"]["total_s"] == pytest.approx(built, rel=1e-9)
    walks = [table["explorer.cover"], table["explorer.property"]]
    assert sum(w["self_s"] for w in walks) + built == pytest.approx(
        sum(w["total_s"] for w in walks), rel=1e-9
    )


@pytest.mark.parametrize("trace", [0, 1, None], ids=["trace0", "trace1", "both"])
def test_printed_metric_names_match_the_declaration(trace, capsys):
    run = bench.measure("suite-cold", 0, trace != 0, spec=SUITE)
    assert run["correct"], run["errors"]
    bench.print_run(run, 0)
    printed = capsys.readouterr().out.splitlines()
    summary = json.loads(bench.summary_line([run], bench.SECTIONS[trace]))
    spec = bench.declared()
    declared = {m["name"] for s in bench.SECTIONS[trace] for m in spec[s]}
    assert set(summary["metrics"]) == declared
    assert all(NAME.fullmatch(name) for name in declared)
    # A traced run prints both sets; its untraced passes give end to end.
    both = {m["name"] for s in bench.SECTIONS[None] for m in spec[s]}
    shown = declared if trace == 0 else both
    metric_lines = [line.split() for line in printed if re.match(r"  \w", line)]
    assert {fields[0] for fields in metric_lines} == shown
    assert summary["attempted"] == (1 if trace == 0 else 2) * 3
    assert summary["failed"] == 0


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert bench.judge(parent, [10.2, 10.3, 10.1, 10.2, 10.25], True, 0.1) == "ok"
    assert bench.judge(parent, [12.0, 12.1, 11.9, 12.0, 12.2], True, 0.1) == "regressed"
    assert bench.judge(parent, [8.0, 12.0, 10.0, 14.0, 7.0], True, 0.1) == "unresolved"
    faster = [v - 1 for v in parent * 2]
    assert bench.claim_met(parent * 2, faster, True)
    assert not bench.claim_met(parent, [v - 1 for v in parent], True)  # < 10 pairs
