"""Pinned trace-checker verdicts, and the trace oracle's call contract.

``tests/fixtures/polycheck_verdicts.json`` pins, for every program of
the harvest pin (60 long-program fuzz tests and the 56 suite tests),
every :class:`~repro.memodel.polycheck.TraceVerdict` field of
``check_trace`` under ``"sc"`` and ``"tso"`` on three batches of traces:
the fixed-memory harvest, the buggy-memory harvest, and a seeded batch
of perturbed fixed-memory traces.  Each batch row carries a digest of
the verdict list (rejection reasons byte for byte) and counts beside
it, so any change to the closure, the witness searches or the reported
reasons shows up as a diff.

A fast subset replays on every tier-1 run; ``RTLCHECK_GOLDEN_FULL=1``
replays all rows.  Regenerate an intentionally-changed table with
``tools/regen_golden_verdicts.py --polycheck-only``.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from repro.difftest.oracles import trace_verdicts
from repro.memodel import polycheck
from repro.vscale.trace import harvest_traces

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from regen_golden_verdicts import (  # noqa: E402
    POLYCHECK_FIXTURE,
    POLYCHECK_KIND,
    harvest_tests,
    polycheck_rows,
)

#: Message passing, store buffering, IRIW, a fenced test and the
#: smallest test; plus three long programs, two of whose TSO searches
#: trip the pin's budget.
FAST_SUBSET = ("mp", "sb", "iriw", "amd3", "ssl", "fz0-00000", "fz0-00013",
               "fz0-00038")

GOLDEN_FULL = os.environ.get("RTLCHECK_GOLDEN_FULL") == "1"

BATCHES = ("fixed", "buggy", "perturbed")


def _table():
    with open(POLYCHECK_FIXTURE) as handle:
        document = json.load(handle)
    assert document["kind"] == POLYCHECK_KIND
    assert document["schema_version"] == 1
    table = {}
    for row in document["tests"]:
        table.setdefault(row["test"], []).append(row)
    return table


TABLE = _table()

CASES = {test.name: (source, test) for source, test in harvest_tests()}


def test_covers_every_harvest_program_and_batch():
    assert sorted(TABLE) == sorted(CASES)
    for rows in TABLE.values():
        assert [row["batch"] for row in rows] == list(BATCHES)
    for name in FAST_SUBSET:
        assert name in TABLE
    # Every rejection path is pinned: buggy harvests and perturbed
    # traces both reject, and some TSO searches trip the budget.
    for batch in ("buggy", "perturbed"):
        rows = [row for rows in TABLE.values() for row in rows
                if row["batch"] == batch]
        assert sum(row["traces"] - row["sc"]["conformant"] for row in rows)
    assert sum(row["tso"]["errors"] for rows in TABLE.values() for row in rows)


def _names():
    if GOLDEN_FULL:
        return sorted(TABLE)
    return sorted(FAST_SUBSET)


@pytest.mark.parametrize("name", _names())
def test_verdicts_match_pin(name):
    assert polycheck_rows(*CASES[name]) == TABLE[name]


@pytest.mark.parametrize("name", ["mp", "iriw", "fz0-00013"])
def test_trace_verdicts_calls_check_trace_once_per_trace(name, monkeypatch):
    # The benchmark ledger measures the oracle by wrapping the module
    # attribute ``polycheck.check_trace``: ``trace_verdicts`` must look
    # it up at call time and call it once per harvested trace, or the
    # measured check time silently reads zero.
    test = CASES[name][1]
    seen = []
    real = polycheck.check_trace

    def counting(trace, *args, **kwargs):
        verdict = real(trace, *args, **kwargs)
        seen.append((trace, verdict))
        return verdict

    monkeypatch.setattr(polycheck, "check_trace", counting)
    checks, _sampled, _undrained = trace_verdicts(test, "buggy")
    traces = harvest_traces(test, "buggy").traces
    assert [trace for trace, _ in seen] == traces
    assert len(checks) == len(traces)
    for check, (trace, verdict) in zip(checks, seen):
        assert isinstance(verdict, polycheck.TraceVerdict)
        assert check.final_memory == trace.final_memory
        assert (check.conformant, check.reason, check.search_states) == (
            verdict.conformant,
            verdict.reason,
            verdict.search_states,
        )
