#!/usr/bin/env python
"""CI benchmark-regression gate.

Runs a pinned, fast benchmark subset — cold reachability-graph builds,
property walks, random-schedule simulation, difftest oracle
throughput, paper-suite construction, SVA generation, the trace
oracle's harvest, and the RTL oracle's outcome enumeration — and writes
the measurements to a JSON trajectory point (``BENCH_ci.json``).  With
``--baseline``/``--check`` it compares against the committed baseline
(``benchmarks/baselines/ci_baseline.json``) and exits non-zero when any
metric slowed down by more than the threshold (default 25%).

Raw wall-clock seconds are useless across heterogeneous CI machines,
so every metric is reported in **calibrated units**: the metric's
best-of-N seconds (N at least 3, and enough for a short metric's
repeats to span about a second) divided by the calibration seconds of
that metric, the mean of the best-of-N runs of a fixed pure-Python
calibration workload just before and just after it, in the same
process (as ``benchmarks/perf/bench.py`` rescales each segment by the
reference loops around it).  A machine that is uniformly 2x slower
scores the same units; only *relative* regressions (an algorithmic or
representation change in this repo) move the ratio.  Bracketing each
metric follows a shared host's speed while that metric runs, where one
divisor for the whole gate run scaled every metric by the luck of all
the phases.

``--only METRIC`` measures one metric alone (repeatable), which is how
a baseline entry is re-measured after a change to that metric.

Usage:

    PYTHONPATH=src python tools/bench_gate.py --output BENCH_ci.json \
        --baseline benchmarks/baselines/ci_baseline.json --check

Refresh the baseline after an intentional performance change with
``tools/regen_bench_baseline.py`` (and commit the diff).

``--inject-slowdown METRIC`` artificially slows one metric (a sleep
sized at ~60% of its measured time) — used once per pipeline change to
demonstrate that the gate actually fails, never in a committed config.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import statistics
import sys
import time
from typing import Callable, Dict, Optional, Sequence


def _checkout_src_position() -> int:
    """Where this checkout's ``src`` goes on ``sys.path``: right after
    the last ``PYTHONPATH`` entry, so ``PYTHONPATH=<tree>/src`` times
    that tree, and first when ``PYTHONPATH`` is unset."""
    entries = {
        os.path.abspath(entry)
        for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if entry
    }
    positions = [
        i
        for i, entry in enumerate(sys.path)
        if entry and os.path.abspath(entry) in entries
    ]
    return positions[-1] + 1 if positions else 0


sys.path.insert(
    _checkout_src_position(),
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)

SCHEMA_VERSION = 1
DEFAULT_THRESHOLD = 0.25
DEFAULT_REPEATS = 3
#: A metric shorter than this runs more than ``repeats`` times, enough
#: for its repeats to span about this long: best-of-3 of a 10 ms or
#: 100 ms workload swings by more than the threshold on a shared host.
MIN_MEASURED_SECONDS = 1.0

#: Pinned workloads: small enough for a CI minute, large enough
#: (hundreds of milliseconds each) that timer noise is negligible.
REACHGRAPH_TESTS = ("mp", "sb", "iwp24", "iriw", "n4", "amd3")
REACHGRAPH_VARIANTS = ("fixed", "buggy")
SIMULATION_TESTS = ("mp", "iwp24")
SIMULATION_SCHEDULES = 600
DIFFTEST_TESTS = ("mp", "sb", "iwp24", "iriw", "amd3")
COVERAGE_TESTS = ("mp", "sb", "iwp24")
#: Six tests keep the walks (~0.25 s once frames are labelled by
#: valuation class) well above the timer-noise floor.
PROPERTY_WALK_TESTS = ("mp", "sb", "iwp24", "iriw", "n4", "amd3")
POLYCHECK_TESTS = ("mp", "sb", "iriw")
POLYCHECK_SAMPLES = 8
POLYCHECK_LONG_THREAD_OPS = 16
#: ``FuzzGenerator(seed, 4, long_programs=True).suite(count)``: the
#: start of the ``fuzz --long-programs`` campaign at seed 0.
TRACE_HARVEST_SEED = 0
TRACE_HARVEST_TESTS = 40
#: ``FuzzGenerator(seed, 4).suite(count)``: the programs the ``fuzz``
#: benchmark workload enumerates.
RTL_ENUMERATION_SEED = 0
RTL_ENUMERATION_TESTS = 20


def _calibration_workload() -> int:
    """Fixed pure-Python workload (dict/tuple churn plus arithmetic,
    the same operation mix the benchmarks stress)."""
    total = 0
    table: Dict[int, int] = {}
    for i in range(400_000):
        total += (i * i) % 7919
        table[i & 1023] = total
        if i & 1023 == 0:
            total += sum(table.values()) % 104729
    return total


def _bench_reachgraph() -> None:
    """Cold full ReachGraph builds."""
    from repro import get_test
    from repro.litmus import compile_test
    from repro.mapping import MultiVScaleProgramMapping
    from repro.sva import AssumptionChecker
    from repro.verifier.reach import ReachGraph
    from repro.vscale.soc import MultiVScale

    for name in REACHGRAPH_TESTS:
        compiled = compile_test(get_test(name))
        assumptions = MultiVScaleProgramMapping(compiled).all_assumptions()
        for variant in REACHGRAPH_VARIANTS:
            graph = ReachGraph(
                MultiVScale(compiled, variant), AssumptionChecker(assumptions)
            )
            frontier = [graph.root]
            seen = {graph.root}
            while frontier:
                node = frontier.pop()
                for _i, _inputs, _frame, child in graph.live_successors(node):
                    if child not in seen:
                        seen.add(child)
                        frontier.append(child)


def _bench_simulation() -> None:
    """Random-schedule simulation campaign on the fixed design."""
    from repro import get_test
    from repro.litmus import compile_test
    from repro.mapping import MultiVScaleProgramMapping
    from repro.verifier.simulation import simulate_check
    from repro.vscale.soc import MultiVScale

    for name in SIMULATION_TESTS:
        compiled = compile_test(get_test(name))
        mapping = MultiVScaleProgramMapping(compiled)
        simulate_check(
            MultiVScale(compiled, "fixed"),
            mapping.all_assumptions(),
            [],
            num_schedules=SIMULATION_SCHEDULES,
            max_cycles=60,
        )


def _bench_difftest() -> None:
    """Uncached difftest oracle sweep (operational + axiomatic + RTL)."""
    from repro import get_test
    from repro.difftest.oracles import evaluate_oracles

    for name in DIFFTEST_TESTS:
        evaluate_oracles(
            get_test(name), oracles=("operational", "axiomatic", "rtl")
        )


def _polycheck_long_test():
    """Deterministic 16-ops-per-thread program (trace-oracle-only
    territory: the exhaustive layers cannot touch it)."""
    from repro.litmus.test import LitmusTest, Outcome, load, store

    threads = [
        [store("x", i + 1) for i in range(8)]
        + [load("y", f"r{i}") for i in range(8)],
        [store("y", i + 1) for i in range(8)]
        + [load("x", f"r{i + 8}") for i in range(8)],
    ]
    return LitmusTest.of("bench-long16", threads, Outcome.of({}))


def _bench_polycheck() -> None:
    """Trace-oracle sweep: seeded RTL harvest + per-execution polycheck
    on the classic shapes plus one long program."""
    from repro import get_test
    from repro.difftest.oracles import trace_verdicts

    for name in POLYCHECK_TESTS:
        trace_verdicts(get_test(name), "fixed", samples=POLYCHECK_SAMPLES)
    trace_verdicts(_polycheck_long_test(), "fixed", samples=POLYCHECK_SAMPLES)


def _bench_coverage() -> None:
    """End-to-end verification with coverage maps on (uncached).

    Gates the cost of microarchitectural coverage collection: the
    per-test reach-graph walk, slot-vector signature hashing, and
    shape/assumption key extraction all ride this metric, so a
    collection-path regression shows up here even while the plain
    verification metrics stay flat.  The absolute <3% overhead bar
    lives in ``benchmarks/test_bench_coverage.py``.
    """
    from repro import RTLCheck, get_test

    rtlcheck = RTLCheck(coverage=True)
    for name in COVERAGE_TESTS:
        rtlcheck.verify_test(get_test(name), "fixed")


@functools.lru_cache(maxsize=None)
def _property_walk_inputs():
    """Per test: a fully built reach graph, the atoms the RTLCheck flow
    declares for it (:func:`~repro.sva.monitor.walk_atoms`), and the
    compiled monitors of every generated assertion (built once, by the
    warm-up run)."""
    from repro import RTLCheck, get_test
    from repro.sva import AssumptionChecker, PropertyMonitor
    from repro.sva.monitor import walk_atoms
    from repro.verifier.config import EXPLORER_BUDGET
    from repro.verifier.reach import GraphExplorer
    from repro.vscale.soc import MultiVScale

    inputs = []
    for name in PROPERTY_WALK_TESTS:
        generated = RTLCheck().generate(get_test(name))
        explorer = GraphExplorer(
            MultiVScale(generated.compiled, "fixed"),
            AssumptionChecker(generated.assumptions),
        )
        explorer.cover_assumptions(EXPLORER_BUDGET)  # expands the graph
        atoms = walk_atoms(generated.assumptions, generated.assertions)
        monitors = [PropertyMonitor(d) for d in generated.assertions]
        inputs.append((explorer.graph, atoms, monitors))
    return inputs


def _bench_property_walk() -> None:
    """Every assertion walk of the pinned tests (fixed memory) over
    prebuilt graphs: the property-walk layer alone, which dominates a
    cold suite.  Each run starts a fresh explorer with the test's atoms
    declared, as a verify run starts one, so the valuation, frame
    labels, and transition tables are rebuilt on the path that ships;
    graph build and monitor compilation stay outside."""
    from repro.verifier.config import EXPLORER_BUDGET
    from repro.verifier.reach import GraphExplorer

    for graph, atoms, monitors in _property_walk_inputs():
        explorer = GraphExplorer(
            graph.design, graph.assumptions, graph=graph, atoms=atoms
        )
        for monitor in monitors:
            explorer.check_property(monitor, EXPLORER_BUDGET)


def _bench_suite_build() -> None:
    """Construction of the 56-test paper suite (diy cycle enumeration
    plus test generation) on a fresh builder, so the module-level memo
    behind ``paper_suite()`` cannot hide the cost."""
    from repro.litmus.suite import SuiteBuilder

    SuiteBuilder().build()


def _bench_generation() -> None:
    """The Assumption and Assertion Generators over the 56-test paper
    suite on a fresh ``RTLCheck``: µspec grounding, node mapping and
    SVA emission, no verification.  The suite is built once, by the
    warm-up run."""
    from repro import RTLCheck, paper_suite

    rtlcheck = RTLCheck()
    for test in paper_suite():
        rtlcheck.generate(test)


@functools.lru_cache(maxsize=None)
def _trace_harvest_tests():
    from repro.difftest.generate import FuzzGenerator

    generator = FuzzGenerator(TRACE_HARVEST_SEED, 4, long_programs=True)
    return tuple(generator.suite(TRACE_HARVEST_TESTS))


def _bench_trace_harvest() -> None:
    """The trace oracle's harvest alone (no polycheck) on a fixed slice
    of long fuzz programs, fixed memory, default samples: the layer
    that dominates a ``fuzz --long-programs`` campaign.  The programs
    are generated once, by the warm-up run."""
    from repro.vscale.trace import harvest_traces

    for test in _trace_harvest_tests():
        harvest_traces(test, "fixed")


@functools.lru_cache(maxsize=None)
def _rtl_enumeration_tests():
    from repro.difftest.generate import FuzzGenerator

    generator = FuzzGenerator(RTL_ENUMERATION_SEED, 4)
    return tuple(generator.suite(RTL_ENUMERATION_TESTS))


def _bench_rtl_enumeration() -> None:
    """The RTL oracle's exhaustive outcome enumeration alone
    (``rtl_verdicts``, uncached) on the ``fuzz`` workload's programs,
    fixed memory.  The programs are generated once, by the warm-up
    run."""
    from repro.difftest.oracles import rtl_verdicts

    for test in _rtl_enumeration_tests():
        rtl_verdicts(test, "fixed")


METRICS: Dict[str, Callable[[], None]] = {
    "reachgraph_build": _bench_reachgraph,
    "simulation": _bench_simulation,
    "difftest": _bench_difftest,
    "polycheck": _bench_polycheck,
    "coverage_overhead": _bench_coverage,
    "property_walk": _bench_property_walk,
    "suite_build": _bench_suite_build,
    "generation": _bench_generation,
    "trace_harvest": _bench_trace_harvest,
    "rtl_enumeration": _bench_rtl_enumeration,
}


def _best_of(fn: Callable[[], None], repeats: int, extra: float = 0.0) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if extra:
            time.sleep(extra)
            elapsed += extra
        best = min(best, elapsed)
    return best


def run_gate(
    repeats: int,
    inject_slowdown: Optional[str] = None,
    only: Optional[Sequence[str]] = None,
) -> Dict:
    """Measure every metric (or those named in ``only``), each between
    two calibration runs; ``calibrations`` lists them in run order."""
    calibrations = [_best_of(_calibration_workload, repeats)]
    seconds_by_metric = {}
    for name, fn in METRICS.items():
        if only and name not in only:
            continue
        warm_seconds = _best_of(fn, 1)  # one warm-up: imports, caches
        extra = 0.6 * warm_seconds if name == inject_slowdown else 0.0
        runs = max(repeats, math.ceil(MIN_MEASURED_SECONDS / warm_seconds))
        seconds_by_metric[name] = _best_of(fn, runs, extra=extra)
        calibrations.append(_best_of(_calibration_workload, repeats))
    metrics = {}
    for i, (name, seconds) in enumerate(seconds_by_metric.items()):
        calibration = (calibrations[i] + calibrations[i + 1]) / 2
        metrics[name] = {
            "seconds": round(seconds, 4),
            "units": round(seconds / calibration, 4),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "calibration_seconds": round(statistics.median(calibrations), 4),
        "calibrations": [round(c, 4) for c in calibrations],
        "repeats": repeats,
        "metrics": metrics,
    }


def check_against_baseline(
    current: Dict, baseline: Dict, threshold: float
) -> int:
    """Print a comparison table; return the number of regressions."""
    regressions = 0
    print(f"{'metric':18s} {'baseline':>9s} {'current':>9s} {'ratio':>7s}")
    for name, entry in current["metrics"].items():
        base = baseline.get("metrics", {}).get(name)
        if base is None:
            print(f"{name:18s} {'—':>9s} {entry['units']:>9.3f}   (new metric)")
            continue
        ratio = entry["units"] / base["units"]
        flag = ""
        if ratio > 1.0 + threshold:
            flag = f"  REGRESSION (> {1.0 + threshold:.2f}x)"
            regressions += 1
        print(
            f"{name:18s} {base['units']:>9.3f} {entry['units']:>9.3f} "
            f"{ratio:>6.2f}x{flag}"
        )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default="BENCH_ci.json", help="trajectory point to write"
    )
    parser.add_argument(
        "--baseline", default=None, help="committed baseline JSON to compare"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when a metric regresses past the threshold",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional slowdown (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=DEFAULT_REPEATS,
        help="best-of-N runs (more for metrics shorter than "
        f"{MIN_MEASURED_SECONDS:g} s)",
    )
    parser.add_argument(
        "--inject-slowdown",
        choices=sorted(METRICS),
        default=None,
        help="artificially slow one metric (gate self-test only)",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(METRICS),
        default=None,
        metavar="METRIC",
        help="measure only this metric (repeatable)",
    )
    args = parser.parse_args(argv)

    current = run_gate(
        args.repeats, inject_slowdown=args.inject_slowdown, only=args.only
    )
    with open(args.output, "w") as handle:
        json.dump(current, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    for name, entry in current["metrics"].items():
        print(f"  {name:18s} {entry['seconds']:>8.3f}s  {entry['units']:.3f} units")

    if args.baseline is None:
        return 0
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    regressions = check_against_baseline(current, baseline, args.threshold)
    if regressions and args.check:
        print(f"bench gate: {regressions} metric(s) regressed", file=sys.stderr)
        return 1
    print("bench gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
