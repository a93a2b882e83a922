"""One measured pass of a benchmark workload, run in a fresh process.

``python workloads.py SPEC.json LAUNCHED`` imports the program, notes
when it is ready (the end of set-up), runs one pass as described by the
spec, and writes the pass result as JSON to ``spec["result"]``.
:func:`run_pass` is the same pass in-process, for the harness tests.

A spec is a dict with ``kind`` (``"suite"`` or ``"fuzz"``) and
``cache_dir``; suites may narrow the paper suite with ``only``; fuzz
passes give ``campaign_seed``, ``budget``, ``long_programs`` and
``oracles``; ``trace`` (with an optional ``trace_file``) runs the pass
under the per-layer :class:`~ledger.Ledger`.  ``probe`` stops right
after set-up.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from collections import deque
from pathlib import Path

from repro.cache import VerificationCache
from repro.core.rtlcheck import RTLCheck
from repro.difftest import runner
from repro.difftest.generate import FuzzGenerator
from repro.litmus import suite as litmus_suite

from ledger import REFERENCE_SPAN, ROOT_SPAN, Ledger

GOLDEN = Path(__file__).resolve().parents[2] / "tests/fixtures/golden_verdicts.json"

#: States :func:`reference_loop` visits, and the fixed seconds one loop
#: stands for.  The constant only converts reference loops back to
#: seconds; it moves no spread and no comparison.
REFERENCE_STATES = 15_000
REFERENCE_S = 0.013
#: A reference loop runs at the next progress mark at least this long
#: after the previous one, so short tests share one.
REFERENCE_EVERY_S = 0.25


def _successors(state):
    pc0, pc1, x, y = state
    out = []
    if pc0 < 6:
        out.append((pc0 + 1, pc1, (x + pc0) % 17, y))
    if pc1 < 6:
        out.append((pc0, pc1 + 1, x, (y * 3 + pc1) % 19))
    if x == y:
        out.append((0, pc1, y, x))
    else:
        out.append((pc0, 0, (x * y) % 23, (x + 1) % 13))
    return out


def reference_loop() -> float:
    """Seconds a fixed breadth-first search of a toy two-thread state
    space takes now: the host's speed.  A search of tuple states through
    a dict slows under much the same contention as the verifier's walks
    (README.md, "Host speed and the reference loop")."""
    start = time.perf_counter()
    initial = (0, 0, 0, 0)
    parents = {initial: None}
    frontier = deque([initial])
    while frontier and len(parents) < REFERENCE_STATES:
        state = frontier.popleft()
        for successor in _successors(state):
            if successor not in parents:
                parents[successor] = state
                frontier.append(successor)
    return time.perf_counter() - start


def results_digest(payload) -> str:
    """Digest of a pass's outputs with every timing field removed, so
    traced and untraced passes of one input must agree exactly."""
    blob = json.dumps(_strip_timing(payload), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _strip_timing(value):
    if isinstance(value, dict):
        return {
            k: _strip_timing(v)
            for k, v in value.items()
            if not k.endswith("seconds") and k not in ("counters", "gauges")
        }
    if isinstance(value, (list, tuple)):
        return [_strip_timing(v) for v in value]
    return value


class _Timed:
    """The timed region of a pass, cut into segments by reference loops.

    The host's speed drifts by tens of percent over seconds to minutes
    (README.md, "Host speed").  So the region is split at progress marks into
    segments, a reference loop runs between segments and at both ends,
    and each segment is rescaled by the mean of the two loops around it:
    ``norm_wall`` is the region's length at reference speed.  ``wall``
    is its plain length.  Neither includes the reference loops.

    Traced, the region is the ledger's root span and each reference loop
    its own span, so no layer is charged for one; the wrappers come off
    as soon as the region ends, so output checks after it are not
    charged to any layer either."""

    def __init__(self, ledger):
        self.ledger = ledger
        self.segments = []
        self.references = []

    def __enter__(self):
        self.references.append(reference_loop())
        if self.ledger:
            self.root = self.ledger.open(ROOT_SPAN)
        self.last = time.perf_counter()
        return self

    def mark(self, *_progress_args):
        """End the current segment if it is long enough."""
        now = time.perf_counter()
        if now - self.last < REFERENCE_EVERY_S:
            return
        self.segments.append(now - self.last)
        if self.ledger:
            span = self.ledger.open(REFERENCE_SPAN)
        self.references.append(reference_loop())
        if self.ledger:
            self.ledger.close(span)
        self.last = time.perf_counter()

    def __exit__(self, *exc_info):
        self.segments.append(time.perf_counter() - self.last)
        if self.ledger:
            self.ledger.close(self.root)
            self.ledger.uninstall()
        self.references.append(reference_loop())
        self.wall = sum(self.segments)
        refs = self.references
        self.norm_wall = sum(
            seconds * 2 * REFERENCE_S / (refs[i] + refs[i + 1])
            for i, seconds in enumerate(self.segments)
        )
        return False


def _suite_pass(spec: dict, ledger) -> dict:
    cache = VerificationCache(spec["cache_dir"])
    only = spec.get("only")
    tests, done = [], []
    error = None

    def progress(result):
        done.append(result)
        timed.mark()

    with _Timed(ledger) as timed:
        try:
            tests = litmus_suite.paper_suite()
            if only:
                tests = [t for t in tests if t.name in only]
            timed.mark()
            RTLCheck(cache=cache).verify_suite(tests, "fixed", progress=progress)
        except Exception as exc:  # a raising test is a counted failure
            error = f"{type(exc).__name__}: {exc}"

    golden = {t["test"]: t for t in json.loads(GOLDEN.read_text())["tests"]}
    failures = []
    for result in done:
        want = golden.get(result.test.name, {})
        got = [result.bug_found, result.verified_by_cover]
        if got != [
            want.get("verifier_fixed_bug_found"),
            want.get("verifier_fixed_verified_by_cover"),
        ]:
            failures.append({"test": result.test.name, "reason": f"verdict {got}"})
    if error:
        failures += [{"test": t.name, "reason": error} for t in tests[len(done):]]
        failures = failures or [{"test": "*", "reason": error}]
    return {
        "timed": timed,
        "tests": len(tests),
        "failures": failures,
        "digest": results_digest([r.to_dict() for r in done]),
        "cache_stats": cache.stats.snapshot(),
    }


def _fuzz_pass(spec: dict, ledger) -> dict:
    config = runner.FuzzConfig(
        seed=spec["campaign_seed"],
        budget=spec["budget"],
        long_programs=spec.get("long_programs", False),
        cache_dir=spec["cache_dir"],
        **({"oracles": tuple(spec["oracles"])} if spec.get("oracles") else {}),
    )
    with _Timed(ledger) as timed:
        result = runner.run_fuzz(config, progress=timed.mark)

    failures = [
        {"test": e.test.name, "reason": e.discrepancy.kind}
        for e in result.discrepancies
    ] + [{"test": e["test"], "reason": e["error"]} for e in result.oracle_errors]
    # The campaign summaries carry no walk counts, so the verifier's
    # full results are re-read from the campaign's verdict cache (one
    # hit per test, after the timed region) for the digest.
    verified = [
        test
        for test in FuzzGenerator(
            config.seed, config.max_procs, config.long_programs
        ).suite(config.budget)
        if (result.verdicts.get(test.name) or {}).get("verifier") is not None
    ]
    reread = VerificationCache(config.cache_dir)
    checker = RTLCheck(cache=reread)
    verifier = [
        checker.verify_test(t, config.memory_variant).to_dict() for t in verified
    ]
    if reread.stats.get("cache.verdict.hits") != len(verified):
        failures.append({"test": "*", "reason": "verdict re-read missed the cache"})
    payload = {
        "tests_run": result.tests_run,
        "verdicts": result.verdicts,
        "discrepancies": [e.to_dict() for e in result.discrepancies],
        "oracle_errors": result.oracle_errors,
        "skipped": result.skipped,
        "tally": result.verdict_tally,
        "verifier": verifier,
    }
    return {
        "timed": timed,
        "tests": config.budget,
        "failures": failures,
        "digest": results_digest(payload),
        "cache_stats": result.cache_stats,
    }


def run_pass(spec: dict) -> dict:
    """Run one pass in this process; see the module docstring."""
    ledger = Ledger() if spec.get("trace") else None
    if ledger:
        ledger.install()
    try:
        body = _suite_pass if spec["kind"] == "suite" else _fuzz_pass
        out = body(spec, ledger)
    finally:
        if ledger:
            ledger.uninstall()
    timed = out.pop("timed")
    out["wall_s"] = timed.wall
    out["norm_wall_s"] = timed.norm_wall
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if ledger:
        out["traced_wall_s"] = ledger.wall()
        out["self_times"] = ledger.self_times()
        out["layers"] = ledger.layer_metrics(out["cache_stats"])
        if spec.get("trace_file"):
            ledger.write_trace(spec["trace_file"])
    return out


def main(argv) -> int:
    """``argv``: the spec path, then the ``time.monotonic()`` at which
    the parent launched this process (one clock for all processes)."""
    spec = json.loads(Path(argv[1]).read_text())
    Path(spec["cache_dir"]).mkdir(parents=True, exist_ok=True)
    setup = time.monotonic() - float(argv[2])
    # Set-up at reference speed, by the loop right after it.
    setup_at_reference = setup * REFERENCE_S / reference_loop()
    out = {} if spec.get("probe") else run_pass(spec)
    out["plain_setup_s"] = setup
    out["setup_s"] = setup_at_reference
    Path(spec["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
