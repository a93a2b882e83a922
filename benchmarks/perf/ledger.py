"""Outside-in per-layer ledger: spans around each layer's public calls.

Nothing under ``src/`` is edited.  :meth:`Ledger.install` replaces the
public entry points listed in :data:`TARGETS` with timing wrappers and
:meth:`Ledger.uninstall` puts the originals back.  Spans (name, start,
end, parent, test id) stay in memory; :meth:`Ledger.layer_metrics`
turns them into self times per layer, and :meth:`Ledger.write_trace`
renders them as a Chrome trace.

The reachability graph is built lazily *inside* the cover and property
walks, so every walk span gets a synthetic ``reach.build`` child whose
duration is the walk's delta of the public ``ReachGraph.build_seconds``.
The walk's self time is therefore the walk alone, and graph build is
counted once.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

from repro.litmus.test import LitmusTest

#: The root span: everything in the timed region not claimed by a layer.
ROOT_SPAN = "pass"
#: The benchmark's own host-speed reference loops inside the root span;
#: they are charged to no layer and left out of :meth:`Ledger.wall`.
REFERENCE_SPAN = "bench.reference"

#: ``(module, class or None, function, span name)`` for every wrapped
#: public entry point.  Several entry points may share one span name;
#: nested calls are fine because layers are charged by self time.
TARGETS = (
    ("repro.litmus.suite", None, "paper_suite", "litmus.suite_build"),
    ("repro.core.rtlcheck", "RTLCheck", "__init__", "core.verify"),
    ("repro.core.rtlcheck", "RTLCheck", "verify_suite", "core.verify"),
    ("repro.core.rtlcheck", "RTLCheck", "verify_test", "core.verify"),
    ("repro.core.rtlcheck", "RTLCheck", "generate", "core.generate"),
    ("repro.sva.monitor", "PropertyMonitor", "__init__", "sva.monitor_build"),
    ("repro.verifier.explorer", "InstrumentedExplorer", "cover_assumptions",
     "explorer.cover"),
    ("repro.verifier.explorer", "InstrumentedExplorer", "check_property",
     "explorer.property"),
    ("repro.verifier.engines", "EngineModel", "judge_property", "engines.model"),
    ("repro.verifier.engines", "EngineModel", "cover_hours", "engines.model"),
    ("repro.verifier.engines", "EngineModel", "cover_conclusive", "engines.model"),
    ("repro.cache.keys", None, "verdict_key", "cache.key"),
    ("repro.cache.keys", None, "reach_key", "cache.key"),
    ("repro.cache.keys", None, "monitor_key", "cache.key"),
    ("repro.cache.keys", None, "oracle_key", "cache.key"),
    ("repro.cache.keys", None, "campaign_key", "cache.key"),
    ("repro.cache.store", "VerificationCache", "load_verdict", "cache.load"),
    ("repro.cache.store", "VerificationCache", "load_graph", "cache.load"),
    ("repro.cache.store", "VerificationCache", "load_monitor", "cache.load"),
    ("repro.cache.store", "VerificationCache", "load_oracle", "cache.load"),
    ("repro.cache.store", "VerificationCache", "store_verdict", "cache.store"),
    ("repro.cache.store", "VerificationCache", "store_graph", "cache.store"),
    ("repro.cache.store", "VerificationCache", "store_monitor", "cache.store"),
    ("repro.cache.store", "VerificationCache", "store_oracle", "cache.store"),
    ("repro.cache.store", "VerificationCache", "checkpoint", "cache.checkpoint"),
    ("repro.cache.checkpoint", "CheckpointManifest", "mark_done",
     "cache.checkpoint"),
    ("repro.cache.checkpoint", "CheckpointManifest", "finish", "cache.checkpoint"),
    ("repro.difftest.oracles", None, "operational_verdicts", "oracle.operational"),
    ("repro.difftest.oracles", None, "axiomatic_verdicts", "oracle.axiomatic"),
    ("repro.difftest.oracles", None, "rtl_verdicts", "oracle.rtl"),
    ("repro.difftest.oracles", None, "verifier_verdicts", "oracle.verifier"),
    ("repro.difftest.oracles", None, "trace_verdicts", "oracle.trace"),
    ("repro.vscale.trace", None, "harvest_traces", "trace.harvest"),
    ("repro.memodel.polycheck", None, "check_trace", "polycheck.check"),
    ("repro.difftest.generate", "FuzzGenerator", "suite", "difftest.generate"),
    ("repro.difftest.generate", "FuzzGenerator", "test_at", "difftest.generate"),
    ("repro.difftest.generate", "FuzzGenerator", "mutate", "difftest.generate"),
    # The runner binds these at import time, so they are patched there.
    ("repro.difftest.runner", None, "run_fuzz", "difftest.campaign"),
    ("repro.difftest.runner", None, "evaluate_oracles", "difftest.campaign"),
    ("repro.difftest.runner", None, "cross_check", "difftest.compare"),
)

#: Span names charged as layer self time, in report order (``reach.build``
#: is the synthetic child of each walk).
LAYER_SPANS = (
    "litmus.suite_build",
    "core.generate",
    "core.verify",
    "sva.monitor_build",
    "reach.build",
    "explorer.cover",
    "explorer.property",
    "engines.model",
    "cache.key",
    "cache.load",
    "cache.store",
    "cache.checkpoint",
    "oracle.operational",
    "oracle.axiomatic",
    "oracle.rtl",
    "oracle.verifier",
    "oracle.trace",
    "trace.harvest",
    "polycheck.check",
    "difftest.generate",
    "difftest.compare",
    "difftest.campaign",
)

_WALKS = ("explorer.cover", "explorer.property")


def _test_id(args) -> Optional[str]:
    for arg in args[:2]:
        if isinstance(arg, LitmusTest):
            return arg.name
    return None


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Ledger:
    """In-memory spans and counts for one traced pass."""

    def __init__(self):
        #: ``[name, start, end, parent index or -1, test id or None]``.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    # -- span recording -------------------------------------------------

    def open(self, name: str, test: Optional[str] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if test is None and parent >= 0:
            test = self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, test])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    # -- wrappers -------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS`."""
        if self._saved:
            raise RuntimeError("ledger already installed")
        for module_name, class_name, attr, span in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, attr, original))

    def uninstall(self) -> None:
        """Restore every original entry point."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, span: str, attr: str, fn: Callable) -> Callable:
        ledger = self
        after = _AFTER.get(attr)
        walk = span in _WALKS
        # check_property(self, monitor, budget); cover_assumptions(self, budget)
        monitor_arg = span == "explorer.property"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if walk:
                monitor = args[1] if monitor_arg else None
                before = _walk_state(args[0], monitor)
            index = ledger.open(span, _test_id(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                ledger.close(index)
            if walk:
                ledger._after_walk(index, args[0], monitor, result, before)
            elif after is not None:
                after(ledger, result)
            return result

        return wrapper

    def _after_walk(self, index: int, explorer, monitor, result, before) -> None:
        after = _walk_state(explorer, monitor)
        delta = [a - b for a, b in zip(after, before)]
        seconds, sims, hits, nodes, memo_hits, memo_misses = delta
        self.count("explorer.states_explored", result.states_explored)
        if monitor is not None:
            self.count("explorer.property_transitions", result.transitions)
            self.count("sva.memo_hits", memo_hits)
            self.count("sva.memo_misses", memo_misses)
        graph = getattr(explorer, "graph", None)
        if graph is None:
            return
        start = self.spans[index][1]
        self.spans.append(
            ["reach.build", start, start + seconds, index, self.spans[index][4]]
        )
        # Each expansion simulates every input once (ReachGraph._expand).
        self.count("reach.expansions", sims / len(graph.input_space))
        self.count("reach.sim_transitions", sims)
        self.count("reach.hits", hits)
        self.count("reach.nodes", nodes)

    # -- reports --------------------------------------------------------

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"calls", "total_s", "self_s"}}``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[index]
        return table

    def wall(self) -> float:
        """Duration of the root span without the reference loops."""
        root = next(s for s in self.spans if s[0] == ROOT_SPAN)
        loops = sum(s[2] - s[1] for s in self.spans if s[0] == REFERENCE_SPAN)
        return root[2] - root[1] - loops

    def layer_metrics(self, cache_stats: Dict[str, float]) -> Dict[str, float]:
        """Every per-layer metric of one traced pass except
        ``trace_overhead_frac`` (which needs an untraced pass too)."""
        table = self.self_times()
        metrics = {
            f"{name}_s": table.get(name, {}).get("self_s", 0.0)
            for name in LAYER_SPANS
        }
        metrics["other_s"] = table[ROOT_SPAN]["self_s"]
        c = self.counts
        metrics.update(
            {
                "core.properties": c["core.properties"],
                "sva.monitors": table.get("sva.monitor_build", {}).get("calls", 0),
                "sva.verdict_memo_hit_ratio": _ratio(
                    c["sva.memo_hits"],
                    c["sva.memo_hits"] + c["sva.memo_misses"],
                ),
                "reach.nodes": c["reach.nodes"],
                "reach.sim_transitions": c["reach.sim_transitions"],
                "reach.hit_ratio": _ratio(
                    c["reach.hits"], c["reach.hits"] + c["reach.expansions"]
                ),
                "explorer.property_transitions": c["explorer.property_transitions"],
                "explorer.property_transitions_per_s": _ratio(
                    c["explorer.property_transitions"],
                    metrics["explorer.property_s"],
                ),
                "explorer.states_explored": c["explorer.states_explored"],
                "engines.modeled_hours": c["engines.modeled_hours"],
                "cache.bytes_read": cache_stats.get("cache.bytes_read", 0),
                "cache.bytes_written": cache_stats.get("cache.bytes_written", 0),
                "cache.verdict_hit_ratio": _ratio(
                    cache_stats.get("cache.verdict.hits", 0),
                    cache_stats.get("cache.verdict.hits", 0)
                    + cache_stats.get("cache.verdict.misses", 0),
                ),
                "rtl.states": c["rtl.states"],
                "trace.samples": c["trace.samples"],
                "trace.undrained_ratio": _ratio(
                    c["trace.undrained"], c["trace.samples"]
                ),
                "polycheck.events": c["polycheck.events"],
                "polycheck.closure_reject_ratio": _ratio(
                    c["polycheck.closure_rejected"], c["polycheck.traces"]
                ),
            }
        )
        return metrics

    def write_trace(self, path: str) -> None:
        """Chrome trace: one track per test id, campaign-level spans on
        the ``pass`` track; timestamps relative to the root span."""
        from repro.obs.export import write_chrome_trace

        origin = min(s[1] for s in self.spans)
        tracks: Dict[str, Dict[str, list]] = {}
        for name, start, end, _, test in self.spans:
            tracks.setdefault(test or ROOT_SPAN, {"events": []})["events"].append(
                {"name": name, "ts": start - origin, "dur": end - start}
            )
        write_chrome_trace(path, tracks)


def _walk_state(explorer, monitor) -> tuple:
    """The public counters a walk moves: graph build seconds, simulated
    transitions, successor-cache hits and nodes, then the monitor's
    verdict-memo hits and misses (zeros where absent)."""
    graph = getattr(explorer, "graph", None)
    graph_state = (0.0, 0, 0, 0)
    if graph is not None:
        graph_state = (
            graph.build_seconds,
            graph.sim_transitions,
            graph.cache_hits,
            graph.num_nodes,
        )
    memo = (0, 0)
    if monitor is not None:
        memo = (monitor.verdict_memo_hits, monitor.verdict_memo_misses)
    return graph_state + memo


def _after_generate(ledger: Ledger, generated) -> None:
    ledger.count(
        "core.properties", len(generated.assumptions) + len(generated.assertions)
    )


def _after_trace_check(ledger: Ledger, verdict) -> None:
    ledger.count("polycheck.traces")
    ledger.count("polycheck.events", verdict.events)
    ledger.count("polycheck.closure_rejected", int(verdict.closure_rejected))


def _after_harvest(ledger: Ledger, harvest) -> None:
    ledger.count("trace.samples", harvest.sampled)
    ledger.count("trace.undrained", harvest.undrained)


#: Count hooks by wrapped function name, run on each call's result.
_AFTER: Dict[str, Callable[[Ledger, Any], None]] = {
    "generate": _after_generate,
    "judge_property": lambda ledger, v: ledger.count(
        "engines.modeled_hours", v.modeled_hours
    ),
    "cover_hours": lambda ledger, hours: ledger.count("engines.modeled_hours", hours),
    "rtl_verdicts": lambda ledger, enum: ledger.count("rtl.states", enum.states),
    "harvest_traces": _after_harvest,
    "check_trace": _after_trace_check,
}
