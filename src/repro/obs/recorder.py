"""Span tracer and metrics recorder (the `repro.obs` substrate).

The pipeline is instrumented with three primitives:

* **spans** — named, nestable timed regions opened with the
  :func:`span` context manager.  A span always measures its duration
  with monotonic clocks (the timing fields on
  :class:`~repro.core.results.TestVerification` are rolled up from
  span durations, so timing is never optional); whether the span is
  *recorded* depends on the installed recorder.
* **counters** — named monotonically-summed integers (cache hits,
  frames simulated, assumption firings, ...).  Counters merge across
  process-pool workers by summation, so suite aggregates equal the sum
  of per-test counters regardless of job count.
* **gauges** — named point-in-time values (graph sizes, NFA state
  counts).  Gauges merge by taking the maximum — summing point-in-time
  values (peak frontier size, graph node counts) across workers would
  fabricate a number no single process ever observed.  Gauges whose
  name ends in ``.last`` instead merge by last-write in merge order,
  for values where "most recent" is the meaningful aggregate.

Two recorders implement the sink:

* :class:`NullRecorder` (the default) drops everything.  Spans still
  time themselves — two ``perf_counter`` calls — but nothing is stored
  and counter/gauge calls are no-ops, so disabled overhead is
  negligible.
* :class:`TraceRecorder` stores finished spans, counters, and gauges.
  Its state round-trips through :meth:`TraceRecorder.to_state` /
  :meth:`TraceRecorder.merge_state` as plain picklable dicts, which is
  how worker processes ship their recordings back to the suite parent.

The current recorder is a per-thread binding manipulated with
:func:`set_recorder` / :func:`use_recorder`; instrumented code reaches
it through the module-level :func:`span` / :func:`count` /
:func:`gauge` helpers or :func:`get_recorder`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional


class Span:
    """One timed region.  ``start`` / ``end`` are ``perf_counter``
    values; :attr:`seconds` is valid once the region has exited."""

    __slots__ = ("name", "args", "start", "end")

    def __init__(self, name: str, args: Dict[str, Any]):
        self.name = name
        self.args = args
        self.start = 0.0
        self.end: Optional[float] = None

    @property
    def seconds(self) -> float:
        if self.end is None:
            return time.perf_counter() - self.start
        return self.end - self.start

    def __repr__(self):
        return f"Span({self.name!r}, {self.seconds:.6f}s)"


class NullRecorder:
    """Recorder that stores nothing (the disabled-observability path)."""

    enabled = False
    #: Attached :class:`~repro.obs.coverage.CoverageMap`, or ``None``.
    #: Collection sites test this attribute, so coverage costs one
    #: attribute read when off.
    coverage = None

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Span]:
        out = Span(name, args)
        out.start = time.perf_counter()
        try:
            yield out
        finally:
            out.end = time.perf_counter()

    def add_span(self, name: str, start: float, seconds: float, **args) -> None:
        pass

    def count(self, name: str, value: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass


class TraceRecorder:
    """Recorder that stores spans, counters, and gauges.

    Finished spans become event dicts ``{"name", "ts", "dur", "args"}``
    with ``ts`` in seconds relative to the recorder's creation and
    ``dur`` in seconds — the exact shape
    :func:`repro.obs.export.chrome_trace` consumes.
    """

    enabled = True

    def __init__(self, coverage=None):
        self.t0 = time.perf_counter()
        self.events: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: Optional :class:`~repro.obs.coverage.CoverageMap`; created
        #: lazily by :meth:`merge_state` when a snapshot carries one.
        self.coverage = coverage
        self._depth = 0

    # -- spans ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Span]:
        out = Span(name, args)
        self._depth += 1
        out.start = time.perf_counter()
        try:
            yield out
        finally:
            out.end = time.perf_counter()
            self._depth -= 1
            self.add_span(name, out.start, out.end - out.start, **args)

    def add_span(self, name: str, start: float, seconds: float, **args) -> None:
        """Record a pre-measured span (``start`` is a ``perf_counter``
        value).  Used for regions whose time is accumulated elsewhere,
        like the lazily-interleaved reachability-graph build."""
        self.events.append(
            {
                "name": name,
                "ts": start - self.t0,
                "dur": seconds,
                "args": dict(args),
            }
        )

    # -- metrics --------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    # -- (de)serialization for process-pool merging ---------------------

    def to_state(self) -> Dict[str, Any]:
        """A plain picklable snapshot of everything recorded."""
        state = {
            "events": list(self.events),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }
        if self.coverage is not None:
            state["coverage"] = self.coverage.to_state()
        return state

    def merge_state(self, state: Mapping[str, Any]) -> None:
        """Fold one :meth:`to_state` snapshot (typically from a worker
        process) into this recorder: counters sum, gauges take the max
        (``.last``-suffixed gauges take the incoming value), coverage
        maps sum per key, spans append."""
        self.events.extend(state.get("events", ()))
        for name, value in state.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in state.get("gauges", {}).items():
            current = self.gauges.get(name)
            if current is None or name.endswith(".last"):
                self.gauges[name] = value
            else:
                self.gauges[name] = max(current, value)
        coverage_state = state.get("coverage")
        if coverage_state:
            if self.coverage is None:
                from repro.obs.coverage import CoverageMap

                self.coverage = CoverageMap()
            self.coverage.merge_state(coverage_state)


class CoverageRecorder(NullRecorder):
    """Coverage-only sink: spans/counters/gauges stay no-ops
    (``enabled`` is False, so instrumented code skips its bookkeeping),
    but collection sites that test ``recorder.coverage`` record into
    the attached map.  This is what keeps ``--coverage`` without
    ``--metrics`` under the observability overhead bar."""

    def __init__(self, coverage=None):
        if coverage is None:
            from repro.obs.coverage import CoverageMap

            coverage = CoverageMap()
        self.coverage = coverage

    def to_state(self) -> Dict[str, Any]:
        return {
            "events": [],
            "counters": {},
            "gauges": {},
            "coverage": self.coverage.to_state(),
        }

    def merge_state(self, state: Mapping[str, Any]) -> None:
        coverage_state = state.get("coverage")
        if coverage_state:
            self.coverage.merge_state(coverage_state)


def merge_states(states: Iterable[Mapping[str, Any]]) -> TraceRecorder:
    """Merge per-test recorder snapshots into one suite-level recorder."""
    merged = TraceRecorder()
    for state in states:
        merged.merge_state(state)
    return merged


# -- the current recorder ---------------------------------------------------

NULL_RECORDER = NullRecorder()


class _Installed(threading.local):
    """The installed recorder, per thread (the job server runs
    campaigns in threads of one process)."""

    recorder: Any = NULL_RECORDER


_installed = _Installed()


def get_recorder():
    """The recorder instrumentation is currently writing to."""
    return _installed.recorder


def set_recorder(recorder) -> Any:
    """Install ``recorder`` (per thread); returns the previous one."""
    previous = _installed.recorder
    _installed.recorder = recorder
    return previous


@contextmanager
def use_recorder(recorder) -> Iterator[Any]:
    """Install ``recorder`` for the duration of a ``with`` block."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


def span(name: str, **args):
    """Open a span on the current recorder (context manager)."""
    return _installed.recorder.span(name, **args)


def count(name: str, value: int = 1) -> None:
    """Bump a counter on the current recorder."""
    _installed.recorder.count(name, value)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the current recorder."""
    _installed.recorder.gauge(name, value)
