"""The one executor every campaign fans its units out through.

A *unit* is one independent piece of campaign work (one test of a suite
or a fuzz campaign), named by a string and run as ``fn(*args)``.
``verify_suite``, ``run_fuzz`` and the job server all use
:class:`Executor`, the only code in the package that builds a process
pool.  Units run in-process with one worker, else on a lazily created
``spawn`` pool (never fork: the job server dispatches while client
sockets are open, and a forked worker would inherit them).  A unit that
raises or loses its worker is retried; one out of retries becomes a
:class:`UnitFailure` and is never marked done in the checkpoint
journal.  A dead worker breaks the whole pool, so the units in flight
are retried one at a time on a fresh pool: a unit that kills its worker
again is charged alone.  One executor may be shared by several threads
(the job server's jobs); its in-process units then run one at a time,
so ``jobs`` bounds the total worker count either way.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Retries per unit; the job server's ``--retries`` is the only setter.
DEFAULT_RETRIES = 1

#: Fault injection for the failure-contract tests: comma-separated
#: ``<unit>[:raise|:exit][:<path>]`` entries.  The named unit raises
#: (``raise``, the default) or kills its worker with ``os._exit``
#: (``exit``; in-process, where that would end the campaign, it raises
#: instead).  With a ``<path>`` the fault fires only while that file
#: exists, unlinking it first — once.
FAULT_ENV = "REPRO_FAULT_INJECT"


@dataclass(frozen=True)
class UnitFailure:
    """A unit that ran out of retries: its name and last error."""

    unit: str
    error: str

    def to_dict(self) -> Dict[str, Any]:
        return {"test": self.unit, "crashed": True, "error": self.error}


def _call(fn: Callable[..., Any], name: str, args: Tuple, in_worker: bool):
    """Run one unit (module-level, so pool workers can unpickle it)."""
    for entry in filter(None, os.environ.get(FAULT_ENV, "").split(",")):
        target, _, rest = entry.partition(":")
        action, _, path = rest.partition(":")
        if action not in ("raise", "exit"):
            action, path = "raise", rest
        if target != name or (path and not os.path.exists(path)):
            continue
        if path:
            os.unlink(path)
        if action == "exit" and in_worker:
            os._exit(70)
        raise RuntimeError(f"injected fault ({action}) on unit {name!r}")
    return fn(*args)


class Executor:
    """Runs units in-process (one worker) or on a spawn pool, with
    bounded retry and the :class:`UnitFailure` contract.  ``counters``
    is what the job server's ``/v1/stats`` reports."""

    def __init__(self, jobs: int = 1, retries: int = DEFAULT_RETRIES):
        if jobs < 1 or retries < 0:
            raise ReproError(
                f"jobs must be >= 1 and retries >= 0, got {jobs}, {retries}"
            )
        self.jobs = jobs
        self.retries = retries
        self.counters = dict.fromkeys(
            ("pools_spawned", "units_dispatched", "unit_retries", "pools_broken"), 0
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._lock = threading.Lock()
        self._inline = threading.Lock()

    def run(
        self,
        fn: Callable[..., Any],
        units: Sequence[Tuple[str, Tuple]],
        lookup: Optional[Callable[[str], Any]] = None,
        progress: Optional[Callable[[str, Any, bool], None]] = None,
        journal=None,
    ) -> List[Any]:
        """Run every ``(name, args)`` unit as ``fn(*args)``; returns the
        results in unit order.  ``lookup(name)`` may answer a unit
        parent-side (the verdict-cache prefetch); each finished unit is
        reported as ``progress(name, result, cached)`` in completion
        order and, unless it failed, marked done in ``journal``."""
        results: List[Any] = [None] * len(units)

        def finish(index: int, value: Any, cached: bool = False) -> None:
            results[index] = value
            name = units[index][0]
            if journal is not None and not isinstance(value, UnitFailure):
                journal.mark_done(name)
            if progress is not None:
                progress(name, value, cached)

        todo = []
        for index, (name, _args) in enumerate(units):
            hit = None if lookup is None else lookup(name)
            if hit is None:
                todo.append(index)
            else:
                finish(index, hit, cached=True)
        pooled = self.jobs > 1 and len(todo) > 1
        (self._run_pool if pooled else self._run_inline)(fn, units, todo, finish)
        return results

    def _dispatched(self, attempt: int) -> None:
        with self._lock:
            if self._closed:
                raise ReproError("executor shut down")
            self.counters["units_dispatched"] += 1
            self.counters["unit_retries"] += attempt > 0

    def _run_inline(self, fn, units, todo, finish) -> None:
        for index in todo:
            name, args = units[index]
            for attempt in range(self.retries + 1):
                self._dispatched(attempt)
                try:
                    with self._inline:
                        value = _call(fn, name, args, False)
                    break
                except Exception as exc:
                    error = exc
            else:
                value = _failure(name, self.retries + 1, error)
            finish(index, value)

    def _run_pool(self, fn, units, todo, finish) -> None:
        attempts = dict.fromkeys(todo, 0)
        raised: Dict[int, BaseException] = {}  # a unit's own last error
        queue, alone = deque(todo), deque()  # alone: pool-break victims
        inflight: Dict[Any, Tuple[int, ProcessPoolExecutor]] = {}
        while queue or alone or inflight:
            while (alone and not inflight) or (
                queue and not alone and len(inflight) < 2 * self.jobs
            ):
                index = (alone or queue).popleft()
                self._dispatched(attempts[index])
                inflight.update(self._submit(fn, *units[index], index))
            done, _ = wait(inflight, return_when=FIRST_COMPLETED)
            broken = [f for f in done if _broke(f)]
            if broken:  # a dead worker fails every future of its pool
                wait(inflight)
                done = list(inflight)
                self._discard(inflight[broken[0]][1])
            for future in done:
                index, _pool = inflight.pop(future)
                if future.cancelled():
                    raise ReproError("executor shut down")
                exc = future.exception()
                if exc is None:
                    finish(index, future.result())
                    continue
                if not _broke(future):
                    raised[index] = exc
                if attempts[index] < self.retries:
                    attempts[index] += 1
                    (alone if _broke(future) else queue).appendleft(index)
                else:
                    exc = raised.get(index, exc)
                    failure = _failure(units[index][0], attempts[index] + 1, exc)
                    finish(index, failure)

    def _submit(self, fn, name, args, index):
        pool = self._ensure_pool()
        try:
            future = pool.submit(_call, fn, name, args, True)
        except BrokenProcessPool:  # broke since our last look
            self._discard(pool)
            pool = self._ensure_pool()
            future = pool.submit(_call, fn, name, args, True)
        return {future: (index, pool)}

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise ReproError("executor shut down")
            if self._pool is None:
                _require_main_file()
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=multiprocessing.get_context("spawn"),
                )
                self.counters["pools_spawned"] += 1
            return self._pool

    def _discard(self, pool: ProcessPoolExecutor) -> None:
        """Drop a broken pool (once, whichever thread sees it first)."""
        with self._lock:
            if self._pool is not pool:
                return
            self._pool = None
            self.counters["pools_broken"] += 1
        pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = True) -> None:
        """Release the pool; queued units are cancelled and later runs
        raise."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)


def _require_main_file() -> None:
    """Spawn workers re-import the main module from its file.  A main
    read from stdin (``python -``) names a file that does not exist, so
    every worker would die on start and every unit would fail."""
    main_file = getattr(sys.modules["__main__"], "__file__", None)
    if main_file is not None and not os.path.isfile(main_file):
        raise ReproError(
            f"cannot start worker processes: the main module {main_file!r} "
            "is not a file they can re-import; run the script from a "
            "file, with -c or with -m, or use one job"
        )


def _failure(name: str, attempts: int, exc: BaseException) -> UnitFailure:
    traceback.print_exception(exc)  # the record keeps only the repr
    error = f"unit {name!r} failed after {attempts} attempt(s): {exc!r}"
    return UnitFailure(name, error)


def _broke(future) -> bool:
    return not future.cancelled() and isinstance(
        future.exception(), BrokenProcessPool
    )
