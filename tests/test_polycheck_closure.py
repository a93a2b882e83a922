"""The trace checker's bit-set closure against its vector-clock reference.

``repro.memodel.polycheck`` keeps the must-happen-before relation as
one reflexive down-set and up-set per event (Python ints) and searches
``(done mask, memory)`` states.  The functions below are the
vector-clock closure and the ``(pcs, memory)`` searches it replaced,
kept verbatim as a test-only reference: one clock per event holding,
per thread, how many of that thread's events must happen before-or-at
it, relaxed forward along program order and the added edges.

Two independent checks compare them on random small programs (one to
four threads, shared locations ``x``/``y``/``z``, repeated store values
so reads-from is often ambiguous) with traces taken from a random SC
interleaving, some perturbed afterwards:

* for every ordered event pair, ``a`` must happen before ``b`` in the
  bit-set closure iff the reference clocks say so, and both closures
  reject with the same reason when either does (also on harvested and
  perturbed traces of long fuzz programs, where many edges meet);
* every :class:`~repro.memodel.polycheck.TraceVerdict` field of
  ``check_trace`` under ``"sc"`` and ``"tso"`` equals the reference's.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.litmus.test import MemOp, fence, load, store
from repro.memodel import polycheck
from repro.memodel.polycheck import Trace, TraceVerdict, check_trace

_INIT = -1


# ---------------------------------------------------------------------------
# the vector-clock reference
# ---------------------------------------------------------------------------


class _Rejected(Exception):
    pass


@dataclass
class _Event:
    eid: int
    thread: int
    pos: int
    op: MemOp
    value: Optional[int] = None
    rf: Optional[int] = None


@dataclass
class _Analysis:
    events: List[_Event] = field(default_factory=list)
    by_thread: List[List[_Event]] = field(default_factory=list)
    stores_to: Dict[str, List[_Event]] = field(default_factory=dict)
    loads: List[_Event] = field(default_factory=list)
    initial: Dict[str, int] = field(default_factory=dict)
    final: Dict[str, int] = field(default_factory=dict)
    clocks: List[List[int]] = field(default_factory=list)
    succ: Dict[int, set] = field(default_factory=dict)


def _build_analysis(trace: Trace) -> _Analysis:
    ana = _Analysis()
    load_values = dict(trace.load_values)
    ana.final = dict(trace.final_memory)
    addresses: List[str] = []
    for thread in trace.threads:
        for op in thread:
            if op.addr is not None and op.addr not in addresses:
                addresses.append(op.addr)
    ana.initial = {addr: 0 for addr in addresses}
    ana.initial.update(dict(trace.initial_memory))
    for tid, thread in enumerate(trace.threads):
        row: List[_Event] = []
        for pos, op in enumerate(thread):
            event = _Event(eid=len(ana.events), thread=tid, pos=pos, op=op)
            if op.is_store:
                event.value = op.value
                ana.stores_to.setdefault(op.addr, []).append(event)
            elif op.is_load:
                if op.out not in load_values:
                    raise ReproError(
                        f"trace is incomplete: no observed value for "
                        f"load register {op.out!r}"
                    )
                event.value = load_values[op.out]
                ana.loads.append(event)
            ana.events.append(event)
            row.append(event)
        ana.by_thread.append(row)
    for addr in addresses:
        if addr not in ana.final:
            raise ReproError(
                f"trace is incomplete: no final value for location {addr!r}"
            )
    return ana


def _value_feasibility(ana: _Analysis) -> None:
    for event in ana.loads:
        addr, value = event.op.addr, event.value
        candidates = [
            s.eid for s in ana.stores_to.get(addr, []) if s.value == value
        ]
        if value == ana.initial[addr]:
            candidates.append(_INIT)
        if not candidates:
            raise _Rejected(
                f"load {event.op.out} observed [{addr}] = {value}, "
                f"which no store writes and is not the initial value"
            )
        if len(candidates) == 1:
            event.rf = candidates[0]
    for addr, final_value in ana.final.items():
        stores = ana.stores_to.get(addr, [])
        if stores:
            if not any(s.value == final_value for s in stores):
                raise _Rejected(
                    f"final [{addr}] = {final_value} matches no store to "
                    f"{addr} (a store was lost or corrupted)"
                )
        elif final_value != ana.initial[addr]:
            raise _Rejected(
                f"final [{addr}] = {final_value} but {addr} is never "
                f"stored (initial value {ana.initial[addr]})"
            )


def _init_clocks(ana: _Analysis) -> None:
    num_threads = len(ana.by_thread)
    ana.clocks = [[0] * num_threads for _ in ana.events]
    for row in ana.by_thread:
        prev: Optional[_Event] = None
        for event in row:
            clock = ana.clocks[event.eid]
            if prev is not None:
                for t, v in enumerate(ana.clocks[prev.eid]):
                    clock[t] = v
            clock[event.thread] = event.pos + 1


def _hb(ana: _Analysis, a: _Event, b: _Event) -> bool:
    return ana.clocks[b.eid][a.thread] >= a.pos + 1


def _add_edge(ana: _Analysis, a: _Event, b: _Event) -> bool:
    if a.eid == b.eid or _hb(ana, a, b):
        return False
    if _hb(ana, b, a):
        raise _Rejected(
            f"ordering cycle: {b.op} (T{b.thread}) must precede "
            f"{a.op} (T{a.thread}) and vice versa"
        )
    ana.succ.setdefault(a.eid, set()).add(b.eid)
    worklist = [(a.eid, b.eid)]
    while worklist:
        src, dst = worklist.pop()
        src_clock = ana.clocks[src]
        dst_clock = ana.clocks[dst]
        changed = False
        for t, v in enumerate(src_clock):
            if v > dst_clock[t]:
                dst_clock[t] = v
                changed = True
        if not changed:
            continue
        event = ana.events[dst]
        if dst_clock[event.thread] > event.pos + 1:
            raise _Rejected(
                f"ordering cycle through {event.op} (T{event.thread})"
            )
        row = ana.by_thread[event.thread]
        if event.pos + 1 < len(row):
            worklist.append((dst, row[event.pos + 1].eid))
        for nxt in ana.succ.get(dst, ()):
            worklist.append((dst, nxt))
    return True


def _closure(ana: _Analysis) -> None:
    _init_clocks(ana)
    for load_event in ana.loads:
        if load_event.rf is None:
            continue
        stores = ana.stores_to.get(load_event.op.addr, [])
        if load_event.rf == _INIT:
            for s in stores:
                _add_edge(ana, load_event, s)
        else:
            _add_edge(ana, ana.events[load_event.rf], load_event)
    for addr, final_value in ana.final.items():
        stores = ana.stores_to.get(addr, [])
        finals = [s for s in stores if s.value == final_value]
        if stores and len(finals) == 1:
            last = finals[0]
            for s in stores:
                _add_edge(ana, s, last)
    changed = True
    while changed:
        changed = False
        for load_event in ana.loads:
            if load_event.rf is None or load_event.rf == _INIT:
                continue
            writer = ana.events[load_event.rf]
            for s2 in ana.stores_to.get(load_event.op.addr, []):
                if s2.eid == writer.eid:
                    continue
                if _hb(ana, s2, load_event) and _add_edge(ana, s2, writer):
                    changed = True
                if _hb(ana, writer, s2) and _add_edge(ana, load_event, s2):
                    changed = True


def _search_sc(ana: _Analysis, max_states: int) -> int:
    addr_index = {addr: i for i, addr in enumerate(sorted(ana.initial))}
    init_mem = tuple(ana.initial[addr] for addr in sorted(ana.initial))
    final_mem = tuple(ana.final[addr] for addr in sorted(ana.initial))
    total = tuple(len(row) for row in ana.by_thread)
    start = (tuple(0 for _ in ana.by_thread), init_mem)
    seen = {start}
    stack = [start]
    while stack:
        pcs, mem = stack.pop()
        if pcs == total:
            if mem == final_mem:
                return len(seen)
            continue
        for tid, pc in enumerate(pcs):
            if pc >= total[tid]:
                continue
            event = ana.by_thread[tid][pc]
            clock = ana.clocks[event.eid]
            if any(pcs[u] < clock[u] for u in range(len(pcs)) if u != tid):
                continue
            op = event.op
            new_mem = mem
            if op.is_store:
                idx = addr_index[op.addr]
                new_mem = mem[:idx] + (op.value,) + mem[idx + 1 :]
            elif op.is_load:
                if mem[addr_index[op.addr]] != event.value:
                    continue
            state = (pcs[:tid] + (pc + 1,) + pcs[tid + 1 :], new_mem)
            if state not in seen:
                if len(seen) >= max_states:
                    raise ReproError(
                        f"polycheck: witness search exceeded "
                        f"{max_states} states"
                    )
                seen.add(state)
                stack.append(state)
    raise _Rejected("no SC interleaving reproduces the observed values")


def _search_tso(ana: _Analysis, max_states: int) -> int:
    addrs = sorted(ana.initial)
    addr_index = {addr: i for i, addr in enumerate(addrs)}
    init_mem = tuple(ana.initial[addr] for addr in addrs)
    final_mem = tuple(ana.final[addr] for addr in addrs)
    total = tuple(len(row) for row in ana.by_thread)
    empty = tuple(() for _ in ana.by_thread)
    start = (tuple(0 for _ in ana.by_thread), empty, init_mem)
    seen = {start}
    stack = [start]
    while stack:
        pcs, buffers, mem = stack.pop()
        if pcs == total and all(not b for b in buffers):
            if mem == final_mem:
                return len(seen)
            continue
        successors = []
        for tid, pc in enumerate(pcs):
            buffer = buffers[tid]
            if buffer:
                idx, value = buffer[0]
                new_mem = mem[:idx] + (value,) + mem[idx + 1 :]
                successors.append(
                    (pcs, buffers[:tid] + (buffer[1:],) + buffers[tid + 1 :],
                     new_mem)
                )
            if pc >= total[tid]:
                continue
            event = ana.by_thread[tid][pc]
            op = event.op
            new_pcs = pcs[:tid] + (pc + 1,) + pcs[tid + 1 :]
            if op.is_store:
                entry = (addr_index[op.addr], op.value)
                successors.append(
                    (new_pcs,
                     buffers[:tid] + (buffer + (entry,),) + buffers[tid + 1 :],
                     mem)
                )
            elif op.is_fence:
                if not buffer:
                    successors.append((new_pcs, buffers, mem))
            else:
                idx = addr_index[op.addr]
                value = mem[idx]
                for buf_idx, buf_value in buffer:
                    if buf_idx == idx:
                        value = buf_value
                if value == event.value:
                    successors.append((new_pcs, buffers, mem))
        for state in successors:
            if state not in seen:
                if len(seen) >= max_states:
                    raise ReproError(
                        f"polycheck: witness search exceeded "
                        f"{max_states} states"
                    )
                seen.add(state)
                stack.append(state)
    raise _Rejected(
        "no TSO store-buffer execution reproduces the observed values"
    )


def reference_check_trace(
    trace: Trace, model: str = "sc", max_states: int = 200_000
) -> TraceVerdict:
    """``check_trace`` on vector clocks and ``(pcs, memory)`` states."""
    ana = _build_analysis(trace)
    verdict = TraceVerdict(conformant=True, model=model, events=len(ana.events))
    try:
        _value_feasibility(ana)
        if model == "sc":
            _closure(ana)
            verdict.search_states = _search_sc(ana, max_states)
        else:
            verdict.search_states = _search_tso(ana, max_states)
    except _Rejected as rejected:
        verdict.conformant = False
        verdict.reason = str(rejected)
        verdict.closure_rejected = verdict.search_states == 0
    return verdict


# ---------------------------------------------------------------------------
# random programs and traces
# ---------------------------------------------------------------------------

_ADDRS = ("x", "y", "z")


def _random_trace(rng: random.Random) -> Trace:
    """A random program of one to four threads, run along one random SC
    interleaving; then, half the time, one to three load values or
    final memory cells changed to another small value."""
    threads, reg = [], 0
    for _ in range(rng.randint(1, 4)):
        ops = []
        for _ in range(rng.randint(1, 5)):
            roll = rng.random()
            addr = rng.choice(_ADDRS)
            if roll < 0.45:
                ops.append(store(addr, rng.randint(1, 3)))
            elif roll < 0.9:
                reg += 1
                ops.append(load(addr, f"r{reg}"))
            else:
                ops.append(fence())
        threads.append(ops)
    initial = {addr: rng.choice((0, 0, 2)) for addr in _ADDRS if rng.random() < 0.3}
    memory = {addr: initial.get(addr, 0) for addr in _ADDRS}
    regs: Dict[str, int] = {}
    pcs = [0] * len(threads)
    while any(pc < len(t) for pc, t in zip(pcs, threads)):
        tid = rng.choice([i for i, t in enumerate(threads) if pcs[i] < len(t)])
        op = threads[tid][pcs[tid]]
        pcs[tid] += 1
        if op.is_store:
            memory[op.addr] = op.value
        elif op.is_load:
            regs[op.out] = memory[op.addr]
    used = {op.addr for t in threads for op in t if op.addr is not None}
    final = {addr: memory[addr] for addr in sorted(used | set(initial))}
    if rng.random() < 0.5:
        cells: List[Tuple[Dict[str, int], str]] = [(regs, r) for r in sorted(regs)]
        cells += [(final, addr) for addr in sorted(final)]
        for target, key in rng.sample(cells, min(len(cells), rng.randint(1, 3))):
            target[key] = rng.choice([v for v in range(4) if v != target[key]])
    return Trace.of(threads, regs, final, initial)


def _reference_relation(trace: Trace):
    """The reference's closure: ``(clocks analysis, None)`` or
    ``(None, reason)`` when layer 1 or 2 rejects."""
    ana = _build_analysis(trace)
    try:
        _value_feasibility(ana)
        _closure(ana)
    except _Rejected as rejected:
        return None, str(rejected)
    return ana, None


def _bitset_relation(trace: Trace):
    """The bit-set closure: ``(down-sets, None)`` or ``(None, reason)``."""
    program, observed, final = polycheck._analyse(trace)
    try:
        rf = polycheck._value_feasibility(program, observed, final)
        down = polycheck._closure(program, rf, final)
    except polycheck._Rejected as rejected:
        return None, str(rejected)
    return down, None


def _assert_same_relation(trace: Trace) -> None:
    ana, ref_reason = _reference_relation(trace)
    down, reason = _bitset_relation(trace)
    assert reason == ref_reason
    if ana is None:
        return
    for a in ana.events:
        for b in ana.events:
            assert bool(down[b.eid] >> a.eid & 1) == _hb(ana, a, b), (
                f"{a.op} (T{a.thread}) -> {b.op} (T{b.thread})"
            )


class TestClosureDifferential:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_must_happen_before_matches_vector_clocks(self, seed):
        _assert_same_relation(_random_trace(random.Random(seed)))

    def test_long_programs_match_vector_clocks(self):
        # Harvested and perturbed traces of long fuzz programs (two to
        # four threads of 8-16 operations, unique store values): the
        # closure adds many edges per trace, and large sets meet.
        from repro.difftest.generate import FuzzGenerator
        from repro.vscale.trace import harvest_traces

        generator = FuzzGenerator(5, 4, long_programs=True)
        for test in generator.suite(6):
            traces = harvest_traces(test, "fixed", samples=4).traces
            rng = random.Random(f"long:{test.name}")
            for trace in list(traces):
                regs = dict(trace.load_values)
                if not regs:
                    continue
                reg = rng.choice(sorted(regs))
                regs[reg] = rng.choice(
                    [v for v in range(5) if v != regs[reg]]
                )
                traces.append(
                    Trace(trace.threads, tuple(sorted(regs.items())),
                          trace.final_memory, trace.initial_memory)
                )
            for trace in traces:
                _assert_same_relation(trace)
                assert check_trace(trace) == reference_check_trace(trace)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_verdicts_match_reference(self, seed):
        trace = _random_trace(random.Random(seed))
        for model in ("sc", "tso"):
            assert check_trace(trace, model) == reference_check_trace(
                trace, model
            )

    def test_generated_traces_reach_every_layer(self):
        # The generator is only a differential if it exercises every
        # verdict path: conformant traces, and rejections by value
        # feasibility, by a closure cycle and by the search.
        kinds = set()
        for seed in range(400):
            verdict = check_trace(_random_trace(random.Random(seed)))
            if verdict.conformant:
                kinds.add("conformant")
            else:
                kinds.add(verdict.reason.split(" ")[0])
        assert {"conformant", "load", "final", "ordering", "no"} <= kinds

    def test_budget_trips_alike(self):
        trace = next(
            trace
            for trace in map(_random_trace, map(random.Random, range(100)))
            if check_trace(trace).search_states >= 3
        )
        for checker in (check_trace, reference_check_trace):
            try:
                checker(trace, "sc", max_states=2)
            except ReproError as exc:
                assert "exceeded 2 states" in str(exc)
            else:
                raise AssertionError(f"{checker.__name__} kept searching")
