"""Per-execution memory-consistency checking (Roy-et-al. style).

The operational oracles in :mod:`repro.memodel.operational` enumerate
*every* outcome a litmus test can produce — exponential in program
size, and hopeless past a handful of instructions per thread.  This
module answers the complementary question in the style of Roy et al.'s
polynomial-time MCM verification: given **one observed execution** —
per-thread program order, the value each load returned, and the final
memory — is there a witness interleaving (SC) or store-buffer machine
run (x86-TSO) that reproduces it?

The checker is layered, cheapest first:

1. **Value feasibility** — every load's observed value must be written
   by some same-address store (or be the initial value), and every
   location's final value must be the value of some store to it (or
   the initial value when the location is never stored).  O(n) per
   address; this alone rejects the classic V-scale store-dropping bug
   (a lone ``[W x 1]`` ending with ``x = 0`` has no store writing 0).
2. **Happens-before closure** (SC only) — the Roy-et-al. frontier
   construction: fixed reads-from edges (loads whose observed value
   identifies a unique writer) and unique final writers induce
   coherence orderings (for a load ``l`` reading store ``s``: any
   same-address store ordered before ``l`` must be before ``s``, and
   any ordered after ``s`` must be after ``l``) until fixpoint, and any
   cycle is a sound rejection.  The relation stays transitively closed
   on bit sets, one Python int per event: a down-set (every event
   ordered before-or-at it) and an up-set.  ``a -> b`` is one bit test;
   adding it ORs ``a``'s down-set into each event of ``b``'s up-set and
   back.  The rules mask those sets to find their candidate stores.
3. **Witness search** — an exact memoized frontier search over
   ``(done events, memory)`` (SC) or ``(pcs, store buffers, memory)``
   (TSO) states, pruned by the observed load values and, under SC, by
   the closure: an event is enabled once its down-set, less itself, is
   done.  Deciding per-execution SC with ambiguous reads-from is
   NP-complete in general, so the search carries a state budget
   (:data:`DEFAULT_POLYCHECK_STATES`) and raises
   :class:`~repro.errors.ReproError` when it trips — fuzz campaigns
   record the refusal instead of mislabeling the trace.

What depends only on the program (events, store masks, program-order
bit sets, the operation table) is built once per program, not per trace.

On the fuzzer's long-program mode, store values are unique per
location, so every read and the final writer are unambiguous: the
closure orders every store a load or the final memory observes, and
the search walks about two states per event.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ReproError
from repro.litmus.test import LitmusTest, MemOp
from repro.memodel.operational import FinalState

#: Witness-search state budget (matches the RTL enumeration default).
DEFAULT_POLYCHECK_STATES = 200_000

#: Sentinel writer id for "the initial value".
_INIT = -1


@dataclass(frozen=True)
class Trace:
    """One observed execution of a litmus program.

    ``load_values`` maps each load's output register to the value the
    load returned; ``final_memory`` carries the post-run value of
    *every* shared location.  Both are stored as sorted tuples so a
    trace is hashable and digests deterministically.
    """

    threads: Tuple[Tuple[MemOp, ...], ...]
    load_values: Tuple[Tuple[str, int], ...]
    final_memory: Tuple[Tuple[str, int], ...]
    initial_memory: Tuple[Tuple[str, int], ...] = ()

    @staticmethod
    def of(
        threads: Sequence[Sequence[MemOp]],
        load_values: Dict[str, int],
        final_memory: Dict[str, int],
        initial_memory: Optional[Dict[str, int]] = None,
    ) -> "Trace":
        return Trace(
            threads=tuple(tuple(t) for t in threads),
            load_values=tuple(sorted(load_values.items())),
            final_memory=tuple(sorted(final_memory.items())),
            initial_memory=tuple(sorted((initial_memory or {}).items())),
        )

    @staticmethod
    def from_outcome(test: LitmusTest, outcome: FinalState) -> "Trace":
        """Lift an enumerated :data:`FinalState` of ``test`` into a
        trace — the bridge for cross-checking polycheck against the
        exhaustive oracles."""
        regs, memory = outcome
        return Trace.of(
            test.threads, dict(regs), dict(memory), test.initial_memory_map
        )

    @property
    def outcome(self) -> FinalState:
        """The trace's architectural outcome in oracle shape."""
        return (self.load_values, self.final_memory)

    def event_count(self) -> int:
        return sum(len(t) for t in self.threads)


@dataclass
class TraceVerdict:
    """Result of :func:`check_trace` on one trace."""

    conformant: bool
    model: str
    reason: str = ""
    events: int = 0
    #: True when no witness search completed: the trace was refuted by
    #: value feasibility, the closure, or a search that found nothing.
    closure_rejected: bool = False
    #: States the witness search visited (0 on closure rejections).
    search_states: int = 0


class _Rejected(Exception):
    """Internal: the trace is refuted; ``args[0]`` is the reason."""


class _Program:
    """Everything :func:`check_trace` needs of a program that does not
    depend on the observed values, built once per program and shared,
    read-only, by its traces.  Events are numbered thread by thread in
    program order, so each thread's events are a contiguous run of
    bits."""

    def __init__(self, threads, initial_memory):
        self.ops = [op for thread in threads for op in thread]
        self.thread_of: List[int] = []
        self.by_thread: List[range] = []
        self.thread_masks: List[int] = []
        #: Program order as reflexive down-sets and up-sets.
        self.po_down: List[int] = []
        self.po_up: List[int] = []
        for tid, thread in enumerate(threads):
            first, last = len(self.thread_of), len(self.thread_of) + len(thread)
            self.thread_of += [tid] * len(thread)
            self.by_thread.append(range(first, last))
            self.thread_masks.append((1 << last) - (1 << first))
            for e in range(first, last):
                self.po_down.append((1 << (e + 1)) - (1 << first))
                self.po_up.append((1 << last) - (1 << e))
        self.loads = [e for e, op in enumerate(self.ops) if op.is_load]
        #: Shared locations in first-seen order, and the initial memory;
        #: ``addrs`` (sorted) is the searches' memory-tuple order.
        self.addresses: List[str] = []
        for op in self.ops:
            if op.addr is not None and op.addr not in self.addresses:
                self.addresses.append(op.addr)
        self.initial = {addr: 0 for addr in self.addresses}
        self.initial.update(dict(initial_memory))
        self.addrs = sorted(self.initial)
        index = {addr: i for i, addr in enumerate(self.addrs)}
        #: Per event: ``(kind, index into addrs, store value)``.
        self.table = [(op.kind, index.get(op.addr), op.value) for op in self.ops]
        #: Per stored location: the mask of its stores, and
        #: ``writers[addr][value]``, the stores writing ``value``.
        self.store_masks: Dict[str, int] = {}
        self.writers: Dict[str, Dict[int, Tuple[int, ...]]] = {}
        for eid, op in enumerate(self.ops):
            if op.is_store:
                mask = self.store_masks.get(op.addr, 0)
                self.store_masks[op.addr] = mask | 1 << eid
                by_value = self.writers.setdefault(op.addr, {})
                by_value[op.value] = by_value.get(op.value, ()) + (eid,)


_program = functools.lru_cache(maxsize=16)(_Program)


def _analyse(trace: Trace) -> Tuple[_Program, List[Optional[int]], Dict[str, int]]:
    """The trace's program, its observed value per load event, and its
    final memory; raises :class:`ReproError` when the trace is
    incomplete."""
    program = _program(trace.threads, trace.initial_memory)
    load_values = dict(trace.load_values)
    observed: List[Optional[int]] = [None] * len(program.ops)
    for eid in program.loads:
        out = program.ops[eid].out
        if out not in load_values:
            raise ReproError(
                f"trace is incomplete: no observed value for "
                f"load register {out!r}"
            )
        observed[eid] = load_values[out]
    final = dict(trace.final_memory)
    for addr in program.addresses:
        if addr not in final:
            raise ReproError(
                f"trace is incomplete: no final value for location {addr!r}"
            )
    return program, observed, final


def _value_feasibility(
    program: _Program, observed: List[Optional[int]], final: Dict[str, int]
) -> List[Optional[int]]:
    """Layer 1: observed values must be producible at all (model-free).
    Returns each load's fixed reads-from writer: a store eid,
    :data:`_INIT`, or ``None`` (ambiguous)."""
    rf: List[Optional[int]] = [None] * len(program.ops)
    for eid in program.loads:
        addr, value = program.ops[eid].addr, observed[eid]
        stores = program.writers.get(addr, {}).get(value, ())
        reads_initial = value == program.initial[addr]
        if not stores and not reads_initial:
            raise _Rejected(
                f"load {program.ops[eid].out} observed [{addr}] = {value}, "
                f"which no store writes and is not the initial value"
            )
        if len(stores) + reads_initial == 1:
            rf[eid] = stores[0] if stores else _INIT
    for addr, final_value in final.items():
        by_value = program.writers.get(addr)
        if by_value:
            if final_value not in by_value:
                raise _Rejected(
                    f"final [{addr}] = {final_value} matches no store to "
                    f"{addr} (a store was lost or corrupted)"
                )
        elif final_value != program.initial[addr]:
            raise _Rejected(
                f"final [{addr}] = {final_value} but {addr} is never "
                f"stored (initial value {program.initial[addr]})"
            )
    return rf


def _bits(mask: int):
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(
    program: _Program, rf: List[Optional[int]], final: Dict[str, int]
) -> List[int]:
    """Layer 2 (SC): fixed-rf coherence inference to fixpoint.  Returns
    the reflexive must-happen-before down-set of every event."""
    down, up = list(program.po_down), list(program.po_up)
    ops, thread_of = program.ops, program.thread_of

    def add_edge(a: int, b: int) -> bool:
        """Record must-edge ``a -> b``; returns True when it is new.
        Raises :class:`_Rejected` when ``b -> a`` already holds.  The
        down- and up-sets stay transitively closed, so that check is
        the only cycle there is to find."""
        if down[b] >> a & 1:
            return False
        if down[a] >> b & 1:
            raise _Rejected(
                f"ordering cycle: {ops[b]} (T{thread_of[b]}) must precede "
                f"{ops[a]} (T{thread_of[a]}) and vice versa"
            )
        # Events already after ``a`` (before ``b``) hold its down-set
        # (up-set) by transitivity; only the others grow.
        before, after = down[a], up[b]
        grow_down, grow_up = after & ~up[a], before & ~down[b]
        while grow_down:
            low = grow_down & -grow_down
            down[low.bit_length() - 1] |= before
            grow_down ^= low
        while grow_up:
            low = grow_up & -grow_up
            up[low.bit_length() - 1] |= after
            grow_up ^= low
        return True

    # Seed edges: fixed reads-from, init-reading loads, unique final
    # writers.  A store already ordered the right way is a no-op, and
    # stays one, so the masks skip it.
    for load in program.loads:
        writer = rf[load]
        if writer is None:
            continue
        if writer == _INIT:
            # Reading the initial value: every store to the location
            # comes after the load.
            stores = program.store_masks.get(ops[load].addr, 0)
            for s in _bits(stores & ~up[load]):
                add_edge(load, s)
        else:
            add_edge(writer, load)
    for addr, final_value in final.items():
        finals = program.writers.get(addr, {}).get(final_value, ())
        if len(finals) == 1:
            last = finals[0]
            for s in _bits(program.store_masks[addr] & ~down[last]):
                add_edge(s, last)

    # Derived rules (Roy et al.): for load l with fixed writer s and
    # same-address store s':  s' -> l  implies  s' -> s;   s -> s'
    # implies  l -> s'.  Stores are visited in event order, each the
    # lowest one above the last for which a rule adds an edge now.
    fixed = [
        (load, rf[load], program.store_masks[ops[load].addr] & ~(1 << rf[load]))
        for load in program.loads
        if rf[load] is not None and rf[load] != _INIT
    ]
    changed = True
    while changed:
        changed = False
        for load, writer, rest in fixed:
            while True:
                pending = rest & (
                    (down[load] & ~down[writer]) | (up[writer] & ~up[load])
                )
                if not pending:
                    break
                low = pending & -pending
                s2 = low.bit_length() - 1
                rest &= ~((low << 1) - 1)
                if down[load] >> s2 & 1 and add_edge(s2, writer):
                    changed = True
                if up[writer] >> s2 & 1 and add_edge(load, s2):
                    changed = True
    return down


def _over_budget(max_states: int) -> ReproError:
    return ReproError(f"polycheck: witness search exceeded {max_states} states")


def _search_sc(
    program: _Program,
    observed: List[Optional[int]],
    final: Dict[str, int],
    down: List[int],
    max_states: int,
) -> int:
    """Layer 3 (SC): memoized frontier search for a witness
    interleaving.  A state is the mask of executed events plus memory;
    each thread's next event is the lowest bit of its mask not yet
    done.  Returns states visited; raises on no-witness or budget."""
    init_mem = tuple(program.initial[addr] for addr in program.addrs)
    final_mem = tuple(final[addr] for addr in program.addrs)
    need = [mask & ~(1 << eid) for eid, mask in enumerate(down)]
    table, thread_masks = program.table, program.thread_masks
    everything = (1 << len(program.ops)) - 1
    start = (0, init_mem)
    seen = {start}
    stack = [start]
    while stack:
        done, mem = stack.pop()
        if done == everything:
            if mem == final_mem:
                return len(seen)
            continue
        todo = ~done
        for thread_mask in thread_masks:
            left = thread_mask & todo
            if not left:
                continue
            low = left & -left
            eid = low.bit_length() - 1
            # Closure prune: every must-predecessor already executed.
            if need[eid] & todo:
                continue
            kind, idx, value = table[eid]
            new_mem = mem
            if kind == "W":
                new_mem = mem[:idx] + (value,) + mem[idx + 1 :]
            elif kind == "R" and mem[idx] != observed[eid]:
                continue
            state = (done | low, new_mem)
            if state not in seen:
                if len(seen) >= max_states:
                    raise _over_budget(max_states)
                seen.add(state)
                stack.append(state)
    raise _Rejected("no SC interleaving reproduces the observed values")


def _search_tso(
    program: _Program,
    observed: List[Optional[int]],
    final: Dict[str, int],
    max_states: int,
) -> int:
    """Layer 3 (TSO): witness search over the store-buffer machine."""
    init_mem = tuple(program.initial[addr] for addr in program.addrs)
    final_mem = tuple(final[addr] for addr in program.addrs)
    total = tuple(len(row) for row in program.by_thread)
    empty = tuple(() for _ in program.by_thread)
    start = (tuple(0 for _ in program.by_thread), empty, init_mem)
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
            if buffer:  # drain the head
                idx, value = buffer[0]
                new_mem = mem[:idx] + (value,) + mem[idx + 1 :]
                drained = buffers[:tid] + (buffer[1:],) + buffers[tid + 1 :]
                successors.append((pcs, drained, new_mem))
            if pc >= total[tid]:
                continue
            eid = program.by_thread[tid][pc]
            kind, idx, value = program.table[eid]
            new_pcs = pcs[:tid] + (pc + 1,) + pcs[tid + 1 :]
            if kind == "W":
                entry = buffer + ((idx, value),)
                pushed = buffers[:tid] + (entry,) + buffers[tid + 1 :]
                successors.append((new_pcs, pushed, mem))
            elif kind == "F":
                if not buffer:
                    successors.append((new_pcs, buffers, mem))
            else:
                value = mem[idx]
                for buf_idx, buf_value in buffer:  # youngest wins
                    if buf_idx == idx:
                        value = buf_value
                if value == observed[eid]:
                    successors.append((new_pcs, buffers, mem))
        for state in successors:
            if state not in seen:
                if len(seen) >= max_states:
                    raise _over_budget(max_states)
                seen.add(state)
                stack.append(state)
    raise _Rejected(
        "no TSO store-buffer execution reproduces the observed values"
    )


def check_trace(
    trace: Trace,
    model: str = "sc",
    max_states: int = DEFAULT_POLYCHECK_STATES,
) -> TraceVerdict:
    """Decide whether ``trace`` is an execution the ``model`` allows.

    Exact on its answer: ``conformant=True`` iff the trace's outcome is
    a member of the model's enumerated outcome set for the same program
    (property-tested in ``tests/test_polycheck.py``).  Raises
    :class:`ReproError` for malformed traces or a tripped search
    budget — never for a mere non-conformance, which is a verdict.
    """
    if model not in ("sc", "tso"):
        raise ReproError(f"unknown model {model!r}; choose 'sc' or 'tso'")
    program, observed, final = _analyse(trace)
    verdict = TraceVerdict(conformant=True, model=model, events=len(program.ops))
    recorder = obs.get_recorder()
    if recorder.enabled:
        recorder.count("polycheck.traces", 1)
        recorder.count("polycheck.events", len(program.ops))
    try:
        rf = _value_feasibility(program, observed, final)
        if model == "sc":
            down = _closure(program, rf, final)
            verdict.search_states = _search_sc(
                program, observed, final, down, max_states
            )
        else:
            verdict.search_states = _search_tso(
                program, observed, final, max_states
            )
    except _Rejected as rejected:
        verdict.conformant = False
        verdict.reason = str(rejected)
        verdict.closure_rejected = verdict.search_states == 0
    return verdict
