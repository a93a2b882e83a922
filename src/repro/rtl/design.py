"""The RTL simulation kernel.

Designs are synchronous, single-clock machines with explicit state.
Each cycle has two phases, the standard simulator discipline:

1. :meth:`Design.eval_comb` — settle all combinational logic for the
   current cycle given the free top-level inputs, and return the cycle's
   *frame*: a flat mapping from hierarchical signal name (for example
   ``core[1].PC_WB``) to integer value.  Generated SVA properties and
   mapping functions refer to signals through these names.
2. :meth:`Design.tick` — commit the next-state values computed during
   ``eval_comb`` (the rising clock edge).

Designs also expose :meth:`Design.snapshot` / :meth:`Design.restore`,
returning hashable states; the property verifier uses these for
explicit-state exploration with deduplication.

A design's state is a flat slot vector (``docs/performance.md``).
Every design declares a static :class:`SlotLayout` and binds it once
through :meth:`Design.enable_array_state`; ``snapshot()`` writes every
slot into a reused buffer and hash-conses the resulting tuple through a
:class:`StateInterner`, so a snapshot is just a dense integer id and
``restore()`` a bulk slot copy.  Multi-V-scale-TSO's store buffers fit
the same scheme: each is capped at ``STORE_BUFFER_CAPACITY`` entries,
so a fixed block holds it with ``-1`` marking empty entries.

:meth:`Design.step_batch` expands *all* free input choices of one state
in a single call; both SoCs share one combinational evaluation across
every choice, since their settled frame does not depend on the
arbiter grant.

Free inputs (for Multi-V-scale: the arbiter's grant select, paper §5.2)
are declared via :meth:`Design.free_inputs`; a formal verifier explores
every combination, a simulator picks one per cycle.
"""

from __future__ import annotations

import itertools
from array import array
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.errors import ReproError, RtlError

#: A settled cycle's signal values.
Frame = Dict[str, int]
#: One assignment of the design's free inputs.
Inputs = Mapping[str, int]


class FreeInput:
    """A nondeterministic top-level input: ``name`` ranges over
    ``0 .. cardinality-1`` each cycle."""

    def __init__(self, name: str, cardinality: int):
        if cardinality < 1:
            raise RtlError(f"free input {name!r} needs cardinality >= 1")
        self.name = name
        self.cardinality = cardinality

    def __repr__(self):
        return f"FreeInput({self.name!r}, {self.cardinality})"


class SlotLayout:
    """A design's static flat-state declaration: named blocks of
    consecutive integer slots.  Built once per design instance; the
    total :attr:`size` fixes the length of every state vector."""

    def __init__(self):
        self._blocks: List[Tuple[str, int, int]] = []
        self._size = 0

    def block(self, name: str, count: int) -> int:
        """Append ``count`` slots named ``name``; returns their base
        index."""
        if count < 0:
            raise RtlError(f"slot block {name!r} needs count >= 0")
        base = self._size
        self._blocks.append((name, base, count))
        self._size += count
        return base

    @property
    def size(self) -> int:
        return self._size

    @property
    def blocks(self) -> List[Tuple[str, int, int]]:
        """``(name, base, count)`` triples in declaration order."""
        return list(self._blocks)

    def describe(self) -> str:
        lines = [f"{base:5d}..{base + count - 1:<5d} {name} ({count})"
                 for name, base, count in self._blocks if count]
        return "\n".join(lines)


class StateInterner:
    """Hash-consing of flat state tuples into dense integer ids.

    Equal state vectors always intern to the same id, so snapshot
    equality and set membership degrade to integer comparisons, and a
    reachability graph holds each distinct state's storage exactly once
    no matter how many nodes reference it.

    Pickling uses a compact packed form: all slot values fit signed
    64-bit, so the whole table serializes as one ``array('q')`` plus
    the vector width (the id ordering — and therefore every consumer's
    node numbering — survives the round trip bit for bit).
    """

    def __init__(self):
        self._ids: Dict[Tuple[int, ...], int] = {}
        self._states: List[Tuple[int, ...]] = []

    def intern(self, state: Tuple[int, ...]) -> int:
        sid = self._ids.get(state)
        if sid is None:
            sid = len(self._states)
            self._ids[state] = sid
            self._states.append(state)
        return sid

    def state(self, sid: int) -> Tuple[int, ...]:
        return self._states[sid]

    def __len__(self) -> int:
        return len(self._states)

    # -- compact pickling ----------------------------------------------

    def __getstate__(self):
        states = self._states
        width = len(states[0]) if states else 0
        # One array built from one list: array() over a bare iterator
        # grows item by item and is no faster than a per-state extend.
        flat = array("q", list(itertools.chain.from_iterable(states)))
        return {"width": width, "count": len(states), "packed": flat.tobytes()}

    def __setstate__(self, data):
        flat = array("q")
        flat.frombytes(data["packed"])
        width, count = data["width"], data["count"]
        if len(flat) != width * count:
            raise ReproError(
                f"corrupt StateInterner pickle: {len(flat)} packed slots "
                f"cannot hold {count} states of width {width}"
            )
        states = [
            tuple(flat[i * width:(i + 1) * width]) for i in range(count)
        ]
        ids = {state: sid for sid, state in enumerate(states)}
        if len(ids) != len(states):
            # A duplicate vector would silently renumber every later id
            # (the dict keeps only the last), breaking the dense-id
            # invariant each consumer's node numbering relies on.
            raise ReproError(
                "corrupt StateInterner pickle: duplicate state vectors "
                "would silently renumber interned ids"
            )
        self._states = states
        self._ids = ids


#: ``frame_hook(frame, repeats) -> keep``: called by ``step_batch`` once
#: per distinct settled frame, with ``repeats`` the number of input
#: choices sharing it; returning False prunes all of them.
FrameHook = Callable[[Frame, int], bool]


class Design:
    """Base class for simulatable designs. Subclasses implement the
    two-phase protocol, a slot layout and :meth:`step_batch`, and bind
    the layout with :meth:`enable_array_state` once constructed."""

    #: Slots moved through the flat buffer.
    slots_copied = 0
    #: ``step_batch`` calls that shared one settled evaluation.
    batch_expansions = 0

    def reset(self) -> None:
        raise NotImplementedError

    def free_inputs(self) -> Sequence[FreeInput]:
        return ()

    def eval_comb(self, inputs: Inputs) -> Frame:
        raise NotImplementedError

    def tick(self) -> None:
        raise NotImplementedError

    # -- state protocol: interned flat slot vectors ---------------------

    def snapshot(self) -> Hashable:
        """The current state as an interned slot-vector id."""
        buf = self._slot_buf
        self.write_slots(buf)
        self.slots_copied += len(buf)
        return self._interner.intern(tuple(buf))

    def restore(self, state: Hashable) -> None:
        vec = self._interner.state(state)
        self.read_slots(vec)
        self.slots_copied += len(vec)

    def slot_layout(self) -> SlotLayout:
        """The design's flat-state declaration."""
        raise NotImplementedError

    def write_slots(self, buf: List[int]) -> None:
        """Serialize the current state into ``buf`` (length
        ``slot_layout().size``)."""
        raise NotImplementedError

    def read_slots(self, vec: Sequence[int]) -> None:
        """Deserialize ``vec`` into the design's state."""
        raise NotImplementedError

    def enable_array_state(self) -> None:
        """Bind the design's slot layout and a fresh interner.
        Snapshots taken before a rebind are meaningless after it."""
        layout = self.slot_layout()
        self._slot_layout = layout
        self._interner = StateInterner()
        self._slot_buf = [0] * layout.size
        self.slots_copied = 0
        self.batch_expansions = 0

    @property
    def states_interned(self) -> int:
        """Distinct states the interner holds."""
        return len(self._interner)

    def state_vector(self, state: Hashable) -> Tuple[int, ...]:
        """The flat slot vector behind a snapshot id.  Coverage
        signatures digest this vector so state identity is stable
        across runs and interning orders."""
        return self._interner.state(state)

    # -- batched expansion ---------------------------------------------

    def step_batch(
        self,
        state: Hashable,
        input_space: Sequence[Inputs],
        frame_hook: FrameHook,
    ) -> List[Optional[Tuple[Frame, Hashable]]]:
        """Expand every free-input assignment of ``state`` in one call.

        Returns a list parallel to ``input_space``: ``None`` where
        ``frame_hook`` pruned the choice, else ``(frame, successor)``,
        exactly as restoring, settling and ticking once per choice would
        (``frame_hook(frame, n)`` stands for ``n`` choices sharing one
        settled frame).
        """
        raise NotImplementedError

    def step_batch_checked(
        self,
        state: Hashable,
        input_space: Sequence[Inputs],
        checker,
        first: int,
    ) -> List[Optional[Tuple[Frame, Hashable]]]:
        """:meth:`step_batch` with the reach graph's standard hook —
        stamp ``first`` into the frame, then let ``checker`` (an
        :class:`~repro.sva.monitor.AssumptionChecker`) accept or prune
        the settled frame.  Counter effects (``antecedent_firings``,
        ``pruned_frames``) stay in per-input logical units whatever the
        design batches."""

        def hook(frame: Frame, repeats: int) -> bool:
            frame["first"] = first
            return checker.frame_ok_repeated(frame, repeats)

        return self.step_batch(state, input_space, hook)

    def input_space(self) -> List[Dict[str, int]]:
        """Every assignment of the free inputs (the verifier's branching
        choices for one cycle)."""
        free = list(self.free_inputs())
        assignments = []
        for combo in itertools.product(*(range(f.cardinality) for f in free)):
            assignments.append({f.name: v for f, v in zip(free, combo)})
        return assignments


class Simulator:
    """Drives one :class:`Design` along a single trace.

    The simulator inserts the auto-generated ``first`` signal into every
    frame: 1 on the first cycle after reset, 0 afterwards — the signal
    RTLCheck's Assumption Generator creates to anchor initialization
    assumptions and filter assertion match attempts (paper §4.1, §4.4).
    """

    def __init__(self, design: Design):
        self.design = design
        self.cycle = 0
        self.trace: List[Frame] = []
        design.reset()

    def step(self, inputs: Optional[Inputs] = None) -> Frame:
        """Run one clock cycle; returns the settled frame."""
        frame = self.design.eval_comb(inputs or {})
        frame["first"] = 1 if self.cycle == 0 else 0
        self.design.tick()
        self.trace.append(frame)
        self.cycle += 1
        obs.count("rtl.frames_simulated")
        return frame

    def run(
        self,
        cycles: int,
        input_schedule: Optional[Iterable[Inputs]] = None,
    ) -> List[Frame]:
        """Run ``cycles`` cycles, drawing inputs from ``input_schedule``
        (missing entries default to all-zero inputs)."""
        schedule = iter(input_schedule or ())
        for _ in range(cycles):
            self.step(next(schedule, None))
        return self.trace

    def run_until_quiescent(self, max_cycles: int = 10_000) -> List[Frame]:
        """Run with default inputs until the architectural state stops
        changing (or ``max_cycles`` elapse)."""
        previous = self.design.snapshot()
        for _ in range(max_cycles):
            self.step()
            current = self.design.snapshot()
            if current == previous:
                return self.trace
            previous = current
        raise RtlError(f"design did not quiesce within {max_cycles} cycles")
