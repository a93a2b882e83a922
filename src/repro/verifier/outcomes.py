"""Architectural outcome enumeration for a compiled litmus design.

The explorer walks the design to decide *temporal* properties; this
module instead answers the *architectural* question behind differential
testing (:mod:`repro.difftest`): which final (register, memory) states
can the design reach at all, over every free-input schedule?

It is a plain breadth-first reachability walk — no assumptions, no
monitors — that harvests the architectural state of every drained state
it discovers.  The walk never looks at signals, so it runs on the
design's frame-free step
(:meth:`~repro.vscale.soc.VScaleSoC.state_step`, compiled for
Multi-V-scale, interpreted for Multi-V-scale-TSO): states are raw
slot tuples kept in a plain set, each frontier state takes one
``step_state`` call, and its
successors are that buffer with the arbiter grant slot patched once per
input choice (the grant is the only free input and feeds only that
slot).  A state is *drained* when its architectural results can no
longer change (the step's ``drained`` predicate, equal to the
design's ``drained()``); only drained states are
read back into the design, and they are not expanded further, so the
walk terminates on any design whose non-drained state space is finite
(litmus-programmed Multi-V-scale always is: unfair schedules cycle
through a finite set of stalled states and are deduplicated away).

Visit order is frontier order, then input order, and the budget is
checked before each new state is inserted, so ``states``,
``transitions`` and the budget-trip point are fixed by the design alone.

The enumeration is exhaustive unless the ``max_states`` budget trips,
in which case ``complete`` is ``False`` and callers must treat the
outcome set as a lower bound (the differential harness skips — and
counts — comparisons against incomplete enumerations rather than
reporting spurious discrepancies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from repro import obs
from repro.errors import ReproError

#: One architectural final state: (sorted register values, sorted final
#: litmus-variable values) — the same shape as
#: :data:`repro.memodel.operational.FinalState`.
ArchOutcome = Tuple[Tuple[Tuple[str, int], ...], Tuple[Tuple[str, int], ...]]

#: Default budget: comfortably above the largest 4-core suite test
#: (amd3/buggy discovers ~57k states) while bounding runaway designs.
DEFAULT_MAX_STATES = 200_000


@dataclass
class ArchEnumeration:
    """Result of :func:`enumerate_design_outcomes`."""

    outcomes: FrozenSet[ArchOutcome]
    #: ``False`` when the state budget tripped before exhaustion; the
    #: outcome set is then only a lower bound.
    complete: bool
    states: int = 0
    transitions: int = 0
    drained_states: int = 0
    seconds: float = 0.0

    def observes(self, outcome) -> bool:
        """Is the litmus candidate ``outcome`` exhibited by any
        enumerated final state?  (Meaningful even when incomplete:
        ``True`` is then still a proof of observability.)"""
        want_regs = dict(outcome.registers)
        want_mem = dict(outcome.final_memory)
        for regs, memory in self.outcomes:
            rmap, mmap = dict(regs), dict(memory)
            if all(rmap.get(r) == v for r, v in want_regs.items()) and all(
                mmap.get(a) == v for a, v in want_mem.items()
            ):
                return True
        return False


def enumerate_design_outcomes(
    design, max_states: int = DEFAULT_MAX_STATES
) -> ArchEnumeration:
    """Enumerate every architectural final state ``design`` can reach.

    ``design`` must provide the frame-free step
    (:meth:`~repro.vscale.soc.VScaleSoC.state_step`) plus
    ``read_slots()`` and the architectural-harvest pair
    ``register_results()`` / ``memory_results()``, as Multi-V-scale
    (compiled step) and Multi-V-scale-TSO (interpreted step) do.
    """
    for method in ("state_step", "register_results", "memory_results"):
        if not hasattr(design, method):
            raise ReproError(
                f"design {type(design).__name__} lacks {method}(); cannot "
                "enumerate architectural outcomes"
            )
    with obs.span("arch-enumeration") as span:
        result = _enumerate(design, max_states)
    result.seconds = span.seconds
    recorder = obs.get_recorder()
    if recorder.enabled:
        recorder.count("arch.states", result.states)
        recorder.count("arch.transitions", result.transitions)
        recorder.count("rtl.frames_simulated", result.transitions)
        if not result.complete:
            recorder.count("arch.budget_trips", 1)
    return result


def _harvest(design, vec) -> ArchOutcome:
    design.read_slots(vec)
    return (
        tuple(sorted(design.register_results().items())),
        tuple(sorted(design.memory_results().items())),
    )


def _enumerate(design, max_states: int) -> ArchEnumeration:
    step = design.state_step()
    step_state, drained = step.step_state, step.drained
    grant_slot, selects = step.grant_slot, step.selects
    root = step.start
    seen = {root}
    outcomes = set()
    transitions = 0
    drained_states = 0
    complete = True
    if drained(root):
        outcomes.add(_harvest(design, root))
        frontier: List = []
    else:
        frontier = [root]

    while frontier and complete:
        next_frontier: List = []
        for state in frontier:
            # One compiled step per state; its successors differ only in
            # the grant slot, patched per input choice.
            buf = step_state(state)
            for select in selects:
                buf[grant_slot] = select
                child = tuple(buf)
                transitions += 1
                if child in seen:
                    continue
                if len(seen) >= max_states:
                    complete = False
                    break
                seen.add(child)
                if drained(child):
                    drained_states += 1
                    outcomes.add(_harvest(design, child))
                else:
                    next_frontier.append(child)
            if not complete:
                break
        frontier = next_frontier

    return ArchEnumeration(
        outcomes=frozenset(outcomes),
        complete=complete,
        states=len(seen),
        transitions=transitions,
        drained_states=drained_states,
    )
