"""Seeded execution harvesting from the Multi-V-scale RTL.

The exhaustive RTL oracle (`enumerate_design_outcomes`) explores every
arbiter schedule — exponential in program length.  The trace oracle
instead **samples**: it drives :class:`~repro.vscale.soc.MultiVScale`
through ``k`` seeded randomized arbiter schedules and harvests each
run's architectural outcome as a :class:`~repro.memodel.polycheck.Trace`
for the per-execution consistency checker.  Per test the cost is
``O(k · cycles)`` regardless of program length, which is what makes
long-program fuzzing feasible.

Sampling runs on the design's frame-free compiled step
(:meth:`~repro.vscale.soc.MultiVScale.state_step`) in *lineage groups*:
a slot list and the schedules that drew the same grants so far.  Each
cycle a group asks the compiled quiescence predicate once, takes one
``step_state`` call and splits only by the distinct grants its members
draw (the grant feeds only the arbiter slot); the last split keeps the
step's list, the others patch a copy.  Groups are never hashed or
merged, so two lineages that reach one state step it twice (+0.3%
steps on long programs).  A drained state becomes a tuple once, for
the final-state dedupe, and each distinct one is read back into the
design once.  Each schedule owns a :class:`random.Random` seeded from
``harvest:<seed>:<test name>:<schedule index>`` and draws exactly one
grant per cycle it is active, so the harvest is deterministic in
``(test, seed, samples)`` and independent of grouping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.litmus.test import LitmusTest, compile_test
from repro.memodel.polycheck import Trace
from repro.vscale.soc import MultiVScale

#: Schedules sampled per test by default (the trace oracle's ``k``).
DEFAULT_SAMPLES = 8

#: Per-schedule cycle budget; generously above what any compiled litmus
#: program needs to drain (a schedule that trips it is reported as
#: ``undrained``, never silently dropped).
DEFAULT_MAX_CYCLES = 4096


@dataclass
class Harvest:
    """Outcome of sampling one test.

    ``traces`` is deduplicated by architectural content (observed load
    values + final memory), so it is usually shorter than ``sampled``;
    ``undrained`` counts schedules that hit the cycle budget before the
    design drained (always 0 on the stock designs — a non-zero value
    means the schedule distribution starved a core).
    """

    traces: List[Trace]
    sampled: int
    undrained: int
    cycles: int
    #: Arbiter-grant interleaving n-gram counts
    #: (:func:`repro.obs.coverage.grant_ngrams`) when the harvest was
    #: asked to collect them; ``None`` otherwise.
    grant_ngrams: Optional[Dict[str, int]] = field(default=None)


def harvest_traces(
    test: LitmusTest,
    memory_variant: str = "fixed",
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    collect_grants: bool = False,
) -> Harvest:
    """Sample ``samples`` randomized executions of ``test`` on the RTL.

    ``collect_grants=True`` additionally records each schedule's grant
    sequence and folds them into coverage n-grams
    (``Harvest.grant_ngrams``); the grants drawn are identical either
    way, so collection cannot perturb the sampled outcomes."""
    design = MultiVScale(compile_test(test), memory_variant)
    step = design.state_step()
    step_state, drained = step.step_state, step.drained
    grant_slot, selects = step.grant_slot, step.selects
    choices = len(selects)
    bits = choices.bit_length()

    draws = [
        random.Random(f"harvest:{seed}:{test.name}:{i}").getrandbits
        for i in range(samples)
    ]
    finals: List[Optional[Tuple[int, ...]]] = [None] * samples
    grants: Optional[List[List[int]]] = (
        [[] for _ in range(samples)] if collect_grants else None
    )

    def draw_grant(i: int) -> int:
        # Random.randrange(choices) without its argument checks:
        # getrandbits(bits) redrawn while out of range, the same draws.
        draw = draws[i]
        grant = draw(bits)
        while grant >= choices:
            grant = draw(bits)
        if grants is not None:
            grants[i].append(grant)
        return grant

    # Lineage groups: (state list, member schedules).
    groups = [(list(step.start), list(range(samples)))] if samples else []
    cycles = 0
    while groups:
        successors = []
        for state, members in groups:
            if drained(state):
                final = tuple(state)
                for i in members:
                    finals[i] = final
            elif cycles < max_cycles:
                buf = step_state(state)
                if len(members) == 1:
                    buf[grant_slot] = selects[draw_grant(members[0])]
                    successors.append((buf, members))
                    continue
                splits: Dict[int, List[int]] = {}
                for i in members:
                    splits.setdefault(draw_grant(i), []).append(i)
                grant, split = splits.popitem()
                for other, others in splits.items():
                    successor = buf.copy()
                    successor[grant_slot] = selects[other]
                    successors.append((successor, others))
                buf[grant_slot] = selects[grant]
                successors.append((buf, split))
        if not successors:
            break
        groups = successors
        cycles += 1

    traces: List[Trace] = []
    seen_states: set = set()
    seen_outcomes: set = set()
    for final in finals:
        if final is None or final in seen_states:
            continue
        seen_states.add(final)
        design.read_slots(final)
        trace = Trace.of(
            test.threads,
            design.register_results(),
            design.memory_results(),
            test.initial_memory_map,
        )
        # Every trace of one test shares its threads and initial memory.
        if trace.outcome not in seen_outcomes:
            seen_outcomes.add(trace.outcome)
            traces.append(trace)
    ngrams = None
    if grants is not None:
        from repro.obs.coverage import grant_ngrams

        ngrams = grant_ngrams(grants)
    return Harvest(
        traces=traces,
        sampled=samples,
        undrained=finals.count(None),
        cycles=cycles,
        grant_ngrams=ngrams,
    )
