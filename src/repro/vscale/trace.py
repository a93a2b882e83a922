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
(:meth:`~repro.vscale.soc.MultiVScale.state_step`).  Schedules progress
in a *wavefront* of raw slot tuples, grouped by state, so each distinct
state pays one ``step_state`` call per cycle no matter how many
schedules currently occupy it — early on, all ``k`` schedules share
the reset state and the whole wavefront advances for the price of one.  The grant is the only
input, and it feeds only the arbiter slot, so a group builds one
successor tuple per *distinct grant drawn* by its members; quiescence
is the compiled predicate, evaluated once per group, and each distinct
final state is read back into the design once.  Each schedule owns a
:class:`random.Random` seeded from
``harvest:<seed>:<test name>:<schedule index>`` and draws exactly one
grant per cycle it is active, so the harvest is deterministic in
``(test, seed, samples)`` and independent of grouping order.
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
    start, grant_slot, selects = step.start, step.grant_slot, step.selects
    choices = len(selects)

    rngs = [
        random.Random(f"harvest:{seed}:{test.name}:{i}") for i in range(samples)
    ]
    states: List[Tuple[int, ...]] = [start] * samples
    live = list(range(samples))
    finals: List[Optional[Tuple[int, ...]]] = [None] * samples
    grants: Optional[List[List[int]]] = (
        [[] for _ in range(samples)] if collect_grants else None
    )

    cycles = 0
    while live:
        # Group the live schedules by state; a drained group retires,
        # every other group takes one compiled step and builds one
        # successor tuple per distinct grant its members draw.
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for i in live:
            groups.setdefault(states[i], []).append(i)
        stepping = []
        for state, members in groups.items():
            if drained(state):
                for i in members:
                    finals[i] = state
            else:
                stepping.append((state, members))
        live = [i for i in live if finals[i] is None]
        if not live or cycles >= max_cycles:
            break
        for state, members in stepping:
            buf = step_state(state)
            successors: Dict[int, Tuple[int, ...]] = {}
            for i in members:
                grant = rngs[i].randrange(choices)
                if grants is not None:
                    grants[i].append(grant)
                successor = successors.get(grant)
                if successor is None:
                    buf[grant_slot] = selects[grant]
                    successor = successors[grant] = tuple(buf)
                states[i] = successor
        cycles += 1

    traces: List[Trace] = []
    seen_states: set = set()
    seen_traces: set = set()
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
        if trace not in seen_traces:
            seen_traces.add(trace)
            traces.append(trace)
    ngrams = None
    if grants is not None:
        from repro.obs.coverage import grant_ngrams

        ngrams = grant_ngrams(grants)
    return Harvest(
        traces=traces,
        sampled=samples,
        undrained=len(live),
        cycles=cycles,
        grant_ngrams=ngrams,
    )
