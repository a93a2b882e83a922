"""Seeded execution harvesting from the Multi-V-scale RTL.

The exhaustive RTL oracle (`enumerate_design_outcomes`) explores every
arbiter schedule — exponential in program length.  The trace oracle
instead **samples**: it drives :class:`~repro.vscale.soc.MultiVScale`
through ``k`` seeded randomized arbiter schedules and harvests each
run's architectural outcome as a :class:`~repro.memodel.polycheck.Trace`
for the per-execution consistency checker.  Per test the cost is
``O(k · cycles)`` regardless of program length, which is what makes
long-program fuzzing feasible.

Sampling reuses the PR-5 array state backend: schedules progress in a
*wavefront*, grouped by interned design state, so each distinct state
pays one ``step_batch`` (one restore + eval + tick) per cycle no matter
how many schedules currently occupy it — early on, all ``k`` schedules
share the reset state and the whole wavefront advances for the price of
one.  Each schedule owns a :class:`random.Random` seeded from
``harvest:<seed>:<test name>:<schedule index>`` and draws exactly one
grant per cycle it is active, so the harvest is deterministic in
``(test, seed, samples)`` and independent of grouping order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

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
    state_backend: str = "array",
) -> Harvest:
    """Sample ``samples`` randomized executions of ``test`` on the RTL.

    ``collect_grants=True`` additionally records each schedule's grant
    sequence and folds them into coverage n-grams
    (``Harvest.grant_ngrams``); the grants drawn are identical either
    way, so collection cannot perturb the sampled outcomes.

    ``state_backend`` selects the design's state representation; the
    rng draw sequence is per-schedule and grouping-independent, so the
    harvest stays deterministic in ``(test, seed, samples)`` on every
    backend."""
    compiled = compile_test(test)
    design = MultiVScale(compiled, memory_variant, state_backend=state_backend)
    design.reset()
    input_space = design.input_space()
    start = design.snapshot()

    rngs = [
        random.Random(f"harvest:{seed}:{test.name}:{i}") for i in range(samples)
    ]
    states: List[Hashable] = [start] * samples
    active = [True] * samples
    finals: List[Hashable] = [None] * samples
    grants: Optional[List[List[int]]] = (
        [[] for _ in range(samples)] if collect_grants else None
    )

    drained_memo: Dict[Hashable, bool] = {}

    def is_drained(state: Hashable) -> bool:
        if state not in drained_memo:
            # ``state_drained`` reads the compiled quiescence predicate
            # on the kernel backend (no restore); the array backend
            # restores and asks the design.
            drained_memo[state] = design.state_drained(state)
        return drained_memo[state]

    cycles = 0
    remaining = samples
    while remaining:
        for i in range(samples):
            if active[i] and is_drained(states[i]):
                active[i] = False
                finals[i] = states[i]
                remaining -= 1
        if not remaining or cycles >= max_cycles:
            break
        # Wavefront step: one batched expansion per distinct live state.
        groups: Dict[Hashable, List[int]] = {}
        for i in range(samples):
            if active[i]:
                groups.setdefault(states[i], []).append(i)
        for state, members in groups.items():
            edges = design.step_batch(state, input_space, lambda frame, n: True)
            for i in members:
                grant = rngs[i].randrange(len(input_space))
                if grants is not None:
                    grants[i].append(grant)
                states[i] = edges[grant][1]
        cycles += 1

    undrained = sum(1 for i in range(samples) if active[i])

    traces: List[Trace] = []
    seen_states: set = set()
    seen_traces: set = set()
    for final in finals:
        if final is None or final in seen_states:
            continue
        seen_states.add(final)
        design.restore(final)
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
        undrained=undrained,
        cycles=cycles,
        grant_ngrams=ngrams,
    )
