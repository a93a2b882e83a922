"""The trace harvest against its reference wavefront and its pin.

``repro.vscale.trace.harvest_traces`` steps lineage groups of slot
lists through the design's frame-free compiled step and splits a group
by the distinct grants its members draw.  :func:`reference_harvest`
below is the wavefront the compiled harvest replaced, kept verbatim as a
test-only reference: one ``step_batch``
per distinct interned state per cycle, all four grant successors
interned, quiescence asked of the design.

Two independent checks pin the harvest:

* a differential test against the reference over both memory
  variants, several seeds and sample counts, grant collection on and
  off, tiny cycle budgets (the undrained path) and a program that
  fetches past its instruction memory (the error path);
* ``tests/fixtures/trace_harvest.json``, digests of the reference's
  harvests of 60 long-program fuzz tests and the 56 suite tests on both
  memory variants, written by
  ``tools/regen_golden_verdicts.py --harvest-only`` before the compiled
  harvest existed.
"""

import json
import random
import sys
from pathlib import Path
from typing import Dict, Hashable, List, Optional

import pytest

from repro import get_test, paper_suite
from repro.cache.keys import litmus_digest
from repro.difftest.generate import FuzzGenerator
from repro.difftest.oracles import evaluate_oracles, trace_verdicts
from repro.errors import RtlError
from repro.litmus.test import compile_test
from repro.memodel.polycheck import Trace
from repro.vscale import trace as trace_module
from repro.vscale.soc import MultiVScale
from repro.vscale.trace import (
    DEFAULT_MAX_CYCLES,
    DEFAULT_SAMPLES,
    Harvest,
    harvest_traces,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from regen_golden_verdicts import (  # noqa: E402
    HARVEST_FIXTURE,
    HARVEST_KIND,
    harvest_digest,
    harvest_tests,
)


def reference_harvest(
    test,
    memory_variant="fixed",
    samples=DEFAULT_SAMPLES,
    seed=0,
    max_cycles=DEFAULT_MAX_CYCLES,
    collect_grants=False,
    compile=compile_test,
) -> Harvest:
    """The ``step_batch``/interner wavefront ``harvest_traces`` used to
    run (``compile`` lets a test feed it a hand-broken compile)."""
    design = MultiVScale(compile(test), memory_variant)
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
            design.restore(state)
            drained_memo[state] = design.drained()
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


def assert_same_harvest(harvest: Harvest, reference: Harvest) -> None:
    assert harvest.traces == reference.traces
    assert harvest.sampled == reference.sampled
    assert harvest.undrained == reference.undrained
    assert harvest.cycles == reference.cycles
    assert harvest.grant_ngrams == reference.grant_ngrams


@pytest.mark.parametrize("choices", [1, 2, 3, 4])
def test_inlined_grant_draw_is_randrange(choices):
    """``harvest_traces`` draws a grant as ``getrandbits`` redrawn while
    out of range; that must be the very draw ``Random.randrange`` makes,
    or the harvest would leave the reference's schedules."""
    bits = choices.bit_length()
    for seed in range(8):
        name = f"harvest:{seed}:draw:{choices}"
        expected = random.Random(name)
        draw = random.Random(name).getrandbits
        for _ in range(500):
            grant = draw(bits)
            while grant >= choices:
                grant = draw(bits)
            assert grant == expected.randrange(choices)


#: Suite shapes plus long-program fuzz tests (one and several threads,
#: classic and extended geometry).
DIFF_TESTS = [get_test(name) for name in ("mp", "sb", "iriw", "n4", "amd3")] + [
    test for test in FuzzGenerator(0, 4, True).suite(10)
]


@pytest.mark.parametrize("variant", ["fixed", "buggy"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("collect_grants", [False, True])
def test_matches_reference(variant, seed, collect_grants):
    for test in DIFF_TESTS:
        harvest = harvest_traces(
            test, variant, seed=seed, collect_grants=collect_grants
        )
        reference = reference_harvest(
            test, variant, seed=seed, collect_grants=collect_grants
        )
        assert_same_harvest(harvest, reference)


@pytest.mark.parametrize("samples", [0, 1, 3, 16])
def test_sample_counts_match_reference(samples):
    for test in DIFF_TESTS[:3] + DIFF_TESTS[-2:]:
        assert_same_harvest(
            harvest_traces(test, "buggy", samples=samples, collect_grants=True),
            reference_harvest(test, "buggy", samples=samples, collect_grants=True),
        )


@pytest.mark.parametrize("max_cycles", [0, 1, 7, 25])
@pytest.mark.parametrize("variant", ["fixed", "buggy"])
def test_undrained_budget_matches_reference(max_cycles, variant):
    undrained = 0
    for test in DIFF_TESTS:
        harvest = harvest_traces(
            test, variant, max_cycles=max_cycles, collect_grants=True
        )
        reference = reference_harvest(
            test, variant, max_cycles=max_cycles, collect_grants=True
        )
        assert_same_harvest(harvest, reference)
        undrained += harvest.undrained
    assert undrained > 0, "the budget must leave schedules undrained"


def _headless_compile(test):
    """Compile ``test`` and drop core 0's trailing halt, so core 0
    fetches past its instruction memory."""
    compiled = compile_test(test)
    compiled.programs[0] = compiled.programs[0][:-1]
    return compiled


@pytest.mark.parametrize("variant", ["fixed", "buggy"])
def test_fetch_past_imem_raises_reference_error(monkeypatch, variant):
    test = get_test("mp")
    with pytest.raises(RtlError) as expected:
        reference_harvest(test, variant, compile=_headless_compile)
    assert "fetch past instruction memory" in str(expected.value)

    monkeypatch.setattr(trace_module, "compile_test", _headless_compile)
    with pytest.raises(RtlError) as raised:
        harvest_traces(test, variant)
    assert str(raised.value) == str(expected.value)
    # Through the oracle's _guard: the same text, as a ReproError ...
    with pytest.raises(RtlError) as guarded:
        trace_verdicts(test, variant)
    assert str(guarded.value) == str(expected.value)
    # ... which a campaign records as the trace layer's error.
    verdicts = evaluate_oracles(test, variant, oracles=("trace",))
    assert verdicts.errors == {"trace": str(expected.value)}


def test_harvest_matches_pin():
    """Every pinned harvest reproduces its digest bit for bit."""
    document = json.loads(Path(HARVEST_FIXTURE).read_text())
    assert document["kind"] == HARVEST_KIND
    pairs = harvest_tests()
    rows = document["tests"]
    assert len(rows) == 2 * len(pairs)
    assert len(pairs) == document["fuzz"]["count"] + len(paper_suite())
    expected = iter(rows)
    for source, test in pairs:
        for variant in ("fixed", "buggy"):
            row = next(expected)
            assert (row["test"], row["source"], row["memory"]) == (
                test.name,
                source,
                variant,
            )
            assert row["litmus_digest"] == litmus_digest(test), test.name
            harvest = harvest_traces(test, variant, collect_grants=True)
            assert row["harvest_digest"] == harvest_digest(harvest), (
                test.name,
                variant,
            )
