"""The RTL outcome enumeration against its reference loop and its pin.

``repro.verifier.outcomes.enumerate_design_outcomes`` walks raw slot
tuples through the design's frame-free compiled step: one
``step_state`` per frontier state, the grant slot patched per input
choice, a plain set of tuples for ``seen``, the compiled ``drained``
predicate, and a read-back only for drained states.
:func:`reference_enumeration` below is the loop it replaced, kept as a
test-only reference: the whole frontier expanded through the
interpreter's ``step_batch`` on an ``array`` design, every successor
interned, quiescence asked of the restored design.

Two independent checks pin the enumeration:

* a differential test against the reference over generated programs,
  both memory variants and small state budgets (so the budget trips
  mid-layer), plus full enumerations of suite tests;
* ``tests/fixtures/rtl_enumeration.json``, digests of the reference's
  outcome sets and counts for every suite test on both memories, the
  ``fuzz`` benchmark workload's 20 programs and a 500-state budget-trip
  slice, written by ``tools/regen_golden_verdicts.py --rtl-only``
  before the compiled enumeration existed.  A fast subset replays by
  default, every row under ``RTLCHECK_GOLDEN_FULL=1``.
"""

import json
import os
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import get_test, paper_suite
from repro.cache.keys import litmus_digest
from repro.difftest.generate import FuzzGenerator
from repro.difftest.oracles import rtl_verdicts
from repro.errors import ReproError
from repro.litmus import compile_test
from repro.memodel import enumerate_tso_outcomes
from repro.obs import TraceRecorder, use_recorder
from repro.rtl.design import Design
from repro.verifier.outcomes import ArchEnumeration, enumerate_design_outcomes
from repro.vscale.soc import MultiVScale
from repro.vscale.tso import MultiVScaleTSO

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from regen_golden_verdicts import (  # noqa: E402
    RTL_BUDGET,
    RTL_FIXTURE,
    RTL_FUZZ,
    RTL_KIND,
    outcomes_digest,
    rtl_cases,
    rtl_row,
)

GOLDEN_FULL = os.environ.get("RTLCHECK_GOLDEN_FULL") == "1"

VARIANTS = ("fixed", "buggy")


def _keep_all(frame, repeats):
    return True


def _harvest(design):
    return (
        tuple(sorted(design.register_results().items())),
        tuple(sorted(design.memory_results().items())),
    )


def reference_enumeration(compiled, memory_variant, max_states) -> ArchEnumeration:
    """The interpreted loop ``enumerate_design_outcomes`` used to run: each layer's successors come from one ``step_batch``
    per frontier state, all computed before any is visited, and
    quiescence is ``restore()`` + ``drained()``."""
    design = MultiVScale(compiled, memory_variant)
    design.reset()
    root = design.snapshot()
    seen = {root}
    outcomes = set()
    transitions = 0
    drained_states = 0
    complete = True
    design.restore(root)
    if design.drained():
        outcomes.add(_harvest(design))
        frontier = []
    else:
        frontier = [root]
    input_space = design.input_space()

    while frontier and complete:
        layer = [
            [edge[1] for edge in design.step_batch(state, input_space, _keep_all)]
            for state in frontier
        ]
        next_frontier = []
        for successors in layer:
            for child in successors:
                transitions += 1
                if child in seen:
                    continue
                if len(seen) >= max_states:
                    complete = False
                    break
                seen.add(child)
                design.restore(child)
                if design.drained():
                    drained_states += 1
                    outcomes.add(_harvest(design))
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


def assert_same_enumeration(got: ArchEnumeration, want: ArchEnumeration) -> None:
    assert got.outcomes == want.outcomes
    assert got.complete == want.complete
    assert got.states == want.states
    assert got.transitions == want.transitions
    assert got.drained_states == want.drained_states


def _enumerate(compiled, variant, max_states):
    design = MultiVScale(compiled, variant)
    return enumerate_design_outcomes(design, max_states=max_states)


#: One deterministic generator: ``test_at(i)`` is a pure function of
#: ``(seed, i)``, so hypothesis shrinks over a stable test stream.
_GENERATOR = FuzzGenerator(20261017)


class TestAgainstReference:
    @given(
        index=st.integers(0, 200),
        variant=st.sampled_from(VARIANTS),
        max_states=st.sampled_from([1, 2, 3, 7, 40, 300, 1500, 5000]),
    )
    @settings(max_examples=80, deadline=None)
    def test_budgeted_enumeration_matches(self, index, variant, max_states):
        """Generated programs under small budgets: the budget trips at
        the same child, with the same counts and partial outcomes."""
        compiled = compile_test(_GENERATOR.test_at(index))
        assert_same_enumeration(
            _enumerate(compiled, variant, max_states),
            reference_enumeration(compiled, variant, max_states),
        )

    def test_budget_trips_are_exercised(self):
        """The sampled budgets really trip, both at the first child and
        mid-layer, and leave partial outcome sets."""
        compiled = compile_test(get_test("mp"))
        for max_states in (1, 2, 7, 40, 300, 500):
            got = _enumerate(compiled, "buggy", max_states)
            assert not got.complete
            assert got.states == max_states
            assert_same_enumeration(
                got, reference_enumeration(compiled, "buggy", max_states)
            )
        assert got.outcomes and got.drained_states

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", ["mp", "sb", "ssl", "lb"])
    def test_full_enumeration_matches(self, name, variant):
        compiled = compile_test(get_test(name))
        got = _enumerate(compiled, variant, 200_000)
        assert got.complete
        assert_same_enumeration(
            got, reference_enumeration(compiled, variant, 200_000)
        )

    def test_counters_follow_the_result(self):
        recorder = TraceRecorder()
        with use_recorder(recorder):
            enum = rtl_verdicts(get_test("sb"), "buggy", max_states=100)
        counters = recorder.counters
        assert counters["arch.states"] == enum.states == 100
        assert counters["arch.transitions"] == enum.transitions
        assert counters["rtl.frames_simulated"] == enum.transitions
        assert counters["arch.budget_trips"] == 1


def test_design_without_state_step_is_refused():
    with pytest.raises(ReproError, match="Design lacks state_step"):
        enumerate_design_outcomes(Design())


# ----------------------------------------------------------------------
# Multi-V-scale-TSO against the x86-TSO model
# ----------------------------------------------------------------------

#: Suite tests whose FIFO-drain TSO design reaches strictly fewer
#: outcomes than the TSO model allows (41 of 56 are equal).  A granted
#: core whose DX holds a load issues that load instead of draining its
#: store buffer, so a load always performs before every older store of
#: its own core commits.  The model lets such a store commit, and
#: become visible to other cores, before the younger load performs;
#: outcomes that need that order are unreachable on the design (sb's
#: and podwr001's ``r1=1, r2=1``, for example).  Each of these tests
#: has a thread with a store followed by a load.
TSO_STRICT = frozenset({
    "iwp24", "n4", "n5", "n6", "n7", "podwr001", "rfi001", "rfi002",
    "rfi005", "rfi006", "rfi011", "rfi012", "rfi013", "rfi014", "sb",
})

#: Suite tests on which the seeded LIFO drain reaches an outcome the
#: TSO model forbids.
TSO_LIFO_CAUGHT = frozenset({
    "amd3", "co-mp", "iwp23b", "mp", "mp+staleld", "n1", "rfi000",
    "rfi002", "rfi005", "rfi013", "safe000", "safe003", "safe004",
    "safe006", "safe008", "safe009", "safe011", "safe012", "safe016",
    "safe019", "safe022", "safe027", "safe029", "safe030",
})

#: The two slowest FIFO enumerations (amd3 ~3 s, co-iriw ~0.8 s on one
#: core) replay only under ``RTLCHECK_GOLDEN_FULL=1``.
TSO_SLOW = ("amd3", "co-iriw")

SUITE_NAMES = [test.name for test in paper_suite()]


def _tso_enumeration(name, drain):
    test = get_test(name)
    enum = enumerate_design_outcomes(MultiVScaleTSO(compile_test(test), drain))
    assert enum.complete, name
    return enum.outcomes, enumerate_tso_outcomes(test)


def _has_store_then_load(test):
    for thread in test.threads:
        stored = False
        for op in thread:
            stored = stored or op.is_store
            if stored and op.is_load:
                return True
    return False


@pytest.mark.parametrize(
    "name",
    [n for n in SUITE_NAMES if GOLDEN_FULL or n not in TSO_SLOW],
)
def test_tso_design_outcomes_within_tso_model(name):
    """Every outcome the FIFO TSO design reaches is TSO-allowed, and the
    design is strictly smaller than the model exactly on TSO_STRICT."""
    design, model = _tso_enumeration(name, "fifo")
    assert design <= model, sorted(design - model)
    assert (design < model) == (name in TSO_STRICT), sorted(model - design)
    if name in TSO_STRICT:
        assert _has_store_then_load(get_test(name))


@pytest.mark.parametrize(
    "name", SUITE_NAMES if GOLDEN_FULL else ["mp"]
)
def test_tso_lifo_drain_breaks_the_subset(name):
    """The LIFO drain bug is caught by the outcome check alone."""
    design, model = _tso_enumeration(name, "lifo")
    assert (not design <= model) == (name in TSO_LIFO_CAUGHT)


# ----------------------------------------------------------------------
# The pin
# ----------------------------------------------------------------------


def _document():
    return json.loads(Path(RTL_FIXTURE).read_text())


DOCUMENT = _document()

#: Default replay subset: five suite tests on both memories, the first
#: five fuzz programs, and every budget-trip row (cheap by design).
FAST_SUITE = ("mp", "sb", "lb", "n1", "ssl")
FAST_FUZZ = 5


def _in_fast_subset(source, test, position):
    if source == "suite":
        return test.name in FAST_SUITE
    if source == "fuzz":
        return position < FAST_FUZZ
    return True


def _pinned_cases():
    positions = {}
    cases = []
    for case, row in zip(rtl_cases(), DOCUMENT["tests"]):
        source, test = case[0], case[1]
        position = positions.get(source, 0)
        positions[source] = position + 1
        if GOLDEN_FULL or _in_fast_subset(source, test, position):
            cases.append((case, row))
    return cases


class TestPin:
    def test_fixture_shape(self):
        assert DOCUMENT["kind"] == RTL_KIND
        assert DOCUMENT["schema_version"] == 1
        assert DOCUMENT["fuzz"] == RTL_FUZZ
        assert DOCUMENT["budget"] == RTL_BUDGET
        cases = rtl_cases()
        rows = DOCUMENT["tests"]
        suite = paper_suite()
        assert len(rows) == len(cases) == 3 * len(suite) + RTL_FUZZ["count"]
        for (source, test, variant, max_states), row in zip(cases, rows):
            assert (row["test"], row["source"], row["memory"]) == (
                test.name,
                source,
                variant,
            )
            assert row["max_states"] == max_states
            assert row["litmus_digest"] == litmus_digest(test), test.name
        # The budget slice really exercises the budget-trip path.
        tripped = [r for r in rows if r["source"] == "budget" and not r["complete"]]
        assert tripped and all(r["states"] == RTL_BUDGET for r in tripped)

    @pytest.mark.parametrize(
        "case,row",
        _pinned_cases(),
        ids=lambda value: (
            f"{value[0]}-{value[1].name}-{value[2]}"
            if isinstance(value, tuple)
            else None
        ),
    )
    def test_enumeration_matches_pin(self, case, row):
        assert rtl_row(*case) == row

    def test_digest_is_order_free(self):
        enum = rtl_verdicts(get_test("sb"), "buggy")
        outcomes = list(enum.outcomes)
        assert outcomes_digest(outcomes) == outcomes_digest(outcomes[::-1])
