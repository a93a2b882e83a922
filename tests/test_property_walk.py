"""The property walk's compiled stepping reproduces the reference monitor.

:class:`repro.verifier.reach.GraphExplorer` steps each assertion through
a lazily filled :class:`repro.sva.monitor.MonitorTable` over frame
labels instead of calling :meth:`PropertyMonitor.step` per edge.  Two
kinds of check hold it to the reference semantics:

* a hypothesis differential test drives the generated assertions of
  suite tests over random sequences of real and perturbed design
  frames, and requires the table's state and verdict to equal
  ``PropertyMonitor.step``/``verdict`` at every cycle;
* budget-truncated property walks (state-budget exits, depth-budget
  exits, and early counterexamples) must reproduce digests pinned
  before the table existed, when every edge still ran
  ``PropertyMonitor.step`` — the golden fixture only replays full runs.
"""

import hashlib
import json
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RTLCheck, get_test
from repro.sva import AssumptionChecker, PropertyMonitor
from repro.sva.monitor import FrameLabels
from repro.verifier import Budget, GraphExplorer
from repro.verifier.config import EXPLORER_BUDGET
from repro.vscale.soc import MultiVScale

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from regen_golden_verdicts import strip_seconds  # noqa: E402

TESTS = ("mp", "sb", "iwp24")

BUDGETS = {
    "tiny-states": Budget(max_states=5, max_depth=3),
    "states-120-depth-7": Budget(max_states=120, max_depth=7),
    "depth-6": Budget(max_states=2_000_000, max_depth=6),
    "states-300": Budget(max_states=300, max_depth=10_000),
}

#: sha256 of the JSON list of every assertion's walk (``to_dict()``
#: minus seconds, in generation order) and the verdict counts, per
#: (test, memory variant, budget), captured with per-edge
#: ``PropertyMonitor.step`` stepping.
PINNED = {
    ("mp", "fixed", "tiny-states"): (
        "41cbacde1e46068c99dc6f1a2741613410ae60281cedfe237b0ebd96951dfdff",
        {"bounded": 34},
    ),
    ("mp", "fixed", "states-120-depth-7"): (
        "f9fa4cea3dd83cb9930960f340228cbca654aba2013e782de849b661b08d15da",
        {"proven": 34},
    ),
    ("mp", "fixed", "depth-6"): (
        "c5e1ef74049a5f6adb1d28d1f0f740110c09327cc90bf7165cbb32e69ebf7160",
        {"bounded": 1, "proven": 33},
    ),
    ("mp", "fixed", "states-300"): (
        "f9fa4cea3dd83cb9930960f340228cbca654aba2013e782de849b661b08d15da",
        {"proven": 34},
    ),
    ("mp", "buggy", "tiny-states"): (
        "41cbacde1e46068c99dc6f1a2741613410ae60281cedfe237b0ebd96951dfdff",
        {"bounded": 34},
    ),
    ("mp", "buggy", "states-120-depth-7"): (
        "1061c566481316231362ecee894752291da4a1e1384d4ff47a6d4f732fccd94e",
        {"bounded": 17, "proven": 17},
    ),
    ("mp", "buggy", "depth-6"): (
        "5ac2c5bec17e3f7ac2b78d06234282a22a91b52d31be9372b9bfb8e294ddf8de",
        {"bounded": 23, "cex": 1, "proven": 10},
    ),
    ("mp", "buggy", "states-300"): (
        "25b85c75d3b4f7527383ad43b839ef63b754662de6bbb9600ffd681394ca651d",
        {"cex": 1, "proven": 33},
    ),
    ("sb", "fixed", "tiny-states"): (
        "41cbacde1e46068c99dc6f1a2741613410ae60281cedfe237b0ebd96951dfdff",
        {"bounded": 34},
    ),
    ("sb", "fixed", "states-120-depth-7"): (
        "2d6aebc6e086bbacf09fac44a438b5e26067e6e7131745db486e57a9abb61825",
        {"bounded": 25, "proven": 9},
    ),
    ("sb", "fixed", "depth-6"): (
        "95edeb6bcd953a8c0acbb3e33ecea62e24c5b256d335cfaaf1c9c9c4d2d5acca",
        {"bounded": 2, "proven": 32},
    ),
    ("sb", "fixed", "states-300"): (
        "e5f9ab6fabbb4680e5c1430bd687194be185ed787678869be425fed28f52bd0b",
        {"proven": 34},
    ),
    ("sb", "buggy", "tiny-states"): (
        "41cbacde1e46068c99dc6f1a2741613410ae60281cedfe237b0ebd96951dfdff",
        {"bounded": 34},
    ),
    ("sb", "buggy", "states-120-depth-7"): (
        "5b9cbfe7de3be3ed133654e4bc3e6bded17b079bf77fad6ab103053ae13b5434",
        {"bounded": 25, "proven": 9},
    ),
    ("sb", "buggy", "depth-6"): (
        "14e500234bf459fa10e8ec36afcfbdca1e5e80dfb971297e514858ce7545bfd5",
        {"bounded": 21, "cex": 2, "proven": 11},
    ),
    ("sb", "buggy", "states-300"): (
        "991c61bc406737e93984ed672a4e2f21a7764c421d38eb0357c956a4ec6ccb65",
        {"cex": 2, "proven": 32},
    ),
    ("iwp24", "fixed", "tiny-states"): (
        "41cbacde1e46068c99dc6f1a2741613410ae60281cedfe237b0ebd96951dfdff",
        {"bounded": 34},
    ),
    ("iwp24", "fixed", "states-120-depth-7"): (
        "a2f87cbec798fe4a2f39b0fb9a89851bcf91a2036934122501396a08ba6ed7d9",
        {"bounded": 18, "proven": 16},
    ),
    ("iwp24", "fixed", "depth-6"): (
        "3e70392fe7d2dca28fe616881e2d8382fb441d561c60eddf2d115f34fcabf213",
        {"bounded": 14, "proven": 20},
    ),
    ("iwp24", "fixed", "states-300"): (
        "65f9ad0b68f1a94a6f3f13399ea5822998f9b085bf254b64c3af7421a59c520f",
        {"proven": 34},
    ),
    ("iwp24", "buggy", "tiny-states"): (
        "41cbacde1e46068c99dc6f1a2741613410ae60281cedfe237b0ebd96951dfdff",
        {"bounded": 34},
    ),
    ("iwp24", "buggy", "states-120-depth-7"): (
        "6f918c6a0d3863ffc6b030c73e41d0adc7ac438633d3fce605c0268af70f1bae",
        {"bounded": 23, "proven": 11},
    ),
    ("iwp24", "buggy", "depth-6"): (
        "8d634441e7e8be98ea11b60363aba0a23654fc7fb0657173efa5964fa6e19a78",
        {"bounded": 22, "cex": 1, "proven": 11},
    ),
    ("iwp24", "buggy", "states-300"): (
        "b002480d41c2e556d1c5ce941e083cf6667740c0314fe4145913ecf65db9cdb4",
        {"bounded": 2, "cex": 1, "proven": 31},
    ),
}


@lru_cache(maxsize=None)
def _generated(name):
    return RTLCheck().generate(get_test(name))


def _explorer(name, variant):
    generated = _generated(name)
    return GraphExplorer(
        MultiVScale(generated.compiled, variant),
        AssumptionChecker(generated.assumptions),
    )


@lru_cache(maxsize=None)
def _frames(name):
    """Every distinct frame object of the test's fixed-design graph."""
    explorer = _explorer(name, "fixed")
    explorer.cover_assumptions(EXPLORER_BUDGET)
    graph = explorer.graph
    frames = {}
    for node in range(graph.num_nodes):
        for _index, _inputs, frame, _child in graph.live_successors(node):
            frames[id(frame)] = frame
    return list(frames.values())


#: One cycle's frame: a graph frame, optionally copied with one signal
#: overwritten (a fresh object, so a fresh label).
_FRAME_STEP = st.tuples(
    st.integers(0, 10_000),
    st.one_of(st.none(), st.tuples(st.integers(0, 10_000), st.integers(0, 3))),
)


def _frame(frames, step):
    index, perturb = step
    frame = frames[index % len(frames)]
    if perturb is None:
        return frame
    signal, value = perturb
    frame = dict(frame)
    keys = sorted(frame)
    frame[keys[signal % len(keys)]] = value
    return frame


class TestCompiledStepMatchesReference:
    @given(
        name=st.sampled_from(TESTS),
        picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=3),
        cycles=st.lists(_FRAME_STEP, min_size=1, max_size=14),
        repeats=st.integers(1, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_step_and_verdict_agree_every_cycle(self, name, picks, cycles, repeats):
        """Tables for several assertions share one set of frame labels;
        each table's state and verdict equal the reference monitor's
        after every frame, including on replays served from the
        table."""
        assertions = _generated(name).assertions
        frames = _frames(name)
        trace = [_frame(frames, step) for step in cycles]
        labels = FrameLabels()
        for pick in picks:
            directive = assertions[pick % len(assertions)]
            monitor = PropertyMonitor(directive)
            reference = PropertyMonitor(directive)
            table = monitor.transition_table(labels)
            assert table.states[0] == reference.initial()
            for _ in range(repeats):
                state_id = 0
                state = reference.initial()
                for frame in trace:
                    state_id, verdict = table.step(state_id, labels.label(frame))
                    state = reference.step(state, frame)
                    assert table.states[state_id] == state
                    assert verdict is reference.verdict(state)
            assert len(set(table.states)) == len(table.states)
            lookups = monitor.verdict_memo_hits + monitor.verdict_memo_misses
            assert lookups == repeats * len(trace)

    def test_atoms_are_shared_and_evaluated_once(self):
        """Structurally equal predicates of different assertions are
        one atom, and stepping every assertion over one frame evaluates
        each atom at most once."""
        assertions = _generated("sb").assertions
        labels = FrameLabels()
        monitors = [PropertyMonitor(directive) for directive in assertions]
        tables = [monitor.transition_table(labels) for monitor in monitors]
        exprs = [
            expr
            for monitor in monitors
            for nfa in monitor.nfas
            for edges in nfa.transitions.values()
            for expr, _target in edges
        ]
        assert len(labels.atoms) == len(set(exprs)) < len(exprs)
        label = labels.label(_frames("sb")[0])
        for table in tables:
            table.step(0, label)
        evaluated = sum(n.memo_misses for m in monitors for n in m.nfas)
        assert evaluated == len(labels.values[label])


class TestTruncatedWalksPinned:
    @pytest.mark.parametrize("key", list(PINNED), ids="-".join)
    def test_walks_match_pinned(self, key):
        name, variant, budget_id = key
        digest, verdicts = PINNED[key]
        explorer = _explorer(name, variant)
        walks = [
            strip_seconds(
                explorer.check_property(
                    PropertyMonitor(directive), BUDGETS[budget_id]
                ).to_dict()
            )
            for directive in _generated(name).assertions
        ]
        assert dict(Counter(w["verdict"] for w in walks)) == verdicts
        text = json.dumps(walks, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_pinned_walks_cover_every_verdict(self):
        """The pinned budgets end walks in proofs, counterexamples, and
        both budget exits (``tiny-states`` stops on the state budget,
        ``depth-6`` on the depth budget)."""
        seen = set()
        for _digest, verdicts in PINNED.values():
            seen |= set(verdicts)
        assert seen == {"proven", "bounded", "cex"}
