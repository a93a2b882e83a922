"""Tests for sequence->NFA compilation, including the paper's §3.3
semantics: the naive unbounded-delay edge encoding fails to refute a
reversed-order trace, while RTLCheck's delay-exclusion encoding does."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sva import (
    BConst,
    BNot,
    SBool,
    SCat,
    SRepeat,
    Sig,
    bor,
    compile_sequence,
    scat,
)

SRC = Sig("src")
DST = Sig("dst")


def frames(*specs):
    """Each spec is a set of signal names that are 1 in that cycle."""
    return [{name: 1 for name in spec} for spec in specs]


def run_nfa(nfa, trace):
    """Returns (matched_at, failed_at): first cycle of acceptance and of
    live-set exhaustion (None if never)."""
    states = nfa.initial()
    matched = failed = None
    for cycle, frame in enumerate(trace):
        states = nfa.step(states, frame)
        if matched is None and nfa.accepts(states):
            matched = cycle
        if failed is None and not states:
            failed = cycle
            break
    return matched, failed


class TestBasicMatching:
    def test_single_bool(self):
        nfa = compile_sequence(SBool(Sig("a")))
        matched, failed = run_nfa(nfa, frames({"a"}))
        assert matched == 0

    def test_single_bool_fails(self):
        nfa = compile_sequence(SBool(Sig("a")))
        matched, failed = run_nfa(nfa, frames(set()))
        assert matched is None and failed == 0

    def test_concatenation(self):
        nfa = compile_sequence(scat(SBool(Sig("a")), SBool(Sig("b"))))
        matched, failed = run_nfa(nfa, frames({"a"}, {"b"}))
        assert matched == 1

    def test_delay_two(self):
        # a ##2 b: one free cycle between.
        nfa = compile_sequence(SCat(SBool(Sig("a")), SBool(Sig("b")), delay=2))
        matched, _ = run_nfa(nfa, frames({"a"}, set(), {"b"}))
        assert matched == 2
        matched, failed = run_nfa(nfa, frames({"a"}, {"b"}, set()))
        assert matched is None

    def test_repeat_exact(self):
        nfa = compile_sequence(SRepeat(Sig("a"), 2, 2))
        matched, _ = run_nfa(nfa, frames({"a"}, {"a"}))
        assert matched == 1

    def test_repeat_range(self):
        nfa = compile_sequence(scat(SRepeat(Sig("a"), 0, 2), SBool(Sig("b"))))
        for lead in range(3):
            trace = frames(*([{"a"}] * lead + [{"b"}]))
            matched, _ = run_nfa(nfa, trace)
            assert matched == lead

    def test_unbounded_repeat(self):
        nfa = compile_sequence(scat(SRepeat(Sig("a"), 0, None), SBool(Sig("b"))))
        trace = frames(*([{"a"}] * 7 + [{"b"}]))
        matched, _ = run_nfa(nfa, trace)
        assert matched == 7

    def test_empty_match_detection(self):
        nfa = compile_sequence(SRepeat(Sig("a"), 0, None))
        assert nfa.starts_accepting()
        nfa2 = compile_sequence(SBool(Sig("a")))
        assert not nfa2.starts_accepting()


class TestPaperSection33:
    """Figure 6's trace: the events occur in the order dst (St x @WB)
    then src (Ld x=0 @WB never happens; the load returns 1)."""

    def reversed_trace(self):
        # cycle 0-1: nothing; cycle 2: dst occurs (store WB); cycle 3:
        # the src event's instruction is at WB but with the wrong value
        # (load returns 1, src requires 0) -> 'src_any' high, 'src' low.
        return [
            {},
            {},
            {"dst": 1, "dst_any": 1},
            {"src_any": 1},
            {},
        ]

    def naive_edge(self):
        # ##[0:$] src ##[1:$] dst
        return scat(
            SRepeat(BConst(True), 0, None),
            SBool(SRC),
            SRepeat(BConst(True), 0, None),
            SBool(DST),
        )

    def strict_edge(self):
        # RTLCheck's §4.3 encoding: delays exclude events of interest
        # (matching the instruction/event regardless of data values).
        no_event = BNot(bor(Sig("src_any"), Sig("dst_any")))
        return scat(
            SRepeat(no_event, 0, None),
            SBool(SRC),
            SRepeat(no_event, 0, None),
            SBool(DST),
        )

    def test_naive_encoding_misses_the_violation(self):
        nfa = compile_sequence(self.naive_edge())
        matched, failed = run_nfa(nfa, self.reversed_trace())
        # The unbounded delay happily swallows the dst event: the
        # live-state set never empties, so no counterexample.
        assert matched is None
        assert failed is None

    def test_strict_encoding_refutes_the_violation(self):
        nfa = compile_sequence(self.strict_edge())
        matched, failed = run_nfa(nfa, self.reversed_trace())
        assert matched is None
        assert failed == 2  # the cycle dst occurs before src

    def test_strict_encoding_still_matches_correct_order(self):
        nfa = compile_sequence(self.strict_edge())
        trace = [
            {},
            {"src": 1, "src_any": 1},
            {},
            {"dst": 1, "dst_any": 1},
        ]
        matched, failed = run_nfa(nfa, trace)
        assert matched == 3 and failed is None

    def test_strict_encoding_rejects_wrong_value_event(self):
        """An event of interest with the wrong data value kills the
        delay cycles (the delay predicate ignores values)."""
        nfa = compile_sequence(self.strict_edge())
        trace = [
            {"src_any": 1},  # the load is at WB but with the wrong value
            {"dst": 1, "dst_any": 1},
        ]
        matched, failed = run_nfa(nfa, trace)
        assert failed == 0


# ---------------------------------------------------------------------------
# Property-based: NFA matching equals a brute-force reference matcher.
# ---------------------------------------------------------------------------


def reference_match_lengths(seq, trace, start=0):
    """All k such that seq matches trace[start:start+k] exactly."""
    from repro.sva.ast import SBool as B, SCat as C, SRepeat as R

    if isinstance(seq, B):
        if start < len(trace) and seq.expr.evaluate(trace[start]):
            return {1}
        return set()
    if isinstance(seq, R):
        lengths = set()
        hi = seq.hi if seq.hi is not None else len(trace) - start
        # k repetitions consume k cycles each matching expr.
        for k in range(seq.lo, max(seq.lo, hi) + 1):
            if start + k > len(trace):
                break
            if all(seq.expr.evaluate(trace[start + j]) for j in range(k)):
                if k >= seq.lo:
                    lengths.add(k)
            else:
                break
        if seq.lo == 0:
            lengths.add(0)
        return lengths
    if isinstance(seq, C):
        out = set()
        for left_len in reference_match_lengths(seq.left, trace, start):
            gap = seq.delay - 1
            for right_len in reference_match_lengths(
                seq.right, trace, start + left_len + gap
            ):
                out.add(left_len + gap + right_len)
        return out
    raise AssertionError(f"unhandled {seq!r}")


@st.composite
def small_sequences(draw, depth=0):
    sig = st.sampled_from(["a", "b"])
    choice = draw(st.integers(min_value=0, max_value=3 if depth < 2 else 1))
    if choice == 0:
        return SBool(Sig(draw(sig)))
    if choice == 1:
        lo = draw(st.integers(min_value=0, max_value=2))
        hi = draw(st.one_of(st.none(), st.integers(min_value=lo, max_value=3)))
        return SRepeat(Sig(draw(sig)), lo, hi)
    left = draw(small_sequences(depth=depth + 1))
    right = draw(small_sequences(depth=depth + 1))
    return SCat(left, right, delay=draw(st.integers(min_value=1, max_value=2)))


@settings(max_examples=120, deadline=None)
@given(
    small_sequences(),
    st.lists(
        st.fixed_dictionaries({"a": st.integers(0, 1), "b": st.integers(0, 1)}),
        min_size=1,
        max_size=6,
    ),
)
def test_nfa_agrees_with_reference_matcher(seq, trace):
    nfa = compile_sequence(seq)
    states = nfa.initial()
    # Zero-length match = starts_accepting.
    expected_zero = 0 in reference_match_lengths(seq, trace, 0)
    assert nfa.starts_accepting() == expected_zero
    for k in range(1, len(trace) + 1):
        states = nfa.step(states, trace[k - 1])
        expected = k in reference_match_lengths(seq, trace, 0)
        assert nfa.accepts(states) == expected, (seq.emit(), k)
