"""Tests for the per-phase timing fields on :class:`TestVerification`.

These fields (added alongside the shared reachability-graph cache)
profile where verification wall-clock goes; the invariants here pin
their meaning: phases are disjoint slices of the wall time, graph
counters are populated, and every property carries its own check time.
"""

import pytest

from repro import RTLCheck, get_test


@pytest.fixture(scope="module")
def sb_graph():
    """sb — it survives the cover shortcut, so both cover and proof
    phases run."""
    return RTLCheck().verify_test(get_test("sb"), memory_variant="fixed")


class TestPhaseBudget:
    def test_phases_fit_inside_wall(self, sb_graph):
        assert (
            sb_graph.cover_seconds + sb_graph.proof_seconds
            <= sb_graph.wall_seconds
        )

    def test_phases_fit_inside_wall_cover_shortcut(self):
        result = RTLCheck().verify_test(get_test("mp"), memory_variant="fixed")
        assert result.verified_by_cover
        assert result.proof_seconds == 0.0
        assert result.cover_seconds <= result.wall_seconds


class TestGraphCounters:
    def test_graph_explorer_populates_graph_fields(self, sb_graph):
        assert sb_graph.graph_states > 0
        assert sb_graph.graph_transitions > 0
        assert 0.0 < sb_graph.graph_build_seconds < sb_graph.wall_seconds


class TestPropertyTiming:
    def test_every_property_has_check_seconds(self, sb_graph):
        assert sb_graph.properties  # sb runs the full proof phase
        for prop in sb_graph.properties:
            assert prop.check_seconds > 0.0, prop.name

    def test_property_times_fit_inside_proof_phase(self, sb_graph):
        total = sum(p.check_seconds for p in sb_graph.properties)
        assert total <= sb_graph.proof_seconds
