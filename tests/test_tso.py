"""Tests for the x86-TSO extension: Multi-V-scale-TSO, its µspec model,
and the end-to-end RTLCheck flow on a weaker memory model.

The paper's method claims support for "arbitrary ISA-level MCMs,
including ones as sophisticated as x86-TSO" (§1); these tests exercise
that claim end to end on the store-buffer variant.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RTLCheck, get_test, paper_suite
from repro.errors import MappingError, RtlError
from repro.litmus import LitmusTest, Outcome, compile_test, fence, load, store
from repro.mapping import MultiVScaleTsoNodeMapping
from repro.memodel import enumerate_tso_outcomes, sc_allowed, tso_allowed
from repro.rtl import Simulator
from repro.uhb import microarch_observable
from repro.uspec import load_model
from repro.vscale import STORE_BUFFER_CAPACITY, MultiVScaleTSO
from tests.test_state_backend import component_state


def run_to_drain(soc, schedule, max_cycles=150):
    sim = Simulator(soc)
    iterator = iter(schedule)
    for _ in range(max_cycles):
        sim.step({"arb_select": next(iterator, 0)})
        if soc.drained():
            return sim
    raise AssertionError("TSO SoC did not drain")


def sb_fences_test():
    return LitmusTest.of(
        "sb+fences",
        [[store("x", 1), fence(), load("y", "r1")],
         [store("y", 1), fence(), load("x", "r2")]],
        Outcome.of({"r1": 0, "r2": 0}),
    )


class TestTsoDesignBehaviour:
    def test_store_buffering_relaxation_observable(self):
        """The defining TSO behaviour: sb's SC-forbidden outcome occurs."""
        compiled = compile_test(get_test("sb"))
        rng = random.Random(7)
        seen = set()
        for _ in range(400):
            soc = MultiVScaleTSO(compiled)
            sim = run_to_drain(soc, [rng.randrange(4) for _ in range(150)])
            seen.add(tuple(sorted(soc.register_results().items())))
            if (("r1", 0), ("r2", 0)) in seen:
                break
        assert (("r1", 0), ("r2", 0)) in seen

    @pytest.mark.parametrize("name", ["mp", "lb", "iriw", "co-mp", "ssl", "n4"])
    def test_outcomes_within_tso_oracle(self, name):
        test = get_test(name)
        compiled = compile_test(test)
        allowed = {
            tuple(sorted(dict(f[0]).items()))
            for f in enumerate_tso_outcomes(test)
        }
        rng = random.Random(3)
        for _ in range(150):
            soc = MultiVScaleTSO(compiled)
            run_to_drain(soc, [rng.randrange(4) for _ in range(150)])
            regs = tuple(sorted(soc.register_results().items()))
            assert regs in allowed, (name, regs)

    def test_forwarding_from_store_buffer(self):
        """A load po-after an own same-address store forwards (ssl's
        forbidden outcome is impossible even before the drain)."""
        compiled = compile_test(get_test("ssl"))
        soc = MultiVScaleTSO(compiled)
        # Never grant core 0 until its load must forward.
        sim = run_to_drain(soc, [0, 0, 0, 0] + [0] * 60)
        assert soc.register_results() == {"r1": 1}

    def test_fence_drains_buffer(self):
        test = sb_fences_test()
        compiled = compile_test(test)
        rng = random.Random(11)
        for _ in range(200):
            soc = MultiVScaleTSO(compiled)
            run_to_drain(soc, [rng.randrange(4) for _ in range(150)])
            regs = soc.register_results()
            assert (regs["r1"], regs["r2"]) != (0, 0)

    def test_store_buffer_capacity_stalls(self):
        # Three stores back to back: the third must stall until a drain.
        test = LitmusTest.of(
            "3w",
            [[store("x", 1), store("y", 1), store("z", 1)]],
            Outcome.of({}),
        )
        compiled = compile_test(test)
        soc = MultiVScaleTSO(compiled)
        sim = Simulator(soc)
        stalled = False
        for cycle in range(20):
            frame = sim.step({"arb_select": 3})  # never grant core 0
            if frame["core[0].stall_DX"] and frame["core[0].dmem_type_DX"] == 2:
                stalled = True
                # Occupancy = buffered entries plus the store in WB
                # about to push; the stall holds it at capacity.
                assert frame["core[0].sb_count"] in (
                    STORE_BUFFER_CAPACITY - 1,
                    STORE_BUFFER_CAPACITY,
                )
                break
        assert stalled

    def test_drained_memory_holds_all_stores(self):
        compiled = compile_test(get_test("mp"))
        soc = MultiVScaleTSO(compiled)
        run_to_drain(soc, [0, 1, 2, 3] * 30)
        assert soc.memory_results() == {"x": 1, "y": 1}

    def test_commit_signals_expose_memory_stage(self):
        compiled = compile_test(get_test("ssl"))
        soc = MultiVScaleTSO(compiled)
        sim = Simulator(soc)
        commits = []
        for _ in range(40):
            frame = sim.step({"arb_select": 0})
            if frame["core[0].commit_valid"]:
                commits.append(frame["core[0].commit_pc"])
            if soc.drained():
                break
        assert commits  # the store's Memory-stage event occurred
        from repro.vscale.params import core_base_pc

        assert commits == [core_base_pc(0)]

    def test_bad_drain_order_rejected(self):
        with pytest.raises(RtlError):
            MultiVScaleTSO(compile_test(get_test("mp")), drain_order="random")

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=25))
    def test_snapshot_restore_determinism(self, schedule):
        compiled = compile_test(get_test("sb"))
        soc = MultiVScaleTSO(compiled)
        for select in schedule:
            soc.eval_comb({"arb_select": select})
            soc.tick()
        snap = soc.snapshot()
        soc.reset()
        for select in schedule:
            soc.eval_comb({"arb_select": select})
            soc.tick()
        assert soc.snapshot() == snap


class TestTsoSlotState:
    """Multi-V-scale-TSO snapshots to interned slot vectors; the
    encoding must lose nothing and restore must resume exactly."""

    @staticmethod
    def _structural_state(soc):
        """The state read straight off the design's objects, independent
        of the slot encoding."""
        return (
            tuple(component_state(core) for core in soc.cores),
            component_state(soc.arbiter),
            tuple(sorted(soc.array.items())),
            tuple(tuple(buffer) for buffer in soc.buffers),
            soc.pending,
        )

    @staticmethod
    def _run(soc, schedule):
        frames = []
        for select in schedule:
            frames.append(soc.eval_comb({"arb_select": select}))
            soc.tick()
        return frames

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["sb", "mp", "rfi006", "co-mp"]),
        drain=st.sampled_from(["fifo", "lifo"]),
        prefix_a=st.lists(st.integers(0, 3), max_size=14),
        prefix_b=st.lists(st.integers(0, 3), max_size=14),
    )
    def test_slot_encoding_is_injective(self, name, drain, prefix_a, prefix_b):
        """Two executions intern to one id exactly when their cores,
        arbiter, array, store buffers and pending transaction agree."""
        soc = MultiVScaleTSO(compile_test(get_test(name)), drain)
        structural, ids = [], []
        for schedule in (prefix_a, prefix_b):
            soc.reset()
            self._run(soc, schedule)
            structural.append(self._structural_state(soc))
            ids.append(soc.snapshot())
        assert (ids[0] == ids[1]) == (structural[0] == structural[1])

    @settings(max_examples=30, deadline=None)
    @given(
        drain=st.sampled_from(["fifo", "lifo"]),
        prefix=st.lists(st.integers(0, 3), max_size=14),
        detour=st.lists(st.integers(0, 3), min_size=1, max_size=8),
        suffix=st.lists(st.integers(0, 3), min_size=1, max_size=14),
    )
    def test_restore_resumes_identical_frames(self, drain, prefix, detour, suffix):
        compiled = compile_test(get_test("rfi006"))
        soc = MultiVScaleTSO(compiled, drain)
        self._run(soc, prefix)
        saved = soc.snapshot()
        expected_state = self._structural_state(soc)
        self._run(soc, detour)
        soc.restore(saved)
        assert self._structural_state(soc) == expected_state
        reference = MultiVScaleTSO(compiled, drain)
        self._run(reference, prefix)
        assert self._run(soc, suffix) == self._run(reference, suffix)

    def test_buffers_fill_to_capacity_within_the_layout(self):
        """Three back-to-back stores with core 0 never granted hold two
        buffered entries, and the state still round-trips."""
        test = LitmusTest.of(
            "3w",
            [[store("x", 1), store("y", 1), store("z", 1)]],
            Outcome.of({}),
        )
        soc = MultiVScaleTSO(compile_test(test))
        self._run(soc, [3] * 12)
        assert len(soc.buffers[0]) == STORE_BUFFER_CAPACITY
        state = self._structural_state(soc)
        snap = soc.snapshot()
        soc.reset()
        soc.restore(snap)
        assert self._structural_state(soc) == state


class TestTsoNodeMapping:
    def test_memory_stage_maps_to_commit_signals(self):
        compiled = compile_test(get_test("mp"))
        mapping = MultiVScaleTsoNodeMapping(compiled)
        text = mapping.map_node((1, "Memory"), None).emit()
        assert "commit_valid" in text and "commit_pc" in text

    def test_memory_stage_on_load_rejected(self):
        compiled = compile_test(get_test("mp"))
        mapping = MultiVScaleTsoNodeMapping(compiled)
        with pytest.raises(MappingError):
            mapping.map_node((3, "Memory"), None)  # i3 is a load

    def test_other_stages_unchanged(self):
        compiled = compile_test(get_test("mp"))
        mapping = MultiVScaleTsoNodeMapping(compiled)
        assert "PC_WB" in mapping.map_node((1, "Writeback"), None).emit()


class TestTsoMicroarchModel:
    @pytest.mark.parametrize(
        "name", ["mp", "sb", "lb", "iriw", "co-mp", "ssl", "n6", "rwc", "n2"]
    )
    def test_uhb_verdict_matches_tso_oracle(self, name):
        model = load_model("multi_vscale_tso")
        test = get_test(name)
        result = microarch_observable(model, test)
        assert result.observable == tso_allowed(test), name

    def test_sb_observable_under_tso_but_not_sc(self):
        model = load_model("multi_vscale_tso")
        sb = get_test("sb")
        assert microarch_observable(model, sb).observable
        assert not sc_allowed(sb)

    def test_fences_restore_order(self):
        model = load_model("multi_vscale_tso")
        result = microarch_observable(model, sb_fences_test())
        assert not result.observable

    @pytest.mark.slow
    def test_uhb_matches_tso_oracle_on_full_suite(self):
        model = load_model("multi_vscale_tso")
        for test in paper_suite():
            result = microarch_observable(model, test)
            assert result.observable == tso_allowed(test), test.name


class TestTsoRtlCheck:
    @pytest.fixture(scope="class")
    def rtlcheck(self):
        return RTLCheck.for_tso()

    def test_sb_verified_despite_relaxation(self, rtlcheck):
        """sb's SC-forbidden outcome is reachable (so no covering-trace
        shortcut), yet every TSO axiom assertion is satisfied."""
        result = rtlcheck.verify_test(get_test("sb"))
        assert not result.verified_by_cover
        assert "final_values" in result.cover.fired_assumptions
        assert result.verified
        assert not result.bug_found

    @pytest.mark.parametrize("name", ["mp", "lb", "ssl", "co-mp", "n4", "rfi000"])
    def test_suite_slice_verifies(self, rtlcheck, name):
        result = rtlcheck.verify_test(get_test(name))
        assert result.verified, result.summary()

    def test_lifo_drain_bug_caught(self, rtlcheck):
        result = rtlcheck.verify_test(get_test("mp"), memory_variant="buggy")
        assert result.bug_found
        assert any("Store_Buffer_FIFO" in p.name for p in result.counterexamples)

    def test_generated_sva_uses_commit_signals(self, rtlcheck):
        generated = rtlcheck.generate(get_test("mp"))
        assert "commit_valid" in generated.sva_text
        assert any("Store_Buffer_FIFO" in d.name for d in generated.assertions)

    @pytest.mark.slow
    def test_full_suite_verifies_under_tso(self, rtlcheck):
        for test in paper_suite():
            result = rtlcheck.verify_test(test)
            assert result.verified, result.summary()
