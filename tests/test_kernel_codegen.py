"""Property tests for the compiled step-kernel codegen.

The kernel backend's compiled step must be a bit-exact replacement for
the interpreter over *every* reachable slot vector — including the
``-1``-for-None sentinel slots (no pending writeback register, no
in-flight memory transaction) and the buggy memory's write-capture
slots.  Hypothesis drives randomly generated litmus programs through
random arbiter schedules on the kernel and array backends in lockstep
and requires the same frames, the same successor slot vectors, and the
same quiescence verdicts at every cycle; the frame-free compiled step
is checked against the interpreter the same way.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import get_test
from repro.difftest.generate import FuzzGenerator
from repro.litmus import compile_test
from repro.sva import AssumptionChecker
from repro.vscale.soc import MultiVScale

def _keep_all(frame, repeats):
    return True


def _restored_drained(design, state):
    design.restore(state)
    return design.drained()


#: One deterministic generator: ``test_at(i)`` is a pure function of
#: ``(seed, i)``, so hypothesis shrinks over a stable test stream.
_GENERATOR = FuzzGenerator(20260808)


def _designs(index, variant):
    test = _GENERATOR.test_at(index)
    compiled = compile_test(test)
    kernel = MultiVScale(compiled, variant, state_backend="kernel")
    array = MultiVScale(compiled, variant, state_backend="array")
    kernel.reset()
    array.reset()
    return kernel, array


class TestScalarKernel:
    @given(
        index=st.integers(0, 150),
        schedule=st.lists(st.integers(0, 3), min_size=1, max_size=10),
        variant=st.sampled_from(["fixed", "buggy"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_steps_match_interpreter(self, index, schedule, variant):
        """Frame-for-frame, slot-for-slot agreement along one walk."""
        kernel, array = _designs(index, variant)
        k_state, a_state = kernel.snapshot(), array.snapshot()
        assert kernel.state_vector(k_state) == array.state_vector(a_state)
        inputs = kernel.input_space()
        for select in schedule:
            k_edges = kernel.step_batch(k_state, inputs, _keep_all)
            a_edges = array.step_batch(a_state, inputs, _keep_all)
            assert len(k_edges) == len(a_edges)
            for (k_frame, k_child), (a_frame, a_child) in zip(
                k_edges, a_edges
            ):
                assert dict(k_frame) == dict(a_frame)
                assert list(k_frame.keys()) == list(a_frame.keys())
                assert kernel.state_vector(k_child) == array.state_vector(
                    a_child
                )
            assert _restored_drained(kernel, k_state) == _restored_drained(
                array, a_state
            )
            pick = select % len(k_edges)
            k_state = k_edges[pick][1]
            a_state = a_edges[pick][1]

    @given(
        index=st.integers(0, 150),
        schedule=st.lists(st.integers(0, 3), min_size=0, max_size=8),
        variant=st.sampled_from(["fixed", "buggy"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_fused_check_matches_hook(self, index, schedule, variant):
        """The fused compiled assumption check prunes exactly the edges
        the interpreter hook prunes, with identical counter effects."""
        test = _GENERATOR.test_at(index)
        compiled = compile_test(test)
        from repro.mapping import MultiVScaleProgramMapping

        assumptions = MultiVScaleProgramMapping(compiled).all_assumptions()
        kernel = MultiVScale(compiled, variant, state_backend="kernel")
        array = MultiVScale(compiled, variant, state_backend="array")
        kernel.reset()
        array.reset()
        k_checker = AssumptionChecker(assumptions)
        a_checker = AssumptionChecker(assumptions)
        k_state, a_state = kernel.snapshot(), array.snapshot()
        inputs = kernel.input_space()
        first = 1
        for select in schedule:
            k_steps = kernel.step_batch_checked(
                k_state, inputs, k_checker, first
            )
            a_steps = array.step_batch_checked(
                a_state, inputs, a_checker, first
            )
            assert [s is None for s in k_steps] == [
                s is None for s in a_steps
            ]
            assert k_checker.antecedent_firings == a_checker.antecedent_firings
            assert k_checker.pruned_frames == a_checker.pruned_frames
            for k_step, a_step in zip(k_steps, a_steps):
                if k_step is None:
                    continue
                assert dict(k_step[0]) == dict(a_step[0])
                assert kernel.state_vector(k_step[1]) == array.state_vector(
                    a_step[1]
                )
            live = [s for s in k_steps if s is not None]
            if not live:
                break
            k_state = live[select % len(live)][1]
            a_state = [s for s in a_steps if s is not None][
                select % len(live)
            ][1]
            first = 0


class TestSentinelSlots:
    def test_none_sentinels_round_trip(self):
        """States with no pending writeback/memory transaction encode
        ``None`` as ``-1`` in the slot vector; the kernel must decode
        and re-encode them exactly."""
        compiled = compile_test(get_test("mp"))
        kernel = MultiVScale(compiled, "fixed", state_backend="kernel")
        kernel.reset()
        root = kernel.snapshot()
        vec = kernel.state_vector(root)
        assert -1 in vec, "reset state must carry None sentinels"
        # Stepping the reset vector through the compiled kernel and the
        # interpreter produces identical sentinel placements.
        array = MultiVScale(compiled, "fixed", state_backend="array")
        array.reset()
        inputs = kernel.input_space()
        k_edges = kernel.step_batch(root, inputs, _keep_all)
        a_edges = array.step_batch(array.snapshot(), inputs, _keep_all)
        for (k_frame, k_child), (_a_frame, a_child) in zip(k_edges, a_edges):
            assert kernel.state_vector(k_child) == array.state_vector(a_child)


class TestLayoutSharedCode:
    """Per-program data lives in the kernel namespace (``IMEM``/``NI``/
    ``DEC``), so the frame-free sources depend on the slot layout only
    and designs on one layout share compiled code."""

    @pytest.mark.parametrize("variant", ["fixed", "buggy"])
    def test_programs_on_one_layout_share_code(self, monkeypatch, variant):
        from repro.vscale import kernel as vscale_kernel

        monkeypatch.setattr(vscale_kernel, "_CODE_CACHE", vscale_kernel._Lru(8))
        mp = MultiVScale(compile_test(get_test("mp")), variant)
        iriw = MultiVScale(compile_test(get_test("iriw")), variant)
        assert [len(c.imem) for c in mp.cores] != [len(c.imem) for c in iriw.cores]
        sources = {
            vscale_kernel._generate_step_source(
                vscale_kernel._KernelSpec(design), with_frame=False
            )
            for design in (mp, iriw)
        }
        assert len(sources) == 1
        steps = [vscale_kernel.build_state_step(d) for d in (mp, iriw)]
        # One step_state and one drained code object, shared.
        assert len(vscale_kernel._CODE_CACHE) == 2
        assert steps[0][0].__code__ is steps[1][0].__code__
        assert steps[0][0] is not steps[1][0]

        # Each design steps its own program: follow a fixed schedule to
        # quiescence against the interpreter.
        for design, (step_state, drained) in zip((mp, iriw), steps):
            inputs = design.input_space()
            grant_slot = design.state_step().grant_slot
            state = design.snapshot()
            vec = design.state_vector(state)
            for cycle in range(200):
                assert drained(vec) == _restored_drained(design, state)
                if drained(vec):
                    break
                grant = cycle % len(inputs)
                state = design.step_batch(state, inputs, _keep_all)[grant][1]
                buf = step_state(vec)
                buf[grant_slot] = grant
                vec = tuple(buf)
                assert vec == design.state_vector(state)
            else:
                pytest.fail("schedule did not drain")

    def test_build_state_step_leaves_numpy_unimported(self):
        """No compiled step path — the harvest, the outcome enumeration,
        the kernel backend — imports numpy (a fresh interpreter, so no
        other test's import can mask it)."""
        script = (
            "import sys\n"
            "from repro import get_test\n"
            "from repro.difftest.oracles import rtl_verdicts\n"
            "from repro.litmus import compile_test\n"
            "from repro.vscale.kernel import build_state_step\n"
            "from repro.vscale.soc import MultiVScale\n"
            "from repro.vscale.trace import harvest_traces\n"
            "assert 'numpy' not in sys.modules\n"
            "build_state_step(MultiVScale(compile_test(get_test('mp'))))\n"
            "harvest_traces(get_test('sb'), 'buggy')\n"
            "rtl_verdicts(get_test('sb'), 'buggy')\n"
            "MultiVScale(compile_test(get_test('mp')), state_backend='kernel')\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(repro.__path__[0])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        subprocess.run([sys.executable, "-c", script], env=env, check=True)
