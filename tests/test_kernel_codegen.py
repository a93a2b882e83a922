"""Property tests for the compiled frame-free step.

``MultiVScale.state_step()`` hands the trace harvest and the outcome
enumeration a compiled ``step_state``/``drained`` pair over flat slot
vectors.  It must be a bit-exact replacement for the interpreter
(``restore`` -> ``eval_comb`` -> ``tick`` -> ``snapshot``) over *every*
reachable slot vector — including the ``-1``-for-None sentinel slots
(no pending writeback register, no in-flight memory transaction) and
the buggy memory's write-capture slots.  Hypothesis drives randomly
generated litmus programs through random arbiter schedules on both
paths in lockstep and requires the same successor slot vector for
every grant choice and the same quiescence verdict at every cycle.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import get_test
from repro.difftest.generate import FuzzGenerator
from repro.litmus import compile_test
from repro.vscale.soc import MultiVScale


def _keep_all(frame, repeats):
    return True


def _restored_drained(design, state):
    design.restore(state)
    return design.drained()


def _interpreted_successors(design, state):
    """Every grant choice's successor of ``state``, one interpreted
    ``eval_comb``/``tick`` per choice."""
    successors = []
    for inputs in design.input_space():
        design.restore(state)
        design.eval_comb(inputs)
        design.tick()
        successors.append(design.snapshot())
    return successors


def _compiled_successors(stepper, vec):
    """Every grant choice's successor of ``vec`` through the compiled
    step: one ``step_state`` call, then the grant slot patched."""
    buf = stepper.step_state(vec)
    successors = []
    for select in stepper.selects:
        buf[stepper.grant_slot] = select
        successors.append(tuple(buf))
    return successors


#: One deterministic generator: ``test_at(i)`` is a pure function of
#: ``(seed, i)``, so hypothesis shrinks over a stable test stream.
_GENERATOR = FuzzGenerator(20260808)


class TestScalarKernel:
    @given(
        index=st.integers(0, 150),
        schedule=st.lists(st.integers(0, 3), min_size=1, max_size=12),
        variant=st.sampled_from(["fixed", "buggy"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_steps_match_interpreter(self, index, schedule, variant):
        """Slot-for-slot, grant-for-grant agreement along one walk."""
        design = MultiVScale(compile_test(_GENERATOR.test_at(index)), variant)
        stepper = design.state_step()
        state = design.snapshot()
        vec = stepper.start
        assert vec == design.state_vector(state)
        for select in schedule:
            assert stepper.drained(vec) == _restored_drained(design, state)
            interpreted = _interpreted_successors(design, state)
            compiled = _compiled_successors(stepper, vec)
            assert compiled == [design.state_vector(s) for s in interpreted]
            pick = select % len(compiled)
            state, vec = interpreted[pick], compiled[pick]
        assert stepper.drained(vec) == _restored_drained(design, state)


class TestSentinelSlots:
    def test_none_sentinels_round_trip(self):
        """States with no pending writeback/memory transaction encode
        ``None`` as ``-1`` in the slot vector; ``step_state`` must decode
        and re-encode them exactly."""
        design = MultiVScale(compile_test(get_test("mp")), "fixed")
        stepper = design.state_step()
        root = design.snapshot()
        assert -1 in stepper.start, "reset state must carry None sentinels"
        # Stepping the reset vector through the compiled step and the
        # interpreter produces identical sentinel placements.
        interpreted = _interpreted_successors(design, root)
        assert _compiled_successors(stepper, stepper.start) == [
            design.state_vector(s) for s in interpreted
        ]


def _design_spec(design):
    """Every static parameter of ``design`` the kernel could read, taken
    from the design directly rather than through ``_Layout.of``."""
    from types import SimpleNamespace

    from repro.vscale.memory import BuggyMemory, MemoryBase

    mem = design._mem_base
    words = tuple(design.memory.slot_words)
    return SimpleNamespace(
        num_cores=design.arbiter.num_cores,
        core_bases=list(design._core_bases),
        base_pcs=[core.base_pc for core in design.cores],
        imems=[tuple(core.imem) for core in design.cores],
        arb=design._arb_base,
        mem=mem,
        buggy=isinstance(design.memory, BuggyMemory),
        words=words,
        woff=mem + MemoryBase.PENDING_SLOTS + len(words),
    )


class TestLayoutSharedCode:
    """Per-program data lives in the kernel namespace (``IMEM``/``NI``/
    ``DEC``), so the frame-free sources depend on the slot layout only
    and designs on one layout share compiled code."""

    @pytest.mark.parametrize("variant", ["fixed", "buggy"])
    def test_programs_on_one_layout_share_code(self, monkeypatch, variant):
        from repro.vscale import kernel as vscale_kernel

        cache = functools.lru_cache(maxsize=8)(vscale_kernel._layout_code.__wrapped__)
        monkeypatch.setattr(vscale_kernel, "_layout_code", cache)
        mp = MultiVScale(compile_test(get_test("mp")), variant)
        iriw = MultiVScale(compile_test(get_test("iriw")), variant)
        assert [len(c.imem) for c in mp.cores] != [len(c.imem) for c in iriw.cores]
        layouts = {vscale_kernel._Layout.of(design) for design in (mp, iriw)}
        assert len(layouts) == 1
        steps = [vscale_kernel.build_state_step(d) for d in (mp, iriw)]
        # One layout entry: one step_state and one drained code object,
        # both shared.
        assert cache.cache_info().currsize == 1
        assert steps[0][0].__code__ is steps[1][0].__code__
        assert steps[0][1].__code__ is steps[1][1].__code__
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

    def test_equal_layouts_generate_equal_sources(self):
        """Key completeness of the code cache: over the paper suite and
        the harvest pin's fuzz programs on both memories, designs with
        equal layout records need equal sources, generated from every
        parameter the design has (not only the record's), and those are
        the record's own sources."""
        from repro.vscale import kernel as vscale_kernel

        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
        try:
            from regen_golden_verdicts import harvest_tests
        finally:
            sys.path.pop(0)
        by_layout = {}
        designs = 0
        for _, test in harvest_tests():
            compiled = compile_test(test)
            for variant in ("fixed", "buggy"):
                design = MultiVScale(compiled, variant)
                spec = _design_spec(design)
                sources = (
                    vscale_kernel._generate_step_source(spec),
                    vscale_kernel._generate_drained_source(spec),
                )
                layout = vscale_kernel._Layout.of(design)
                assert sources == (
                    vscale_kernel._generate_step_source(layout),
                    vscale_kernel._generate_drained_source(layout),
                ), test.name
                by_layout.setdefault(layout, set()).add(sources)
                designs += 1
        assert all(len(sources) == 1 for sources in by_layout.values())
        # Several programs share each layout, so the cache is exercised.
        assert len(by_layout) < designs // 4

    def test_build_state_step_leaves_numpy_unimported(self):
        """No compiled step path — the harvest, the outcome enumeration
        — imports numpy (a fresh interpreter, so no other test's import
        can mask it)."""
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
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(repro.__path__[0])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        subprocess.run([sys.executable, "-c", script], env=env, check=True)

