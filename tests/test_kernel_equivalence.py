"""Design step paths agree: batched, generic, and compiled.

Multi-V-scale is stepped three ways.  The verifier's graph expands each
state through the batched ``MultiVScale.step_batch`` (one settle shared
by every grant); the test-side reference loop restores, settles
and ticks once per input; and the trace harvest and the outcome
enumeration step raw slot tuples through the frame-free compiled
``state_step`` kernel (``repro.vscale.kernel``).  All three are
execution strategies for one semantics: verdicts, waveforms and graph
edges must agree exactly.  (``tests/test_kernel_codegen.py`` checks the
compiled step against the interpreter along random walks; the tests
here check it edge for edge over whole reach graphs, and the batched
path against the generic one through the full verification pipeline.)

Normalization: wall-clock fields (``*seconds``) and the counters that
measure a step path's own work (``PATH_COUNTERS``: the batched path
settles once per state and shares that frame across grants, so it
copies fewer slots and labels fewer frame objects) are stripped before
comparison — the only permitted divergence.
"""

import dataclasses
import json

import pytest

from repro import RTLCheck, get_test, paper_suite
from repro.litmus import compile_test
from repro.mapping import MultiVScaleProgramMapping
from repro.rtl.design import Design
from repro.rtl.vcd import render_vcd
from repro.sva import AssumptionChecker
from repro.verifier.reach import ReachGraph
from repro.vscale.soc import MultiVScale
from repro.vscale.trace import harvest_traces
from tests.test_state_backend import per_input_step_batch
from tests.test_trace_harvest import assert_same_harvest, reference_harvest

SUBSET = ["mp", "sb", "lb", "iwp24", "n4"]
VARIANTS = ["fixed", "buggy"]


class _GenericMultiVScale(MultiVScale):
    """Multi-V-scale expanded by the per-input restore/eval_comb/tick
    reference loop instead of its batched ``step_batch``."""

    step_batch = per_input_step_batch


def _generic_design_factory(compiled, variant):
    return _GenericMultiVScale(compiled, variant)


#: Step path name -> RTLCheck design factory (``None``: the default,
#: batched Multi-V-scale).
PATHS = {"batched": None, "generic": _generic_design_factory}

PATH_COUNTERS = frozenset(
    {"state.batch_expansions", "state.slots_copied", "valuation.frames_labelled"}
)


def _scrub(obj):
    """Drop wall-clock fields and step-path counters, recursively."""
    if isinstance(obj, dict):
        return {
            key: _scrub(value)
            for key, value in obj.items()
            if not (
                isinstance(key, str)
                and (key.endswith("seconds") or key in PATH_COUNTERS)
            )
        }
    if isinstance(obj, list):
        return [_scrub(item) for item in obj]
    return obj


def _canonical(verification) -> str:
    return json.dumps(_scrub(verification.to_dict()), sort_keys=True)


def _build_full_graph(name, variant):
    """Fully expand a ReachGraph; return (graph, design)."""
    compiled = compile_test(get_test(name))
    design = MultiVScale(compiled, variant)
    assumptions = MultiVScaleProgramMapping(compiled).all_assumptions()
    graph = ReachGraph(design, AssumptionChecker(assumptions))
    frontier = [graph.root]
    seen = {graph.root}
    while frontier:
        node = frontier.pop()
        for _index, _inputs, _frame, child in graph.live_successors(node):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return graph, design


class TestVerdictEquivalence:
    """Full-pipeline agreement of the batched and generic step paths:
    verdicts, modeled hours, graph sizes, waveforms."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", SUBSET)
    def test_serialized_verdicts_identical(self, name, variant):
        results = {
            path: RTLCheck(design_factory=factory, observe=True).verify_test(
                get_test(name), memory_variant=variant
            )
            for path, factory in PATHS.items()
        }
        batched, generic = (results[path] for path in PATHS)
        assert _canonical(batched) == _canonical(generic), f"{name}/{variant}"
        assert batched.modeled_hours == generic.modeled_hours
        assert batched.graph_states == generic.graph_states
        assert batched.graph_transitions == generic.graph_transitions

    def test_counterexample_vcd_identical(self):
        """Buggy-memory counterexamples render to byte-identical VCD."""
        traces = {}
        for path, factory in PATHS.items():
            result = RTLCheck(design_factory=factory).verify_test(
                get_test("mp"), memory_variant="buggy"
            )
            failed = [
                p
                for p in result.properties
                if p.ground_truth.counterexample is not None
            ]
            assert failed, "buggy mp must produce a counterexample"
            traces[path] = [
                [frame for _inputs, frame in p.ground_truth.counterexample]
                for p in failed
            ]
        assert len(traces["batched"]) == len(traces["generic"])
        for batched, generic in zip(traces["batched"], traces["generic"]):
            assert render_vcd(batched) == render_vcd(generic)


class TestGraphStructure:
    """The compiled kernel reproduces every edge of a reach graph."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_graphs_isomorphic_by_construction_order(self, variant):
        """Visit the fully built mp graph node by node in construction
        order: the compiled ``step_state`` of the node's slot vector,
        with the grant slot patched per input choice, lands on the slot
        vector of every live child, and the compiled ``drained`` agrees
        with the interpreter's."""
        graph, design = _build_full_graph("mp", variant)
        stepper = design.state_step()
        assert stepper.start == design.state_vector(graph.snap(graph.root))
        assert len(stepper.selects) == len(graph.input_space)
        live_edges = 0
        for node in range(graph.num_nodes):
            snap = graph.snap(node)
            vec = design.state_vector(snap)
            design.restore(snap)
            assert stepper.drained(vec) == design.drained()
            buf = stepper.step_state(vec)
            for select, edge in zip(stepper.selects, graph.successors(node)):
                if edge is None:
                    continue
                buf[stepper.grant_slot] = select
                assert tuple(buf) == design.state_vector(graph.snap(edge[1]))
                live_edges += 1
        assert live_edges >= graph.num_nodes - 1


class TestHarvestDeterminism:
    """The trace oracle's harvest runs on the compiled kernel: it
    reproduces the interpreter's reference ``step_batch`` wavefront
    (``tests/test_trace_harvest.py``) and is deterministic in
    ``(test, seed, samples)``."""

    def test_harvest_deterministic_on_kernel(self):
        first = harvest_traces(get_test("sb"), "buggy", samples=5, seed=11)
        second = harvest_traces(get_test("sb"), "buggy", samples=5, seed=11)
        assert_same_harvest(first, second)
        assert_same_harvest(
            first,
            reference_harvest(get_test("sb"), "buggy", samples=5, seed=11),
        )


class TestBackendSelection:
    """The compiled kernel is no state backend: nothing selects one."""

    def test_unknown_backend_rejected(self):
        with pytest.raises(TypeError):
            MultiVScale(
                compile_test(get_test("mp")), "fixed", state_backend="kernel"
            )
        assert not hasattr(Design, "enable_kernel_state")

    def test_fuzz_config_validates_backend(self):
        from repro.difftest.runner import FuzzConfig

        assert "state_backend" not in {
            f.name for f in dataclasses.fields(FuzzConfig)
        }
        with pytest.raises(TypeError):
            FuzzConfig(state_backend="kernel")


def _bounded_code_cache(monkeypatch, maxsize):
    """Give ``build_state_step`` a fresh code cache of ``maxsize``
    layouts."""
    import functools

    from repro.vscale import kernel as vscale_kernel

    cache = functools.lru_cache(maxsize=maxsize)(
        vscale_kernel._layout_code.__wrapped__
    )
    monkeypatch.setattr(vscale_kernel, "_layout_code", cache)
    return cache


class TestCompileCache:
    """The compiled kernel's code cache is a bounded LRU whose
    evictions are invisible: a recompiled step is the same code."""

    def test_lru_evicts_least_recently_used(self, monkeypatch):
        from repro.vscale.kernel import (
            KERNEL_CACHE_SIZE,
            _layout_code,
            build_state_step,
        )

        # A whole suite (56 tests x 2 memory variants) stays cache-hot.
        assert KERNEL_CACHE_SIZE > 2 * len(paper_suite())
        assert _layout_code.cache_info().maxsize == KERNEL_CACHE_SIZE
        cache = _bounded_code_cache(monkeypatch, 2)
        mp = compile_test(get_test("mp"))
        # co-mp declares one data word fewer: another buggy-memory layout.
        co_mp = compile_test(get_test("co-mp"))

        def code(compiled, variant):
            return build_state_step(MultiVScale(compiled, variant))[0].__code__

        a, b = code(mp, "fixed"), code(mp, "buggy")
        assert code(mp, "fixed") is a  # refreshes mp/fixed
        code(co_mp, "buggy")  # a third layout evicts mp/buggy
        assert cache.cache_info().currsize == 2
        assert code(mp, "fixed") is a
        assert code(mp, "buggy") is not b

    def test_evicted_kernel_recompiles_identically(self, monkeypatch):
        from repro.vscale import kernel as vscale_kernel

        cache = _bounded_code_cache(monkeypatch, 1)
        mp = compile_test(get_test("mp"))
        first, _ = vscale_kernel.build_state_step(MultiVScale(mp, "fixed"))
        # The buggy memory's layout differs, so its code evicts mp's
        # from the 1-entry cache.
        vscale_kernel.build_state_step(MultiVScale(mp, "buggy"))
        assert cache.cache_info().currsize == 1
        again, _ = vscale_kernel.build_state_step(MultiVScale(mp, "fixed"))
        assert again.__code__ is not first.__code__
        assert again.__code__.co_code == first.__code__.co_code
        assert again.__code__.co_consts == first.__code__.co_consts
