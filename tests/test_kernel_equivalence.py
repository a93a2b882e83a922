"""Kernel vs. array state-backend equivalence.

The kernel backend (``repro.rtl.kernel`` / ``repro.vscale.kernel``)
keeps the array backend's interned flat slot vectors but steps them
with a per-design *compiled* function — closure-compiled straight-line
Python generated from the design's slot layout, plus a fused compiled
assumption check.  It is a pure execution-strategy change: verdicts,
reach graphs, simulated traces, VCD waveforms, and fuzz reports must be
bit-identical to the interpreted array backend.  These tests prove that
contract end to end.  (The architectural enumeration and the trace
harvest run on the frame-free compiled step whatever the backend;
``tests/test_rtl_enumeration.py`` and ``tests/test_trace_harvest.py``
check them against interpreter references.)

Normalization: wall-clock fields (``*seconds``), the vector-backend
``state.*`` counters, and the kernel-only ``kernel.*`` counters are
stripped before comparison — the only permitted divergence.

Set ``RTLCHECK_STATE_BACKEND_FULL=1`` to sweep the full 56-test suite
on both memory variants (minutes); the default subset keeps CI fast.
"""

import json
import os
import pickle

import pytest

from repro import RTLCheck, get_test, paper_suite
from repro.errors import ReproError
from repro.litmus import compile_test
from repro.mapping import MultiVScaleProgramMapping
from repro.rtl.vcd import render_vcd
from repro.sva import AssumptionChecker
from repro.verifier.reach import ReachGraph
from repro.verifier.simulation import simulate_check
from repro.vscale.soc import MultiVScale
from repro.vscale.trace import harvest_traces
from tests.test_trace_harvest import assert_same_harvest, reference_harvest

BACKENDS = ["kernel", "array"]
SUBSET = ["mp", "sb", "lb", "iwp24", "n4"]
VARIANTS = ["fixed", "buggy"]

FULL_SWEEP = os.environ.get("RTLCHECK_STATE_BACKEND_FULL") == "1"
SWEEP = [t.name for t in paper_suite()] if FULL_SWEEP else SUBSET


def _scrub(obj):
    """Drop wall-clock fields and backend-only counters, recursively."""
    if isinstance(obj, dict):
        return {
            key: _scrub(value)
            for key, value in obj.items()
            if not (
                isinstance(key, str)
                and (
                    key.endswith("seconds")
                    or key.startswith("state.")
                    or key.startswith("kernel.")
                )
            )
        }
    if isinstance(obj, list):
        return [_scrub(item) for item in obj]
    return obj


def _canonical(verification) -> str:
    return json.dumps(_scrub(verification.to_dict()), sort_keys=True)


def _build_full_graph(name, variant, backend):
    """Fully expand a ReachGraph under ``backend``; return (graph, design)."""
    compiled = compile_test(get_test(name))
    design = MultiVScale(compiled, variant, state_backend=backend)
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


def _edge_shape(graph):
    """Backend-independent structural view (frames + child node ids)."""
    return [
        [
            None if edge is None else (dict(edge[0]), edge[1])
            for edge in graph.successors(node)
        ]
        for node in range(graph.num_nodes)
    ]


class TestVerdictEquivalence:
    """Full-pipeline agreement: graphs, verdicts, modeled hours."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", SWEEP)
    def test_serialized_verdicts_identical(self, name, variant):
        results = {}
        for backend in BACKENDS:
            rc = RTLCheck(state_backend=backend, observe=True)
            results[backend] = rc.verify_test(
                get_test(name), memory_variant=variant
            )
        kernel, array = (results[b] for b in BACKENDS)
        assert _canonical(kernel) == _canonical(array), f"{name}/{variant}"
        assert kernel.modeled_hours == array.modeled_hours
        assert kernel.graph_states == array.graph_states
        assert kernel.graph_transitions == array.graph_transitions

    def test_counterexample_vcd_identical(self):
        """Buggy-memory counterexamples render to byte-identical VCD."""
        traces = {}
        for backend in BACKENDS:
            rc = RTLCheck(state_backend=backend)
            result = rc.verify_test(get_test("mp"), memory_variant="buggy")
            failed = [
                p
                for p in result.properties
                if p.ground_truth.counterexample is not None
            ]
            assert failed, "buggy mp must produce a counterexample"
            traces[backend] = [
                [frame for _inputs, frame in p.ground_truth.counterexample]
                for p in failed
            ]
        assert len(traces["kernel"]) == len(traces["array"])
        for kernel_trace, array_trace in zip(traces["kernel"], traces["array"]):
            assert render_vcd(kernel_trace) == render_vcd(array_trace)


class TestGraphStructure:
    """Node-for-node, edge-for-edge agreement of the built graphs."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_graphs_isomorphic_by_construction_order(self, variant):
        kernel_graph, _ = _build_full_graph("mp", variant, "kernel")
        array_graph, _ = _build_full_graph("mp", variant, "array")
        assert kernel_graph.num_nodes == array_graph.num_nodes
        assert kernel_graph.expanded_nodes == array_graph.expanded_nodes
        assert kernel_graph.sim_transitions == array_graph.sim_transitions
        assert _edge_shape(kernel_graph) == _edge_shape(array_graph)

    def test_kernel_graph_pickle_round_trips(self):
        """Compiled kernels never pickle (the closure is rebuilt on
        demand); a kernel-backend graph still round-trips with its
        structure intact and keeps expanding afterwards."""
        kernel_graph, design = _build_full_graph("mp", "fixed", "kernel")
        revived = pickle.loads(pickle.dumps(kernel_graph))
        assert revived.num_nodes == kernel_graph.num_nodes
        assert _edge_shape(revived) == _edge_shape(kernel_graph)
        assert revived.design.state_backend == "kernel"
        # The revived design recompiles its kernel lazily and resolves
        # every interned node.
        assert revived.design.step_kernel is not None
        for node in range(revived.num_nodes):
            assert revived.design._interner.state(revived.snap(node))

    def test_kernel_object_refuses_pickle(self):
        design = MultiVScale(
            compile_test(get_test("mp")), "fixed", state_backend="kernel"
        )
        with pytest.raises(TypeError):
            pickle.dumps(design.step_kernel)
        # The design itself pickles by dropping the compiled closures.
        revived = pickle.loads(pickle.dumps(design))
        assert revived.state_backend == "kernel"


class TestSimulation:
    """The memoized kernel simulation path: identical campaigns."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_simulate_check_reports_equal(self, variant):
        rc = RTLCheck()
        for name in ["mp", "sb"]:
            test = get_test(name)
            props = rc.generate(test)
            compiled = compile_test(test)
            reports = {}
            for backend in BACKENDS:
                design = MultiVScale(compiled, variant, state_backend=backend)
                reports[backend] = simulate_check(
                    design,
                    props.assumptions,
                    props.assertions,
                    num_schedules=60,
                    max_cycles=40,
                    seed=7,
                )
            kernel, array = (reports[b] for b in BACKENDS)
            assert kernel.schedules_run == array.schedules_run
            assert kernel.cycles_simulated == array.cycles_simulated
            assert kernel.truncated_traces == array.truncated_traces
            assert kernel.violations == array.violations
            assert (
                kernel.first_violation_schedule
                == array.first_violation_schedule
            )
            assert kernel.first_violation_trace == array.first_violation_trace


class TestHarvestDeterminism:
    """The trace oracle's harvest takes no backend: it reproduces the
    reference ``step_batch`` wavefront (``tests/test_trace_harvest.py``)
    run on *either* backend, and is deterministic in
    ``(test, seed, samples)``."""

    def test_harvest_identical_across_backends(self):
        for variant in VARIANTS:
            harvest = harvest_traces(get_test("mp"), variant, samples=6, seed=3)
            for backend in BACKENDS:
                reference = reference_harvest(
                    get_test("mp"),
                    variant,
                    samples=6,
                    seed=3,
                    state_backend=backend,
                )
                assert_same_harvest(harvest, reference)

    def test_harvest_deterministic_on_kernel(self):
        first = harvest_traces(get_test("sb"), "buggy", samples=5, seed=11)
        second = harvest_traces(get_test("sb"), "buggy", samples=5, seed=11)
        assert_same_harvest(first, second)
        assert_same_harvest(
            first,
            reference_harvest(
                get_test("sb"), "buggy", samples=5, seed=11, state_backend="kernel"
            ),
        )


class TestBackendSelection:
    """Plumbing: the kernel backend is chosen at the RTLCheck/CLI layer
    and keyed separately in the on-disk cache."""

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            RTLCheck(state_backend="jit")

    def test_cli_flag_accepts_kernel(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["verify", "mp", "--state-backend", "kernel"]
        )
        assert args.state_backend == "kernel"
        args = build_parser().parse_args(
            ["fuzz", "--state-backend", "kernel"]
        )
        assert args.state_backend == "kernel"

    def test_fuzz_config_validates_backend(self):
        from repro.difftest.runner import FuzzConfig

        assert FuzzConfig(state_backend="kernel").state_backend == "kernel"
        with pytest.raises(ReproError):
            FuzzConfig(state_backend="jit")

    def test_cache_keys_distinguish_all_backends(self):
        from repro.cache.keys import reach_key
        from repro.mapping import MultiVScaleProgramMapping as Mapping

        test = get_test("mp")
        keys = {
            reach_key(
                test=test,
                memory_variant="fixed",
                design_factory=MultiVScale,
                program_mapping_factory=Mapping,
                state_backend=backend,
            )
            for backend in BACKENDS
        }
        assert len(keys) == 2

    def test_kernel_degrades_gracefully_without_slot_layout(self):
        """A design with no slot layout (variable-size store buffers)
        keeps its own snapshots even when kernel is requested."""
        from repro.vscale.tso import MultiVScaleTSO

        design = MultiVScaleTSO(compile_test(get_test("mp")))
        assert design.enable_kernel_state() is False
        assert design.state_backend is None

    def test_kernel_counters_recorded(self):
        rc = RTLCheck(state_backend="kernel", observe=True)
        result = rc.verify_test(get_test("mp"))
        counters = result.obs["counters"]
        assert counters.get("kernel.batched_steps", 0) > 0
        assert "kernel.compile_seconds" in counters


class TestCompileCache:
    """The compiled-kernel caches are bounded LRUs whose evictions are
    invisible: a recompiled kernel is the same code."""

    def test_lru_evicts_least_recently_used(self):
        from repro.vscale.kernel import KERNEL_CACHE_SIZE, _Lru

        # A whole suite (56 tests x 2 memory variants) stays cache-hot.
        assert KERNEL_CACHE_SIZE > 2 * len(paper_suite())
        lru = _Lru(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refreshes "a"
        lru.put("c", 3)
        assert "a" in lru and "c" in lru and "b" not in lru
        assert len(lru) == 2

    def test_evicted_kernel_recompiles_identically(self, monkeypatch):
        from repro.vscale import kernel as vscale_kernel

        monkeypatch.setattr(vscale_kernel, "_KERNEL_CACHE", vscale_kernel._Lru(1))
        mp = compile_test(get_test("mp"))
        first = MultiVScale(mp, "fixed", state_backend="kernel").step_kernel
        # Compiling a second spec evicts mp's kernel from the 1-entry cache.
        MultiVScale(compile_test(get_test("sb")), "fixed", state_backend="kernel")
        assert len(vscale_kernel._KERNEL_CACHE) == 1
        again = MultiVScale(mp, "fixed", state_backend="kernel").step_kernel
        assert again is not first
        assert again.source == first.source
