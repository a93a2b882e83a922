"""Design state: verdicts, graphs, and representation.

Designs snapshot to flat slot vectors interned to dense ids, and the
verifier's graph expands each state through Multi-V-scale's batched
``step_batch`` (``repro.rtl.design``).  That path must reproduce the
verdicts pinned in ``tests/fixtures/golden_verdicts.json`` — captured
when a nested-tuple snapshot backend still existed as the reference —
and build the same graphs and counterexample waveforms as the
one-input-at-a-time reference expansion (:func:`per_input_step_batch`)
and plain simulation, for Multi-V-scale and Multi-V-scale-TSO alike.  These tests also
pin the representation-level wins (hash-consing, shared frame keys,
compact pickles, snapshot/restore round-trips, an injective flat
encoding), and that no option selects a state backend any more.

``tests/test_golden_verdicts.py`` replays every suite test (with
``RTLCHECK_GOLDEN_FULL=1``); the subset here keeps CI fast.
"""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RTLCheck, get_test
from repro.errors import ReproError
from repro.isa import Addi, Fence, Halt, Lui, Lw, Sw
from repro.litmus import compile_test
from repro.litmus.test import IMEM_WORDS_PER_CORE
from repro.mapping import MultiVScaleProgramMapping
from repro.rtl.design import Simulator, StateInterner
from repro.rtl.vcd import render_vcd
from repro.sva import AssumptionChecker
from repro.verifier.reach import ReachGraph
from repro.vscale.soc import MultiVScale
from repro.vscale.tso import MultiVScaleTSO

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from regen_golden_verdicts import verification_digest  # noqa: E402

#: Representative subset: message-passing and store-buffering (the
#: canonical forbidden/permitted pair), a load-buffer shape, a 4-core
#: write-atomicity test, and an n-test with fences.
SUBSET = ["mp", "sb", "lb", "iwp24", "n4"]
VARIANTS = ["fixed", "buggy"]

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "golden_verdicts.json"
GOLDEN = {row["test"]: row for row in json.loads(FIXTURE.read_text())["tests"]}


def component_state(component):
    """Every attribute of a core or the arbiter as one hashable value,
    read with ``vars()`` so it is independent of the slot encoding and
    covers any register a future change adds."""
    def frozen(value):
        if isinstance(value, list):
            return tuple(frozen(item) for item in value)
        return value

    return tuple(sorted((k, frozen(v)) for k, v in vars(component).items()))


def per_input_step_batch(design, state, input_space, frame_hook):
    """The reference expansion ``Design.step_batch`` must equal: restore
    ``state``, settle, ask ``frame_hook(frame, 1)`` and tick, once per
    input choice."""
    results = []
    for inputs in input_space:
        design.restore(state)
        frame = design.eval_comb(inputs)
        if not frame_hook(frame, 1):
            results.append(None)
            continue
        design.tick()
        results.append((frame, design.snapshot()))
    return results


class _UnbatchedMultiVScale(MultiVScale):
    """Multi-V-scale expanded by the per-input reference loop instead
    of its batched ``step_batch``."""

    step_batch = per_input_step_batch


class _UnbatchedMultiVScaleTSO(MultiVScaleTSO):
    """Multi-V-scale-TSO expanded by the per-input reference loop."""

    step_batch = per_input_step_batch


#: Batched-vs-reference graph inputs: ``(test, design variant, design
#: class, per-input reference class)``.
GRAPH_INPUTS = {
    "fixed": ("mp", "fixed", MultiVScale, _UnbatchedMultiVScale),
    "buggy": ("mp", "buggy", MultiVScale, _UnbatchedMultiVScale),
    "tso-fifo": ("sb", "fifo", MultiVScaleTSO, _UnbatchedMultiVScaleTSO),
    "tso-lifo": ("sb", "lifo", MultiVScaleTSO, _UnbatchedMultiVScaleTSO),
}


def _build_full_graph(name, variant, design_class=MultiVScale):
    """Fully expand a ReachGraph; return (graph, design)."""
    compiled = compile_test(get_test(name))
    design = design_class(compiled, variant)
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
    """Structural view: per-node edge lists with frames as plain dicts
    (in key order) and children as node ids (snapshot ids are
    interning-order artifacts, so they are deliberately not part of the
    shape)."""
    return [
        [
            None if edge is None else (list(edge[0].items()), edge[1])
            for edge in graph.successors(node)
        ]
        for node in range(graph.num_nodes)
    ]


class TestVerdictEquivalence:
    """Full-pipeline agreement: verdicts, modeled hours, waveforms."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", SUBSET)
    def test_serialized_verdicts_identical(self, name, variant):
        """The serialized verification matches the pinned digest."""
        result = RTLCheck().verify_test(get_test(name), memory_variant=variant)
        digest = GOLDEN[name][f"verifier_{variant}_digest"]
        assert verification_digest(result) == digest, f"{name}/{variant}"

    def test_counterexample_vcd_identical(self):
        """A buggy-memory counterexample, read off the graph's edge
        frames, renders to the same VCD as a plain simulation of its
        input schedule on a fresh design."""
        test = get_test("mp")
        result = RTLCheck().verify_test(test, memory_variant="buggy")
        failed = [
            p for p in result.properties if p.ground_truth.counterexample is not None
        ]
        assert failed, "buggy mp must produce a counterexample"
        compiled = compile_test(test)
        for prop in failed:
            trace = prop.ground_truth.counterexample
            simulator = Simulator(MultiVScale(compiled, "buggy"))
            replayed = [simulator.step(inputs) for inputs, _frame in trace]
            frames = [frame for _inputs, frame in trace]
            assert render_vcd(frames) == render_vcd(replayed)


class TestGraphStructure:
    """Node-for-node, edge-for-edge agreement of the built graphs."""

    @pytest.mark.parametrize("variant", list(GRAPH_INPUTS))
    def test_graphs_isomorphic_by_construction_order(self, variant):
        """The batched expansion (one settle shared by every grant)
        builds the graph the per-input reference loop builds, on
        Multi-V-scale and on Multi-V-scale-TSO."""
        name, design_variant, design_class, reference_class = GRAPH_INPUTS[variant]
        batched, _ = _build_full_graph(name, design_variant, design_class)
        generic, _ = _build_full_graph(name, design_variant, reference_class)
        assert batched.num_nodes == generic.num_nodes
        assert batched.expanded_nodes == generic.expanded_nodes
        assert batched.sim_transitions == generic.sim_transitions
        assert _edge_shape(batched) == _edge_shape(generic)

    def test_interning_bounds_resident_states(self):
        """Regression for the memory win: a full mp-suite build interns
        at most one flat tuple per discovered node (hash-consing), and
        never fewer than one per *distinct* design state."""
        for variant in VARIANTS:
            graph, design = _build_full_graph("mp", variant)
            assert graph.expanded_nodes == graph.num_nodes
            assert 0 < design.states_interned <= graph.expanded_nodes

    def test_equal_snapshots_share_one_id(self):
        compiled = compile_test(get_test("mp"))
        design = MultiVScale(compiled, "fixed")
        design.reset()
        first = design.snapshot()
        design.eval_comb({"arb_select": 0})
        design.tick()
        design.reset()
        second = design.snapshot()
        assert isinstance(first, int)
        assert first == second
        assert design.states_interned >= 1

    def test_array_graph_pickle_round_trips(self):
        """Pickled graphs rehydrate with identical structure and keep
        expanding."""
        array_graph, _ = _build_full_graph("mp", "fixed")
        revived = pickle.loads(pickle.dumps(array_graph))
        assert revived.num_nodes == array_graph.num_nodes
        assert _edge_shape(revived) == _edge_shape(array_graph)
        # The revived design's interner still resolves every node.
        for node in range(revived.num_nodes):
            assert revived.design._interner.state(revived.snap(node))


class TestFrameKeys:
    """Frames of one design share their key objects: a reach graph
    holds one frame dict per live edge, so per-frame key strings would
    dominate its memory and its pickle."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_frames_from_different_states_share_key_objects(self, variant):
        design = MultiVScale(compile_test(get_test("mp")), variant)
        design.reset()
        frames, states = [], []
        for select in (0, 1, 1, 0):
            states.append(design.snapshot())
            frames.append(design.eval_comb({"arb_select": select}))
            design.tick()
        assert len(set(states)) == len(states)
        reference = frames[0]
        assert any("mem[" in key for key in reference)
        for frame in frames[1:]:
            assert frame != reference
            assert list(frame) == list(reference)
            assert all(a is b for a, b in zip(frame, reference))


class TestSnapshotRestore:
    """Round-trip and injectivity of the flat encoding."""

    @staticmethod
    def _structural_state(design):
        """A fixed-memory design's state read straight off its component
        objects — an encoding-independent reference for snapshot
        equality."""
        memory = design.memory
        return (
            tuple(component_state(core) for core in design.cores),
            component_state(design.arbiter),
            (tuple(sorted(memory.array.items())), memory.pending),
        )

    def _stepped(self, schedule, name="mp"):
        compiled = compile_test(get_test(name))
        design = MultiVScale(compiled, "fixed")
        design.reset()
        for select in schedule:
            design.eval_comb({"arb_select": select})
            design.tick()
        return design

    def test_round_trip_preserves_behavior(self):
        """restore(snapshot()) resumes an identical execution."""
        schedule = [0, 1, 1, 0, 1, 0, 0, 1]
        design = self._stepped(schedule)
        saved = design.snapshot()
        reference = self._stepped(schedule)
        for select in [1, 0, 1, 1]:
            design.eval_comb({"arb_select": select})
            design.tick()
        design.restore(saved)
        for select in [0, 1, 0, 1, 1, 0]:
            resumed = dict(design.eval_comb({"arb_select": select}))
            expected = dict(reference.eval_comb({"arb_select": select}))
            design.tick()
            reference.tick()
            assert resumed == expected

    @given(
        prefix_a=st.lists(st.integers(0, 3), max_size=6),
        prefix_b=st.lists(st.integers(0, 3), max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_flat_encoding_is_injective(self, prefix_a, prefix_b):
        """Two executions reach the same interned id exactly when their
        component-level structural states are equal — the flat encoding
        loses nothing (bools, None sentinels, memory words)."""
        compiled = compile_test(get_test("sb"))
        array = MultiVScale(compiled, "fixed")
        structural = []
        array_ids = []
        for schedule in (prefix_a, prefix_b):
            array.reset()
            for select in schedule:
                array.eval_comb({"arb_select": select})
                array.tick()
            structural.append(self._structural_state(array))
            array_ids.append(array.snapshot())
        assert (array_ids[0] == array_ids[1]) == (
            structural[0] == structural[1]
        )

    @given(
        states=st.lists(
            st.tuples(*([st.integers(-(2**40), 2**40)] * 3)),
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_interner_is_stable_and_pickles(self, states):
        """intern() is idempotent, state() inverts it, and the compact
        pickle preserves every id assignment."""
        interner = StateInterner()
        ids = [interner.intern(state) for state in states]
        assert [interner.intern(state) for state in states] == ids
        assert [interner.state(sid) for sid in ids] == list(states)
        assert len(interner) == len(set(states))
        revived = pickle.loads(pickle.dumps(interner))
        assert len(revived) == len(interner)
        assert [revived.intern(state) for state in states] == ids
        assert [revived.state(sid) for sid in ids] == list(states)

    def test_corrupt_pickle_length_rejected(self):
        """A packed payload that cannot hold width x count vectors must
        raise instead of silently truncating the table."""
        interner = StateInterner()
        interner.intern((1, 2, 3))
        interner.intern((4, 5, 6))
        state = interner.__getstate__()
        state["packed"] = state["packed"][:-8]  # drop one slot
        with pytest.raises(ReproError):
            StateInterner.__new__(StateInterner).__setstate__(state)

    def test_duplicate_vectors_rejected(self):
        """Duplicate vectors in a pickle would renumber every later id
        (dict keeps the last), breaking the dense-id invariant node
        numbering relies on — must raise, never renumber."""
        from array import array as _array

        flat = _array("q", [7, 8, 9, 7, 8, 9])
        state = {"width": 3, "count": 2, "packed": flat.tobytes()}
        with pytest.raises(ReproError):
            StateInterner.__new__(StateInterner).__setstate__(state)

    def test_interleaved_intern_survives_round_trip(self):
        """Ids handed out before a pickle stay valid after it, and new
        interns continue the dense numbering."""
        interner = StateInterner()
        a = interner.intern((0, -1))
        b = interner.intern((5, 5))
        revived = pickle.loads(pickle.dumps(interner))
        assert revived.state(a) == (0, -1)
        assert revived.state(b) == (5, 5)
        c = revived.intern((9, 9))
        assert c == 2
        assert revived.intern((0, -1)) == a


def _window_program(draw, words):
    """One core's program and ``reg_init`` over a random register set:
    address registers only read (and initialized), registers only
    written (load, ``addi`` and ``lui`` destinations nothing reads),
    registers only initialized, ``r0`` as an ``addi`` source, a store's
    data or a memory base, and whatever gaps the draws leave inside
    the window."""
    reg = st.integers(1, 31)
    addr_regs = draw(st.lists(reg, max_size=2, unique=True))
    reg_init = {a: 4 * draw(st.sampled_from(words)) for a in addr_regs}
    data = st.sampled_from([0, 0] + [r for r in range(1, 32) if r not in reg_init])
    for only_init in draw(st.lists(data, max_size=2)):
        if only_init:
            reg_init[only_init] = draw(st.integers(0, 2**32 - 1))

    def address():
        # A memory op's (rs1, imm): an address register, or r0 plus the
        # byte address as the immediate.
        if addr_regs and draw(st.booleans()):
            return draw(st.sampled_from(addr_regs)), 0
        return 0, 4 * draw(st.sampled_from(words))

    program = []
    for kind in draw(
        st.lists(
            st.sampled_from(["lw", "sw", "addi", "lui", "fence"]),
            max_size=IMEM_WORDS_PER_CORE - 1,
        )
    ):
        if kind == "lw":
            rs1, imm = address()
            program.append(Lw(rd=draw(data), rs1=rs1, imm=imm))
        elif kind == "sw":
            rs1, imm = address()
            program.append(Sw(rs1=rs1, rs2=draw(data), imm=imm))
        elif kind == "addi":
            program.append(
                Addi(rd=draw(data), rs1=draw(data), imm=draw(st.integers(-2048, 2047)))
            )
        elif kind == "lui":
            program.append(Lui(rd=draw(data), imm20=draw(st.integers(1, 2**20 - 1))))
        else:
            program.append(Fence())
    return program, reg_init


#: Register-window designs: ``(design class, variant)``.
WINDOW_DESIGNS = [
    (MultiVScale, "fixed"),
    (MultiVScale, "buggy"),
    (MultiVScaleTSO, "fifo"),
]


class TestRegisterWindow:
    """A slot vector carries each core's register window only: the
    registers its program names or ``reg_init`` sets.  Checked against
    the uninterrupted interpreter, whose register files never pass
    through a slot vector."""

    @staticmethod
    def _state(design):
        if isinstance(design, MultiVScaleTSO):
            memory = (sorted(design.array.items()), design.buffers, design.pending)
        else:
            memory = component_state(design.memory)
        return (
            tuple(component_state(core) for core in design.cores),
            component_state(design.arbiter),
            memory,
        )

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_restore_matches_uninterrupted_run(self, data):
        """At every cycle of a random grant schedule, ``restore`` of the
        cycle's snapshot into a freshly reset design rebuilds the
        interpreter's state exactly; on Multi-V-scale the compiled
        step's vector equals the snapshot's too."""
        design_class, variant = data.draw(st.sampled_from(WINDOW_DESIGNS))
        base = compile_test(get_test("mp"))
        words = sorted(base.initial_data_memory)
        test = dataclasses.replace(
            base.test,
            initial_memory=tuple(
                (var, data.draw(st.integers(1, 2**32 - 1), label=var))
                for var in sorted(base.address_map)
            ),
        )
        programs, inits = zip(
            *(_window_program(data.draw, words) for _ in range(base.num_cores))
        )
        compiled = dataclasses.replace(
            compile_test(test),
            programs=[list(program) + [Halt()] for program in programs],
            reg_init=list(inits),
            ops=[],
        )
        schedule = data.draw(st.lists(st.integers(0, 3), max_size=40))

        reference = design_class(compiled, variant)
        design = design_class(compiled, variant)
        stepper = None
        if design_class is MultiVScale:
            stepper = design_class(compiled, variant).state_step()
            vec = stepper.start
        reference.reset()
        design.reset()
        for select in schedule + [0]:
            saved = design.snapshot()
            if stepper is not None:
                assert design.state_vector(saved) == vec
            # A reset gives the design fresh register files, so only
            # what the snapshot carries comes back.
            design.reset()
            design.restore(saved)
            assert self._state(design) == self._state(reference)
            for machine in (reference, design):
                machine.eval_comb({"arb_select": select})
                machine.tick()
            if stepper is not None:
                buf = stepper.step_state(vec)
                buf[stepper.grant_slot] = stepper.selects[select]
                vec = tuple(buf)

    def test_window_covers_named_and_initialized_registers(self):
        """The window spans the lowest to the highest register named or
        initialized, gaps included; a halt-only core has none."""
        base = compile_test(get_test("mp"))
        compiled = dataclasses.replace(
            base,
            programs=[
                [Addi(rd=9, rs1=0, imm=1), Halt()],
                [Lw(rd=4, rs1=7), Halt()],
                [Halt()],
                [Halt()],
            ],
            reg_init=[{}, {7: 4 * 40}, {12: 5, 0: 3}, {}],
            ops=[],
        )
        design = MultiVScale(compiled, "fixed")
        assert [(c.reg_lo, c.reg_hi) for c in design.cores] == [
            (0, 10), (4, 8), (12, 13), (0, 0)
        ]
        assert design._slot_layout.size == 4 * 15 + 2 + 4 + 2 + (10 + 4 + 1)


class TestBackendSelection:
    """One state representation: no option selects a backend."""

    def test_cli_flag(self):
        """``--state-backend`` is gone from every subcommand."""
        from repro.__main__ import build_parser

        for argv in (
            ["verify", "mp"],
            ["fuzz"],
            ["submit", "suite"],
            ["submit", "fuzz"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv + ["--state-backend", "array"])
            assert excinfo.value.code == 2
        env = dict(
            os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "suite", "--state-backend", "array"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "--state-backend" in proc.stderr

    def test_unknown_backend_rejected(self):
        """RTLCheck and the design take no backend argument at all."""
        with pytest.raises(TypeError):
            RTLCheck(state_backend="linked-list")
        with pytest.raises(TypeError):
            MultiVScale(compile_test(get_test("mp")), "fixed", "array")
