"""Tests for µspec grounding and the check/rtl evaluation modes."""

import pytest

from repro.errors import UspecError
from repro.litmus import LitmusTest, Outcome, compile_test, get_test, load, store
from repro.uspec import (
    EvalContext,
    GroundEdge,
    LoadValue,
    evaluate_axiom,
    evaluate_formula,
    lint_model,
    micros_from_compiled,
    multi_vscale_model,
    parse_formula,
    parse_uspec,
)
from repro.uspec.ast import And, Not, Or, Truth, sort_key


@pytest.fixture(scope="module")
def model():
    return multi_vscale_model()


def context_for(name, mode="check"):
    return EvalContext.for_compiled(compile_test(get_test(name)), mode=mode)


class TestMicroExtraction:
    def test_mp_micros(self):
        micros = micros_from_compiled(compile_test(get_test("mp")))
        assert [m.uid for m in micros] == [1, 2, 3, 4]
        assert micros[0].is_store and micros[2].is_load
        assert micros[2].out == "r1"

    def test_cores_derived(self):
        ctx = context_for("wrc")
        assert ctx.cores == [0, 1, 2]


class TestPredicates:
    def test_program_order(self, model):
        ctx = context_for("mp")
        f = parse_formula('forall microops "a", "b", ProgramOrder a b => SameCore a b')
        assert evaluate_formula(model, f, ctx) == Truth(True)

    def test_same_address(self, model):
        ctx = context_for("mp")
        # In mp, i1 (St x) and i4 (Ld x) share an address.
        f = parse_formula('exists microops "a", "b", (IsAnyWrite a /\\ IsAnyRead b /\\ SameAddress a b)')
        assert evaluate_formula(model, f, ctx) == Truth(True)

    def test_on_core_with_core_quantifier(self, model):
        ctx = context_for("mp")
        f = parse_formula('forall microop "i", exists core "c", OnCore c i')
        assert evaluate_formula(model, f, ctx) == Truth(True)

    def test_unknown_predicate(self, model):
        ctx = context_for("mp")
        with pytest.raises(UspecError):
            evaluate_formula(model, parse_formula("Bogus a a"), ctx)

    def test_unbound_variable(self, model):
        ctx = context_for("mp")
        with pytest.raises(UspecError):
            evaluate_formula(model, parse_formula("IsAnyRead q"), ctx)

    def test_unknown_stage_rejected(self, model):
        ctx = context_for("mp")
        f = parse_formula('forall microop "i", NodeExists (i, Retire)')
        with pytest.raises(UspecError):
            evaluate_formula(model, f, ctx)


class TestCheckModeOmniscience:
    def test_same_data_concrete_for_pinned_load(self, model):
        """mp's outcome pins r2=0, so SameData(St x=1, Ld x) is False."""
        ctx = context_for("mp", mode="check")
        f = parse_formula(
            'exists microops "w", "i", '
            "(IsAnyWrite w /\\ IsAnyRead i /\\ SameAddress w i /\\ SameData w i "
            "/\\ SameCore i i)"
        )
        # St y=1 and Ld y (r1=1) DO have the same data.
        assert evaluate_formula(model, f, ctx) == Truth(True)

    def test_data_from_initial_state(self, model):
        ctx = context_for("mp", mode="check")
        # r2=0 = initial value of x.
        f = parse_formula('exists microop "i", (IsAnyRead i /\\ DataFromInitialStateAtPA i)')
        assert evaluate_formula(model, f, ctx) == Truth(True)

    def test_unpinned_load_raises_in_check_mode(self, model):
        test = LitmusTest.of(
            "unpinned",
            [[store("x", 1)], [load("x", "r1")]],
            Outcome.of({}),  # r1 not pinned
        )
        ctx = EvalContext.for_compiled(compile_test(test), mode="check")
        f = parse_formula(
            'forall microops "w", "i", (IsAnyWrite w /\\ IsAnyRead i) => SameData w i'
        )
        with pytest.raises(UspecError):
            evaluate_formula(model, f, ctx)

    def test_data_from_final_state_check_mode(self, model):
        # n1 pins final x=1, so DataFromFinalStateAtPA holds for St x=1.
        ctx = context_for("n1", mode="check")
        f = parse_formula('exists microop "w", (IsAnyWrite w /\\ DataFromFinalStateAtPA w)')
        assert evaluate_formula(model, f, ctx) == Truth(True)
        # mp pins no finals: predicate is False for every write.
        ctx_mp = context_for("mp", mode="check")
        assert evaluate_formula(model, f, ctx_mp) == Truth(False)


class TestRtlModeSymbolic:
    def test_same_data_becomes_load_value_atom(self, model):
        ctx = context_for("mp", mode="rtl")
        f = parse_formula(
            'exists microops "w", "i", '
            "(IsAnyWrite w /\\ IsAnyRead i /\\ SameAddress w i /\\ SameData w i)"
        )
        ground = evaluate_formula(model, f, ctx)
        atoms = _collect(ground, LoadValue)
        assert atoms  # symbolic constraints survive
        assert all(isinstance(a, LoadValue) for a in atoms)

    def test_data_from_final_conservatively_false(self, model):
        ctx = context_for("n1", mode="rtl")
        f = parse_formula('exists microop "w", (IsAnyWrite w /\\ DataFromFinalStateAtPA w)')
        assert evaluate_formula(model, f, ctx) == Truth(False)

    def test_initial_state_symbolic_for_loads(self, model):
        ctx = context_for("mp", mode="rtl")
        f = parse_formula('forall microop "i", IsAnyRead i => DataFromInitialStateAtPA i')
        ground = evaluate_formula(model, f, ctx)
        atoms = _collect(ground, LoadValue)
        assert {a.value for a in atoms} == {0}

    def test_bad_mode_rejected(self):
        with pytest.raises(UspecError):
            EvalContext.for_compiled(compile_test(get_test("mp")), mode="weird")


class TestMacros:
    def test_macro_argument_binding(self, model):
        source = (
            'Stages "Writeback".\n'
            'DefineMacro "Rf" "w" "i": EdgeExists ((w, Writeback), (i, Writeback)).\n'
            'Axiom "A": forall microops "a", "b", '
            "(IsAnyWrite a /\\ IsAnyRead b) => ExpandMacro Rf a b."
        )
        m = parse_uspec(source)
        ctx = context_for("mp")
        ground = evaluate_axiom(m, m.axiom("A"), ctx)
        edges = _collect(ground, GroundEdge)
        assert edges
        assert all(e.src[1] == "Writeback" for e in edges)

    def test_macro_free_variable_capture(self, model):
        """Figure 5's macros reference the axiom's ``i`` without
        declaring it as a parameter — dynamic capture."""
        source = (
            'Stages "Writeback".\n'
            'DefineMacro "IsR": IsAnyRead i.\n'
            'Axiom "A": forall microop "i", IsAnyRead i => ExpandMacro IsR.'
        )
        m = parse_uspec(source)
        ground = evaluate_axiom(m, m.axiom("A"), context_for("mp"))
        assert ground == Truth(True)

    def test_undefined_macro(self, model):
        source = 'Stages "S".\nAxiom "A": ExpandMacro Missing.'
        m = parse_uspec(source)
        with pytest.raises(UspecError):
            evaluate_axiom(m, m.axiom("A"), context_for("mp"))

    def test_macro_arity_mismatch(self):
        source = (
            'Stages "S".\n'
            'DefineMacro "M" "x": IsAnyRead x.\n'
            'Axiom "A": forall microop "i", ExpandMacro M i i.'
        )
        m = parse_uspec(source)
        with pytest.raises(UspecError):
            evaluate_axiom(m, m.axiom("A"), context_for("mp"))

    def test_macro_recursion_guard(self):
        source = (
            'Stages "S".\n'
            'DefineMacro "Loop": ExpandMacro Loop.\n'
            'Axiom "A": ExpandMacro Loop.'
        )
        m = parse_uspec(source)
        with pytest.raises(UspecError):
            evaluate_axiom(m, m.axiom("A"), context_for("mp"))


class TestImplicationShortCircuit:
    """A false premise makes an implication True without grounding its
    conclusion, just as a false conjunct ends a ``/\\``: the premise
    guards a conclusion that is undefined for that binding."""

    @staticmethod
    def _partly_pinned():
        # r2 (the load of y) has no value in the outcome.
        test = LitmusTest.of(
            "partly-pinned",
            [[store("x", 1)], [load("x", "r1"), load("y", "r2"), load("x", "r3")]],
            Outcome.of({"r1": 1, "r3": 1}),
        )
        return compile_test(test)

    def test_false_premise_guards_load_load_same_data_in_check_mode(self, model):
        ctx = EvalContext.for_compiled(self._partly_pinned(), mode="check")
        guarded = parse_formula(
            'forall microops "a", "b", '
            "(IsAnyRead a /\\ IsAnyRead b /\\ ~SameMicroop a b /\\ SameAddress a b)"
            " => SameData a b"
        )
        # Only the two loads of x pair up; the unpinned load of y is
        # reached only under false premises.
        assert evaluate_formula(model, guarded, ctx) == Truth(True)
        unguarded = parse_formula(
            'forall microops "a", "b", (IsAnyRead a /\\ IsAnyRead b) => SameData a b'
        )
        with pytest.raises(UspecError):
            evaluate_formula(model, unguarded, ctx)

    def test_false_premise_guards_load_load_same_data_in_rtl_mode(self, model):
        ctx = context_for("mp", mode="rtl")
        f = parse_formula('forall microops "a", "b", IsAnyWrite a => SameData a b')
        ground = evaluate_formula(model, f, ctx)
        assert {a.uid for a in _collect(ground, LoadValue)} == {3, 4}

    def test_true_premise_still_grounds_the_conclusion(self, model):
        ctx = context_for("mp", mode="rtl")
        f = parse_formula('forall microops "a", "b", IsAnyRead a => SameData a b')
        with pytest.raises(UspecError):
            evaluate_formula(model, f, ctx)

    def test_symbolic_premise_keeps_the_clause(self, model):
        ctx = context_for("mp", mode="rtl")
        f = parse_formula(
            'forall microop "i", DataFromInitialStateAtPA i => '
            "AddEdge ((i, Fetch), (i, Writeback))"
        )
        ground = evaluate_formula(model, f, ctx)
        # Stores of 1 over initial 0 drop out; each load keeps
        # ~LoadValue(i, 0) \/ edge.
        clauses = ground.operands
        assert len(clauses) == 2
        assert all(isinstance(clause, Or) for clause in clauses)

    @pytest.mark.parametrize(
        "conclusion,rule",
        [
            ("NodeExists (i, Retire)", "unknown-stage"),
            ("ExpandMacro Missing", "undefined-macro"),
            ("AddEdge ((i, Fetch), (q, Fetch))", "unbound-variable"),
        ],
    )
    def test_lint_reports_problems_behind_an_always_false_premise(
        self, conclusion, rule
    ):
        source = (
            'Stages "Fetch".\n'
            'Axiom "A": forall microop "i", '
            f"(IsAnyRead i /\\ IsAnyWrite i) => {conclusion}."
        )
        m = parse_uspec(source)
        # No microop is both a read and a write: grounding never reaches
        # the conclusion, so only the linter can report it.
        ground = evaluate_axiom(m, m.axiom("A"), context_for("mp"))
        assert ground == Truth(True)
        report = lint_model(m)
        assert [f.rule for f in report.errors] == [rule]


class TestSortKey:
    """Ground operands are ordered by ``repr``; :func:`sort_key` must be
    that ``repr`` exactly, computed once per formula object."""

    @pytest.mark.parametrize("name", ["mp", "iriw", "amd3", "rfi006"])
    @pytest.mark.parametrize("mode", ["check", "rtl"])
    def test_sort_key_equals_repr_on_every_subformula(self, model, name, mode):
        ctx = context_for(name, mode=mode)
        seen = 0

        def walk(f):
            nonlocal seen
            assert sort_key(f) == repr(f)
            seen += 1
            if isinstance(f, (And, Or)):
                for op in f.operands:
                    walk(op)
            elif isinstance(f, Not):
                walk(f.body)

        for axiom in model.axioms:
            walk(evaluate_axiom(model, axiom, ctx))
        assert seen > 20

    def test_single_operand_and_nested_keys(self):
        edge = GroundEdge("add", (1, "Fetch"), (2, "Fetch"))
        for formula in (
            And((edge,)),
            Or((Not(edge), LoadValue(3, 0))),
            Not(And((Truth(True), Or((edge,))))),
        ):
            assert sort_key(formula) == repr(formula)

    def test_sort_key_stays_out_of_pickles_eq_and_hash(self):
        import pickle

        def build():
            return Or((Not(GroundEdge("add", (1, "Fetch"), (2, "Fetch"))), LoadValue(3, 1)))

        keyed, fresh = build(), build()
        sort_key(keyed)
        assert "_sort_key" in keyed.__dict__
        assert keyed == fresh and hash(keyed) == hash(fresh)
        assert pickle.dumps(keyed) == pickle.dumps(fresh)
        assert "_sort_key" not in pickle.loads(pickle.dumps(keyed)).__dict__


class TestGroundShapes:
    def test_wb_fifo_grounding_is_horn_like(self, model):
        ctx = context_for("mp", mode="check")
        ground = evaluate_axiom(model, model.axiom("WB_FIFO"), ctx)
        # For mp: two same-core po pairs -> a conjunction of two
        # (~dx-edge \/ wb-edge) clauses.
        assert isinstance(ground, And)
        assert len(ground.operands) == 2
        for clause in ground.operands:
            assert isinstance(clause, Or)

    def test_read_values_grounding_mentions_both_loads(self, model):
        ctx = context_for("mp", mode="rtl")
        ground = evaluate_axiom(model, model.axiom("Read_Values"), ctx)
        atoms = _collect(ground, LoadValue)
        assert {a.uid for a in atoms} == {3, 4}
        # Outcome-aware: both values 0 and 1 appear for the loads.
        assert {a.value for a in atoms} == {0, 1}


def _collect(formula, kind):
    found = []

    def walk(f):
        if isinstance(f, kind):
            found.append(f)
        elif isinstance(f, (And, Or)):
            for op in f.operands:
                walk(op)
        elif isinstance(f, Not):
            walk(f.body)

    walk(formula)
    return found
