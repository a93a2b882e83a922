"""Tests for the outcome-aware Assertion Generator (§4.2–4.4)."""

import pytest

from repro.core import AssertionGenerator, rewrite_negations
from repro.errors import SvaError
from repro.litmus import compile_test, get_test
from repro.mapping import MultiVScaleNodeMapping
from repro.sva.ast import PImpl, Sig
from repro.uspec import GroundEdge, LoadValue, multi_vscale_model
from repro.uspec.ast import And, Not, Or, Truth
from repro.vscale.params import core_base_pc

N1 = (1, "Writeback")
N2 = (2, "Writeback")


@pytest.fixture(scope="module")
def mp_generator():
    compiled = compile_test(get_test("mp"))
    return AssertionGenerator(
        model=multi_vscale_model(),
        compiled=compiled,
        node_mapping=MultiVScaleNodeMapping(compiled),
    )


class TestNegationRewrite:
    def test_negated_edge_reverses(self):
        out = rewrite_negations(Not(GroundEdge(kind="exists", src=N1, dst=N2)))
        assert isinstance(out, GroundEdge)
        assert out.src == N2 and out.dst == N1

    def test_negation_pushed_through_connectives(self):
        f = Or((Not(GroundEdge(kind="exists", src=N1, dst=N2)), Truth(False)))
        out = rewrite_negations(f)
        assert isinstance(out, GroundEdge)

    def test_negated_load_value_rejected(self):
        with pytest.raises(SvaError):
            rewrite_negations(Not(LoadValue(1, 0)))


class TestMpAssertions:
    def test_every_assertion_guarded_by_first(self, mp_generator):
        for directive in mp_generator.generate():
            assert isinstance(directive.prop, PImpl)
            assert directive.prop.antecedent == Sig("first")

    def test_read_values_covers_both_outcomes(self, mp_generator):
        """§4.2: the Read_Values assertion for mp's load of x must
        account for the load returning 0 (BeforeAllWrites) *and* 1
        (NoInterveningWrite), joined by a property `or`."""
        model = multi_vscale_model()
        props = mp_generator.axiom_properties(model.axiom("Read_Values"))
        texts = [p.emit() for p in props]
        ld_x = [t for t in texts if "load_data_WB == 32'd0" in t]
        assert ld_x, "no property constrains the stale load value"
        both = [
            t
            for t in texts
            if "load_data_WB == 32'd0" in t and "load_data_WB == 32'd1" in t
        ]
        assert both, "outcome-aware translation must cover both load values"
        assert " or " in both[0]

    def test_figure10_shape(self, mp_generator):
        """The BeforeAllWrites branch for mp's load of x is exactly
        Figure 10: delay cycles exclude both events, the load's WB is
        value-constrained, the store's WB is not."""
        model = multi_vscale_model()
        props = mp_generator.axiom_properties(model.axiom("Read_Values"))
        pc_store_x = core_base_pc(0)  # i1: St x on core 0
        pc_load_x = core_base_pc(1) + 4  # i4: Ld x on core 1
        text = next(
            t
            for t in (p.emit() for p in props)
            if "load_data_WB == 32'd0" in t and f"32'd{pc_load_x}" in t
        )
        assert f"core[0].PC_WB == 32'd{pc_store_x}" in text
        assert f"core[1].PC_WB == 32'd{pc_load_x}" in text
        assert "[*0:$]" in text
        # Delay cycles are negations of the events-of-interest.
        assert "~(" in text

    def test_wb_fifo_translates_premise_as_reversed_edge(self, mp_generator):
        model = multi_vscale_model()
        props = mp_generator.axiom_properties(model.axiom("WB_FIFO"))
        assert props
        for prop in props:
            text = prop.emit()
            # ~EdgeExists(a1 DX, a2 DX) became the reversed DX edge,
            # or-ed with the WB edge.
            assert " or " in text
            assert "PC_DX" in text and "PC_WB" in text

    def test_write_final_value_vacuous_at_rtl(self):
        """§4.2: DataFromFinalStateAtPA is conservatively false at RTL,
        so the Write_Final_Value axiom generates no assertions even for
        tests that pin final memory."""
        compiled = compile_test(get_test("n1"))
        generator = AssertionGenerator(
            model=multi_vscale_model(),
            compiled=compiled,
            node_mapping=MultiVScaleNodeMapping(compiled),
        )
        model = multi_vscale_model()
        assert generator.axiom_properties(model.axiom("Write_Final_Value")) == []

    def test_assertions_deduplicated(self, mp_generator):
        directives = mp_generator.generate()
        texts = [d.prop.emit() for d in directives]
        assert len(texts) == len(set(texts))

    def test_assertion_names_unique_and_sanitized(self, mp_generator):
        names = [d.name for d in mp_generator.generate()]
        assert len(names) == len(set(names))
        assert all(name.replace("_", "").isalnum() for name in names)

    def test_total_order_axiom_produces_or_properties(self, mp_generator):
        model = multi_vscale_model()
        props = mp_generator.axiom_properties(model.axiom("DX_Total_Order"))
        # mp has 4 memory ops -> 6 unordered pairs.
        assert len(props) == 6
        for prop in props:
            assert " or " in prop.emit()


class TestLoadConstraintScoping:
    def test_constraints_attach_only_within_their_conjunct(self, mp_generator):
        """A load-value constraint from one Or branch must not leak into
        a sibling branch (the two branches assume different values)."""
        model = multi_vscale_model()
        props = mp_generator.axiom_properties(model.axiom("Read_Values"))
        both = next(
            t
            for t in (p.emit() for p in props)
            if "load_data_WB == 32'd0" in t and "load_data_WB == 32'd1" in t
        )
        left, right = both.split(" or ", 1)
        # One branch constrains to 0, the other to 1 — never both in one.
        for side in (left, right):
            assert not (
                "load_data_WB == 32'd0" in side and "load_data_WB == 32'd1" in side
            )


class TestGenerateOnce:
    def test_node_mapping_runs_once_per_node_and_value(self):
        """The generator memoizes the node mapping, so every property
        mentioning an event shares one expression for it."""
        compiled = compile_test(get_test("mp"))
        calls = []

        class Counting(MultiVScaleNodeMapping):
            def map_node(self, node, load_constraint=None):
                calls.append((node, load_constraint))
                return super().map_node(node, load_constraint)

        generator = AssertionGenerator(
            model=multi_vscale_model(),
            compiled=compiled,
            node_mapping=Counting(compiled),
        )
        directives = generator.generate()
        assert directives
        assert len(calls) == len(set(calls))
        reference = AssertionGenerator(
            model=multi_vscale_model(),
            compiled=compiled,
            node_mapping=MultiVScaleNodeMapping(compiled),
        ).generate()
        assert [d.emit() for d in directives] == [d.emit() for d in reference]

    def test_generator_memo_stays_out_of_eq_and_repr(self):
        compiled = compile_test(get_test("mp"))

        def fresh():
            return AssertionGenerator(
                model=multi_vscale_model(),
                compiled=compiled,
                node_mapping=MultiVScaleNodeMapping(compiled),
            )

        used = fresh()
        used.generate()
        assert used == fresh()
        assert repr(used) == repr(fresh())
