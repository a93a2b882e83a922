"""Tests for the SVA AST: emission and single-cycle evaluation."""

import copy
import pickle

import pytest

from repro.errors import SvaError
from repro.sva import (
    BConst,
    BNot,
    Directive,
    PConst,
    PImpl,
    PSeq,
    SBool,
    SCat,
    SRepeat,
    Sig,
    SigEq,
    SvaText,
    band,
    bor,
    pand,
    por,
    scat,
)


class TestBoolExprs:
    def test_sigeq_emits_verilog_literal(self):
        expr = SigEq("core[1].PC_WB", 24)
        assert expr.emit() == "core[1].PC_WB == 32'd24"

    def test_sigeq_evaluate(self):
        expr = SigEq("a", 3)
        assert expr.evaluate({"a": 3})
        assert not expr.evaluate({"a": 4})
        assert not expr.evaluate({})  # missing signals read as 0

    def test_not_emission_matches_paper_style(self):
        expr = BNot(Sig("core[1].stall_WB"))
        assert expr.emit() == "~(core[1].stall_WB)"

    def test_band_emission_and_eval(self):
        expr = band(SigEq("a", 1), BNot(Sig("b")))
        assert "&&" in expr.emit()
        assert expr.evaluate({"a": 1, "b": 0})
        assert not expr.evaluate({"a": 1, "b": 1})

    def test_band_simplifications(self):
        assert band() == BConst(True)
        assert band(BConst(True), Sig("x")) == Sig("x")
        assert band(BConst(False), Sig("x")) == BConst(False)

    def test_bor_simplifications(self):
        assert bor() == BConst(False)
        assert bor(BConst(False), Sig("x")) == Sig("x")
        assert bor(BConst(True), Sig("x")) == BConst(True)

    def test_nested_parenthesization(self):
        expr = bor(band(Sig("a"), Sig("b")), Sig("c"))
        assert expr.emit() == "(a && b) || c"


class TestSequences:
    def test_sbool_emit(self):
        assert SBool(Sig("x")).emit() == "(x)"

    def test_repeat_unbounded_emit(self):
        seq = SRepeat(Sig("x"), 0, None)
        assert seq.emit() == "(x) [*0:$]"

    def test_repeat_bounded_emit(self):
        assert SRepeat(Sig("x"), 1, 3).emit() == "(x) [*1:3]"

    def test_repeat_bad_bounds(self):
        with pytest.raises(SvaError):
            SRepeat(Sig("x"), 2, 1)
        with pytest.raises(SvaError):
            SRepeat(Sig("x"), -1, None)

    def test_concat_emit(self):
        seq = scat(SBool(Sig("a")), SBool(Sig("b")))
        assert seq.emit() == "(a) ##1 (b)"

    def test_concat_delay_validation(self):
        with pytest.raises(SvaError):
            SCat(SBool(Sig("a")), SBool(Sig("b")), delay=0)

    def test_scat_requires_parts(self):
        with pytest.raises(SvaError):
            scat()

    def test_paper_edge_shape_emits(self):
        """The §4.3 edge mapping shape renders as legal-looking SVA."""
        delay = BNot(bor(Sig("src_ev"), Sig("dst_ev")))
        seq = scat(
            SRepeat(delay, 0, None),
            SBool(Sig("src_ev")),
            SRepeat(delay, 0, None),
            SBool(Sig("dst_ev")),
        )
        text = seq.emit()
        assert text.count("[*0:$]") == 2
        assert text.count("##1") == 3


class TestProperties:
    def test_impl_emit(self):
        prop = PImpl(Sig("first"), PSeq(SBool(Sig("x"))))
        assert prop.emit() == "first |-> ((x))"

    def test_pand_por_emit(self):
        prop = pand(PSeq(SBool(Sig("a"))), por(PSeq(SBool(Sig("b"))), PConst(False)))
        text = prop.emit()
        assert " and " in text

    def test_pand_simplifications(self):
        assert pand() == PConst(True)
        assert pand(PConst(True), PSeq(SBool(Sig("a")))) == PSeq(SBool(Sig("a")))
        assert pand(PConst(False), PSeq(SBool(Sig("a")))) == PConst(False)

    def test_por_simplifications(self):
        assert por() == PConst(False)
        assert por(PConst(True), PSeq(SBool(Sig("a")))) == PConst(True)


class TestDirectives:
    def test_assert_emission(self):
        d = Directive(
            kind="assert",
            name="mp_check",
            prop=PImpl(Sig("first"), PSeq(SBool(SigEq("x", 1)))),
        )
        text = d.emit()
        assert text.startswith("mp_check: assert property (@(posedge clk) first |-> ")
        assert text.endswith(");")

    def test_assume_emission(self):
        d = Directive(kind="assume", name="", prop=PConst(True))
        assert d.emit() == "assume property (@(posedge clk) (1));"

    def test_bad_kind_rejected(self):
        with pytest.raises(SvaError):
            Directive(kind="check", name="x", prop=PConst(True))


class TestRenderedOnce:
    """A renderer renders each node object once, and keeps its texts
    itself: nothing lands on the nodes, their pickles or copies."""

    @staticmethod
    def _directive():
        expr = band(SigEq("core[0].PC_WB", 8), BNot(Sig("core[0].stall_WB")))
        prop = PImpl(Sig("first"), PSeq(scat(SRepeat(BNot(expr), 0, None), SBool(expr))))
        return Directive(kind="assert", name="t_0", prop=prop)

    def test_renderer_renders_each_node_once(self):
        d = self._directive()
        calls = []

        class Counting(SvaText):
            def __call__(self, node):
                calls.append(node)
                return super().__call__(node)

        text = Counting()
        rendered = text(d)
        assert rendered == d.emit()
        assert text(d) is rendered
        assert text(d.prop) in rendered
        shared = d.prop.consequent.seq.right.expr
        # Read twice (the delay's operand and the SBool), rendered once.
        assert sum(1 for node in calls if node is shared) == 2
        assert len(text._texts) == len({id(node) for node in calls})

    def test_rendering_leaves_nodes_pickles_and_copies_unchanged(self):
        fresh = self._directive()
        rendered = self._directive()
        SvaText()(rendered)
        rendered.emit()
        assert rendered.__dict__ == fresh.__dict__
        assert pickle.dumps(rendered, protocol=4) == pickle.dumps(fresh, protocol=4)
        assert copy.copy(rendered).__dict__ == fresh.__dict__
        assert rendered == fresh
        assert hash(rendered) == hash(fresh)
        assert repr(rendered) == repr(fresh)
