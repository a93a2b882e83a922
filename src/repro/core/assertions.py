"""The Assertion Generator (paper §4.2–§4.4).

Translates each µspec axiom, grounded for one litmus test in
*outcome-aware* RTL mode, into SystemVerilog assertions:

* data predicates over load values stay symbolic so each assertion
  covers every outcome the RTL verifier may explore, not just the
  outcome under test (§4.2) — symbolic :class:`LoadValue` atoms become
  ``load_data_WB == v`` constraints attached to the node mappings of
  the edges they share a conjunction with;
* µhb edges map to SVA sequences whose initial and intermediate delays
  are repetitions of cycles where *no event of interest* occurs (§4.3),
  so a trace in which the events occur in the opposite order empties the
  NFA and refutes the property;
* every assertion is guarded by ``first |->`` so only the match attempt
  anchored at the first cycle is checked (§4.4);
* a negated edge that survives simplification is rewritten as the
  reversed edge — sound here because the events litmus axioms relate
  (same-core stages, arbiter-serialized memory stages) occur exactly
  once and never simultaneously; this is part of the "synthesizable
  µspec" discipline the paper calls for (§2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SvaError
from repro.litmus.test import CompiledTest
from repro.mapping.node_mapping import MapNode, NodeMapping
from repro.sva.ast import (
    BNot,
    BoolExpr,
    Directive,
    PConst,
    PImpl,
    POr,
    PSeq,
    Property,
    SBool,
    SRepeat,
    Sig,
    SvaText,
    bor,
    pand,
    por,
    scat,
)
from repro.uspec import ast as uast
from repro.uspec.ast import Model
from repro.uspec.eval import (
    EvalContext,
    GroundEdge,
    GroundNode,
    LoadValue,
    evaluate_axiom,
)
from repro.uhb.solver import to_nnf


def rewrite_negations(formula: uast.Formula) -> uast.Formula:
    """Eliminate surviving negations from an NNF ground formula.

    ``~Edge(a, b)`` becomes ``Edge(b, a)``; anything else under a
    negation is outside the synthesizable subset.
    """
    if isinstance(formula, uast.Truth):
        return formula
    if isinstance(formula, uast.And):
        return uast.conjunction([rewrite_negations(op) for op in formula.operands])
    if isinstance(formula, uast.Or):
        return uast.disjunction([rewrite_negations(op) for op in formula.operands])
    if isinstance(formula, uast.Not):
        body = formula.body
        if isinstance(body, GroundEdge):
            return GroundEdge(
                kind="exists",
                src=body.dst,
                dst=body.src,
                label=body.label,
                colour=body.colour,
            )
        raise SvaError(
            f"negated {type(body).__name__} is not synthesizable to SVA"
        )
    return formula


@dataclass
class AssertionGenerator:
    """Generates per-test SV assertions from a µspec model.

    Node mappings and event sequences are memoized per generator, so
    every property that mentions an event shares one ``BoolExpr`` for
    it, and every repeat of an edge one sequence: each is built,
    rendered and (in a cached monitor) pickled once.  ``text`` renders
    the properties for deduplication; pass it on to
    :func:`~repro.sva.emit.emit_sva_file` so the SVA file reuses those
    texts.
    """

    model: Model
    compiled: CompiledTest
    node_mapping: NodeMapping
    text: SvaText = field(
        default_factory=SvaText, init=False, repr=False, compare=False
    )
    _mapped: Dict[Tuple[MapNode, Optional[int]], BoolExpr] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _sequences: Dict[tuple, Property] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _map(self, node: MapNode, value: Optional[int]) -> BoolExpr:
        key = (node, value)
        expr = self._mapped.get(key)
        if expr is None:
            expr = self._mapped[key] = self.node_mapping.map_node(node, value)
        return expr

    def _sequence(self, nodes: Tuple[MapNode, ...], env: Dict[int, int]) -> Property:
        """The events of ``nodes`` in order, each preceded by any number
        of delay cycles in which none of them occurs, whatever the data
        values (§4.3); ``env`` pins load values."""
        values = tuple(env.get(uid) for uid, _stage in nodes)
        key = (nodes, values)
        prop = self._sequences.get(key)
        if prop is None:
            delay = SRepeat(
                BNot(bor(*(self._map(node, None) for node in nodes))), 0, None
            )
            parts = []
            for node, value in zip(nodes, values):
                parts += [delay, SBool(self._map(node, value))]
            prop = self._sequences[key] = PSeq(scat(*parts))
        return prop

    def _load_value_property(self, atom: LoadValue, env: Dict[int, int]) -> Property:
        """A bare load-value constraint asserts the load occurs at WB
        with that value."""
        node = (atom.uid, "Writeback")
        local = dict(env)
        local[atom.uid] = atom.value
        return self._sequence((node,), local)

    def _translate(self, formula: uast.Formula, env: Dict[int, int]) -> Property:
        if isinstance(formula, uast.Truth):
            return PConst(formula.value)
        if isinstance(formula, GroundEdge):
            return self._sequence((formula.src, formula.dst), env)
        if isinstance(formula, GroundNode):
            return self._sequence((formula.node,), env)
        if isinstance(formula, LoadValue):
            return self._load_value_property(formula, env)
        if isinstance(formula, uast.Or):
            return por(*(self._translate(op, env) for op in formula.operands))
        if isinstance(formula, uast.And):
            constraints = [op for op in formula.operands if isinstance(op, LoadValue)]
            others = [op for op in formula.operands if not isinstance(op, LoadValue)]
            local = dict(env)
            for atom in constraints:
                if local.get(atom.uid, atom.value) != atom.value:
                    return PConst(False)  # contradictory constraints
                local[atom.uid] = atom.value
            if not others:
                return pand(*(self._load_value_property(c, env) for c in constraints))
            return pand(*(self._translate(op, local) for op in others))
        raise SvaError(f"cannot translate {formula!r} to SVA")

    # ------------------------------------------------------------------

    def axiom_properties(self, axiom: uast.Axiom) -> List[Property]:
        """Translate one axiom into a list of properties (one per
        top-level conjunct of its outcome-aware ground formula)."""
        context = EvalContext.for_compiled(self.compiled, mode="rtl")
        ground = evaluate_axiom(self.model, axiom, context)
        ground = rewrite_negations(to_nnf(ground))
        conjuncts = (
            list(ground.operands) if isinstance(ground, uast.And) else [ground]
        )
        properties = []
        for conjunct in conjuncts:
            prop = self._translate(conjunct, {})
            if isinstance(prop, PConst) and prop.value:
                continue  # trivially true, nothing to check
            properties.append(prop)
        return properties

    def generate(self) -> List[Directive]:
        """All assertions for the test, ``first |->`` guarded and
        deduplicated by emitted text."""
        directives: List[Directive] = []
        seen = set()
        test_name = _sanitize(self.compiled.test.name)
        first = Sig("first")
        for axiom in self.model.axioms:
            for index, prop in enumerate(self.axiom_properties(axiom)):
                guarded = PImpl(first, prop)
                text = self.text(guarded)
                if text in seen:
                    continue
                seen.add(text)
                directives.append(
                    Directive(
                        kind="assert",
                        name=f"{test_name}_{_sanitize(axiom.name)}_{index}",
                        prop=guarded,
                    )
                )
        return directives


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)
