"""Abstract syntax for the µspec modeling language.

µspec is the first-order logic language the Check suite uses to describe
microarchitectural happens-before orderings (paper Figures 3b and 5).
A model is a list of stage declarations, macro definitions, and axioms;
formulas quantify over the microops of a litmus test and constrain µhb
graph edges through ``AddEdge`` / ``EdgeExists`` atoms plus data
predicates (``SameData``, ``DataFromInitialStateAtPA``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """A quantified variable reference (microop or core)."""

    name: str


@dataclass(frozen=True)
class NodeRef:
    """A µhb node: ``(microop_var, StageName)``."""

    microop: Var
    stage: str


@dataclass(frozen=True)
class EdgeRef:
    """A µhb edge between two nodes, with optional label and colour
    (labels/colours are cosmetic, kept for graph rendering)."""

    src: NodeRef
    dst: NodeRef
    label: str = ""
    colour: str = ""


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Formula:
    """Base class for µspec formulas.

    :func:`sort_key` caches a formula's key on the object.  The cache is
    not a dataclass field, so ``==``, ``hash`` and ``repr`` ignore it,
    and ``__getstate__`` leaves it out of pickles and copies.
    """

    def __getstate__(self):
        state = self.__dict__
        if "_sort_key" in state:
            state = dict(state)
            del state["_sort_key"]
        return state


@dataclass(frozen=True)
class Truth(Formula):
    value: bool


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    operands: Tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    operands: Tuple[Formula, ...]


@dataclass(frozen=True)
class Implies(Formula):
    premise: Formula
    conclusion: Formula


@dataclass(frozen=True)
class Quantifier(Formula):
    """``forall``/``exists`` over microops or cores."""

    kind: str  # 'forall' or 'exists'
    domain: str  # 'microop' or 'core'
    names: Tuple[str, ...]
    body: Formula


@dataclass(frozen=True)
class Predicate(Formula):
    """A built-in predicate applied to variables, e.g. ``SameData w i``."""

    name: str
    args: Tuple[Var, ...]


@dataclass(frozen=True)
class AddEdge(Formula):
    edge: EdgeRef


@dataclass(frozen=True)
class AddEdges(Formula):
    edges: Tuple[EdgeRef, ...]


@dataclass(frozen=True)
class EdgeExists(Formula):
    edge: EdgeRef


@dataclass(frozen=True)
class EdgesExist(Formula):
    edges: Tuple[EdgeRef, ...]


@dataclass(frozen=True)
class NodeExists(Formula):
    node: NodeRef


@dataclass(frozen=True)
class ExpandMacro(Formula):
    """Macro call; unbound macro-body variables capture the call site's
    bindings (the paper's macros use this, Figure 5)."""

    name: str
    args: Tuple[Var, ...] = ()


# ---------------------------------------------------------------------------
# Top-level declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Macro:
    name: str
    params: Tuple[str, ...]
    body: Formula


@dataclass(frozen=True)
class Axiom:
    name: str
    body: Formula


@dataclass
class Model:
    """A parsed µspec model."""

    stages: List[str] = field(default_factory=list)
    macros: List[Macro] = field(default_factory=list)
    axioms: List[Axiom] = field(default_factory=list)

    def macro(self, name: str) -> Macro:
        for macro in self.macros:
            if macro.name == name:
                return macro
        raise KeyError(name)

    def axiom(self, name: str) -> Axiom:
        for axiom in self.axioms:
            if axiom.name == name:
                return axiom
        raise KeyError(name)

    def stage_index(self, name: str) -> int:
        return self.stages.index(name)


def sort_key(formula: Formula) -> str:
    """``repr(formula)``, computed once per formula object.

    ``And``/``Or``/``Not`` compose their key from their children's
    cached keys, exactly as the dataclass ``repr`` nests, so a ground
    formula's tree is rendered once however often it is re-sorted.
    Formulas are equal exactly when their keys are.
    """
    key = formula.__dict__.get("_sort_key")
    if key is None:
        if isinstance(formula, (And, Or)):
            keys = [sort_key(op) for op in formula.operands]
            inner = keys[0] + "," if len(keys) == 1 else ", ".join(keys)
            key = f"{type(formula).__qualname__}(operands=({inner}))"
        elif isinstance(formula, Not):
            key = f"Not(body={sort_key(formula.body)})"
        else:
            key = repr(formula)
        object.__setattr__(formula, "_sort_key", key)
    return key


def _canonical(operands: List[Formula]) -> Tuple[Formula, ...]:
    """Deduplicate and sort for a canonical operand tuple, so that e.g.
    the two groundings of a symmetric total-order axiom (pair (a,b) and
    pair (b,a)) collapse to a single formula.  Operands are ordered by
    ``repr`` (read from :func:`sort_key`), the first of equal ones
    kept."""
    unique: Dict[str, Formula] = {}
    for op in operands:
        unique.setdefault(sort_key(op), op)
    return tuple(unique[key] for key in sorted(unique))


def conjunction(operands: Sequence[Formula]) -> Formula:
    """n-ary ``And`` with flattening, deduplication, and canonical
    operand order."""
    flat: List[Formula] = []
    for op in operands:
        if isinstance(op, Truth) and op.value:
            continue
        if isinstance(op, Truth):
            return Truth(False)
        if isinstance(op, And):
            flat.extend(op.operands)
        else:
            flat.append(op)
    canon = _canonical(flat)
    if not canon:
        return Truth(True)
    if len(canon) == 1:
        return canon[0]
    return And(canon)


def disjunction(operands: Sequence[Formula]) -> Formula:
    """n-ary ``Or`` with flattening, deduplication, and canonical
    operand order."""
    flat: List[Formula] = []
    for op in operands:
        if isinstance(op, Truth) and not op.value:
            continue
        if isinstance(op, Truth):
            return Truth(True)
        if isinstance(op, Or):
            flat.extend(op.operands)
        else:
            flat.append(op)
    canon = _canonical(flat)
    if not canon:
        return Truth(False)
    if len(canon) == 1:
        return canon[0]
    return Or(canon)
