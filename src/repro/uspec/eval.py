"""Grounding and evaluation of µspec axioms for a concrete litmus test.

Given a µspec model and a compiled litmus test, the evaluator
instantiates quantifiers over the test's microops and evaluates data
predicates, producing a *ground formula* whose leaves are µhb edge/node
atoms plus (in RTL mode) symbolic load-value constraints.

Two modes implement the paper's §3.2 distinction:

* ``mode="check"`` — the Check suite's omniscient evaluation: data
  predicates (``SameData``, ``DataFromInitialStateAtPA``, ...) are
  evaluated against the litmus test's *specified outcome*, pruning all
  logical branches that do not lead to that outcome.
* ``mode="rtl"`` — RTLCheck's outcome-aware evaluation: predicates over
  load values stay *symbolic* (:class:`LoadValue` atoms), so a single
  axiom translation covers every outcome the RTL verifier may explore;
  ``DataFromFinalStateAtPA`` is conservatively evaluated to False
  (paper §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import UspecError
from repro.litmus.test import CompiledTest
from repro.uspec import ast
from repro.uspec.ast import Formula, Truth, conjunction, disjunction

# ---------------------------------------------------------------------------
# Microop instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Micro:
    """A microop instance the evaluator quantifies over."""

    uid: int
    core: int
    index: int  # program-order position on its core
    kind: str  # 'R', 'W', 'F'
    addr: Optional[str]
    value: Optional[int]  # store data
    out: Optional[str]  # load output register

    @property
    def is_load(self) -> bool:
        return self.kind == "R"

    @property
    def is_store(self) -> bool:
        return self.kind == "W"

    def __str__(self):
        return f"i{self.uid}"


def micros_from_compiled(compiled: CompiledTest) -> List[Micro]:
    """The litmus microops of a compiled test (halts excluded: no axiom
    constrains them and they carry no memory semantics)."""
    return [
        Micro(
            uid=op.uid,
            core=op.core,
            index=op.index,
            kind=op.op.kind,
            addr=op.op.addr,
            value=op.op.value,
            out=op.op.out,
        )
        for op in compiled.ops
    ]


# ---------------------------------------------------------------------------
# Ground atoms
# ---------------------------------------------------------------------------

#: A ground µhb node: (microop uid, stage name).
GroundNodeId = Tuple[int, str]


@dataclass(frozen=True)
class GroundEdge(ast.Formula):
    """A ground edge atom.  ``kind`` is ``"add"`` (the axiom contributes
    the edge) or ``"exists"`` (the axiom only tests for it)."""

    kind: str
    src: GroundNodeId
    dst: GroundNodeId
    label: str = ""
    colour: str = ""

    def key(self) -> Tuple[GroundNodeId, GroundNodeId]:
        return (self.src, self.dst)


@dataclass(frozen=True)
class GroundNode(ast.Formula):
    node: GroundNodeId


@dataclass(frozen=True)
class LoadValue(ast.Formula):
    """Symbolic constraint: load ``uid`` returns ``value`` (RTL mode)."""

    uid: int
    value: int


# ---------------------------------------------------------------------------
# Evaluation context
# ---------------------------------------------------------------------------


@dataclass
class EvalContext:
    """Everything needed to ground a µspec formula for one test."""

    micros: List[Micro]
    initial_memory: Dict[str, int]
    outcome_registers: Dict[str, int]
    outcome_final: Dict[str, int]
    mode: str = "check"  # 'check' or 'rtl'

    def __post_init__(self):
        if self.mode not in ("check", "rtl"):
            raise UspecError(f"unknown evaluation mode {self.mode!r}")
        self.cores = sorted({m.core for m in self.micros})

    @staticmethod
    def for_compiled(compiled: CompiledTest, mode: str = "check") -> "EvalContext":
        test = compiled.test
        return EvalContext(
            micros=micros_from_compiled(compiled),
            initial_memory=test.initial_memory_map,
            outcome_registers=test.outcome.register_map,
            outcome_final=test.outcome.final_memory_map,
            mode=mode,
        )

    def load_outcome_value(self, micro: Micro) -> int:
        if micro.out not in self.outcome_registers:
            raise UspecError(
                f"load i{micro.uid} ({micro.out}) has no value in the litmus "
                "outcome; omniscient (check-mode) evaluation needs one"
            )
        return self.outcome_registers[micro.out]


Binding = Union[Micro, int]


class _Evaluator:
    def __init__(self, model: ast.Model, context: EvalContext):
        self.model = model
        self.context = context
        self.stage_names = set(model.stages)
        self._macro_depth = 0

    # -- helpers ---------------------------------------------------------

    def _micro(self, bindings: Dict[str, Binding], var: ast.Var) -> Micro:
        value = bindings.get(var.name)
        if not isinstance(value, Micro):
            raise UspecError(f"variable {var.name!r} is not a bound microop")
        return value

    def _core(self, bindings: Dict[str, Binding], var: ast.Var) -> int:
        value = bindings.get(var.name)
        if not isinstance(value, int):
            raise UspecError(f"variable {var.name!r} is not a bound core")
        return value

    def _ground_node(self, bindings, node: ast.NodeRef) -> GroundNodeId:
        if node.stage not in self.stage_names:
            raise UspecError(f"unknown stage {node.stage!r}")
        return (self._micro(bindings, node.microop).uid, node.stage)

    def _ground_edge(self, bindings, edge: ast.EdgeRef, kind: str) -> GroundEdge:
        return GroundEdge(
            kind=kind,
            src=self._ground_node(bindings, edge.src),
            dst=self._ground_node(bindings, edge.dst),
            label=edge.label,
            colour=edge.colour,
        )

    # -- evaluation ------------------------------------------------------

    def eval(self, formula: ast.Formula, bindings: Dict[str, Binding]) -> Formula:
        if isinstance(formula, ast.Truth):
            return formula
        if isinstance(formula, ast.Not):
            inner = self.eval(formula.body, bindings)
            if isinstance(inner, Truth):
                return Truth(not inner.value)
            return ast.Not(inner)
        if isinstance(formula, ast.And):
            # Short-circuit so guard predicates (IsAnyWrite w, ...) can
            # protect data predicates that would otherwise be undefined
            # for this binding (e.g. SameData between two loads).
            parts = []
            for op in formula.operands:
                part = self.eval(op, bindings)
                if isinstance(part, Truth) and not part.value:
                    return Truth(False)
                parts.append(part)
            return conjunction(parts)
        if isinstance(formula, ast.Or):
            parts = []
            for op in formula.operands:
                part = self.eval(op, bindings)
                if isinstance(part, Truth) and part.value:
                    return Truth(True)
                parts.append(part)
            return disjunction(parts)
        if isinstance(formula, ast.Implies):
            # Short-circuit like ``/\``: a false premise guards a
            # conclusion that is undefined for this binding, and skips
            # grounding it (Read_Values macros, nested quantifiers).
            premise = self.eval(formula.premise, bindings)
            if isinstance(premise, Truth) and not premise.value:
                return Truth(True)
            conclusion = self.eval(formula.conclusion, bindings)
            if isinstance(premise, Truth):
                return conclusion
            return disjunction([ast.Not(premise), conclusion])
        if isinstance(formula, ast.Quantifier):
            return self._eval_quantifier(formula, bindings)
        if isinstance(formula, ast.Predicate):
            return self._eval_predicate(formula, bindings)
        if isinstance(formula, ast.AddEdge):
            return self._ground_edge(bindings, formula.edge, "add")
        if isinstance(formula, ast.AddEdges):
            return conjunction(
                [self._ground_edge(bindings, e, "add") for e in formula.edges]
            )
        if isinstance(formula, ast.EdgeExists):
            return self._ground_edge(bindings, formula.edge, "exists")
        if isinstance(formula, ast.EdgesExist):
            return conjunction(
                [self._ground_edge(bindings, e, "exists") for e in formula.edges]
            )
        if isinstance(formula, ast.NodeExists):
            return GroundNode(self._ground_node(bindings, formula.node))
        if isinstance(formula, ast.ExpandMacro):
            return self._eval_macro(formula, bindings)
        raise UspecError(f"cannot evaluate {formula!r}")

    def _eval_quantifier(self, formula: ast.Quantifier, bindings) -> Formula:
        domain: Sequence[Binding]
        if formula.domain == "microop":
            domain = self.context.micros
        else:
            domain = self.context.cores

        def expand(names: Tuple[str, ...], bound: Dict[str, Binding]) -> List[Formula]:
            if not names:
                return [self.eval(formula.body, bound)]
            results = []
            for item in domain:
                child = dict(bound)
                child[names[0]] = item
                results.extend(expand(names[1:], child))
            return results

        parts = expand(formula.names, dict(bindings))
        if formula.kind == "forall":
            return conjunction(parts)
        return disjunction(parts)

    def _eval_macro(self, formula: ast.ExpandMacro, bindings) -> Formula:
        try:
            macro = self.model.macro(formula.name)
        except KeyError:
            raise UspecError(f"undefined macro {formula.name!r}") from None
        if len(formula.args) != len(macro.params):
            raise UspecError(
                f"macro {formula.name!r} takes {len(macro.params)} args, "
                f"got {len(formula.args)}"
            )
        if self._macro_depth > 32:
            raise UspecError(f"macro recursion too deep at {formula.name!r}")
        child = dict(bindings)  # unbound body variables capture the call site
        for param, arg in zip(macro.params, formula.args):
            if arg.name not in bindings:
                raise UspecError(f"macro argument {arg.name!r} is unbound")
            child[param] = bindings[arg.name]
        self._macro_depth += 1
        try:
            return self.eval(macro.body, child)
        finally:
            self._macro_depth -= 1

    # -- predicates --------------------------------------------------------

    def _eval_predicate(self, formula: ast.Predicate, bindings) -> Formula:
        name, args = formula.name, formula.args
        ctx = self.context

        def micro(i: int) -> Micro:
            return self._micro(bindings, args[i])

        if name in ("IsAnyRead", "IsRead"):
            return Truth(micro(0).is_load)
        if name in ("IsAnyWrite", "IsWrite"):
            return Truth(micro(0).is_store)
        if name == "IsAnyFence":
            return Truth(micro(0).kind == "F")
        if name == "SameMicroop":
            return Truth(micro(0).uid == micro(1).uid)
        if name == "SameCore":
            return Truth(micro(0).core == micro(1).core)
        if name == "OnCore":
            return Truth(self._core(bindings, args[0]) == micro(1).core)
        if name == "SameAddress":
            a, b = micro(0), micro(1)
            return Truth(a.addr is not None and a.addr == b.addr)
        if name == "ProgramOrder":
            a, b = micro(0), micro(1)
            return Truth(a.core == b.core and a.index < b.index)
        if name == "SameData":
            return self._same_data(micro(0), micro(1))
        if name == "DataFromInitialStateAtPA":
            return self._data_from_initial(micro(0))
        if name == "DataFromFinalStateAtPA":
            return self._data_from_final(micro(0))
        raise UspecError(f"unknown predicate {name!r}")

    def _load_value_equals(self, load: Micro, value: int) -> Formula:
        if self.context.mode == "check":
            return Truth(self.context.load_outcome_value(load) == value)
        return LoadValue(load.uid, value)

    def _same_data(self, a: Micro, b: Micro) -> Formula:
        if a.is_store and b.is_store:
            return Truth(a.value == b.value)
        if a.is_store and b.is_load:
            return self._load_value_equals(b, a.value)
        if a.is_load and b.is_store:
            return self._load_value_equals(a, b.value)
        if a.is_load and b.is_load:
            if self.context.mode == "check":
                return Truth(
                    self.context.load_outcome_value(a)
                    == self.context.load_outcome_value(b)
                )
            raise UspecError(
                "SameData between two loads is not synthesizable to SVA"
            )
        return Truth(False)  # fences carry no data

    def _data_from_initial(self, micro: Micro) -> Formula:
        if micro.addr is None:
            return Truth(False)
        initial = self.context.initial_memory.get(micro.addr, 0)
        if micro.is_store:
            return Truth(micro.value == initial)
        return self._load_value_equals(micro, initial)

    def _data_from_final(self, micro: Micro) -> Formula:
        if self.context.mode == "rtl":
            # Paper §4.2: SVA verifiers cannot enforce that a write
            # happens last, so this is conservatively False at RTL.
            return Truth(False)
        if micro.addr is None or not micro.is_store:
            return Truth(False)
        final = self.context.outcome_final.get(micro.addr)
        return Truth(final is not None and micro.value == final)


def evaluate_formula(
    model: ast.Model, formula: ast.Formula, context: EvalContext
) -> Formula:
    """Ground ``formula`` over ``context`` (quantifier-free result whose
    leaves are :class:`GroundEdge` / :class:`GroundNode` /
    :class:`LoadValue` / :class:`~repro.uspec.ast.Truth`)."""
    return _Evaluator(model, context).eval(formula, {})


def evaluate_axiom(model: ast.Model, axiom: ast.Axiom, context: EvalContext) -> Formula:
    """Ground one axiom (see :func:`evaluate_formula`)."""
    return evaluate_formula(model, axiom.body, context)


def evaluate_axioms(model: ast.Model, context: EvalContext) -> Dict[str, Formula]:
    """Ground every axiom of ``model``; axiom name -> ground formula."""
    return {
        axiom.name: evaluate_axiom(model, axiom, context) for axiom in model.axioms
    }
