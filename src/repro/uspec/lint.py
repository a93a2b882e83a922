"""Synthesizability linting for µspec models.

The paper identifies "an approach to writing µspec that is
'synthesizable' to SVA, much as previous work has spent effort to
identify subsets of Verilog that are synthesizable to actual circuits"
and expects future µspec to restrict itself to that subset (§2.2).
This module makes the subset checkable: :func:`lint_model` statically
analyses a model and reports, per axiom, the constructs that would stop
RTLCheck's Assertion Generator from producing SVA.

Checked rules (each yields a :class:`LintFinding`):

``negated-non-edge``
    A negation that cannot be eliminated: after pushing negations
    inward, something other than an edge atom remains negated (negated
    edges are rewritable as the reversed edge; negated data predicates
    or node-existence atoms are not translatable).
``load-load-data``
    ``SameData`` between two loads — symbolic at RTL and outside the
    subset.
``final-state-dependence``
    An axiom whose conclusion can only fire when
    ``DataFromFinalStateAtPA`` holds: conservatively False at RTL
    (§4.2), so the axiom generates no assertions and its orderings go
    unchecked at RTL.  Reported as a warning rather than an error.
``unknown-predicate`` / ``unknown-stage`` / ``undefined-macro`` /
``macro-arity`` / ``macro-recursion`` / ``unbound-variable``
    Structural problems that would fail at evaluation time.  Grounding
    short-circuits a false premise, so such a problem inside a
    conclusion that no binding reaches never fails there; the linter
    reports it all the same.  A variable is bound by an enclosing
    quantifier or macro parameter, or, inside a macro body, at the
    call site (macros capture their caller's bindings).

The linter is purely syntactic/structural: it runs without a litmus
test, so models can be checked as they are written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Tuple

from repro.uspec import ast

#: Predicates the evaluator implements, with their arities.
KNOWN_PREDICATES = {
    "IsAnyRead": 1,
    "IsRead": 1,
    "IsAnyWrite": 1,
    "IsWrite": 1,
    "IsAnyFence": 1,
    "SameMicroop": 2,
    "SameCore": 2,
    "OnCore": 2,
    "SameAddress": 2,
    "ProgramOrder": 2,
    "SameData": 2,
    "DataFromInitialStateAtPA": 1,
    "DataFromFinalStateAtPA": 1,
}

#: Severity levels.
ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class LintFinding:
    """One linter diagnostic."""

    severity: str
    rule: str
    axiom: str
    message: str

    def __str__(self):
        return f"[{self.severity}] {self.axiom}: {self.rule}: {self.message}"


@dataclass
class LintReport:
    """All diagnostics for a model."""

    findings: List[LintFinding]

    @property
    def errors(self) -> List[LintFinding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> List[LintFinding]:
        return [f for f in self.findings if f.severity == WARNING]

    @property
    def synthesizable(self) -> bool:
        return not self.errors

    def render(self) -> str:
        if not self.findings:
            return "model is synthesizable to SVA (no findings)"
        return "\n".join(str(f) for f in self.findings)


class _Linter:
    def __init__(self, model: ast.Model):
        self.model = model
        self.findings: List[LintFinding] = []
        self.stages = set(model.stages)
        self.macros = {m.name: m for m in model.macros}

    def add(self, severity: str, rule: str, axiom: str, message: str) -> None:
        self.findings.append(LintFinding(severity, rule, axiom, message))

    # ------------------------------------------------------------------

    def lint(self) -> LintReport:
        for axiom in self.model.axioms:
            self._walk(
                axiom.body, axiom.name, negated=False, stack=(), scope=frozenset()
            )
        return LintReport(self.findings)

    def _check_bound(
        self, variables: Sequence[ast.Var], axiom: str, scope: FrozenSet[str]
    ) -> None:
        for var in variables:
            if var.name not in scope:
                self.add(
                    ERROR, "unbound-variable", axiom,
                    f"variable {var.name!r} is not bound by a quantifier, "
                    "a macro parameter or the macro's call site",
                )

    def _check_node(
        self, node: ast.NodeRef, axiom: str, scope: FrozenSet[str]
    ) -> None:
        self._check_bound((node.microop,), axiom, scope)
        if node.stage not in self.stages:
            self.add(
                ERROR, "unknown-stage", axiom,
                f"stage {node.stage!r} is not declared in Stages",
            )

    def _walk(
        self,
        formula: ast.Formula,
        axiom: str,
        negated: bool,
        stack: Tuple[str, ...],
        scope: FrozenSet[str],
    ) -> None:
        if isinstance(formula, ast.Truth):
            return
        if isinstance(formula, ast.Not):
            self._walk(formula.body, axiom, not negated, stack, scope)
            return
        if isinstance(formula, (ast.And, ast.Or)):
            for op in formula.operands:
                self._walk(op, axiom, negated, stack, scope)
            return
        if isinstance(formula, ast.Implies):
            self._walk(formula.premise, axiom, not negated, stack, scope)
            self._walk(formula.conclusion, axiom, negated, stack, scope)
            return
        if isinstance(formula, ast.Quantifier):
            self._walk(
                formula.body, axiom, negated, stack, scope | set(formula.names)
            )
            return
        if isinstance(formula, (ast.AddEdge, ast.EdgeExists)):
            edge = formula.edge
            self._check_node(edge.src, axiom, scope)
            self._check_node(edge.dst, axiom, scope)
            return  # negated edges are rewritable: fine either way
        if isinstance(formula, (ast.AddEdges, ast.EdgesExist)):
            for edge in formula.edges:
                self._check_node(edge.src, axiom, scope)
                self._check_node(edge.dst, axiom, scope)
            return
        if isinstance(formula, ast.NodeExists):
            self._check_node(formula.node, axiom, scope)
            if negated:
                self.add(
                    ERROR, "negated-non-edge", axiom,
                    "negated NodeExists has no SVA translation",
                )
            return
        if isinstance(formula, ast.Predicate):
            self._check_bound(formula.args, axiom, scope)
            self._lint_predicate(formula, axiom, negated)
            return
        if isinstance(formula, ast.ExpandMacro):
            self._check_bound(formula.args, axiom, scope)
            self._lint_macro(formula, axiom, negated, stack, scope)
            return
        self.add(ERROR, "unknown-construct", axiom, f"cannot lint {formula!r}")

    def _lint_predicate(self, pred: ast.Predicate, axiom: str, negated: bool) -> None:
        arity = KNOWN_PREDICATES.get(pred.name)
        if arity is None:
            self.add(
                ERROR, "unknown-predicate", axiom,
                f"predicate {pred.name!r} is not implemented",
            )
            return
        if len(pred.args) != arity:
            self.add(
                ERROR, "predicate-arity", axiom,
                f"{pred.name} takes {arity} argument(s), got {len(pred.args)}",
            )
        if pred.name == "SameData" and negated:
            self.add(
                ERROR, "negated-non-edge", axiom,
                "a negated SameData may leave a negated load-value "
                "constraint, which has no SVA translation",
            )
        if pred.name == "DataFromInitialStateAtPA" and negated:
            self.add(
                ERROR, "negated-non-edge", axiom,
                "negated DataFromInitialStateAtPA may leave a negated "
                "load-value constraint at RTL",
            )
        if pred.name == "DataFromFinalStateAtPA":
            self.add(
                WARNING, "final-state-dependence", axiom,
                "DataFromFinalStateAtPA is conservatively False at RTL "
                "(paper §4.2); orderings guarded by it are unchecked "
                "in the generated SVA",
            )

    def _lint_macro(
        self,
        call: ast.ExpandMacro,
        axiom: str,
        negated: bool,
        stack: Tuple[str, ...],
        scope: FrozenSet[str],
    ) -> None:
        macro = self.macros.get(call.name)
        if macro is None:
            self.add(
                ERROR, "undefined-macro", axiom,
                f"macro {call.name!r} is not defined",
            )
            return
        if len(call.args) != len(macro.params):
            self.add(
                ERROR, "macro-arity", axiom,
                f"macro {call.name} takes {len(macro.params)} argument(s), "
                f"got {len(call.args)}",
            )
        if call.name in stack:
            self.add(
                ERROR, "macro-recursion", axiom,
                f"macro {call.name!r} expands itself (cycle: "
                f"{' -> '.join(stack + (call.name,))})",
            )
            return
        self._walk(
            macro.body, axiom, negated, stack + (call.name,),
            scope | set(macro.params),
        )


def lint_model(model: ast.Model) -> LintReport:
    """Statically check ``model`` against the SVA-synthesizable subset."""
    return _Linter(model).lint()


def lint_source(source: str) -> LintReport:
    """Parse and lint µspec ``source``."""
    from repro.uspec.parser import parse_uspec

    return lint_model(parse_uspec(source))
