"""A SystemVerilog Assertions (SVA) subset.

This models the fragment RTLCheck generates (paper §4): boolean
expressions over design signals, sequences built from boolean cycles,
``##1`` concatenation and ``[*m:n]`` repetition (including unbounded
``$``), sequence/property ``and`` / ``or``, overlapping implication
``|->``, and ``assert`` / ``assume property`` directives clocked on
``posedge clk``.

Every node knows how to emit itself as SystemVerilog text (so the tool
produces real ``.sv`` output, Figures 8/10) and how to evaluate /
compile itself for the trace monitor in :mod:`repro.sva.monitor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import SvaError
from repro.rtl.design import Frame


class SvaText:
    """Renders SVA nodes as SystemVerilog, each distinct node object once.

    Generated properties share subtrees (one node mapping per event),
    so a renderer kept across one test's properties renders each shared
    node once, and a text it returned is returned again, not rebuilt.
    The texts live in the renderer, never on the nodes: they stay out of
    pickles, ``==``, ``hash`` and ``repr``, and go when it goes.
    """

    def __init__(self):
        self._texts: Dict[int, Tuple[object, str]] = {}

    def __call__(self, node: "_Node") -> str:
        entry = self._texts.get(id(node))
        if entry is None:
            # The entry holds ``node`` so its id cannot be reused.
            entry = self._texts[id(node)] = (node, node.render(self))
        return entry[1]


class _Node:
    """An SVA node: :meth:`render` builds its text from its children's,
    read through ``text``."""

    def emit(self) -> str:
        """This node as SystemVerilog text."""
        return SvaText()(self)

    def render(self, text: SvaText) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Boolean expressions over a cycle's signals
# ---------------------------------------------------------------------------


class BoolExpr(_Node):
    """Base class for single-cycle boolean expressions."""

    def evaluate(self, frame: Frame) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class BConst(BoolExpr):
    value: bool

    def render(self, text: SvaText) -> str:
        return "1'b1" if self.value else "1'b0"

    def evaluate(self, frame: Frame) -> bool:
        return self.value


@dataclass(frozen=True)
class Sig(BoolExpr):
    """A signal used as a boolean (non-zero = true)."""

    name: str

    def render(self, text: SvaText) -> str:
        return self.name

    def evaluate(self, frame: Frame) -> bool:
        return bool(frame.get(self.name, 0))


@dataclass(frozen=True)
class SigEq(BoolExpr):
    """``signal == 32'd<value>``."""

    name: str
    value: int
    width: int = 32

    def render(self, text: SvaText) -> str:
        return f"{self.name} == {self.width}'d{self.value}"

    def evaluate(self, frame: Frame) -> bool:
        return frame.get(self.name, 0) == self.value


@dataclass(frozen=True)
class BNot(BoolExpr):
    body: BoolExpr

    def render(self, text: SvaText) -> str:
        return f"~({text(self.body)})"

    def evaluate(self, frame: Frame) -> bool:
        return not self.body.evaluate(frame)


@dataclass(frozen=True)
class BAnd(BoolExpr):
    operands: Tuple[BoolExpr, ...]

    def render(self, text: SvaText) -> str:
        return " && ".join(_paren(op, text) for op in self.operands)

    def evaluate(self, frame: Frame) -> bool:
        return all(op.evaluate(frame) for op in self.operands)


@dataclass(frozen=True)
class BOr(BoolExpr):
    operands: Tuple[BoolExpr, ...]

    def render(self, text: SvaText) -> str:
        return " || ".join(_paren(op, text) for op in self.operands)

    def evaluate(self, frame: Frame) -> bool:
        return any(op.evaluate(frame) for op in self.operands)


def _paren(expr: BoolExpr, text: SvaText) -> str:
    rendered = text(expr)
    if isinstance(expr, (BAnd, BOr)):
        return f"({rendered})"
    return rendered


def band(*operands: BoolExpr) -> BoolExpr:
    ops = [op for op in operands if not (isinstance(op, BConst) and op.value)]
    if any(isinstance(op, BConst) and not op.value for op in ops):
        return BConst(False)
    if not ops:
        return BConst(True)
    if len(ops) == 1:
        return ops[0]
    return BAnd(tuple(ops))


def bor(*operands: BoolExpr) -> BoolExpr:
    ops = [op for op in operands if not (isinstance(op, BConst) and not op.value)]
    if any(isinstance(op, BConst) and op.value for op in ops):
        return BConst(True)
    if not ops:
        return BConst(False)
    if len(ops) == 1:
        return ops[0]
    return BOr(tuple(ops))


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


class Sequence(_Node):
    """Base class for SVA sequences (consume one frame per cycle)."""


@dataclass(frozen=True)
class SBool(Sequence):
    """A one-cycle sequence: the boolean holds this cycle."""

    expr: BoolExpr

    def render(self, text: SvaText) -> str:
        return f"({text(self.expr)})"


@dataclass(frozen=True)
class SRepeat(Sequence):
    """``expr [*lo:hi]``; ``hi=None`` means unbounded (``$``)."""

    expr: BoolExpr
    lo: int
    hi: Optional[int]

    def __post_init__(self):
        if self.lo < 0 or (self.hi is not None and self.hi < self.lo):
            raise SvaError(f"bad repetition bounds [{self.lo}:{self.hi}]")

    def render(self, text: SvaText) -> str:
        hi = "$" if self.hi is None else str(self.hi)
        return f"({text(self.expr)}) [*{self.lo}:{hi}]"


@dataclass(frozen=True)
class SCat(Sequence):
    """``left ##<delay> right`` (delay >= 1)."""

    left: Sequence
    right: Sequence
    delay: int = 1

    def __post_init__(self):
        if self.delay < 1:
            raise SvaError("only ##1-or-more concatenation is supported")

    def render(self, text: SvaText) -> str:
        return f"{text(self.left)} ##{self.delay} {text(self.right)}"


def scat(*parts: Sequence) -> Sequence:
    """Left-fold ``##1`` concatenation."""
    if not parts:
        raise SvaError("empty sequence concatenation")
    out = parts[0]
    for part in parts[1:]:
        out = SCat(out, part, 1)
    return out


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


class Property(_Node):
    """Base class for SVA properties."""


@dataclass(frozen=True)
class PSeq(Property):
    """A (weak) sequence used as a property."""

    seq: Sequence

    def render(self, text: SvaText) -> str:
        return f"({text(self.seq)})"


@dataclass(frozen=True)
class PConst(Property):
    value: bool

    def render(self, text: SvaText) -> str:
        return "(1)" if self.value else "(0)"


@dataclass(frozen=True)
class PAnd(Property):
    operands: Tuple[Property, ...]

    def render(self, text: SvaText) -> str:
        return "(" + " and ".join(text(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class POr(Property):
    operands: Tuple[Property, ...]

    def render(self, text: SvaText) -> str:
        return "(" + " or ".join(text(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class PImpl(Property):
    """Overlapping implication ``antecedent |-> consequent`` with a
    boolean antecedent (the only form RTLCheck generates)."""

    antecedent: BoolExpr
    consequent: Property

    def render(self, text: SvaText) -> str:
        return f"{text(self.antecedent)} |-> {text(self.consequent)}"


def pand(*operands: Property) -> Property:
    ops = [op for op in operands if not (isinstance(op, PConst) and op.value)]
    if any(isinstance(op, PConst) and not op.value for op in ops):
        return PConst(False)
    if not ops:
        return PConst(True)
    if len(ops) == 1:
        return ops[0]
    return PAnd(tuple(ops))


def por(*operands: Property) -> Property:
    ops = [op for op in operands if not (isinstance(op, PConst) and not op.value)]
    if any(isinstance(op, PConst) and op.value for op in ops):
        return PConst(True)
    if not ops:
        return PConst(False)
    if len(ops) == 1:
        return ops[0]
    return POr(tuple(ops))


# ---------------------------------------------------------------------------
# Directives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Directive(_Node):
    """An ``assert property`` or ``assume property`` directive.

    ``structural`` marks assumptions that our verifier enforces by
    construction (memory/register initialization applied to the reset
    state) rather than by monitoring; they are still emitted as SVA.
    """

    kind: str  # 'assert' or 'assume'
    name: str
    prop: Property
    clock: str = "posedge clk"
    structural: bool = False

    def __post_init__(self):
        if self.kind not in ("assert", "assume"):
            raise SvaError(f"bad directive kind {self.kind!r}")

    def render(self, text: SvaText) -> str:
        label = f"{self.name}: " if self.name else ""
        return f"{label}{self.kind} property (@({self.clock}) {text(self.prop)});"
