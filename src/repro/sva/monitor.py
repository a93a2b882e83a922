"""Trace monitoring for the generated SVA subset.

The monitor implements exactly the semantics the paper reasons about:

* Assertions have the shape ``first |-> P`` where ``P`` combines weak
  sequences with property ``and`` / ``or``.  The ``first`` guard makes
  every match attempt after cycle 0 vacuously true (§3.4/§4.4), so the
  monitor runs a single attempt anchored at the first cycle after reset.
* A sequence leaf *fails* when its NFA's live-state set empties before
  any match — the only finite refutation a weak sequence admits — and
  *matches* when an accepting state is reached.  Property verdicts fold
  leaf verdicts through the and/or tree in three-valued logic.
* Assumptions are checked cycle-by-cycle with no lookahead: a trace
  prefix is discarded the cycle an assumption's consequent is violated,
  never earlier (SVA verifiers do not check future violation of
  assumptions, §3.1).

Monitor state is an immutable tuple, so the property verifier can embed
it in explored product states.

:meth:`PropertyMonitor.step` and :meth:`PropertyMonitor.verdict` are the
reference semantics (trace checks use them directly).  The graph walk
steps a :class:`MonitorTable` instead: the same transitions compiled to
integer state ids and frame labels — each frame's interned atom-valuation
class (:class:`FrameLabels`) — filled on first use and kept for one
walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import SvaError
from repro.rtl.design import Frame
from repro.sva.ast import (
    BAnd,
    BConst,
    BNot,
    BOr,
    BoolExpr,
    Directive,
    PAnd,
    PConst,
    PImpl,
    POr,
    PSeq,
    Property,
    SBool,
    SCat,
    Sig,
    SigEq,
    SRepeat,
)
from repro.sva.nfa import Nfa, compile_sequence

#: Leaf status encoding inside monitor state tuples.
_PENDING, _MATCHED, _FAILED = 0, 1, 2

#: Three-valued verdicts.
TRUE, FALSE, UNKNOWN = True, False, None


@dataclass(frozen=True)
class _Node:
    """One node of the flattened property tree."""

    kind: str  # 'leaf', 'and', 'or', 'const'
    children: Tuple[int, ...] = ()
    leaf_index: int = -1
    const: bool = True


class PropertyMonitor:
    """Monitors one ``first |-> P`` assertion along a trace.

    State is ``(leaf_states..., leaf_status...)`` — a flat, hashable
    tuple.  Use :meth:`initial`, :meth:`step`, and :meth:`verdict`.
    """

    def __init__(self, directive: Directive):
        self.directive = directive
        prop = directive.prop
        if isinstance(prop, PImpl):
            self.guard: Optional[BoolExpr] = prop.antecedent
            body = prop.consequent
        else:
            self.guard = None
            body = prop
        self.nfas: List[Nfa] = []
        self.nodes: List[_Node] = []
        self.root = self._build(body)
        # The three-valued verdict is a pure function of the leaf-status
        # tuple; trace checks query it once per cycle, so memoize.
        self._verdict_cache: dict = {}
        #: Transition-table economics of the walks that step this
        #: monitor (see :class:`MonitorTable`), flushed to ``repro.obs``
        #: counters by the RTLCheck flow after each property check.
        self.verdict_memo_hits = 0
        self.verdict_memo_misses = 0
        for nfa in self.nfas:
            if nfa.starts_accepting():
                raise SvaError(
                    f"{directive.name}: sequence admits an empty match; "
                    "generated sequences must consume at least one cycle"
                )

    def _build(self, prop: Property) -> int:
        if isinstance(prop, PSeq):
            self.nfas.append(compile_sequence(prop.seq))
            node = _Node(kind="leaf", leaf_index=len(self.nfas) - 1)
        elif isinstance(prop, PConst):
            node = _Node(kind="const", const=prop.value)
        elif isinstance(prop, (PAnd, POr)):
            children = tuple(self._build(op) for op in prop.operands)
            node = _Node(kind="and" if isinstance(prop, PAnd) else "or", children=children)
        else:
            raise SvaError(f"monitor cannot handle property {prop!r}")
        self.nodes.append(node)
        return len(self.nodes) - 1

    # ------------------------------------------------------------------

    def initial(self) -> Tuple:
        states = tuple(nfa.initial() for nfa in self.nfas)
        status = tuple(_PENDING for _ in self.nfas)
        return (states, status)

    def step(self, state: Tuple, frame: Frame) -> Tuple:
        """Advance the single anchored match attempt by one frame."""
        states, status = state
        new_states: List[FrozenSet[int]] = []
        new_status: List[int] = []
        for nfa, live, st in zip(self.nfas, states, status):
            if st != _PENDING:
                new_states.append(live)
                new_status.append(st)
                continue
            nxt = nfa.step(live, frame)
            if nfa.accepts(nxt):
                new_states.append(nxt)
                new_status.append(_MATCHED)
            elif not nxt:
                new_states.append(nxt)
                new_status.append(_FAILED)
            else:
                new_states.append(nxt)
                new_status.append(_PENDING)
        return (tuple(new_states), tuple(new_status))

    # ------------------------------------------------------------------

    def _eval(self, node_index: int, status: Sequence[int]) -> Optional[bool]:
        node = self.nodes[node_index]
        if node.kind == "const":
            return node.const
        if node.kind == "leaf":
            st = status[node.leaf_index]
            if st == _MATCHED:
                return TRUE
            if st == _FAILED:
                return FALSE
            return UNKNOWN
        child_verdicts = [self._eval(c, status) for c in node.children]
        if node.kind == "and":
            if any(v is FALSE for v in child_verdicts):
                return FALSE
            if all(v is TRUE for v in child_verdicts):
                return TRUE
            return UNKNOWN
        if any(v is TRUE for v in child_verdicts):
            return TRUE
        if all(v is FALSE for v in child_verdicts):
            return FALSE
        return UNKNOWN

    def verdict(self, state: Tuple) -> Optional[bool]:
        """Three-valued verdict of the anchored attempt so far."""
        _states, status = state
        cache = self._verdict_cache
        if status not in cache:
            cache[status] = self._eval(self.root, status)
        return cache[status]

    def resolve_at_quiescence(self, state: Tuple, frame: Frame) -> bool:
        """Final verdict when the design has quiesced and ``frame``
        repeats forever.  Under weak semantics a leaf that is still
        pending never fails — it either matches by repeating the frame
        or stays unfinished, and neither is a failure — so every pending
        leaf resolves to matched and ``frame`` cannot change the
        answer."""
        _states, status = state
        resolved = [_MATCHED if st == _PENDING else st for st in status]
        return self._eval(self.root, resolved) is not FALSE

    def transition_table(self, labels: "FrameLabels") -> "MonitorTable":
        """A fresh, empty transition table for one walk over frames
        labelled by ``labels``."""
        return MonitorTable(self, labels)


class FrameLabels:
    """Atom-valuation classes of the frames every walk over one graph
    reads.

    An *atom* is a :class:`~repro.sva.ast.BoolExpr` read by a monitor
    transition or an assumption antecedent, interned by identity first
    and by structure second, so the same predicate in several
    assertions is one atom.  Atom ids (bit positions) follow first-seen
    order.  The owner declares the test's atoms up front
    (:func:`walk_atoms`); they are compiled into one generated
    ``frame -> int`` function whose bit ``i`` is atom ``i``'s value, so
    labelling a frame evaluates every atom once, in straight-line code.

    A frame's *label* is its interned valuation mask: frames that agree
    on every atom share one label, numbered in first-seen order, and
    ``values[label]`` is the mask.  A monitor step reads only atom
    values, so frames of one label step alike — a walk may key its
    transition tables by label.  Frames are memoized by identity, which
    is sound because :attr:`frames` keeps every labelled frame alive;
    frames are read-only once labelled.

    An atom first seen after frames were labelled (a monitor reading a
    predicate nobody declared) marks the labels stale: the next
    :meth:`sync` or :meth:`label` recompiles the valuation and relabels
    every frame, so labels handed out before are void (:meth:`sync`
    reports it).  Correct, only slower than declaring the atom.
    """

    def __init__(self, atoms: Iterable[BoolExpr] = ()):
        self._atom_ids: Dict[BoolExpr, int] = {}
        self._by_expr: Dict[int, Tuple[BoolExpr, int]] = {}
        #: ``atoms[atom]`` is the interned expression (bit ``atom``).
        self.atoms: List[BoolExpr] = []
        #: Labelled frames, in first-seen order.
        self.frames: List[Frame] = []
        self._by_frame: Dict[int, int] = {}
        self._classes: Dict[int, int] = {}
        #: ``values[label]`` is the label's atom-valuation mask.
        self.values: List[int] = []
        self._valuate: Optional[Callable[[Frame], int]] = None
        for expr in atoms:
            self.atom(expr)
        self.sync()

    def atom(self, expr: BoolExpr) -> int:
        """The atom id of ``expr``, adding it (and marking the labels
        stale) if no equal expression was seen before."""
        known = self._by_expr.get(id(expr))
        if known is not None:
            return known[1]
        atom = self._atom_ids.get(expr)
        if atom is None:
            atom = self._atom_ids[expr] = len(self.atoms)
            self.atoms.append(expr)
            self._valuate = None
        # The entry holds ``expr`` so its id cannot be reused.
        self._by_expr[id(expr)] = (expr, atom)
        return atom

    def sync(self) -> bool:
        """Bring the labels up to date with the atom set.  Returns True
        when labels handed out before were renumbered."""
        if self._valuate is not None:
            return False
        self._valuate = compile_valuation(self.atoms)
        if not self.frames:
            return False
        frames = self.frames
        self.frames = []
        self._by_frame = {}
        self._classes = {}
        self.values = []
        for frame in frames:
            self.label(frame)
        return True

    def label(self, frame: Frame) -> int:
        """The label of ``frame`` (memoized by identity)."""
        if self._valuate is None:
            self.sync()
        label = self._by_frame.get(id(frame))
        if label is None:
            mask = self._valuate(frame)
            label = self._classes.get(mask)
            if label is None:
                label = self._classes[mask] = len(self.values)
                self.values.append(mask)
            self._by_frame[id(frame)] = label
            self.frames.append(frame)
        return label


def walk_atoms(
    assumptions: Sequence[Directive], assertions: Sequence[Directive]
) -> List[BoolExpr]:
    """Every atom a walk over these directives reads, in first-seen
    order: the monitored assumptions' antecedents (the covering walk's
    atoms), then each assertion's sequence predicates (its monitor's
    NFA transitions), read from the ASTs without building monitors."""
    atoms = [
        d.prop.antecedent
        for d in assumptions
        if not d.structural and isinstance(d.prop, PImpl)
    ]
    for d in assertions:
        prop = d.prop
        _property_atoms(prop.consequent if isinstance(prop, PImpl) else prop, atoms)
    return atoms


def _property_atoms(prop: Property, out: List[BoolExpr]) -> None:
    if isinstance(prop, PSeq):
        _sequence_atoms(prop.seq, out)
    elif isinstance(prop, (PAnd, POr)):
        for op in prop.operands:
            _property_atoms(op, out)


def _sequence_atoms(seq, out: List[BoolExpr]) -> None:
    if isinstance(seq, (SBool, SRepeat)):
        out.append(seq.expr)
    elif isinstance(seq, SCat):
        _sequence_atoms(seq.left, out)
        if seq.delay > 1:
            out.append(BConst(True))  # the NFA's free cycles
        _sequence_atoms(seq.right, out)


def compile_valuation(atoms: Sequence[BoolExpr]) -> Callable[[Frame], int]:
    """One generated function from a frame to the bitmask of ``atoms``'
    values (bit ``i`` is ``atoms[i]``).

    Every distinct subexpression (signal read, comparison, ``not``,
    ``and``/``or``) becomes one local, computed once: atoms built from
    shared parts — a generated assertion's ``~(a || b)`` next to ``a``
    and ``b`` — reuse them, which keeps the source, and so its compile,
    small.  Atoms are pure, so evaluating every local eagerly gives the
    values :meth:`~repro.sva.ast.BoolExpr.evaluate` gives."""
    lines = ["def valuate(frame):", "    get = frame.get"]
    names: Dict[str, str] = {}

    def local(text: str) -> str:
        name = names.get(text)
        if name is None:
            name = names[text] = f"v{len(names)}"
            lines.append(f"    {name} = {text}")
        return name

    def emit(expr: BoolExpr) -> str:
        if isinstance(expr, BConst):
            return repr(expr.value)
        if isinstance(expr, Sig):
            return local(f"get({expr.name!r}, 0)")
        if isinstance(expr, SigEq):
            return local(f"{local(f'get({expr.name!r}, 0)')} == {expr.value!r}")
        if isinstance(expr, BNot):
            return local(f"not {emit(expr.body)}")
        if isinstance(expr, (BAnd, BOr)):
            if not expr.operands:
                return repr(isinstance(expr, BAnd))
            joiner = " and " if isinstance(expr, BAnd) else " or "
            return local(joiner.join(emit(op) for op in expr.operands))
        raise SvaError(f"cannot compile boolean expression {expr!r}")

    terms = [f"({emit(expr)} and {1 << bit})" for bit, expr in enumerate(atoms)]
    lines.append("    mask = 0")
    # Chunked, so no expression nests deeper than 32 operators.
    for start in range(0, len(terms), 32):
        lines.append("    mask |= " + " | ".join(terms[start : start + 32]))
    lines.append("    return mask")
    return _exec_valuation("\n".join(lines) + "\n")


@lru_cache(maxsize=128)
def _exec_valuation(source: str) -> Callable[[Frame], int]:
    """Compile ``source`` once: equal atom lists (every repeat of one
    test) share one function."""
    namespace: dict = {}
    exec(compile(source, "<valuation>", "exec"), namespace)  # noqa: S102
    return namespace["valuate"]


class MonitorTable:
    """One monitor's transition table over frame labels, filled lazily.

    Monitor states are interned to small ints in the order they are
    first reached (0 is :meth:`PropertyMonitor.initial`), and
    ``rows[state_id][label]`` holds ``(next_state_id, verdict)``.
    Interning is a bijection with the reference state tuples
    (:attr:`states` maps back), so a walk keyed by state ids visits,
    counts, and reports exactly what a walk keyed by the tuples would.

    A missing entry is filled by :meth:`miss`.  A state's step reads
    only the atoms on the transitions out of its pending leaves' live
    NFA states, so the step is a function of the state and those atoms'
    values — the state's *letter*, ``values[label] & reads[state]``.
    Many labels share a letter, so :meth:`miss` steps the NFAs only for
    a letter the state has not seen, with exactly the semantics of
    :meth:`PropertyMonitor.step` and :meth:`PropertyMonitor.verdict`
    over the label's atom bits.

    Economics go to the monitor's existing counters:
    ``verdict_memo_misses`` counts the steps computed from the NFAs and
    ``verdict_memo_hits`` every other lookup (so hits + misses is the
    number of steps taken), and on each :meth:`miss` every pending
    leaf's NFA counts one ``memo_misses`` when its step was computed
    from its transitions, else one ``memo_hits`` (the letter memo
    served it).
    """

    def __init__(self, monitor: PropertyMonitor, labels: FrameLabels):
        self.monitor = monitor
        self.labels = labels
        #: Per leaf: the NFA, its transitions on atom bits, its accepting set.
        self._leaves = [
            (
                nfa,
                {
                    source: tuple(
                        (1 << labels.atom(expr), target) for expr, target in edges
                    )
                    for source, edges in nfa.transitions.items()
                },
                nfa.accepting,
            )
            for nfa in monitor.nfas
        ]
        #: ``states[state_id]`` is the reference state tuple.
        self.states: List[Tuple] = []
        self._ids: Dict[Tuple, int] = {}
        self._verdicts: List[Optional[bool]] = []
        #: Per state: the mask of atoms its pending leaves read, and
        #: those leaves' NFAs.
        self._reads: List[int] = []
        self._pending: List[Tuple[Nfa, ...]] = []
        #: Per state: letter -> entry, and label -> entry (the fast path).
        self._by_letter: List[Dict[int, Tuple]] = []
        self.rows: List[Dict[int, Tuple[int, Optional[bool]]]] = []
        self._intern(monitor.initial())

    def step(self, state_id: int, label: int) -> Tuple[int, Optional[bool]]:
        """``(next_state_id, verdict)`` after a frame of ``label``."""
        entry = self.rows[state_id].get(label)
        if entry is None:
            return self.miss(state_id, label)
        self.monitor.verdict_memo_hits += 1
        return entry

    def miss(self, state_id: int, label: int) -> Tuple[int, Optional[bool]]:
        """Fill and return the missing ``rows[state_id][label]``."""
        letter = self.labels.values[label] & self._reads[state_id]
        by_letter = self._by_letter[state_id]
        entry = by_letter.get(letter)
        if entry is None:
            entry = by_letter[letter] = self._step(state_id, letter)
            self.monitor.verdict_memo_misses += 1
            for nfa in self._pending[state_id]:
                nfa.memo_misses += 1
        else:
            self.monitor.verdict_memo_hits += 1
            for nfa in self._pending[state_id]:
                nfa.memo_hits += 1
        self.rows[state_id][label] = entry
        return entry

    def _step(self, state_id: int, letter: int) -> Tuple[int, Optional[bool]]:
        """:meth:`PropertyMonitor.step` then ``verdict``, reading atom
        bits of ``letter`` (it holds every atom the state reads)."""
        states, status = self.states[state_id]
        new_states: List[FrozenSet[int]] = []
        new_status: List[int] = []
        for (_nfa, transitions, accepting), live, st in zip(
            self._leaves, states, status
        ):
            if st != _PENDING:
                new_states.append(live)
                new_status.append(st)
                continue
            nxt = frozenset(
                target
                for source in live
                for bit, target in transitions.get(source, ())
                if letter & bit
            )
            new_states.append(nxt)
            if not accepting.isdisjoint(nxt):
                new_status.append(_MATCHED)
            elif not nxt:
                new_status.append(_FAILED)
            else:
                new_status.append(_PENDING)
        next_id = self._intern((tuple(new_states), tuple(new_status)))
        return next_id, self._verdicts[next_id]

    def _intern(self, state: Tuple) -> int:
        state_id = self._ids.get(state)
        if state_id is None:
            state_id = self._ids[state] = len(self.states)
            self.states.append(state)
            self._verdicts.append(self.monitor.verdict(state))
            states, status = state
            reads = 0
            pending = []
            for (nfa, transitions, _), live, st in zip(self._leaves, states, status):
                if st == _PENDING:
                    pending.append(nfa)
                    for source in live:
                        for bit, _target in transitions.get(source, ()):
                            reads |= bit
            self._reads.append(reads)
            self._pending.append(tuple(pending))
            self._by_letter.append({})
            self.rows.append({})
        return state_id


class AssumptionChecker:
    """Cycle-by-cycle checking of generated assumptions (no lookahead)."""

    def __init__(self, directives: Sequence[Directive]):
        self.checks: List[Tuple[str, BoolExpr, Property]] = []
        self.directives = list(directives)
        #: Observability accumulators (flushed to ``repro.obs`` counters
        #: by the RTLCheck flow): antecedent firings seen while checking
        #: frames, and frames pruned by a violated consequent.
        self.antecedent_firings = 0
        self.pruned_frames = 0
        for d in directives:
            if d.structural:
                continue
            prop = d.prop
            if not isinstance(prop, PImpl):
                raise SvaError(
                    f"assumption {d.name} must be an implication for "
                    "cycle-by-cycle checking"
                )
            self.checks.append((d.name, prop.antecedent, prop.consequent))

    def frame_ok(self, frame: Frame) -> bool:
        """True unless some assumption's antecedent fires this cycle with
        a false consequent."""
        fired = 0
        for _name, antecedent, consequent in self.checks:
            if antecedent.evaluate(frame):
                fired += 1
                if not _bool_property(consequent, frame):
                    self.antecedent_firings += fired
                    self.pruned_frames += 1
                    return False
        self.antecedent_firings += fired
        return True

    def frame_ok_repeated(self, frame: Frame, repeats: int) -> bool:
        """Exactly ``repeats`` :meth:`frame_ok` calls on one frame —
        one evaluation, counter increments scaled — for batched
        expansion where every input choice shares the settled frame."""
        fired = 0
        for _name, antecedent, consequent in self.checks:
            if antecedent.evaluate(frame):
                fired += 1
                if not _bool_property(consequent, frame):
                    self.antecedent_firings += fired * repeats
                    self.pruned_frames += repeats
                    return False
        self.antecedent_firings += fired * repeats
        return True

    def violated_names(self, frame: Frame) -> List[str]:
        out = []
        for name, antecedent, consequent in self.checks:
            if antecedent.evaluate(frame) and not _bool_property(consequent, frame):
                out.append(name)
        return out


def _bool_property(prop: Property, frame: Frame) -> bool:
    """Evaluate a single-cycle property (assumption consequents are
    boolean-only by construction)."""
    if isinstance(prop, PConst):
        return prop.value
    if isinstance(prop, PSeq):
        if isinstance(prop.seq, SBool):
            return prop.seq.expr.evaluate(frame)
        raise SvaError("assumption consequents must be single-cycle")
    if isinstance(prop, PAnd):
        return all(_bool_property(op, frame) for op in prop.operands)
    if isinstance(prop, POr):
        return any(_bool_property(op, frame) for op in prop.operands)
    if isinstance(prop, PImpl):
        return (not prop.antecedent.evaluate(frame)) or _bool_property(
            prop.consequent, frame
        )
    raise SvaError(f"assumption consequent too complex: {prop!r}")


def run_monitor_on_trace(
    monitor: PropertyMonitor, trace: Sequence[Frame]
) -> Tuple[Optional[bool], int]:
    """Run one assertion over a complete trace.

    Returns ``(verdict, cycle)``: verdict True/False/None(pending) and
    the cycle where it resolved (or the last cycle).
    """
    state = monitor.initial()
    for cycle, frame in enumerate(trace):
        state = monitor.step(state, frame)
        verdict = monitor.verdict(state)
        if verdict is not UNKNOWN:
            return verdict, cycle
    return monitor.verdict(state), max(len(trace) - 1, 0)
