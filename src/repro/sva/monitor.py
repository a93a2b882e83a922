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
integer state ids and frame labels (:class:`FrameLabels`), filled on
first use and kept for one walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import SvaError
from repro.rtl.design import Frame
from repro.sva.ast import (
    BoolExpr,
    Directive,
    PAnd,
    PConst,
    PImpl,
    POr,
    PSeq,
    Property,
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
    """Frame labels and cached atom values for every walk over one graph.

    An *atom* is a :class:`~repro.sva.ast.BoolExpr` read by a monitor
    transition or an assumption antecedent, interned by structure, so
    the same predicate in several assertions is one atom.  A frame's
    *label* is a small int per distinct frame object.  Each atom is
    evaluated at most once per label, on first use.  Labels key on
    object identity, which is sound because :attr:`frames` keeps every
    labelled frame alive; frames are read-only once labelled.
    """

    def __init__(self):
        self._atom_ids: Dict[BoolExpr, int] = {}
        #: ``atoms[atom]`` is the interned expression.
        self.atoms: List[BoolExpr] = []
        self._labels: Dict[int, int] = {}
        #: ``frames[label]`` is the labelled frame.
        self.frames: List[Frame] = []
        #: ``values[label][atom]`` is the atom's value on that frame,
        #: present once some step needed it.
        self.values: List[Dict[int, bool]] = []

    def atom(self, expr: BoolExpr) -> int:
        """The atom id of ``expr`` (interned by structure)."""
        atom = self._atom_ids.get(expr)
        if atom is None:
            atom = self._atom_ids[expr] = len(self.atoms)
            self.atoms.append(expr)
        return atom

    def label(self, frame: Frame) -> int:
        """The label of ``frame`` (interned by identity)."""
        label = self._labels.get(id(frame))
        if label is None:
            label = self._labels[id(frame)] = len(self.frames)
            self.frames.append(frame)
            self.values.append({})
        return label

    def value(self, label: int, atom: int) -> bool:
        """The atom's value on the labelled frame, evaluated once."""
        values = self.values[label]
        value = values.get(atom)
        if value is None:
            value = values[atom] = bool(self.atoms[atom].evaluate(self.frames[label]))
        return value


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
    values on the frame — the frame's *letter* for that state.  Many
    frames share a letter, so :meth:`miss` computes the letter and
    steps the NFAs only for a letter the state has not seen, with
    exactly the semantics of :meth:`PropertyMonitor.step` and
    :meth:`PropertyMonitor.verdict` over the cached atom values.

    Economics go to the monitor's existing counters:
    ``verdict_memo_misses`` counts the steps computed from the NFAs and
    ``verdict_memo_hits`` every other lookup (so hits + misses is the
    number of steps taken), and each NFA's ``memo_hits``/``memo_misses``
    count atom values read from / first evaluated into the frame labels
    while computing letters.
    """

    def __init__(self, monitor: PropertyMonitor, labels: FrameLabels):
        self.monitor = monitor
        self.labels = labels
        #: Per leaf: the NFA, its transitions on atom ids, its accepting set.
        self._leaves = [
            (
                nfa,
                {
                    source: tuple(
                        (labels.atom(expr), target) for expr, target in edges
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
        #: Per state: ``(nfa, atoms)`` for each pending leaf, the atoms
        #: its live NFA states read (the state's letter positions).
        self._reads: List[List[Tuple[Nfa, Tuple[int, ...]]]] = []
        #: Per state: letter -> entry, and label -> entry (the fast path).
        self._by_letter: List[Dict[Tuple[bool, ...], Tuple]] = []
        self.rows: List[Dict[int, Tuple[int, Optional[bool]]]] = []
        self._intern(monitor.initial())

    def step(self, state_id: int, label: int) -> Tuple[int, Optional[bool]]:
        """``(next_state_id, verdict)`` after the labelled frame."""
        entry = self.rows[state_id].get(label)
        if entry is None:
            return self.miss(state_id, label)
        self.monitor.verdict_memo_hits += 1
        return entry

    def miss(self, state_id: int, label: int) -> Tuple[int, Optional[bool]]:
        """Fill and return the missing ``rows[state_id][label]``."""
        labels = self.labels
        values = labels.values[label]
        frame = labels.frames[label]
        atoms = labels.atoms
        letter: List[bool] = []
        for nfa, reads in self._reads[state_id]:
            misses = 0
            for atom in reads:
                value = values.get(atom)
                if value is None:
                    value = values[atom] = bool(atoms[atom].evaluate(frame))
                    misses += 1
                letter.append(value)
            nfa.memo_hits += len(reads) - misses
            nfa.memo_misses += misses
        by_letter = self._by_letter[state_id]
        key = tuple(letter)
        entry = by_letter.get(key)
        if entry is None:
            entry = by_letter[key] = self._step(state_id, values)
            self.monitor.verdict_memo_misses += 1
        else:
            self.monitor.verdict_memo_hits += 1
        self.rows[state_id][label] = entry
        return entry

    def _step(
        self, state_id: int, values: Dict[int, bool]
    ) -> Tuple[int, Optional[bool]]:
        """:meth:`PropertyMonitor.step` then ``verdict``, reading atom
        values (every atom the state reads is in ``values``)."""
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
                for atom, target in transitions.get(source, ())
                if values[atom]
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
            reads = []
            for (nfa, transitions, _), live, st in zip(self._leaves, states, status):
                if st == _PENDING:
                    atoms = {
                        atom
                        for source in live
                        for atom, _target in transitions.get(source, ())
                    }
                    reads.append((nfa, tuple(sorted(atoms))))
            self._reads.append(reads)
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
        from repro.sva.ast import SBool

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
