"""Shared reachability graph and the verifier's one product walk.

The assumption-constrained RTL transition relation is identical across
all properties of one (test, memory variant) pair — only the monitor
component of the product differs.  :class:`ReachGraph` explores the
design side **once**, memoizing each state's per-input
``(frame, successor)`` transitions into an explicit graph, and
:class:`GraphExplorer` then verifies every
:class:`~repro.sva.monitor.PropertyMonitor` as a breadth-first product
walk over the cached edges — no ``restore`` / ``eval_comb`` / ``tick``
calls after a node's first expansion.  The covering-trace search is
the same walk with a monitor that only records fired assumptions.

The walk itself runs on integers and table lookups.  The explorer
labels each distinct cached frame with a small int and evaluates each
predicate atom at most once per label
(:class:`~repro.sva.monitor.FrameLabels`), numbers snapshots, and keeps
each node's live edges as ``(input index, label, child, child snapshot
id)``.  Each walk steps a fresh
:class:`~repro.sva.monitor.MonitorTable`, which maps ``(monitor state
id, label)`` to ``(next state id, verdict)`` and fills entries on first
use with the reference :meth:`~repro.sva.monitor.PropertyMonitor.step`
semantics.  These tables live on the explorer or for one walk; the
pickled graph never carries them.

Equivalence guarantee
---------------------

The walk's logical results — verdicts, ``depth_completed`` bounds,
``states_explored``, ``transitions``, per-layer work profiles, fired
assumptions, and counterexample traces — are those of a walk that
re-simulates the design for every property, pruned branches included.
This matters because the engine model (:mod:`repro.verifier.engines`)
consumes ``transitions`` and ``layer_transitions`` to model JasperGold
hours, so the Figure 13/14 numbers depend on them.  The answers of
that re-simulating walk are pinned in
``tests/fixtures/golden_verdicts.json`` as one digest per (test,
memory variant); ``tests/test_reach_equivalence.py`` and
``tests/test_golden_verdicts.py`` replay them.

Four details make the replay exact:

* Nodes are keyed by ``(snapshot, first)`` because the auto-generated
  ``first`` signal makes the root cycle's frames (and hence assumption
  pruning) differ from any later visit to the same snapshot.  Only the
  root carries ``first=1``; child lookups always use ``first=0``, so a
  re-reached reset snapshot becomes a distinct ``first=0`` node.
* Product-walk ``visited`` sets are keyed by the *snapshot* (not the
  node id), so a re-reached reset state deduplicates as the design
  state it is.
* Expansion is lazy: a node's edges are simulated on first access, so
  a budget-truncated walk expands exactly the design states it touches.
* Snapshot ids and monitor state ids are interned bijectively, so a
  product state ``(snapshot id, state id)`` stands for exactly one
  ``(snapshot, monitor state tuple)`` and dedup, ``states_explored``,
  and the visit order are unchanged.  Budget-truncated property walks
  are pinned against per-edge stepping in
  ``tests/test_property_walk.py``.

Cached frames are shared between the graph and every result that
references them (counterexample traces included); treat them as
read-only.

The graph's cache economics are observable: ``sim_transitions`` counts
the design evaluations actually paid (cache misses), ``cache_hits``
counts node-successor lookups served without simulation, and both are
flushed to :mod:`repro.obs` counters by the RTLCheck flow.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.rtl.design import Design, Frame
from repro.sva.monitor import AssumptionChecker, FrameLabels, PropertyMonitor
from repro.verifier.explorer import (
    BOUNDED,
    Budget,
    ExplorationResult,
    FAILED,
    InstrumentedExplorer,
    PROVEN,
    REACHABLE,
    UNKNOWN,
)

#: One outgoing transition: ``None`` when the assumptions prune the
#: input this cycle, else the settled frame and the successor node id.
Edge = Optional[Tuple[Frame, int]]


class ReachGraph:
    """Lazily-built graph of the assumption-satisfying design states.

    Nodes are ``(snapshot, first)`` pairs; node 0 is the reset state
    with ``first=1``.  :meth:`successors` simulates a node's per-input
    transitions on first access and caches them, so the design work for
    one (test, memory variant) is paid at most once no matter how many
    property walks run on top.
    """

    root = 0

    def __init__(self, design: Design, assumptions: AssumptionChecker):
        self.design = design
        self.assumptions = assumptions
        self.input_space = design.input_space()
        design.reset()
        root_key = (design.snapshot(), 1)
        self._keys: List[Tuple[Hashable, int]] = [root_key]
        self._ids: Dict[Tuple[Hashable, int], int] = {root_key: 0}
        self._edges: List[Optional[List[Edge]]] = [None]
        self._live: List[Optional[List[Tuple[int, Dict[str, int], Frame, int]]]] = [
            None
        ]
        #: Design evaluations actually simulated (cache misses only).
        self.sim_transitions = 0
        #: Node-successor lookups served from the cache (no simulation).
        self.cache_hits = 0
        #: Wall-clock seconds spent simulating (graph-build time).
        self.build_seconds = 0.0

    # ------------------------------------------------------------------

    def snap(self, node: int) -> Hashable:
        """The design snapshot of ``node`` (the dedup key)."""
        return self._keys[node][0]

    @property
    def num_nodes(self) -> int:
        """Design states discovered so far (expanded or frontier)."""
        return len(self._keys)

    @property
    def expanded_nodes(self) -> int:
        """Design states whose transitions have been simulated."""
        return sum(1 for edges in self._edges if edges is not None)

    def iter_edges(self):
        """Yield ``(src, dst)`` node-id pairs over every expanded,
        non-pruned transition — the coverage layer's walk.  Unexpanded
        nodes are skipped, not expanded: coverage reports what a run
        actually explored."""
        for src, edges in enumerate(self._edges):
            if edges is None:
                continue
            for edge in edges:
                if edge is not None:
                    yield src, edge[1]

    def successors(self, node: int) -> List[Edge]:
        """Per-input transitions of ``node``, simulated once then cached."""
        edges = self._edges[node]
        if edges is None:
            edges = self._expand(node)
        return edges

    def live_successors(
        self, node: int
    ) -> List[Tuple[int, Dict[str, int], Frame, int]]:
        """The non-pruned transitions of ``node`` as
        ``(input_index, inputs, frame, child)`` — the walk's fast path.
        Input indices let callers account for the pruned edges in
        between without iterating them."""
        live = self._live[node]
        if live is None:
            inputs = self.input_space
            live = [
                (index, inputs[index], edge[0], edge[1])
                for index, edge in enumerate(self.successors(node))
                if edge is not None
            ]
            self._live[node] = live
        else:
            self.cache_hits += 1
        return live

    # ------------------------------------------------------------------

    def _expand(self, node: int) -> List[Edge]:
        start = time.perf_counter()
        snapshot, first = self._keys[node]

        # ``sim_transitions`` stays in logical per-input units on every
        # backend (the engine model prices walks in transitions, and
        # serialized verdicts must not depend on the state backend);
        # the *physical* evaluations saved by batching are visible via
        # the design's ``batch_expansions``/``slots_copied`` counters.
        # ``step_batch_checked`` stamps ``first`` into kept frames and
        # applies the assumption pruning — on the kernel backend as a
        # fused compiled check, elsewhere via ``frame_ok_repeated``.
        steps = self.design.step_batch_checked(
            snapshot, self.input_space, self.assumptions, first
        )
        self.sim_transitions += len(self.input_space)
        edges: List[Edge] = []
        for step in steps:
            if step is None:
                edges.append(None)
                continue
            frame, child_state = step
            child_key = (child_state, 0)
            child = self._ids.get(child_key)
            if child is None:
                child = len(self._keys)
                self._ids[child_key] = child
                self._keys.append(child_key)
                self._edges.append(None)
                self._live.append(None)
            edges.append((frame, child))
        self._edges[node] = edges
        self.build_seconds += time.perf_counter() - start
        return edges


class GraphExplorer(InstrumentedExplorer):
    """The explorer: ``check_property`` / ``cover_assumptions`` as
    product walks over a shared :class:`ReachGraph`.

    The design is simulated only on graph cache misses, so walked
    transitions are not simulated frames; the graph reports its own
    ``sim_transitions``.  The explorer also holds the walk's compiled
    view of the graph — frame labels with cached atom values, snapshot
    ids, and labelled successor lists — which lives exactly as long as
    the explorer and is never pickled with the graph.
    """

    def __init__(
        self,
        design: Design,
        assumptions: AssumptionChecker,
        graph: Optional[ReachGraph] = None,
    ):
        self.graph = graph if graph is not None else ReachGraph(design, assumptions)
        self.assumptions = self.graph.assumptions
        self.input_space = self.graph.input_space
        self.labels = FrameLabels()
        self._snap_ids: Dict[Hashable, int] = {}
        self._labelled: Dict[int, List[Tuple[int, int, int, int]]] = {}

    # ------------------------------------------------------------------

    def _labelled_successors(self, node: int) -> List[Tuple[int, int, int, int]]:
        """The live transitions of ``node`` as ``(input_index, label,
        child, child_snap_id)``, built once per explorer.  Each call
        counts as one graph lookup, so ``cache_hits`` keeps meaning
        what it did when walks read the graph directly."""
        edges = self._labelled.get(node)
        if edges is not None:
            self.graph.cache_hits += 1
            return edges
        label = self.labels.label
        edges = self._labelled[node] = [
            (index, label(frame), child, self._snap_id(child))
            for index, _inputs, frame, child in self.graph.live_successors(node)
        ]
        return edges

    def _snap_id(self, node: int) -> int:
        """The explorer-local id of ``node``'s snapshot (interned)."""
        snap = self.graph.snap(node)
        snap_id = self._snap_ids.get(snap)
        if snap_id is None:
            snap_id = self._snap_ids[snap] = len(self._snap_ids)
        return snap_id

    def _check_property(
        self, monitor: PropertyMonitor, budget: Budget
    ) -> ExplorationResult:
        """The breadth-first product walk over the cached graph, stepping
        a fresh :meth:`transition_table` of ``monitor`` (a
        :class:`~repro.sva.monitor.PropertyMonitor` or the cover walk's
        stand-in).  Product states are ``(snapshot id, monitor state
        id)`` pairs — both bijections with the snapshots and monitor
        state tuples they stand for."""
        graph = self.graph
        table = monitor.transition_table(self.labels)
        rows = table.rows
        root_key = (self._snap_id(graph.root), 0)
        visited = {root_key}
        frontier: List[Tuple[int, int, Tuple[int, int]]] = [
            (graph.root, 0, root_key)
        ]
        parents: Dict[Tuple[int, int], Optional[Tuple]] = {root_key: None}
        result = ExplorationResult(verdict=UNKNOWN)
        num_inputs = len(self.input_space)
        depth = hits = 0

        try:
            while frontier:
                if depth >= budget.max_depth:
                    result.verdict = BOUNDED
                    result.depth_completed = depth
                    result.states_explored = len(visited)
                    return result
                next_frontier: List[Tuple[int, int, Tuple[int, int]]] = []
                layer_start = result.transitions
                for node, state, node_key in frontier:
                    row = rows[state]
                    # Iterate only the live edges; the input index
                    # recovers the logical transition count, which
                    # includes the pruned edges in between.
                    base = result.transitions
                    edges = self._labelled_successors(node)
                    for index, label, child, child_snap in edges:
                        entry = row.get(label)
                        if entry is None:
                            entry = table.miss(state, label)
                        else:
                            hits += 1
                        new_state, verdict = entry
                        if verdict is True:
                            continue  # every extension satisfies it
                        if verdict is False:
                            result.transitions = base + index + 1
                            result.verdict = FAILED
                            result.depth_completed = depth + 1
                            result.states_explored = len(visited)
                            result.counterexample = self._trace(
                                parents, node_key, index, label
                            )
                            result.layer_transitions.append(
                                result.transitions - layer_start
                            )
                            return result
                        child_key = (child_snap, new_state)
                        if child_key not in visited:
                            if len(visited) >= budget.max_states:
                                result.transitions = base + index + 1
                                result.verdict = BOUNDED
                                result.depth_completed = depth
                                result.states_explored = len(visited)
                                result.layer_transitions.append(
                                    result.transitions - layer_start
                                )
                                return result
                            visited.add(child_key)
                            parents[child_key] = (node_key, index, label)
                            next_frontier.append((child, new_state, child_key))
                    result.transitions = base + num_inputs
                result.layer_transitions.append(result.transitions - layer_start)
                frontier = next_frontier
                depth += 1
        finally:
            monitor.verdict_memo_hits += hits

        result.verdict = PROVEN
        result.exhausted = True
        result.depth_completed = depth
        result.states_explored = len(visited)
        return result

    def _trace(
        self, parents: Dict, key: Tuple[int, int], index: int, label: int
    ) -> List[Tuple[Dict[str, int], Frame]]:
        """The ``(inputs, frame)`` steps from the walk's root to ``key``
        (following ``parents``: ``child -> (parent, input_index,
        label)``), then the transition ``(index, label)`` out of it."""
        steps = [(index, label)]
        while parents[key] is not None:
            key, index, label = parents[key]
            steps.append((index, label))
        steps.reverse()
        frames = self.labels.frames
        return [(dict(self.input_space[i]), frames[f]) for i, f in steps]

    def _cover_assumptions(self, budget: Budget) -> ExplorationResult:
        """Covering-trace search (paper §4.1): the property walk with a
        monitor that records fired assumptions and never decides."""
        monitor = _CoverMonitor(self.assumptions.checks)
        result = self._check_property(monitor, budget)
        result.fired_assumptions = monitor.fired
        result.verdict = REACHABLE if result.verdict == PROVEN else UNKNOWN
        return result


class _CoverMonitor:
    """The covering walk's stand-in for a
    :class:`~repro.sva.monitor.PropertyMonitor`, acting as its own
    transition table: one state whose every transition records which
    assumptions' antecedents fire on the (assumption-satisfying) frame
    and never decides, so the walk visits exactly the reachable design
    states.  Filling each label's entry once records the same fired set
    as checking every walked edge, since the union over a label's
    repeats is the label's own firings."""

    def __init__(self, checks):
        self.checks = checks
        self.fired: Set[str] = set()
        #: Table hits, counted by the walk like a monitor's; unreported.
        self.verdict_memo_hits = 0

    def transition_table(self, labels: FrameLabels) -> "_CoverMonitor":
        self.labels = labels
        self.antecedents = [
            (name, labels.atom(antecedent)) for name, antecedent, _ in self.checks
        ]
        self.rows: List[Dict[int, Tuple[int, None]]] = [{}]
        return self

    def miss(self, state_id: int, label: int) -> Tuple[int, None]:
        fired = self.fired
        for name, atom in self.antecedents:
            if name not in fired and self.labels.value(label, atom):
                fired.add(name)
        entry = self.rows[state_id][label] = (0, None)
        return entry
