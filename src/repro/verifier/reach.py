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

Three details make the replay exact:

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
from repro.sva.monitor import AssumptionChecker, PropertyMonitor
from repro.verifier.explorer import (
    BOUNDED,
    Budget,
    ExplorationResult,
    FAILED,
    InstrumentedExplorer,
    PROVEN,
    REACHABLE,
    UNKNOWN,
    rebuild_trace,
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
    ``sim_transitions``.
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

    # ------------------------------------------------------------------

    def _check_property(
        self, monitor: PropertyMonitor, budget: Budget
    ) -> ExplorationResult:
        """The breadth-first product walk over the cached graph (any
        ``monitor`` with ``initial`` / ``step`` / ``verdict``)."""
        graph = self.graph
        root_key = (graph.snap(graph.root), monitor.initial())
        visited = {root_key}
        frontier: List[Tuple[int, Tuple]] = [(graph.root, monitor.initial())]
        parents: Dict[Tuple, Tuple] = {root_key: None}
        result = ExplorationResult(verdict=UNKNOWN)
        depth = 0

        while frontier:
            if depth >= budget.max_depth:
                result.verdict = BOUNDED
                result.depth_completed = depth
                result.states_explored = len(visited)
                return result
            next_frontier: List[Tuple[int, Tuple]] = []
            layer_start = result.transitions
            for node, mon_state in frontier:
                node_key = (graph.snap(node), mon_state)
                # Iterate only the live edges; the input index recovers
                # the logical transition count, which includes the
                # pruned edges in between.
                base = result.transitions
                for index, inputs, frame, child_node in graph.live_successors(node):
                    result.transitions = base + index + 1
                    new_mon = monitor.step(mon_state, frame)
                    verdict = monitor.verdict(new_mon)
                    if verdict is False:
                        trace = rebuild_trace(parents, node_key)
                        trace.append((dict(inputs), frame))
                        result.verdict = FAILED
                        result.depth_completed = depth + 1
                        result.states_explored = len(visited)
                        result.counterexample = trace
                        result.layer_transitions.append(
                            result.transitions - layer_start
                        )
                        return result
                    if verdict is True:
                        continue  # every extension satisfies the property
                    child_key = (graph.snap(child_node), new_mon)
                    if child_key not in visited:
                        if len(visited) >= budget.max_states:
                            result.verdict = BOUNDED
                            result.depth_completed = depth
                            result.states_explored = len(visited)
                            result.layer_transitions.append(
                                result.transitions - layer_start
                            )
                            return result
                        visited.add(child_key)
                        parents[child_key] = (node_key, dict(inputs), frame)
                        next_frontier.append((child_node, new_mon))
                result.transitions = base + len(self.input_space)
            result.layer_transitions.append(result.transitions - layer_start)
            frontier = next_frontier
            depth += 1

        result.verdict = PROVEN
        result.exhausted = True
        result.depth_completed = depth
        result.states_explored = len(visited)
        return result

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
    :class:`~repro.sva.monitor.PropertyMonitor`: ``step`` records which
    assumptions' antecedents fire on assumption-satisfying frames and
    keeps one constant state, and ``verdict`` never decides, so the
    walk visits exactly the reachable design states."""

    def __init__(self, checks):
        self.checks = checks
        self.fired: Set[str] = set()

    def initial(self) -> None:
        return None

    def step(self, state: None, frame: Frame) -> None:
        fired = self.fired
        for name, antecedent, _consequent in self.checks:
            if name not in fired and antecedent.evaluate(frame):
                fired.add(name)
        return None

    def verdict(self, state: None) -> None:
        return None
