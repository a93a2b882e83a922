"""Explicit-state property exploration (the JasperGold substitute).

A commercial property verifier compiles the design and each SVA property
into automata and explores their product.  Litmus-test-constrained
Multi-V-scale has a small finite state space, so we do the same thing
explicitly: breadth-first exploration of

    (design state) x (assumption pruning) x (assertion monitor state)

with deduplication.  Per property the verifier reports exactly the three
JasperGold outcomes the paper describes (§6.1):

* **proven** — the reachable product space is exhausted with no failure;
* **counterexample** — a concrete input trace refutes the property;
* **bounded proof** — no failure up to N cycles, budget exhausted.

Assumptions prune a branch only in the cycle their consequent is
violated (no future-violation checking — §3.1), and the search over the
free arbiter input reproduces "JasperGold tries all possibilities for
this input" (§5.2).

This module holds the walk's vocabulary — verdicts, budgets, results,
and the instrumented public API; the one breadth-first walk itself is
:class:`repro.verifier.reach.GraphExplorer`, which replays a shared
reachability graph of the design.

Timing and metrics are routed through :mod:`repro.obs`: every public
walk runs inside a span whose duration becomes the result's
``seconds`` field, and walk-level counters (transitions, states) are
flushed to the active recorder — a no-op unless a
:class:`~repro.obs.TraceRecorder` is installed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.rtl.design import Frame
from repro.sva.monitor import PropertyMonitor

#: Verdicts.
PROVEN = "proven"
BOUNDED = "bounded"
FAILED = "cex"
UNREACHABLE = "unreachable"
REACHABLE = "reachable"
UNKNOWN = "unknown"


@dataclass
class Budget:
    """Exploration limits, standing in for a JasperGold engine's time
    allotment."""

    max_states: int = 2_000_000
    max_depth: int = 10_000

    def copy(self) -> "Budget":
        return Budget(self.max_states, self.max_depth)


@dataclass
class ExplorationResult:
    """Outcome of one exploration run."""

    verdict: str
    depth_completed: int = 0
    states_explored: int = 0
    transitions: int = 0
    counterexample: Optional[List[Tuple[Dict[str, int], Frame]]] = None
    fired_assumptions: Set[str] = field(default_factory=set)
    exhausted: bool = False
    #: Transitions evaluated per BFS layer (work profile for the engine
    #: model's bounded-proof depth accounting).  On early exits (cex or
    #: budget) the final entry records the interrupted layer's partial
    #: work, so ``sum(layer_transitions) == transitions`` always holds.
    layer_transitions: List[int] = field(default_factory=list)
    #: Wall-clock seconds this exploration took (phase profiling).
    seconds: float = 0.0

    @property
    def bound(self) -> int:
        return self.depth_completed

    # -- serialization (run reports) -----------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe snapshot (frames and inputs are str->int maps)."""
        return {
            "verdict": self.verdict,
            "depth_completed": self.depth_completed,
            "states_explored": self.states_explored,
            "transitions": self.transitions,
            "counterexample": (
                None
                if self.counterexample is None
                else [[dict(i), dict(f)] for i, f in self.counterexample]
            ),
            "fired_assumptions": sorted(self.fired_assumptions),
            "exhausted": self.exhausted,
            "layer_transitions": list(self.layer_transitions),
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ExplorationResult":
        cex = data.get("counterexample")
        return cls(
            verdict=data["verdict"],
            depth_completed=data["depth_completed"],
            states_explored=data["states_explored"],
            transitions=data["transitions"],
            counterexample=(
                None if cex is None else [(dict(i), dict(f)) for i, f in cex]
            ),
            fired_assumptions=set(data["fired_assumptions"]),
            exhausted=data["exhausted"],
            layer_transitions=list(data["layer_transitions"]),
            seconds=data["seconds"],
        )


class InstrumentedExplorer:
    """Public walk API of the explorer.

    Wraps the walk bodies (``_check_property`` / ``_cover_assumptions``)
    in :mod:`repro.obs` spans — the span duration *is* the result's
    ``seconds`` field — and flushes walk-level counters.  Design
    simulation is not counted here: the graph-backed explorer
    (:class:`~repro.verifier.reach.GraphExplorer`) reports it through
    its :class:`~repro.verifier.reach.ReachGraph`.
    """

    def check_property(
        self, monitor: PropertyMonitor, budget: Budget
    ) -> ExplorationResult:
        """Verify one assertion against all assumption-satisfying traces."""
        with obs.span("property", property=monitor.directive.name) as walk:
            result = self._check_property(monitor, budget)
        result.seconds = walk.seconds
        self._flush_walk_counters(result, kind="property")
        return result

    def cover_assumptions(self, budget: Budget) -> ExplorationResult:
        """Covering-trace search (paper §4.1): explore all assumption-
        satisfying traces, recording which assumptions' antecedents fire
        with their consequents enforceable.  If exploration exhausts and
        an assumption never fired, that assumption is *unreachable*."""
        with obs.span("cover") as walk:
            result = self._cover_assumptions(budget)
        result.seconds = walk.seconds
        self._flush_walk_counters(result, kind="cover")
        return result

    def _flush_walk_counters(self, result: ExplorationResult, kind: str) -> None:
        recorder = obs.get_recorder()
        if not recorder.enabled:
            return
        recorder.count(f"explorer.{kind}_walks", 1)
        recorder.count("explorer.transitions", result.transitions)
        recorder.count("explorer.states_explored", result.states_explored)

    # -- subclass responsibilities -------------------------------------

    def _check_property(
        self, monitor: PropertyMonitor, budget: Budget
    ) -> ExplorationResult:
        raise NotImplementedError

    def _cover_assumptions(self, budget: Budget) -> ExplorationResult:
        raise NotImplementedError
