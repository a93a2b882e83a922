"""Result types for the end-to-end RTLCheck flow.

Both result classes serialize to JSON-safe dicts (``to_dict`` /
``from_dict``) versioned by :data:`repro.obs.report.SCHEMA_VERSION`;
:mod:`repro.obs.report` assembles them into suite-level run reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.litmus.test import LitmusTest
from repro.obs.report import SCHEMA_VERSION
from repro.rtl.design import Frame
from repro.sva.ast import Directive, PConst
from repro.verifier.engines import EngineVerdict
from repro.verifier.explorer import ExplorationResult


@dataclass
class PropertyResult:
    """One assertion's outcome under the configured verifier."""

    name: str
    verdict: EngineVerdict
    ground_truth: ExplorationResult
    #: Wall-clock seconds the explorer spent on this property.
    check_seconds: float = 0.0

    @property
    def status(self) -> str:
        return self.verdict.status

    @property
    def proven(self) -> bool:
        return self.verdict.proven

    @property
    def failed(self) -> bool:
        return self.verdict.failed

    @property
    def counterexample(self) -> Optional[List[Tuple[Dict[str, int], Frame]]]:
        return self.ground_truth.counterexample

    # -- serialization (run reports) -----------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "verdict": {
                "status": self.verdict.status,
                "bound": self.verdict.bound,
                "engine": self.verdict.engine,
                "modeled_hours": self.verdict.modeled_hours,
                "transitions": self.verdict.transitions,
            },
            "ground_truth": self.ground_truth.to_dict(),
            "check_seconds": self.check_seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PropertyResult":
        verdict = data["verdict"]
        return cls(
            name=data["name"],
            verdict=EngineVerdict(
                status=verdict["status"],
                bound=verdict["bound"],
                engine=verdict["engine"],
                modeled_hours=verdict["modeled_hours"],
                transitions=verdict["transitions"],
            ),
            ground_truth=ExplorationResult.from_dict(data["ground_truth"]),
            check_seconds=data["check_seconds"],
        )


@dataclass
class TestVerification:
    """Everything RTLCheck produced and concluded for one litmus test."""

    __test__ = False  # "Test..." is the domain term, not a pytest class

    test: LitmusTest
    memory_variant: str
    config_name: str
    assumptions: List[Directive]
    assertions: List[Directive]
    sva_text: str
    generation_seconds: float
    cover: ExplorationResult
    cover_hours: float
    verified_by_cover: bool
    properties: List[PropertyResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    # -- phase profiling (wall-clock, not modeled hours) ----------------
    #: Covering-trace phase seconds (includes any graph building the
    #: cover walk triggered).
    cover_seconds: float = 0.0
    #: Property-check phase seconds (all assertions).
    proof_seconds: float = 0.0
    #: Seconds spent simulating design transitions into the shared
    #: reachability graph.
    graph_build_seconds: float = 0.0
    #: Design states discovered in the shared graph.
    graph_states: int = 0
    #: Design transitions actually simulated — the cache-miss work all
    #: property walks shared.
    graph_transitions: int = 0
    #: Observability snapshot (:meth:`repro.obs.TraceRecorder.to_state`)
    #: when the run was observed; ``None`` otherwise.  Picklable, so it
    #: rides back from suite worker processes for parent-side merging.
    obs: Optional[Dict[str, Any]] = field(default=None, repr=False)

    # -- aggregate views -------------------------------------------------

    @property
    def counterexamples(self) -> List[PropertyResult]:
        return [p for p in self.properties if p.failed]

    @property
    def bug_found(self) -> bool:
        return bool(self.counterexamples)

    @property
    def verified(self) -> bool:
        """Verified = discharged by unreachable covering trace, or no
        property produced a counterexample."""
        if self.bug_found:
            return False
        return True

    @property
    def proven_count(self) -> int:
        return sum(1 for p in self.properties if p.proven)

    @property
    def bounded_count(self) -> int:
        return sum(1 for p in self.properties if p.status == "bounded")

    @property
    def proven_fraction(self) -> float:
        if not self.properties:
            return 1.0
        return self.proven_count / len(self.properties)

    @property
    def bounded_bounds(self) -> List[int]:
        return [
            p.verdict.bound
            for p in self.properties
            if p.status == "bounded" and p.verdict.bound is not None
        ]

    @property
    def modeled_hours(self) -> float:
        """Modeled runtime-to-verification (the Figure 13 metric): the
        cover phase, plus — when the cover run was not conclusive — the
        proof phase (its full allotment if any property stayed bounded,
        else the slowest property's proof time)."""
        if self.verified_by_cover:
            return self.cover_hours
        if not self.properties:
            return self.cover_hours
        if any(p.status == "bounded" for p in self.properties):
            from repro.verifier.config import PROOF_PHASE_HOURS

            return self.cover_hours + PROOF_PHASE_HOURS
        proof = max(p.verdict.modeled_hours for p in self.properties)
        return self.cover_hours + proof

    def summary(self) -> str:
        if self.bug_found:
            names = ", ".join(p.name for p in self.counterexamples[:3])
            return (
                f"{self.test.name} [{self.memory_variant}]: COUNTEREXAMPLE "
                f"({len(self.counterexamples)} failing properties, e.g. {names})"
            )
        if self.verified_by_cover:
            return (
                f"{self.test.name} [{self.memory_variant}]: verified — final-value "
                f"assumption unreachable ({self.cover_hours:.2f} modeled hours)"
            )
        total = len(self.properties)
        return (
            f"{self.test.name} [{self.memory_variant}]: verified — "
            f"{self.proven_count}/{total} properties fully proven, "
            f"{self.bounded_count} bounded ({self.modeled_hours:.1f} modeled hours)"
        )

    # -- serialization (run reports) -----------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Schema-versioned JSON-safe snapshot of this verification.

        Directives are recorded by name (their SVA text is in
        ``sva_text``, regenerable from the test); everything
        quantitative — verdicts, bounds, timings, graph counters,
        observability counters, and the Figure 13/14 aggregates —
        round-trips exactly through :meth:`from_dict`.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "test": self.test.name,
            "memory_variant": self.memory_variant,
            "config_name": self.config_name,
            "assumptions": [d.name for d in self.assumptions],
            "assertions": [d.name for d in self.assertions],
            "generation_seconds": self.generation_seconds,
            "cover": self.cover.to_dict(),
            "cover_hours": self.cover_hours,
            "verified_by_cover": self.verified_by_cover,
            "properties": [p.to_dict() for p in self.properties],
            "wall_seconds": self.wall_seconds,
            "cover_seconds": self.cover_seconds,
            "proof_seconds": self.proof_seconds,
            "graph_build_seconds": self.graph_build_seconds,
            "graph_states": self.graph_states,
            "graph_transitions": self.graph_transitions,
            # Derived views, denormalized so report consumers need no
            # reimplementation of the aggregation rules:
            "verified": self.verified,
            "bug_found": self.bug_found,
            "proven_count": self.proven_count,
            "bounded_count": self.bounded_count,
            "proven_fraction": self.proven_fraction,
            "bounded_bounds": list(self.bounded_bounds),
            "modeled_hours": self.modeled_hours,
            "counters": dict((self.obs or {}).get("counters", {})),
            "gauges": dict((self.obs or {}).get("gauges", {})),
        }

    @classmethod
    def from_dict(
        cls, data: Dict[str, Any], test: Optional[LitmusTest] = None
    ) -> "TestVerification":
        """Rehydrate a :meth:`to_dict` snapshot.

        The litmus test is looked up by name in the bundled suite
        unless the caller supplies ``test`` (the verification cache
        stores the full test alongside the snapshot, so cached fuzz
        verdicts rehydrate too); directives come back as named stubs
        (their properties are not serialized), so the result supports
        every quantitative view — ``modeled_hours``,
        ``proven_fraction``, ``summary()`` — but not re-verification.
        """
        from repro.litmus.suite import get_test

        def stub(kind: str, name: str) -> Directive:
            return Directive(kind=kind, name=name, prop=PConst(True))

        result = cls(
            test=test if test is not None else get_test(data["test"]),
            memory_variant=data["memory_variant"],
            config_name=data["config_name"],
            assumptions=[stub("assume", n) for n in data["assumptions"]],
            assertions=[stub("assert", n) for n in data["assertions"]],
            sva_text="",
            generation_seconds=data["generation_seconds"],
            cover=ExplorationResult.from_dict(data["cover"]),
            cover_hours=data["cover_hours"],
            verified_by_cover=data["verified_by_cover"],
            properties=[PropertyResult.from_dict(p) for p in data["properties"]],
            wall_seconds=data["wall_seconds"],
            cover_seconds=data["cover_seconds"],
            proof_seconds=data["proof_seconds"],
            graph_build_seconds=data["graph_build_seconds"],
            graph_states=data["graph_states"],
            graph_transitions=data["graph_transitions"],
        )
        if data.get("counters") or data.get("gauges"):
            result.obs = {
                "events": [],
                "counters": dict(data.get("counters", {})),
                "gauges": dict(data.get("gauges", {})),
            }
        return result
