"""The property verifier (JasperGold substitute) and its configurations."""

from repro.verifier.simulation import SimulationReport, simulate_check
from repro.verifier.explorer import (
    BOUNDED,
    Budget,
    ExplorationResult,
    FAILED,
    PROVEN,
    REACHABLE,
    UNKNOWN,
    UNREACHABLE,
)
from repro.verifier.reach import GraphExplorer, ReachGraph

__all__ = [
    "BOUNDED",
    "Budget",
    "ExplorationResult",
    "FAILED",
    "GraphExplorer",
    "PROVEN",
    "REACHABLE",
    "ReachGraph",
    "UNKNOWN",
    "UNREACHABLE",
    "SimulationReport",
    "simulate_check",
]
