"""Verifier engine configurations (paper Table 1).

The paper evaluates two JasperGold configurations:

===========  ==========================  ==========================
Config       Covering-trace run          Proof engine runs
===========  ==========================  ==========================
Hybrid       1 hour                      Autoprover (1 hr), then
                                         K I N AM AD (9 hrs)
Full_Proof   1 hour                      I N AM AD (10 hrs)
===========  ==========================  ==========================

Engine allotments are modeled wall-clock hours; the mapping from our
explorer's work (explored transitions) onto modeled hours lives in
:mod:`repro.verifier.engines`.  The Hybrid configuration splits its
proof budget between full-proof engines and *bounded* engines that push
to deeper cycle bounds, while Full_Proof spends nearly everything on
full proofs — reproducing the paper's observed trade-off (§7.2):
Full_Proof completes more proofs (89% vs 81% overall) while Hybrid's
surviving bounded proofs reach deeper bounds (average 43 vs 22 cycles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.verifier.explorer import Budget

#: The paper's per-test wall-clock allotments (Table 1).
COVER_PHASE_HOURS = 1.0
PROOF_PHASE_HOURS = 10.0

#: Hard limits for the underlying explicit-state explorer (ground
#: truth); litmus-constrained Multi-V-scale never comes close.
EXPLORER_BUDGET = Budget(max_states=2_000_000, max_depth=2_000)

#: Default worker-process count for suite verification; the ``suite``
#: subcommand's ``--jobs`` flag overrides it per run.
DEFAULT_SUITE_JOBS = 1


@dataclass(frozen=True)
class EngineSpec:
    """One proof engine: an allotment of modeled hours plus a style.

    ``kind`` is ``'full'`` (aims at complete proofs) or ``'bounded'``
    (pushes a cycle bound, capped at ``depth_cap``).  Engines with
    ``inductive_depth`` set (JasperGold's autoprover) can close a full
    proof by k-induction when the property's reachable product
    saturates within that many cycles.
    """

    name: str
    kind: str
    hours: float
    depth_cap: int = 10_000
    inductive_depth: int = None


@dataclass(frozen=True)
class VerifierConfig:
    """A JasperGold-style configuration (one Table 1 row)."""

    name: str
    cover_hours: float
    engines: Tuple[EngineSpec, ...]
    cores_per_test: int
    memory_gb_per_test: int

    @property
    def full_engines(self) -> List[EngineSpec]:
        return [e for e in self.engines if e.kind == "full"]

    @property
    def bounded_engines(self) -> List[EngineSpec]:
        return [e for e in self.engines if e.kind == "bounded"]

    @property
    def proof_hours(self) -> float:
        return sum(e.hours for e in self.engines)


#: Table 1, row "Hybrid": JasperGold's autoprover plus the K engine are
#: bounded-style and absorb part of the proof budget, pushing deep
#: cycle bounds; the remaining full-proof engines get what is left.
HYBRID = VerifierConfig(
    name="Hybrid",
    cover_hours=COVER_PHASE_HOURS,
    engines=(
        EngineSpec("Autoprover", "bounded", hours=1.0, depth_cap=43, inductive_depth=7),
        EngineSpec("K", "bounded", hours=2.0, depth_cap=43),
        EngineSpec("I_N_AM_AD", "full", hours=7.0),
    ),
    cores_per_test=5,
    memory_gb_per_test=64,
)

#: Table 1, row "Full_Proof": the I/N/AM/AD full-proof engines get the
#: whole 10 hours; only a shallow preprocessing pass produces bounds.
FULL_PROOF = VerifierConfig(
    name="Full_Proof",
    cover_hours=COVER_PHASE_HOURS,
    engines=(
        EngineSpec("preprocess", "bounded", hours=0.5, depth_cap=22),
        EngineSpec("I_N_AM_AD", "full", hours=9.5),
    ),
    cores_per_test=4,
    memory_gb_per_test=120,
)

CONFIGS = {"Hybrid": HYBRID, "Full_Proof": FULL_PROOF}
