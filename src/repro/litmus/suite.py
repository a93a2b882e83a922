"""The 56-litmus-test suite of the paper's evaluation.

The paper verified Multi-V-scale against 56 tests: hand-written tests
from the x86-TSO suite plus tests generated with the diy framework
(Section 6.1), with the test names listed along the x-axes of Figures 13
and 14.  The diy-generated bodies were never published, so this module
reconstructs them: the hand-written classics (mp, sb, lb, wrc, rwc,
iriw, co-*, n*, iwp*, ssl, amd3) are written out explicitly, and the
``rfi*`` / ``safe*`` / ``podwr*`` families are produced by our
:mod:`repro.litmus.diy` generator from deterministic enumerations of
critical cycles with the matching character (rfi tests contain an
``Rfi`` edge; podwr tests a ``PodWR`` edge; safe tests only edges that
are "safe" under TSO).  Each candidate outcome's SC verdict is derived
from the oracles in :mod:`repro.memodel`, never hard-coded.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import LitmusError
from repro.litmus.diy import CYCLE_EDGES, enumerate_cycles, generate_from_cycle
from repro.litmus.test import LitmusTest, Outcome, load, store

#: Edges considered safe (never relaxed) under TSO: everything except
#: store-to-load program order and store forwarding.
SAFE_ALPHABET = ("Rfe", "Wse", "Fre", "Fri", "Wsi", "PodWW", "PodRW", "PodRR")
FULL_ALPHABET = tuple(
    ["Rfe", "Rfi", "Wse", "Wsi", "Fre", "Fri", "PodWW", "PodWR", "PodRW", "PodRR"]
)

#: Test names exactly as they appear in the paper's Figures 13/14.
PAPER_TEST_NAMES = [
    "amd3", "co-iriw", "co-mp", "iriw", "iwp23b", "iwp24", "lb",
    "mp+staleld", "mp", "n1", "n2", "n4", "n5", "n6", "n7",
    "podwr000", "podwr001",
    "rfi000", "rfi001", "rfi002", "rfi003", "rfi004", "rfi005", "rfi006",
    "rfi011", "rfi012", "rfi013", "rfi014", "rfi015",
    "rwc",
    "safe000", "safe001", "safe002", "safe003", "safe004", "safe006",
    "safe007", "safe008", "safe009", "safe010", "safe011", "safe012",
    "safe014", "safe016", "safe017", "safe018", "safe019", "safe021",
    "safe022", "safe026", "safe027", "safe029", "safe030",
    "sb", "ssl", "wrc",
]

#: Maximum cores on Multi-V-scale; generated cycles must fit.
MAX_CORES = 4


def _hand_written() -> List[LitmusTest]:
    mk = LitmusTest.of
    tests = [
        mk("mp",
           [[store("x", 1), store("y", 1)],
            [load("y", "r1"), load("x", "r2")]],
           Outcome.of({"r1": 1, "r2": 0})),
        mk("sb",
           [[store("x", 1), load("y", "r1")],
            [store("y", 1), load("x", "r2")]],
           Outcome.of({"r1": 0, "r2": 0})),
        mk("lb",
           [[load("x", "r1"), store("y", 1)],
            [load("y", "r2"), store("x", 1)]],
           Outcome.of({"r1": 1, "r2": 1})),
        mk("wrc",
           [[store("x", 1)],
            [load("x", "r1"), store("y", 1)],
            [load("y", "r2"), load("x", "r3")]],
           Outcome.of({"r1": 1, "r2": 1, "r3": 0})),
        mk("rwc",
           [[store("x", 1)],
            [load("x", "r1"), load("y", "r2")],
            [store("y", 1), load("x", "r3")]],
           Outcome.of({"r1": 1, "r2": 0, "r3": 0})),
        mk("iriw",
           [[store("x", 1)],
            [store("y", 1)],
            [load("x", "r1"), load("y", "r2")],
            [load("y", "r3"), load("x", "r4")]],
           Outcome.of({"r1": 1, "r2": 0, "r3": 1, "r4": 0})),
        mk("co-mp",
           [[store("x", 1), store("x", 2)],
            [load("x", "r1"), load("x", "r2")]],
           Outcome.of({"r1": 2, "r2": 1})),
        mk("co-iriw",
           [[store("x", 1)],
            [store("x", 2)],
            [load("x", "r1"), load("x", "r2")],
            [load("x", "r3"), load("x", "r4")]],
           Outcome.of({"r1": 1, "r2": 2, "r3": 2, "r4": 1})),
        mk("amd3",
           [[store("x", 1), store("y", 1)],
            [store("y", 2), store("x", 2)],
            [load("x", "r1"), load("y", "r2")],
            [load("y", "r3"), load("x", "r4")]],
           Outcome.of({"r1": 1, "r2": 2, "r3": 1, "r4": 2})),
        mk("iwp23b",
           [[store("x", 1), load("x", "r1"), store("y", 1)],
            [load("y", "r2"), load("x", "r3")]],
           Outcome.of({"r1": 1, "r2": 1, "r3": 0})),
        # iwp2.4 demonstrates an *allowed* outcome of the store-buffering
        # program: one thread runs to completion first.
        mk("iwp24",
           [[store("x", 1), load("y", "r1")],
            [store("y", 1), load("x", "r2")]],
           Outcome.of({"r1": 0, "r2": 1})),
        mk("mp+staleld",
           [[store("x", 1), store("y", 1)],
            [load("y", "r1"), load("x", "r2"), load("x", "r3")]],
           Outcome.of({"r1": 1, "r2": 0, "r3": 0})),
        mk("n1",
           [[store("x", 1), store("y", 1)],
            [load("y", "r1"), store("x", 2)]],
           Outcome.of({"r1": 1}, {"x": 1})),
        mk("n2",
           [[store("x", 1), store("y", 1)],
            [store("y", 2), load("x", "r1")]],
           Outcome.of({"r1": 0}, {"y": 2})),
        mk("n4",
           [[store("x", 1), load("x", "r1")],
            [store("x", 2), load("x", "r2")]],
           Outcome.of({"r1": 2, "r2": 1})),
        # n5 is the allowed cousin of n4: each core reads its own store.
        mk("n5",
           [[store("x", 1), load("x", "r1")],
            [store("x", 2), load("x", "r2")]],
           Outcome.of({"r1": 1, "r2": 2})),
        mk("n6",
           [[store("x", 1), load("x", "r1"), load("y", "r2")],
            [store("y", 2), store("x", 2)]],
           Outcome.of({"r1": 1, "r2": 0}, {"x": 1})),
        mk("n7",
           [[store("x", 1), load("x", "r1"), load("y", "r2")],
            [store("y", 1), load("y", "r3"), load("x", "r4")]],
           Outcome.of({"r1": 1, "r2": 0, "r3": 1, "r4": 0})),
        mk("ssl",
           [[store("x", 1), load("x", "r1")]],
           Outcome.of({"r1": 0})),
    ]
    return tests


def _family_cycles(
    alphabet: Tuple[str, ...],
    require: Tuple[str, ...],
    max_index: int,
    forbid: Tuple[str, ...] = (),
) -> List[Tuple[str, ...]]:
    """Deterministic cycle pool for one diy family: all valid canonical
    cycles that fit on :data:`MAX_CORES` cores, by increasing length,
    extended until the pool covers ``max_index``."""
    pool: List[Tuple[str, ...]] = []
    for length in (3, 4, 5, 6, 7):
        if len(pool) > max_index:
            break
        for cycle in enumerate_cycles(alphabet, length, require=require, forbid=forbid):
            externals = sum(1 for edge in cycle if CYCLE_EDGES[edge].external)
            if externals <= MAX_CORES:
                pool.append(cycle)
    return pool


class SuiteBuilder:
    """Builds and caches the paper's 56-test suite."""

    def __init__(self):
        self._tests: Optional[List[LitmusTest]] = None
        self._cycles: Dict[str, Tuple[str, ...]] = {}

    def _generate_family(self, prefix: str, pool: List[Tuple[str, ...]], names: List[str]) -> List[LitmusTest]:
        tests = []
        for name in names:
            index = int(name[len(prefix):])
            if index >= len(pool):
                raise LitmusError(
                    f"cycle pool for {prefix!r} has only {len(pool)} entries, "
                    f"cannot build {name}"
                )
            cycle = pool[index]
            self._cycles[name] = cycle
            tests.append(generate_from_cycle(name, cycle))
        return tests

    def build(self) -> List[LitmusTest]:
        if self._tests is not None:
            return self._tests
        tests = _hand_written()

        names_by_prefix: Dict[str, List[str]] = {"podwr": [], "rfi": [], "safe": []}
        for name in PAPER_TEST_NAMES:
            for prefix in names_by_prefix:
                if name.startswith(prefix) and name[len(prefix):].isdigit():
                    names_by_prefix[prefix].append(name)

        def max_index(prefix: str) -> int:
            return max(int(n[len(prefix):]) for n in names_by_prefix[prefix])

        tests += self._generate_family(
            "podwr",
            _family_cycles(
                FULL_ALPHABET, require=("PodWR",), forbid=("Rfi",),
                max_index=max_index("podwr"),
            ),
            names_by_prefix["podwr"],
        )
        tests += self._generate_family(
            "rfi",
            _family_cycles(
                FULL_ALPHABET, require=("Rfi",), max_index=max_index("rfi")
            ),
            names_by_prefix["rfi"],
        )
        tests += self._generate_family(
            "safe",
            _family_cycles(
                SAFE_ALPHABET, require=(), max_index=max_index("safe")
            ),
            names_by_prefix["safe"],
        )

        by_name = {test.name: test for test in tests}
        missing = [name for name in PAPER_TEST_NAMES if name not in by_name]
        if missing:
            raise LitmusError(f"suite is missing tests: {missing}")
        self._tests = [by_name[name] for name in PAPER_TEST_NAMES]
        return self._tests

    def cycle_of(self, name: str) -> Optional[Tuple[str, ...]]:
        """The diy cycle a generated test came from (None if hand-written)."""
        self.build()
        return self._cycles.get(name)


_BUILDER = SuiteBuilder()


def paper_suite() -> List[LitmusTest]:
    """The full 56-test suite, in the paper's Figure 13/14 order."""
    return list(_BUILDER.build())


def get_test(name: str) -> LitmusTest:
    """Look one suite test up by its paper name."""
    for test in _BUILDER.build():
        if test.name == name:
            return test
    raise LitmusError(f"no suite test named {name!r}")


def diy_cycle_of(name: str) -> Optional[Tuple[str, ...]]:
    """The generating diy cycle for a suite test, if it was generated."""
    return _BUILDER.cycle_of(name)
