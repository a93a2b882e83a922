"""A diy-style litmus test generator.

The paper's 56-test suite mixes hand-written x86-TSO tests with tests
generated by the ``diy`` tool (Alglave et al.), which synthesizes a
litmus test from a *critical cycle*: a cycle of candidate-relation edges
(program order, reads-from, coherence, from-reads) whose observability
would violate the model.  This module reimplements that construction:

* an edge alphabet (``Rfe``, ``Rfi``, ``Wse``, ``Wsi``, ``Fre``,
  ``Fri``, ``PodWW``, ``PodWR``, ``PodRW``, ``PodRR``),
* cycle validation (type chaining, processor closure, location
  consistency, every load value-constrained, satisfiable coherence
  order),
* event/processor/location/value assignment, and
* derivation of the candidate outcome that witnesses the cycle
  (register values from rf/fr edges, final-memory values pinning the
  coherence order).

For a genuine cycle the derived outcome is forbidden under SC; the
oracles in :mod:`repro.memodel` independently confirm this for every
generated test (see the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import LitmusError
from repro.litmus.test import LitmusTest, MemOp, Outcome, load, store

#: Variable names handed out to location equivalence classes.
LOCATION_NAMES = "xyzwabcdefgh"


@dataclass(frozen=True)
class EdgeSpec:
    """Shape of one candidate-relation edge in a critical cycle."""

    name: str
    src: str  # 'W' or 'R'
    dst: str
    same_proc: bool
    same_loc: bool
    kind: str  # 'rf', 'ws', 'fr', or 'po'

    @property
    def external(self) -> bool:
        return not self.same_proc


def _edge(name, src, dst, same_proc, same_loc, kind):
    return EdgeSpec(name, src, dst, same_proc, same_loc, kind)


#: The supported diy edge alphabet.
CYCLE_EDGES: Dict[str, EdgeSpec] = {
    spec.name: spec
    for spec in [
        _edge("Rfe", "W", "R", False, True, "rf"),
        _edge("Rfi", "W", "R", True, True, "rf"),
        _edge("Wse", "W", "W", False, True, "ws"),
        _edge("Wsi", "W", "W", True, True, "ws"),
        _edge("Fre", "R", "W", False, True, "fr"),
        _edge("Fri", "R", "W", True, True, "fr"),
        _edge("PodWW", "W", "W", True, False, "po"),
        _edge("PodWR", "W", "R", True, False, "po"),
        _edge("PodRW", "R", "W", True, False, "po"),
        _edge("PodRR", "R", "R", True, False, "po"),
    ]
}


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(a)] = self.find(b)


@dataclass
class _Plan:
    """Fully resolved event assignment for a valid cycle."""

    edges: List[EdgeSpec]
    types: List[str]
    procs: List[int]
    locs: List[str]
    num_procs: int
    co_order: Dict[str, List[int]] = field(default_factory=dict)
    store_values: Dict[int, int] = field(default_factory=dict)
    load_values: Dict[int, int] = field(default_factory=dict)


def _resolve(cycle: Sequence[str]) -> List[EdgeSpec]:
    specs = []
    for name in cycle:
        if name not in CYCLE_EDGES:
            raise LitmusError(f"unknown cycle edge {name!r}")
        specs.append(CYCLE_EDGES[name])
    return specs


def _topo_sort_stores(
    stores: List[int], constraints: List[Tuple[int, int]]
) -> Optional[List[int]]:
    """Order ``stores`` respecting ``constraints`` (pairs a-before-b),
    breaking ties by cycle index; None if the constraints are cyclic."""
    pending = {s: set() for s in stores}
    for a, b in constraints:
        if a in pending and b in pending and a != b:
            pending[b].add(a)
    order: List[int] = []
    placed = set()
    while len(order) < len(stores):
        ready = sorted(s for s in stores if s not in placed and pending[s] <= placed)
        if not ready:
            return None
        order.append(ready[0])
        placed.add(ready[0])
    return order


def _plan_cycle(cycle: Sequence[str]) -> Tuple[Optional[str], Optional[_Plan]]:
    """Validate ``cycle`` and compute the full event plan.

    Returns ``(reason, None)`` when the cycle cannot generate a test, or
    ``(None, plan)`` when it can.  The cycle is taken as already rotated
    so its *last* edge is the wrap-around edge back to event 0; we
    require that wrap edge to be external so each processor's events are
    contiguous in the cycle.
    """
    if len(cycle) < 2:
        return "cycle too short", None
    edges = _resolve(cycle)
    n = len(edges)

    for i, spec in enumerate(edges):
        nxt = edges[(i + 1) % n]
        if spec.dst != nxt.src:
            return f"type mismatch between {spec.name} and {nxt.name}", None

    if not edges[-1].external:
        return "wrap-around edge must be external", None

    # Processor closure: walking increments proc on external edges, so
    # the processor count equals the external-edge count.  One external
    # edge alone would put every event on one processor while claiming
    # the wrap crosses processors.
    externals = sum(1 for spec in edges if spec.external)
    if externals < 2:
        return "needs at least two external edges", None

    types = [spec.src for spec in edges]
    procs = []
    proc = 0
    for spec in edges:
        procs.append(proc)
        if spec.external:
            proc += 1
    num_procs = proc

    # Locations: same-loc edges unify; pod edges must split classes.
    uf = _UnionFind(n)
    for i, spec in enumerate(edges):
        if spec.same_loc:
            uf.union(i, (i + 1) % n)
    for i, spec in enumerate(edges):
        if not spec.same_loc and uf.find(i) == uf.find((i + 1) % n):
            return f"pod edge {spec.name} connects events forced to one location", None
    class_names: Dict[int, str] = {}
    locs = []
    for i in range(n):
        root = uf.find(i)
        if root not in class_names:
            if len(class_names) >= len(LOCATION_NAMES):
                return "too many locations", None
            class_names[root] = LOCATION_NAMES[len(class_names)]
        locs.append(class_names[root])

    # Every load must be value-constrained by an adjacent rf or fr edge.
    for i, spec in enumerate(edges):
        if types[i] == "R":
            incoming = edges[(i - 1) % n]
            if incoming.kind != "rf" and spec.kind != "fr":
                return f"event {i} is an unconstrained load", None

    # Coherence order per location: ws edges order their endpoints, and
    # an rf-into / fr-out-of pair around one load requires the rf writer
    # to be coherence-before the fr target.
    constraints: List[Tuple[int, int]] = []
    for i, spec in enumerate(edges):
        j = (i + 1) % n
        if spec.kind == "ws":
            constraints.append((i, j))
        elif spec.kind == "fr" and edges[(i - 1) % n].kind == "rf":
            constraints.append(((i - 1) % n, j))
    # Program order between same-proc same-loc stores is also coherence
    # order on any machine with per-location coherence.
    for i in range(n):
        for j in range(n):
            if (
                types[i] == "W"
                and types[j] == "W"
                and procs[i] == procs[j]
                and locs[i] == locs[j]
                and i < j
            ):
                constraints.append((i, j))

    plan = _Plan(
        edges=edges, types=types, procs=procs, locs=locs, num_procs=num_procs
    )
    stores_by_loc: Dict[str, List[int]] = {}
    for i in range(n):
        if types[i] == "W":
            stores_by_loc.setdefault(locs[i], []).append(i)
    for loc, stores in stores_by_loc.items():
        order = _topo_sort_stores(stores, constraints)
        if order is None:
            return "coherence constraints are cyclic", None
        plan.co_order[loc] = order
        for value, eid in enumerate(order, start=1):
            plan.store_values[eid] = value

    # Load values from rf / fr edges (rf wins when both constrain).
    for i, spec in enumerate(edges):
        j = (i + 1) % n
        if spec.kind == "rf":
            plan.load_values[j] = plan.store_values[i]
        elif spec.kind == "fr" and i not in plan.load_values:
            order = plan.co_order[locs[j]]
            pos = order.index(j)
            plan.load_values[i] = (
                plan.store_values[order[pos - 1]] if pos > 0 else 0
            )
    return None, plan


def validate_cycle(cycle: Sequence[str]) -> Optional[str]:
    """Return ``None`` if ``cycle`` generates a well-formed test, else a
    human-readable reason it does not."""
    reason, _ = _plan_cycle(cycle)
    return reason


def generate_from_cycle(name: str, cycle: Sequence[str]) -> LitmusTest:
    """Build the litmus test witnessing ``cycle`` (diy's construction)."""
    reason, plan = _plan_cycle(cycle)
    if plan is None:
        raise LitmusError(f"{name}: invalid cycle {list(cycle)}: {reason}")

    threads: List[List[MemOp]] = [[] for _ in range(plan.num_procs)]
    reg_count = 0
    outcome_regs: Dict[str, int] = {}
    for i, event_type in enumerate(plan.types):
        loc, proc = plan.locs[i], plan.procs[i]
        if event_type == "W":
            threads[proc].append(store(loc, plan.store_values[i]))
        else:
            reg_count += 1
            reg = f"r{reg_count}"
            threads[proc].append(load(loc, reg))
            outcome_regs[reg] = plan.load_values[i]

    final_memory = {
        loc: plan.store_values[order[-1]]
        for loc, order in plan.co_order.items()
        if len(order) > 1
    }
    return LitmusTest.of(name, threads, Outcome.of(outcome_regs, final_memory))


def cycle_signature(cycle: Sequence[str]) -> Tuple[str, ...]:
    """Canonical form of a cycle: the lexicographically smallest rotation
    that keeps an external edge in the wrap-around position."""
    rotations = []
    cycle = tuple(cycle)
    for shift in range(len(cycle)):
        rotated = cycle[shift:] + cycle[:shift]
        if CYCLE_EDGES[rotated[-1]].external:
            rotations.append(rotated)
    return min(rotations) if rotations else cycle


def random_cycle(
    rng,
    alphabet: Sequence[str] = tuple(CYCLE_EDGES),
    min_length: int = 3,
    max_length: int = 6,
    max_procs: int = 4,
    max_attempts: int = 500,
) -> Tuple[str, ...]:
    """Draw one random *valid* canonical cycle using the caller's RNG.

    ``rng`` is an explicit :class:`random.Random` — this module never
    touches module-level ``random`` state, so a recorded seed replays
    the exact same cycle sequence across runs, platforms, and process
    counts (the :mod:`repro.difftest` fuzzer relies on this).

    Uses rejection sampling: most uniform edge strings are not valid
    cycles, so draw-and-validate until one passes (``max_attempts``
    bounds pathological alphabets).
    """
    edges = list(alphabet)
    for name in edges:
        if name not in CYCLE_EDGES:
            raise LitmusError(f"unknown cycle edge {name!r}")
    for _ in range(max_attempts):
        length = rng.randint(min_length, max_length)
        cycle = tuple(rng.choice(edges) for _ in range(length))
        # Type chaining is rotation-invariant: reject before canonicalising.
        specs = [CYCLE_EDGES[name] for name in cycle]
        if any(a.dst != b.src for a, b in zip(specs, specs[1:] + specs[:1])):
            continue
        cycle = cycle_signature(cycle)
        if validate_cycle(cycle) is not None:
            continue
        if sum(1 for e in cycle if CYCLE_EDGES[e].external) > max_procs:
            continue
        return cycle
    raise LitmusError(
        f"no valid cycle found in {max_attempts} draws over {list(alphabet)}"
    )


def enumerate_cycles(
    alphabet: Sequence[str],
    length: int,
    require: Sequence[str] = (),
    forbid: Sequence[str] = (),
) -> List[Tuple[str, ...]]:
    """Enumerate all valid canonical cycles of ``length`` over ``alphabet``.

    ``require`` lists edges at least one of which must appear; ``forbid``
    lists edges that must not.  Results are sorted deterministically, so
    suite construction is reproducible.

    The answer is defined as the set of ``cycle_signature(c)`` over every
    valid string ``c`` in ``alphabet ** length`` that passes the filters,
    but it is found by a depth-first search over type-chained strings
    instead: forbidden edges leave the alphabet up front, a prefix only
    grows by edges whose ``src`` is the previous edge's ``dst``, and a
    full string is a candidate only if it closes (last ``dst`` equals
    first ``src``), its wrap edge is external, and it is its own
    signature.  Only those candidates meet ``require`` and
    :func:`validate_cycle`.  The chaining, closing and wrap tests only
    drop strings :func:`validate_cycle` rejects, so the search finds
    exactly the valid canonical strings.

    The valid canonical strings are the defining set because validity
    is invariant under the rotations :func:`cycle_signature` chooses
    among, the ones that keep an external wrap edge.  Type chaining,
    the external-edge count, the location classes and the
    load-constraint and ws/rf-fr coherence rules all look only at
    cyclic neighbours, so a rotation only shifts their indices.  The
    remaining rule, program-order coherence between same-processor
    stores, depends on the order of events within one processor; with
    an external wrap edge every processor's events are one contiguous
    run of internal edges, and such a rotation permutes whole runs,
    keeping each run's order.  The filters read only the multiset of
    edges.  Hence a valid string's signature is valid, passes the
    filters and is its own signature, and each such string is its own
    witness in the product.
    """
    for name in tuple(alphabet) + tuple(require) + tuple(forbid):
        if name not in CYCLE_EDGES:
            raise LitmusError(f"unknown cycle edge {name!r}")
    if length < 2:
        return []
    edges = [
        CYCLE_EDGES[name] for name in dict.fromkeys(alphabet) if name not in forbid
    ]
    following = {
        kind: [spec for spec in edges if spec.src == kind] for kind in ("W", "R")
    }
    found: List[Tuple[str, ...]] = []
    prefix: List[EdgeSpec] = []

    def extend() -> None:
        last = prefix[-1]
        if len(prefix) < length:
            for spec in following[last.dst]:
                prefix.append(spec)
                extend()
                prefix.pop()
            return
        if last.dst != prefix[0].src or not last.external:
            return
        cycle = tuple(spec.name for spec in prefix)
        if cycle_signature(cycle) != cycle:
            return
        if require and not any(r in cycle for r in require):
            return
        if validate_cycle(cycle) is None:
            found.append(cycle)

    for first in edges:
        prefix.append(first)
        extend()
        prefix.pop()
    return sorted(found)
