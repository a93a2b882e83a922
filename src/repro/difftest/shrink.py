"""Delta-debugging minimizer for cross-layer discrepancies.

Given a test on which two oracle layers disagree, repeatedly try
smaller variants — drop whole threads, drop single instructions, drop
outcome constraints, merge addresses, reduce store values — keeping a
variant whenever the *same two oracles still disagree* on it.  Only the
disagreeing pair is re-run (re-running all four layers per candidate
would make shrinking the dominant cost of a fuzz campaign).

The reduction order is fixed and the predicate is deterministic, so a
recorded seed shrinks to the byte-identical minimal reproducer on every
replay.  Structurally-invalid candidates (e.g. dropping the only use of
an outcome variable) are repaired by pruning the outcome, never by
resampling.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import LitmusError, ReproError
from repro.litmus.test import LitmusTest, MemOp, Outcome, load, store
from repro.verifier.outcomes import DEFAULT_MAX_STATES

#: Upper bound on predicate evaluations per shrink (each one re-runs two
#: oracle layers; RTL enumeration dominates).
DEFAULT_MAX_EVALUATIONS = 200

Predicate = Callable[[LitmusTest], bool]


def discrepancy_predicate(
    kind: str,
    memory_variant: str = "fixed",
    max_states: int = DEFAULT_MAX_STATES,
    rtlcheck=None,
    trace_samples: Optional[int] = None,
    trace_seed: int = 0,
) -> Predicate:
    """Build the "does this oracle pair still disagree?" test for one
    discrepancy kind.  Candidates that any involved oracle rejects with
    :class:`ReproError` are treated as non-reproducing (``False``).

    ``trace_samples``/``trace_seed`` parameterize the trace-oracle
    kinds so the shrinker replays exactly the campaign's sampling.
    """
    from repro.difftest.oracles import (
        DEFAULT_TRACE_SAMPLES,
        axiomatic_verdicts,
        operational_verdicts,
        rtl_verdicts,
        trace_verdicts,
        verifier_verdicts,
    )

    if trace_samples is None:
        trace_samples = DEFAULT_TRACE_SAMPLES

    def op_vs_ax(test: LitmusTest) -> bool:
        op_set, op_ok, _tso = operational_verdicts(test)
        ax_set, ax_ok = axiomatic_verdicts(test)
        return op_set != ax_set or op_ok != ax_ok

    def sc_vs_tso(test: LitmusTest) -> bool:
        _outcomes, op_ok, tso_ok = operational_verdicts(test)
        return op_ok and not tso_ok

    def rtl_vs_model(test: LitmusTest) -> bool:
        op_set, _ok, _tso = operational_verdicts(test)
        rtl = rtl_verdicts(test, memory_variant, max_states=max_states)
        return rtl.complete and rtl.outcomes != op_set

    def verifier_vs_rtl(test: LitmusTest) -> bool:
        op_set, _ok, _tso = operational_verdicts(test)
        rtl = rtl_verdicts(test, memory_variant, max_states=max_states)
        if not rtl.complete or rtl.outcomes != op_set:
            return False
        result = verifier_verdicts(test, memory_variant, rtlcheck)
        return bool(result.bug_found)

    def trace_vs_sc(test: LitmusTest) -> bool:
        checks, _sampled, _undrained = trace_verdicts(
            test,
            memory_variant,
            samples=trace_samples,
            seed=trace_seed,
            max_states=max_states,
        )
        return any(not c.conformant for c in checks)

    def trace_vs_enumeration(test: LitmusTest) -> bool:
        op_set, _ok, _tso = operational_verdicts(test)
        checks, _sampled, _undrained = trace_verdicts(
            test,
            memory_variant,
            samples=trace_samples,
            seed=trace_seed,
            max_states=max_states,
        )
        return any(c.conformant != (c.outcome in op_set) for c in checks)

    bodies: Dict[str, Predicate] = {
        "operational-vs-axiomatic": op_vs_ax,
        "sc-vs-tso": sc_vs_tso,
        "rtl-vs-model": rtl_vs_model,
        "verifier-vs-rtl": verifier_vs_rtl,
        "trace-vs-sc": trace_vs_sc,
        "trace-vs-enumeration": trace_vs_enumeration,
    }
    if kind not in bodies:
        raise ReproError(f"unknown discrepancy kind {kind!r}")
    body = bodies[kind]

    def predicate(test: LitmusTest) -> bool:
        try:
            return body(test)
        except ReproError:
            return False

    return predicate


# ----------------------------------------------------------------------
# candidate construction


def _rebuild(
    name: str,
    threads: List[List[MemOp]],
    out_regs: Dict[str, int],
    out_mem: Dict[str, int],
) -> Optional[LitmusTest]:
    """Assemble a candidate, pruning outcome entries that lost their
    defining load/location; None when nothing valid remains."""
    threads = [list(t) for t in threads if t]
    if not threads:
        return None
    outs = {op.out for t in threads for op in t if op.is_load}
    addresses = {op.addr for t in threads for op in t if op.addr is not None}
    regs = {r: v for r, v in out_regs.items() if r in outs}
    mem = {a: v for a, v in out_mem.items() if a in addresses}
    try:
        return LitmusTest.of(name, threads, Outcome.of(regs, mem))
    except LitmusError:
        return None


def _replace_addr(op: MemOp, new_addr: str) -> MemOp:
    if op.is_store:
        return store(new_addr, op.value)
    return load(new_addr, op.out)


def _reductions(test: LitmusTest) -> Iterator[LitmusTest]:
    """All one-step reductions of ``test``, deterministically ordered
    from coarse (drop a thread) to fine (lower one store value)."""
    threads = [list(t) for t in test.threads]
    out_regs = test.outcome.register_map
    out_mem = test.outcome.final_memory_map
    name = test.name

    if len(threads) > 1:
        for t in range(len(threads)):
            cand = _rebuild(
                name, threads[:t] + threads[t + 1 :], out_regs, out_mem
            )
            if cand is not None:
                yield cand

    for t in range(len(threads)):
        for i in range(len(threads[t])):
            reduced = [list(ops) for ops in threads]
            del reduced[t][i]
            cand = _rebuild(name, reduced, out_regs, out_mem)
            if cand is not None:
                yield cand

    for reg in sorted(out_regs):
        trimmed = {r: v for r, v in out_regs.items() if r != reg}
        cand = _rebuild(name, threads, trimmed, out_mem)
        if cand is not None:
            yield cand
    for var in sorted(out_mem):
        trimmed = {a: v for a, v in out_mem.items() if a != var}
        cand = _rebuild(name, threads, out_regs, trimmed)
        if cand is not None:
            yield cand

    addresses = test.addresses
    for keep_i in range(len(addresses)):
        for merge_i in range(keep_i + 1, len(addresses)):
            keep, merged = addresses[keep_i], addresses[merge_i]
            remapped = [
                [
                    _replace_addr(op, keep) if op.addr == merged else op
                    for op in ops
                ]
                for ops in threads
            ]
            merged_mem = {a: v for a, v in out_mem.items() if a != merged}
            cand = _rebuild(name, remapped, out_regs, merged_mem)
            if cand is not None:
                yield cand

    for t in range(len(threads)):
        for i, op in enumerate(threads[t]):
            if op.is_store and op.value is not None and op.value > 1:
                lowered = [list(ops) for ops in threads]
                lowered[t][i] = store(op.addr, 1)
                cand = _rebuild(name, lowered, out_regs, out_mem)
                if cand is not None:
                    yield cand


_ADDR_NAMES = "xyzwabcdefgh"


def _addr_name(index: int) -> str:
    """Canonical address name for first-use position ``index``; derived
    (``v12, v13, ...``) once the letter pool runs out, so tests with
    many addresses canonicalize instead of crashing."""
    if index < len(_ADDR_NAMES):
        return _ADDR_NAMES[index]
    return f"v{index}"


def _canonicalize(test: LitmusTest, name: str) -> LitmusTest:
    """Rename addresses to ``x, y, ...`` (first-use order — which is
    exactly the compiled address-map order, so RTL behaviour is
    untouched) and load registers to ``r1..rn`` in program order.  The
    register map is stable per source register: if an (unvalidated)
    input reuses a load register, both uses map to the same canonical
    name and the resulting duplicate is rejected by
    :meth:`LitmusTest.of` — renaming must never split one register
    into two, which would change the outcome set.
    """
    addr_map = {a: _addr_name(i) for i, a in enumerate(test.addresses)}
    reg_map: Dict[str, str] = {}
    threads: List[List[MemOp]] = []
    for ops in test.threads:
        renamed: List[MemOp] = []
        for op in ops:
            if op.is_load:
                if op.out not in reg_map:
                    reg_map[op.out] = f"r{len(reg_map) + 1}"
                renamed.append(load(addr_map[op.addr], reg_map[op.out]))
            elif op.is_store:
                renamed.append(store(addr_map[op.addr], op.value))
            else:
                renamed.append(op)
        threads.append(renamed)
    out_regs = {
        reg_map[r]: v for r, v in test.outcome.register_map.items()
    }
    out_mem = {
        addr_map[a]: v for a, v in test.outcome.final_memory_map.items()
    }
    return LitmusTest.of(name, threads, Outcome.of(out_regs, out_mem))


def shrink_test(
    test: LitmusTest,
    predicate: Predicate,
    max_evaluations: int = DEFAULT_MAX_EVALUATIONS,
) -> Tuple[LitmusTest, Dict]:
    """Greedily minimize ``test`` while ``predicate`` keeps holding.

    Returns ``(minimized, stats)``; the minimized test is renamed
    ``<name>-min`` and canonicalized so equal-shape reproducers from
    different fuzz indices deduplicate textually.  Canonicalization is
    itself re-checked against the predicate (budget permitting): if the
    renamed test no longer reproduces — or cannot be built — the
    un-canonicalized minimized test is returned instead and
    ``stats["canonicalization_dropped"]`` is set, so the shipped
    reproducer always actually reproduces.  Raises
    :class:`ReproError` if the predicate does not hold on the input
    (shrinking an agreement would "minimize" to garbage).
    """
    stats = {
        "predicate_calls": 0,
        "candidates_tried": 0,
        "reductions_applied": 0,
        "rounds": 0,
        "budget_exhausted": False,
        "canonicalization_dropped": False,
    }

    def holds(candidate: LitmusTest) -> bool:
        stats["predicate_calls"] += 1
        return predicate(candidate)

    if not holds(test):
        raise ReproError(
            f"{test.name}: discrepancy predicate does not hold on the "
            f"unshrunk test; nothing to minimize"
        )

    current = test
    improved = True
    while improved:
        stats["rounds"] += 1
        improved = False
        for candidate in _reductions(current):
            if stats["predicate_calls"] >= max_evaluations:
                stats["budget_exhausted"] = True
                break
            stats["candidates_tried"] += 1
            if holds(candidate):
                current = candidate
                stats["reductions_applied"] += 1
                improved = True
                break
        if stats["budget_exhausted"]:
            break

    min_name = f"{test.name}-min"
    renamed_only = dataclasses.replace(current, name=min_name)
    minimized: Optional[LitmusTest]
    try:
        minimized = _canonicalize(current, min_name)
    except LitmusError:
        minimized = None
    if minimized is not None and minimized != renamed_only:
        if stats["predicate_calls"] < max_evaluations:
            if not holds(minimized):
                minimized = None
        # Out of budget: keep the (pure-renaming) canonical form; the
        # shrunk shape itself was predicate-checked when adopted.
    if minimized is None:
        stats["canonicalization_dropped"] = True
        minimized = renamed_only
    stats["initial_instructions"] = test.instruction_count()
    stats["final_instructions"] = minimized.instruction_count()
    return minimized, stats
