"""The five oracle layers behind differential litmus testing.

Each oracle answers independently; :mod:`repro.difftest.compare` then
checks the cross-layer invariants.  All entry points here observe the
malformed-test contract: a structurally bad litmus test (an outcome
naming a register no load writes, a final value for an unused location)
raises :class:`~repro.errors.ReproError` naming the offending test, and
internal ``KeyError``/``AssertionError`` escapes are converted to the
same — fuzz campaigns must diagnose, not crash.

The first four layers answer about the test's *outcome set* (exhaustive
enumeration or full formal verification).  The fifth — ``trace`` —
samples seeded randomized executions from the RTL and checks each one
individually with the polynomial-time per-execution checker
(:mod:`repro.memodel.polycheck`), which is the only layer that scales
to the generator's long-program mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro import obs
from repro.errors import ReproError
from repro.litmus.test import LitmusTest, compile_test
from repro.memodel.axiomatic import axiomatic_sc_outcomes
from repro.memodel.operational import (
    enumerate_sc_outcomes,
    sc_allowed,
    tso_allowed,
)
from repro.verifier.outcomes import (
    ArchEnumeration,
    DEFAULT_MAX_STATES,
    enumerate_design_outcomes,
)

#: The oracle layers, in report order.
ORACLE_NAMES = ("operational", "axiomatic", "rtl", "verifier", "trace")

#: Executions the trace oracle samples per test by default.
DEFAULT_TRACE_SAMPLES = 8

#: An outcome set: frozenset of (sorted regs, sorted final memory).
OutcomeSet = FrozenSet[Tuple[Tuple[Tuple[str, int], ...], Tuple[Tuple[str, int], ...]]]


def outcomes_to_json(outcomes: OutcomeSet) -> List:
    """Canonical JSON rendering of an outcome set (sorted, so byte
    stable — cache entries and reports digest identically across
    runs)."""
    return sorted(
        [[list(pair) for pair in regs], [list(pair) for pair in mem]]
        for regs, mem in outcomes
    )


def outcomes_from_json(data) -> OutcomeSet:
    """Inverse of :func:`outcomes_to_json`."""
    return frozenset(
        (
            tuple((name, value) for name, value in regs),
            tuple((addr, value) for addr, value in mem),
        )
        for regs, mem in data
    )


@dataclass
class TraceCheck:
    """One sampled RTL execution plus its per-execution SC verdict."""

    registers: Tuple[Tuple[str, int], ...]
    final_memory: Tuple[Tuple[str, int], ...]
    conformant: bool
    reason: str = ""
    events: int = 0
    closure_rejected: bool = False
    search_states: int = 0

    @property
    def outcome(self) -> Tuple:
        """The execution's architectural outcome in outcome-set shape."""
        return (self.registers, self.final_memory)

    def to_json(self) -> Dict:
        return {
            "registers": [list(pair) for pair in self.registers],
            "final_memory": [list(pair) for pair in self.final_memory],
            "conformant": self.conformant,
            "reason": self.reason,
            "events": self.events,
            "closure_rejected": self.closure_rejected,
            "search_states": self.search_states,
        }

    @staticmethod
    def from_json(data: Dict) -> "TraceCheck":
        return TraceCheck(
            registers=tuple((n, v) for n, v in data["registers"]),
            final_memory=tuple((a, v) for a, v in data["final_memory"]),
            conformant=data["conformant"],
            reason=data["reason"],
            events=data["events"],
            closure_rejected=data["closure_rejected"],
            search_states=data["search_states"],
        )


@dataclass
class TestVerdicts:
    """Everything the selected oracle layers concluded about one test."""

    test: LitmusTest
    memory_variant: str = "fixed"
    # operational layer
    op_outcomes: Optional[OutcomeSet] = None
    op_allowed: Optional[bool] = None
    tso_allowed_: Optional[bool] = None
    # axiomatic layer
    ax_outcomes: Optional[OutcomeSet] = None
    ax_allowed: Optional[bool] = None
    # RTL enumeration layer
    rtl: Optional[ArchEnumeration] = None
    rtl_allowed: Optional[bool] = None
    # verifier layer
    verifier_bug_found: Optional[bool] = None
    verifier_verified_by_cover: Optional[bool] = None
    verifier_failing_properties: List[str] = field(default_factory=list)
    # trace (sampled per-execution) layer
    trace_checks: Optional[List[TraceCheck]] = None
    trace_sampled: Optional[int] = None
    trace_undrained: Optional[int] = None
    #: oracle name -> error string for layers that refused the test.
    errors: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """JSON-safe summary (outcome sets are reported by size plus the
        candidate-outcome membership verdicts, not expanded)."""
        return {
            "memory_variant": self.memory_variant,
            "operational": None
            if self.op_outcomes is None
            else {
                "allowed": self.op_allowed,
                "tso_allowed": self.tso_allowed_,
                "outcomes": len(self.op_outcomes),
            },
            "axiomatic": None
            if self.ax_outcomes is None
            else {"allowed": self.ax_allowed, "outcomes": len(self.ax_outcomes)},
            "rtl": None
            if self.rtl is None
            else {
                "allowed": self.rtl_allowed,
                "outcomes": len(self.rtl.outcomes),
                "complete": self.rtl.complete,
                "states": self.rtl.states,
            },
            "verifier": None
            if self.verifier_bug_found is None
            else {
                "bug_found": self.verifier_bug_found,
                "verified_by_cover": self.verifier_verified_by_cover,
                "failing_properties": list(self.verifier_failing_properties),
            },
            "trace": None
            if self.trace_checks is None
            else {
                "sampled": self.trace_sampled,
                "unique": len(self.trace_checks),
                "undrained": self.trace_undrained,
                "nonconformant": sum(
                    1 for c in self.trace_checks if not c.conformant
                ),
            },
            "errors": dict(self.errors),
        }


def check_wellformed(test: LitmusTest) -> None:
    """Validate ``test`` before any oracle touches it; all structural
    problems surface as :class:`ReproError` naming the test."""
    try:
        test.validate()
    except ReproError:
        raise
    except (KeyError, AssertionError, TypeError) as exc:
        raise ReproError(f"{test.name}: malformed litmus test: {exc!r}") from exc


def _guard(test: LitmusTest, oracle: str, fn):
    """Run one oracle body, converting internal escapes to ReproError."""
    try:
        return fn()
    except ReproError:
        raise
    except (KeyError, AssertionError, IndexError) as exc:
        raise ReproError(
            f"{test.name}: oracle {oracle!r} internal error: {exc!r}"
        ) from exc


def operational_verdicts(test: LitmusTest) -> Tuple[OutcomeSet, bool, bool]:
    """(SC outcome set, SC-allowed, TSO-allowed) for ``test``."""
    check_wellformed(test)

    def body():
        outcomes = frozenset(enumerate_sc_outcomes(test))
        return outcomes, sc_allowed(test), tso_allowed(test)

    return _guard(test, "operational", body)


def axiomatic_verdicts(test: LitmusTest) -> Tuple[OutcomeSet, bool]:
    """(SC candidate-execution outcome set, SC-allowed) for ``test``."""
    check_wellformed(test)

    def body():
        outcomes = axiomatic_sc_outcomes(test)
        regs = dict(test.outcome.registers)
        mem = dict(test.outcome.final_memory)
        allowed = any(
            all(dict(r).get(k) == v for k, v in regs.items())
            and all(dict(m).get(k) == v for k, v in mem.items())
            for r, m in outcomes
        )
        return outcomes, allowed

    return _guard(test, "axiomatic", body)


def rtl_verdicts(
    test: LitmusTest,
    memory_variant: str = "fixed",
    max_states: int = DEFAULT_MAX_STATES,
) -> ArchEnumeration:
    """Exhaustive (budgeted) architectural enumeration of the design, on
    its frame-free compiled step."""
    check_wellformed(test)

    def body():
        from repro.vscale.soc import MultiVScale

        design = MultiVScale(compile_test(test), memory_variant)
        return enumerate_design_outcomes(design, max_states=max_states)

    return _guard(test, "rtl", body)


def trace_verdicts(
    test: LitmusTest,
    memory_variant: str = "fixed",
    samples: int = DEFAULT_TRACE_SAMPLES,
    seed: int = 0,
    max_states: int = DEFAULT_MAX_STATES,
    grant_sink: Optional[Dict[str, int]] = None,
) -> Tuple[List[TraceCheck], int, int]:
    """Sample ``samples`` RTL executions and polycheck each under SC.

    Returns ``(checks, sampled, undrained)``.  ``max_states`` bounds
    the per-trace witness search; a tripped budget raises
    :class:`ReproError` (the campaign records the refusal rather than
    mislabeling the trace).  ``grant_sink``, when given, receives the
    harvest's arbiter-grant n-gram counts (coverage collection; the
    sampled schedules are identical either way).
    """
    check_wellformed(test)

    def body():
        from repro.memodel.polycheck import check_trace
        from repro.vscale.trace import harvest_traces

        harvest = harvest_traces(
            test,
            memory_variant,
            samples=samples,
            seed=seed,
            collect_grants=grant_sink is not None,
        )
        if grant_sink is not None and harvest.grant_ngrams:
            for ngram, hits in harvest.grant_ngrams.items():
                grant_sink[ngram] = grant_sink.get(ngram, 0) + hits
        checks = []
        for trace in harvest.traces:
            verdict = check_trace(trace, "sc", max_states=max_states)
            checks.append(
                TraceCheck(
                    registers=trace.load_values,
                    final_memory=trace.final_memory,
                    conformant=verdict.conformant,
                    reason=verdict.reason,
                    events=verdict.events,
                    closure_rejected=verdict.closure_rejected,
                    search_states=verdict.search_states,
                )
            )
        return checks, harvest.sampled, harvest.undrained

    return _guard(test, "trace", body)


def verifier_verdicts(
    test: LitmusTest,
    memory_variant: str = "fixed",
    rtlcheck=None,
):
    """Run the full RTLCheck flow; returns its
    :class:`~repro.core.results.TestVerification`."""
    check_wellformed(test)

    def body():
        checker = rtlcheck
        if checker is None:
            from repro.core.rtlcheck import RTLCheck

            checker = RTLCheck()
        return checker.verify_test(test, memory_variant)

    return _guard(test, "verifier", body)


def evaluate_oracles(
    test: LitmusTest,
    memory_variant: str = "fixed",
    oracles: Tuple[str, ...] = ORACLE_NAMES,
    max_states: int = DEFAULT_MAX_STATES,
    rtlcheck=None,
    cache=None,
    trace_samples: int = DEFAULT_TRACE_SAMPLES,
    trace_seed: int = 0,
) -> TestVerdicts:
    """Run the selected oracle layers on ``test``.

    A layer that raises :class:`ReproError` *after* the up-front
    well-formedness check is recorded in ``verdicts.errors`` and its
    comparisons are skipped — a single odd test must not abort a fuzz
    campaign.  This holds for **every** layer, operational and
    axiomatic included.  (Malformed tests still raise: that is a
    generator bug.)

    ``cache``, when given, is a :class:`repro.cache.VerificationCache`:
    the operational/axiomatic outcome sets (design-independent keys) and
    the RTL enumeration (keyed by memory variant and state budget) are
    memoized through its oracle tier, and the verifier layer runs an
    :class:`RTLCheck` wired to the same cache.  Warm hits replay the
    same observability counters the cold computation records, so a
    cached fuzz campaign's report aggregates match an uncached one's.

    The rtl and trace layers run on the compiled frame-free step
    (:func:`repro.verifier.outcomes.enumerate_design_outcomes`,
    :func:`repro.vscale.trace.harvest_traces`).
    """
    check_wellformed(test)
    for oracle in oracles:
        if oracle not in ORACLE_NAMES:
            raise ReproError(
                f"unknown oracle {oracle!r}; choose from {list(ORACLE_NAMES)}"
            )
    verdicts = TestVerdicts(test=test, memory_variant=memory_variant)
    recorder = obs.get_recorder()
    #: The active recorder's coverage map (``None`` unless the campaign
    #: runs with coverage collection — see :mod:`repro.obs.coverage`).
    coverage = getattr(recorder, "coverage", None)
    if cache is not None:
        from repro.cache import keys as cache_keys

    if "operational" in oracles:
        with obs.span("oracle.operational", test=test.name):
            try:
                payload = key = None
                if cache is not None:
                    key = cache_keys.oracle_key("operational", test)
                    payload = cache.load_oracle(key)
                if payload is None:
                    outcomes, allowed, tso = operational_verdicts(test)
                    if key is not None:
                        cache.store_oracle(
                            key,
                            {
                                "outcomes": outcomes_to_json(outcomes),
                                "allowed": allowed,
                                "tso_allowed": tso,
                            },
                        )
                else:
                    outcomes = outcomes_from_json(payload["outcomes"])
                    allowed = payload["allowed"]
                    tso = payload["tso_allowed"]
                verdicts.op_outcomes = outcomes
                verdicts.op_allowed = allowed
                verdicts.tso_allowed_ = tso
            except ReproError as exc:
                verdicts.errors["operational"] = str(exc)
    if "axiomatic" in oracles:
        with obs.span("oracle.axiomatic", test=test.name):
            try:
                payload = key = None
                if cache is not None:
                    key = cache_keys.oracle_key("axiomatic", test)
                    payload = cache.load_oracle(key)
                if payload is None:
                    outcomes, allowed = axiomatic_verdicts(test)
                    if key is not None:
                        cache.store_oracle(
                            key,
                            {
                                "outcomes": outcomes_to_json(outcomes),
                                "allowed": allowed,
                            },
                        )
                else:
                    outcomes = outcomes_from_json(payload["outcomes"])
                    allowed = payload["allowed"]
                verdicts.ax_outcomes = outcomes
                verdicts.ax_allowed = allowed
            except ReproError as exc:
                verdicts.errors["axiomatic"] = str(exc)
    if "rtl" in oracles:
        with obs.span("oracle.rtl", test=test.name, memory=memory_variant):
            try:
                enum = key = None
                if cache is not None:
                    key = cache_keys.oracle_key(
                        "rtl", test, memory_variant, max_states
                    )
                    payload = cache.load_oracle(key)
                    if payload is not None:
                        enum = ArchEnumeration(
                            outcomes=outcomes_from_json(payload["outcomes"]),
                            complete=payload["complete"],
                            states=payload["states"],
                            transitions=payload["transitions"],
                            drained_states=payload["drained_states"],
                            seconds=payload["seconds"],
                        )
                        if recorder.enabled:
                            # Replay the counters the cold enumeration
                            # records (repro.verifier.outcomes), so a
                            # warm campaign aggregates identically.
                            recorder.count("arch.states", enum.states)
                            recorder.count("arch.transitions", enum.transitions)
                            recorder.count(
                                "rtl.frames_simulated", enum.transitions
                            )
                            if not enum.complete:
                                recorder.count("arch.budget_trips", 1)
                if enum is None:
                    enum = rtl_verdicts(
                        test, memory_variant, max_states=max_states
                    )
                    if key is not None:
                        cache.store_oracle(
                            key,
                            {
                                "outcomes": outcomes_to_json(enum.outcomes),
                                "complete": enum.complete,
                                "states": enum.states,
                                "transitions": enum.transitions,
                                "drained_states": enum.drained_states,
                                "seconds": enum.seconds,
                            },
                        )
                verdicts.rtl = enum
                verdicts.rtl_allowed = enum.observes(test.outcome)
            except ReproError as exc:
                verdicts.errors["rtl"] = str(exc)
    if "verifier" in oracles:
        with obs.span("oracle.verifier", test=test.name, memory=memory_variant):
            try:
                checker = rtlcheck
                if checker is None and (
                    cache is not None or coverage is not None
                ):
                    from repro.core.rtlcheck import RTLCheck

                    # Observed when recording: the verifier's counters
                    # then ride on ``result.obs`` and are merged below,
                    # whether computed cold or replayed from the cache.
                    # With coverage on, the inner RTLCheck collects the
                    # graph/assumption/shape domains the same way.
                    checker = RTLCheck(
                        cache=cache,
                        observe=recorder.enabled,
                        coverage=coverage is not None,
                    )
                result = verifier_verdicts(test, memory_variant, checker)
                if result.obs and (recorder.enabled or coverage is not None):
                    recorder.merge_state(result.obs)
                verdicts.verifier_bug_found = result.bug_found
                verdicts.verifier_verified_by_cover = result.verified_by_cover
                verdicts.verifier_failing_properties = [
                    p.name for p in result.counterexamples
                ]
            except ReproError as exc:
                verdicts.errors["verifier"] = str(exc)
    if "trace" in oracles:
        with obs.span(
            "oracle.trace",
            test=test.name,
            memory=memory_variant,
            samples=trace_samples,
        ):
            try:
                payload = key = None
                if cache is not None:
                    key = cache_keys.oracle_key(
                        "trace",
                        test,
                        memory_variant,
                        max_states,
                        extra={"samples": trace_samples, "seed": trace_seed},
                    )
                    payload = cache.load_oracle(key)
                    if (
                        payload is not None
                        and coverage is not None
                        and "coverage" not in payload
                    ):
                        # Entry predates coverage collection: recompute
                        # so warm campaigns merge the same grant
                        # n-grams as cold ones (the rewrite below
                        # upgrades the entry in place).
                        payload = None
                if payload is None:
                    grant_sink = {} if coverage is not None else None
                    checks, sampled, undrained = trace_verdicts(
                        test,
                        memory_variant,
                        samples=trace_samples,
                        seed=trace_seed,
                        max_states=max_states,
                        grant_sink=grant_sink,
                    )
                    if key is not None:
                        entry = {
                            "checks": [c.to_json() for c in checks],
                            "sampled": sampled,
                            "undrained": undrained,
                        }
                        if grant_sink is not None:
                            entry["coverage"] = grant_sink
                        cache.store_oracle(key, entry)
                else:
                    checks = [
                        TraceCheck.from_json(c) for c in payload["checks"]
                    ]
                    sampled = payload["sampled"]
                    undrained = payload["undrained"]
                    grant_sink = payload.get("coverage")
                    if recorder.enabled:
                        # Replay the counters the cold polycheck pass
                        # records (repro.memodel.polycheck), so a warm
                        # campaign aggregates identically.
                        recorder.count("polycheck.traces", len(checks))
                        recorder.count(
                            "polycheck.events",
                            sum(c.events for c in checks),
                        )
                if coverage is not None and grant_sink:
                    coverage.merge_state({"arbiter": grant_sink})
                    if recorder.enabled:
                        recorder.count(
                            "coverage.arbiter.keys", len(grant_sink)
                        )
                verdicts.trace_checks = checks
                verdicts.trace_sampled = sampled
                verdicts.trace_undrained = undrained
            except ReproError as exc:
                verdicts.errors["trace"] = str(exc)
    if recorder.enabled:
        recorder.count("difftest.oracle_runs", len(oracles))
        if verdicts.errors:
            recorder.count("difftest.oracle_errors", len(verdicts.errors))
    return verdicts
