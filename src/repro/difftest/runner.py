"""The fuzz-campaign driver: generate, evaluate, cross-check, shrink.

Determinism contract (the whole point of a *seeded* fuzzer):

* tests are generated **in the parent process** from ``(seed, index)``
  alone, so ``--jobs`` changes wall-clock, never results;
* workers only evaluate; their results are re-ordered by index before
  cross-checking, so completion order never leaks into the report;
* shrinking runs in the parent, in index order, with a deterministic
  reduction schedule — re-running a campaign with its recorded seed
  reproduces every minimized test byte-for-byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.difftest.compare import Discrepancy, cross_check
from repro.difftest.generate import _TOTAL_OPS_CAP, FuzzGenerator
from repro.difftest.oracles import (
    DEFAULT_TRACE_SAMPLES,
    ORACLE_NAMES,
    evaluate_oracles,
)
from repro.difftest.shrink import (
    DEFAULT_MAX_EVALUATIONS,
    discrepancy_predicate,
    shrink_test,
)
from repro.errors import ReproError
from repro.executor import Executor, UnitFailure
from repro.litmus.test import LitmusTest
from repro.verifier.outcomes import DEFAULT_MAX_STATES


@dataclass(frozen=True)
class FuzzConfig:
    """Parameters of one fuzz campaign (picklable; fully determines the
    campaign's results together with the code version)."""

    seed: int = 0
    budget: int = 100
    oracles: Tuple[str, ...] = ORACLE_NAMES
    memory_variant: str = "fixed"
    jobs: int = 1
    max_states: int = DEFAULT_MAX_STATES
    max_procs: int = 4
    shrink: bool = True
    #: How many discrepancies get a shrink pass (on the buggy memory
    #: nearly every store-carrying test is discrepant; shrinking all of
    #: them would re-run oracles thousands of times).
    shrink_limit: int = 5
    shrink_max_evaluations: int = DEFAULT_MAX_EVALUATIONS
    observe: bool = False
    #: Root of a :class:`repro.cache.VerificationCache`; ``None`` (the
    #: default) evaluates every oracle cold.  With a cache, oracle
    #: outcome sets and verifier verdicts are memoized across runs and
    #: the campaign checkpoints after every completed test.
    cache_dir: Optional[str] = None
    #: Mix long programs (8–16 instructions/thread) into the generated
    #: stream.  Long tests exceed the exhaustive oracles' caps, so the
    #: runner evaluates them with the ``trace`` oracle only (and counts
    #: the gating under ``skipped["long_program"]``).
    long_programs: bool = False
    #: Executions the trace oracle samples per test.
    trace_samples: int = DEFAULT_TRACE_SAMPLES
    #: Collect microarchitectural coverage maps
    #: (:mod:`repro.obs.coverage`) per test and aggregate them into the
    #: campaign map / closure report.
    coverage: bool = False
    #: Coverage-guided seed scheduling
    #: (:class:`repro.difftest.schedule.CoverageScheduler`); implies
    #: coverage collection.
    guided: bool = False
    #: Explicit coverage-database path.  Defaults to the cache
    #: directory's ``coverage/coverage.json`` when a cache is attached;
    #: without either, the campaign map is not persisted.
    coverage_db: Optional[str] = None

    def __post_init__(self):
        if self.budget < 0:
            raise ReproError(f"budget must be >= 0, got {self.budget}")
        if self.jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {self.jobs}")
        if self.memory_variant not in ("fixed", "buggy"):
            raise ReproError(
                f"memory_variant must be 'fixed' or 'buggy', "
                f"got {self.memory_variant!r}"
            )
        for oracle in self.oracles:
            if oracle not in ORACLE_NAMES:
                raise ReproError(
                    f"unknown oracle {oracle!r}; choose from {list(ORACLE_NAMES)}"
                )
        if self.long_programs and "trace" not in self.oracles:
            raise ReproError(
                "long_programs requires the 'trace' oracle (the "
                "exhaustive layers cannot evaluate long tests)"
            )
        if self.trace_samples < 1:
            raise ReproError(
                f"trace_samples must be >= 1, got {self.trace_samples}"
            )
        if self.guided and not self.coverage:
            raise ReproError(
                "guided scheduling requires coverage collection "
                "(pass coverage=True / --coverage)"
            )


@dataclass
class DiscrepancyEntry:
    """One discrepancy plus its full test and (optional) minimization."""

    discrepancy: Discrepancy
    test: LitmusTest
    memory_variant: str
    verdicts: Dict = field(default_factory=dict)
    minimized: Optional[LitmusTest] = None
    shrink_stats: Optional[Dict] = None

    def to_dict(self) -> Dict:
        return {
            "kind": self.discrepancy.kind,
            "oracles": list(self.discrepancy.oracles),
            "test": self.test.to_dict(),
            "discrepancy": self.discrepancy.to_dict(),
            "memory_variant": self.memory_variant,
            "verdicts": dict(self.verdicts),
            "minimized": None
            if self.minimized is None
            else self.minimized.to_dict(),
            "shrink": None if self.shrink_stats is None else dict(self.shrink_stats),
        }


@dataclass
class FuzzResult:
    """Outcome of :func:`run_fuzz`."""

    config: FuzzConfig
    tests_run: int = 0
    discrepancies: List[DiscrepancyEntry] = field(default_factory=list)
    #: Per-test oracle refusals: {"test", "index", "oracle", "error"}.
    oracle_errors: List[Dict] = field(default_factory=list)
    #: Comparison skips, e.g. {"rtl_incomplete": 3}.
    skipped: Dict[str, int] = field(default_factory=dict)
    #: Campaign-wide verdict counts (sc_allowed, verifier_bug_found, ...).
    verdict_tally: Dict[str, int] = field(default_factory=dict)
    #: Merged observability counters (empty unless config.observe).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Per-test verdict summaries keyed by test name, in index order.
    verdicts: Dict[str, Dict] = field(default_factory=dict)
    #: Merged cache statistics (empty unless config.cache_dir).
    cache_stats: Dict[str, float] = field(default_factory=dict)
    #: Tests already completed by an interrupted run of this same
    #: campaign (0 without a cache or on a fresh campaign).
    resumed: int = 0
    wall_seconds: float = 0.0
    #: Campaign coverage map state (``None`` unless config.coverage).
    coverage: Optional[Dict] = None
    #: New coverage keys per test, in stream order (the saturation
    #: signal; empty unless config.coverage).
    novelty: List[int] = field(default_factory=list)

    def report(self) -> Dict:
        from repro.difftest.report import fuzz_report

        return fuzz_report(self)


#: Batch size of the coverage campaign loop.  Fixed (never derived from
#: ``--jobs``) so the generated test stream — including every guided
#: scheduling decision, which can only see feedback from *previous*
#: batches — is a pure function of ``(seed, budget)``.
_COVERAGE_ROUND = 16


def _fuzz_worker(
    test,
    memory_variant,
    oracles,
    max_states,
    observe,
    cache_dir=None,
    trace_samples=DEFAULT_TRACE_SAMPLES,
    trace_seed=0,
    coverage=False,
):
    """Module-level unit body of a fuzz campaign: evaluate one test,
    cross-check, and ship everything picklable back (including this
    evaluation's cache-statistics delta, merged by the parent)."""
    cache = None
    if cache_dir is not None:
        from repro.cache import VerificationCache

        cache = VerificationCache(cache_dir)
    recorder = None
    if observe:
        coverage_map = None
        if coverage:
            from repro.obs.coverage import CoverageMap

            coverage_map = CoverageMap()
        recorder = obs.TraceRecorder(coverage=coverage_map)
    elif coverage:
        # Coverage without metrics: the enabled=False sink keeps every
        # span/counter call a no-op (the <3% overhead budget).
        recorder = obs.CoverageRecorder()
    try:
        if recorder is not None:
            with obs.use_recorder(recorder):
                verdicts = evaluate_oracles(
                    test,
                    memory_variant,
                    oracles,
                    max_states=max_states,
                    cache=cache,
                    trace_samples=trace_samples,
                    trace_seed=trace_seed,
                )
        else:
            verdicts = evaluate_oracles(
                test,
                memory_variant,
                oracles,
                max_states=max_states,
                cache=cache,
                trace_samples=trace_samples,
                trace_seed=trace_seed,
            )
    except ReproError as exc:
        return {
            "error": str(exc),
            "summary": None,
            "discrepancies": [],
            "rtl_incomplete": False,
            "obs": None if recorder is None else recorder.to_state(),
            "cache_stats": None if cache is None else cache.stats.snapshot(),
        }
    return {
        "error": None,
        "summary": verdicts.to_dict(),
        "discrepancies": cross_check(verdicts),
        "rtl_incomplete": verdicts.rtl is not None and not verdicts.rtl.complete,
        "obs": None if recorder is None else recorder.to_state(),
        "cache_stats": None if cache is None else cache.stats.snapshot(),
    }


def _tally(tally: Dict[str, int], summary: Dict) -> None:
    op = summary.get("operational")
    if op is not None:
        tally["sc_allowed" if op["allowed"] else "sc_forbidden"] = (
            tally.get("sc_allowed" if op["allowed"] else "sc_forbidden", 0) + 1
        )
        if op["tso_allowed"]:
            tally["tso_allowed"] = tally.get("tso_allowed", 0) + 1
    rtl = summary.get("rtl")
    if rtl is not None and rtl["allowed"]:
        tally["rtl_allowed"] = tally.get("rtl_allowed", 0) + 1
    verifier = summary.get("verifier")
    if verifier is not None and verifier["bug_found"]:
        tally["verifier_bug_found"] = tally.get("verifier_bug_found", 0) + 1
    trace = summary.get("trace")
    if trace is not None:
        key = "trace_sc_fail" if trace["nonconformant"] else "trace_clean"
        tally[key] = tally.get(key, 0) + 1


def _process_outcome(
    config: FuzzConfig,
    result: FuzzResult,
    cache,
    obs_states: List[Dict],
    test: LitmusTest,
    index: int,
    outcome: Dict,
) -> None:
    """Fold one evaluated test's worker outcome (or its
    :class:`~repro.executor.UnitFailure`) into the campaign result
    (always called in index order, whatever the completion order
    was)."""
    result.tests_run += 1
    if isinstance(outcome, UnitFailure):
        error = f"worker crashed: {outcome.error}"
        result.oracle_errors.append(dict(outcome.to_dict(), index=index, error=error))
        result.skipped["worker_crashed"] = (
            result.skipped.get("worker_crashed", 0) + 1
        )
        return
    if outcome["obs"] is not None:
        obs_states.append(outcome["obs"])
    if cache is not None and outcome.get("cache_stats"):
        cache.stats.merge(outcome["cache_stats"])
    if outcome["error"] is not None:
        result.oracle_errors.append(
            {"test": test.name, "index": index, "error": outcome["error"]}
        )
        return
    summary = outcome["summary"]
    result.verdicts[test.name] = summary
    for oracle, message in summary.get("errors", {}).items():
        result.oracle_errors.append(
            {
                "test": test.name,
                "index": index,
                "oracle": oracle,
                "error": message,
            }
        )
    if outcome["rtl_incomplete"]:
        result.skipped["rtl_incomplete"] = (
            result.skipped.get("rtl_incomplete", 0) + 1
        )
    trace_summary = summary.get("trace")
    if trace_summary is not None and trace_summary["undrained"]:
        result.skipped["trace_undrained"] = (
            result.skipped.get("trace_undrained", 0)
            + trace_summary["undrained"]
        )
    _tally(result.verdict_tally, summary)
    for discrepancy in outcome["discrepancies"]:
        discrepancy.seed = config.seed
        discrepancy.index = index
        result.discrepancies.append(
            DiscrepancyEntry(
                discrepancy=discrepancy,
                test=test,
                memory_variant=config.memory_variant,
                verdicts=summary,
            )
        )


def _run_coverage_campaign(
    config: FuzzConfig,
    result: FuzzResult,
    generator: FuzzGenerator,
    oracles_for,
    run_units,
    cache,
    progress,
    obs_states: List[Dict],
) -> None:
    """The coverage-collecting campaign loop: fixed-size batches,
    evaluated by ``run_units`` (possibly in parallel) then folded in
    strict stream order, so the campaign map, the novelty sequence, and every guided
    scheduling decision are deterministic in ``(seed, budget)``
    whatever ``--jobs`` is."""
    from repro.difftest.schedule import CoverageScheduler
    from repro.obs.coverage import (
        CoverageDB,
        CoverageMap,
        default_coverage_db_path,
        shape_features,
    )

    coverage_map = CoverageMap()
    db_path = config.coverage_db
    if db_path is None and config.cache_dir is not None:
        db_path = default_coverage_db_path(config.cache_dir)
    scheduler = None
    if config.guided:
        scheduler = CoverageScheduler(generator, config.seed)
        if db_path is not None:
            # Resume last run's winners (an empty or fresh database
            # preloads nothing, keeping first campaigns pure
            # (seed, budget) functions).
            scheduler.load_corpus(CoverageDB(db_path).load().get("corpus", []))

    produced = 0
    new_cumulative = 0
    while produced < config.budget:
        size = min(_COVERAGE_ROUND, config.budget - produced)
        if scheduler is not None:
            batch = scheduler.next_batch(size)
        else:
            batch = [generator.test_at(produced + i) for i in range(size)]
        outcomes = run_units(batch)
        for slot, (test, outcome) in enumerate(zip(batch, outcomes)):
            index = produced + slot
            if oracles_for(test) != config.oracles:
                result.skipped["long_program"] = (
                    result.skipped.get("long_program", 0) + 1
                )
            state = None
            if not isinstance(outcome, UnitFailure) and outcome["obs"]:
                state = outcome["obs"].get("coverage")
            delta = CoverageMap.from_state(state)
            if "verifier" not in oracles_for(test):
                # The verifier-side flush point never ran for this
                # test (trace-only routing): record its shape features
                # parent-side so long programs still count in the shape
                # domain.
                for feature in shape_features(test):
                    delta.add("shape", feature)
            meta = generator.meta.get(test.name)
            if meta:
                delta.add("shape", f"mode:{meta['mode']}")
                for edge in meta.get("cycle", ()):
                    delta.add("shape", f"cycle:{edge}")
            novelty = coverage_map.count_new(delta)
            coverage_map.merge(delta)
            new_total = sum(novelty.values())
            result.novelty.append(new_total)
            new_cumulative += new_total
            if scheduler is not None:
                scheduler.feedback(test, novelty)
            _process_outcome(
                config, result, cache, obs_states, test, index, outcome
            )
            if progress is not None:
                progress(index, test.name, new_cumulative)
        produced += size

    result.coverage = coverage_map.to_state()
    if db_path is not None:
        campaign_record = {
            "seed": config.seed,
            "budget": config.budget,
            "memory_variant": config.memory_variant,
            "oracles": list(config.oracles),
            "guided": config.guided,
            "tests": result.tests_run,
            "new_keys_total": int(sum(result.novelty)),
        }
        corpus = scheduler.corpus_state() if scheduler is not None else None
        CoverageDB(db_path).merge(
            coverage_map, campaign=campaign_record, corpus=corpus
        )


def run_fuzz(
    config: FuzzConfig,
    progress: Optional[Callable[..., None]] = None,
    executor: Optional[Executor] = None,
) -> FuzzResult:
    """Run one differential fuzz campaign.

    Each test is one unit of ``executor`` (default
    ``Executor(config.jobs)``); one that runs out of retries is recorded
    as a ``crashed`` oracle error and is not checkpointed.

    ``progress``, when given, is called with ``(index, test_name)`` as
    each test's evaluation completes (completion order under ``jobs >
    1``; results themselves are always processed in index order).
    With ``config.coverage`` the campaign runs in fixed-size batches
    processed strictly in stream order, and ``progress`` instead
    receives ``(index, test_name, cumulative_new_coverage_keys)``.
    """
    t0 = time.perf_counter()
    result = FuzzResult(config=config)
    recorder = obs.get_recorder()

    cache = manifest = None
    if config.cache_dir is not None:
        from repro.cache import VerificationCache, keys as cache_keys

        cache = VerificationCache(config.cache_dir)
        campaign_payload = {
            "seed": config.seed,
            "budget": config.budget,
            "oracles": list(config.oracles),
            "memory_variant": config.memory_variant,
            "max_states": config.max_states,
            "max_procs": config.max_procs,
            "observe": config.observe,
        }
        # Folded in only when non-default, so pre-existing campaign
        # checkpoints keep their keys.
        if config.long_programs:
            campaign_payload["long_programs"] = True
        if config.trace_samples != DEFAULT_TRACE_SAMPLES:
            campaign_payload["trace_samples"] = config.trace_samples
        if config.coverage:
            campaign_payload["coverage"] = True
        if config.guided:
            campaign_payload["guided"] = True
        campaign = cache_keys.campaign_key("fuzz", campaign_payload)
        manifest = cache.checkpoint(campaign, total=config.budget)
        result.resumed = manifest.resumed

    with obs.span("fuzz.generate", seed=config.seed, budget=config.budget):
        generator = FuzzGenerator(
            config.seed,
            max_procs=config.max_procs,
            long_programs=config.long_programs,
        )
        # The coverage campaign generates lazily, batch by batch (the
        # guided scheduler needs feedback between batches).
        tests = None if config.coverage else generator.suite(config.budget)

    def oracles_for(test: LitmusTest) -> Tuple[str, ...]:
        """Long tests exceed the exhaustive oracles' caps: route them to
        the trace oracle alone (counted under ``skipped``)."""
        if test.instruction_count() <= _TOTAL_OPS_CAP:
            return config.oracles
        return tuple(o for o in config.oracles if o == "trace")

    if tests is not None:
        long_gated = sum(
            1 for test in tests if oracles_for(test) != config.oracles
        )
        if long_gated:
            result.skipped["long_program"] = long_gated

    def worker_args(test: LitmusTest) -> Tuple:
        return (
            test,
            config.memory_variant,
            oracles_for(test),
            config.max_states,
            config.observe,
            config.cache_dir,
            config.trace_samples,
            config.seed,
            config.coverage,
        )

    def run_units(batch: List[LitmusTest], on_unit=None) -> List:
        return executor.run(
            _fuzz_worker,
            [(test.name, worker_args(test)) for test in batch],
            progress=on_unit,
            journal=manifest,
        )

    obs_states: List[Dict] = []
    owned = executor is None
    if owned:
        executor = Executor(config.jobs)
    try:
        with obs.span("fuzz.evaluate", jobs=config.jobs):
            if config.coverage:
                _run_coverage_campaign(
                    config,
                    result,
                    generator,
                    oracles_for,
                    run_units,
                    cache,
                    progress,
                    obs_states,
                )
            else:
                index_of = {test.name: index for index, test in enumerate(tests)}

                def on_unit(name, _outcome, _cached):
                    if progress is not None:
                        progress(index_of[name], name)

                outcomes = run_units(tests, on_unit)
                for index, outcome in enumerate(outcomes):
                    _process_outcome(
                        config, result, cache, obs_states, tests[index], index, outcome
                    )
    finally:
        if owned:
            executor.shutdown()

    if config.shrink and result.discrepancies:
        with obs.span("fuzz.shrink", limit=config.shrink_limit):
            _shrink_entries(config, result)

    if recorder.enabled:
        recorder.count("difftest.tests", result.tests_run)
        recorder.count("difftest.discrepancies", len(result.discrepancies))
        for state in obs_states:
            recorder.merge_state(state)
    if obs_states:
        result.counters = dict(obs.merge_states(obs_states).counters)
    if cache is not None:
        result.cache_stats = cache.stats.snapshot()
    if manifest is not None and not result.skipped.get("worker_crashed"):
        manifest.finish()

    result.wall_seconds = time.perf_counter() - t0
    return result


def _shrink_entries(config: FuzzConfig, result: FuzzResult) -> None:
    """Minimize the first ``shrink_limit`` discrepancies in index order;
    textually-identical minimized tests are flagged as duplicates."""
    seen_shapes: Dict[str, str] = {}
    for entry in result.discrepancies[: config.shrink_limit]:
        predicate = discrepancy_predicate(
            entry.discrepancy.kind,
            memory_variant=config.memory_variant,
            max_states=config.max_states,
            trace_samples=config.trace_samples,
            trace_seed=config.seed,
        )
        try:
            minimized, stats = shrink_test(
                entry.test,
                predicate,
                max_evaluations=config.shrink_max_evaluations,
            )
        except ReproError as exc:
            entry.shrink_stats = {"error": str(exc)}
            continue
        entry.minimized = minimized
        entry.shrink_stats = stats
        shape = repr(
            {k: v for k, v in minimized.to_dict().items() if k != "name"}
        )
        if shape in seen_shapes:
            stats["duplicate_of"] = seen_shapes[shape]
        else:
            seen_shapes[shape] = minimized.name
