"""Tests for :mod:`repro.difftest` — differential litmus fuzzing.

Covers the seeded generator (determinism across instances and global
RNG state, structural validity, size caps), the four oracle layers and
their cross-check invariants, the malformed-test error contract, the
delta-debugging shrinker (determinism, minimality, predicate
discipline), the campaign runner (jobs-independence, error capture),
and the report/reproducer artifacts (schema validation, byte-identical
replay)."""

import json
import random

import pytest

from repro import RTLCheck, get_test
from repro.difftest import (
    Discrepancy,
    FuzzConfig,
    FuzzGenerator,
    INVARIANTS,
    ORACLE_NAMES,
    cross_check,
    discrepancy_predicate,
    evaluate_oracles,
    generated_test,
    run_fuzz,
    shrink_test,
    validate_fuzz_report,
    write_reproducer,
)
from repro.difftest.generate import _OPS_CAP, _TOTAL_OPS_CAP
from repro.difftest.report import reproducer_document
from repro.difftest.shrink import _canonicalize
from repro.errors import LitmusError, ReproError
from repro.litmus.diy import random_cycle, validate_cycle
from repro.litmus.test import LitmusTest, Outcome, load, store

MP = LitmusTest.of(
    "mp-df",
    [[store("x", 1), store("y", 1)], [load("y", "r1"), load("x", "r2")]],
    Outcome.of({"r1": 1, "r2": 0}),
)


class TestGeneratorDeterminism:
    def test_same_seed_same_suite(self):
        a = [t.to_dict() for t in FuzzGenerator(42).suite(25)]
        b = [t.to_dict() for t in FuzzGenerator(42).suite(25)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [t.to_dict() for t in FuzzGenerator(1).suite(10)]
        b = [t.to_dict() for t in FuzzGenerator(2).suite(10)]
        assert a != b

    def test_independent_of_global_random_state(self):
        """No module-level randomness anywhere: perturbing the global
        RNG between generations must not change anything."""
        random.seed(123)
        a = [t.to_dict() for t in FuzzGenerator(7).suite(10)]
        random.seed(999)
        random.random()
        b = [t.to_dict() for t in FuzzGenerator(7).suite(10)]
        assert a == b

    def test_index_access_matches_suite_order(self):
        suite = FuzzGenerator(5).suite(8)
        for index, test in enumerate(suite):
            assert generated_test(5, index).to_dict() == test.to_dict()

    def test_random_cycle_uses_only_caller_rng(self):
        a = random_cycle(random.Random("s"))
        random.seed(0)
        b = random_cycle(random.Random("s"))
        assert a == b
        assert validate_cycle(a) is None


#: sha256 (first 16 hex digits) of the sorted-key JSON of
#: ``[name, litmus_digest, meta]`` over ``FuzzGenerator(seed, 4,
#: long_programs).suite(200)``, keyed by ``(seed, long_programs)``.
GENERATOR_PIN = {
    (0, False): "6118511fbc0753bd",
    (1, False): "e1dde9079a958e7c",
    (2, False): "62d872fee985ad90",
    (0, True): "3177f8aa6ff62245",
    (1, True): "05c83f7f7ae76bb3",
    (2, True): "33b94d9fb03f2911",
}


@pytest.mark.parametrize("seed, long_programs", sorted(GENERATOR_PIN))
def test_generator_matches_pin(seed, long_programs):
    """The generated tests and their provenance are a pure function of
    the seed: a faster draw-and-reject loop must reproduce them."""
    import hashlib

    from repro.cache.keys import litmus_digest

    generator = FuzzGenerator(seed, 4, long_programs)
    rows = [
        [test.name, litmus_digest(test), generator.meta[test.name]]
        for test in generator.suite(200)
    ]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest[:16] == GENERATOR_PIN[(seed, long_programs)]


class TestGeneratorValidity:
    def test_generated_tests_are_wellformed_and_capped(self):
        for test in FuzzGenerator(0).suite(40):
            test.validate()  # raises on structural problems
            assert 1 <= test.num_threads <= 4
            assert 0 < test.instruction_count() <= _TOTAL_OPS_CAP
            for thread in test.threads:
                assert len(thread) <= max(_OPS_CAP.values()) + 2

    def test_names_are_unique_and_seed_tagged(self):
        suite = FuzzGenerator(9).suite(20)
        names = [t.name for t in suite]
        assert len(set(names)) == len(names)
        assert all(name.startswith("fz9-") for name in names)

    def test_max_procs_respected(self):
        for test in FuzzGenerator(0, max_procs=2).suite(20):
            assert test.num_threads <= 2

    def test_bad_max_procs_rejected(self):
        with pytest.raises(ReproError):
            FuzzGenerator(0, max_procs=9)


class TestMalformedCorners:
    """Satellite: structurally-bad tests raise errors naming the test
    instead of leaking KeyError/AssertionError from oracle internals."""

    def _bad_register_test(self):
        # Raw constructor bypasses .of() validation, mimicking a caller
        # that assembled the dataclass directly.
        return LitmusTest(
            name="bad-reg",
            threads=((store("x", 1),),),
            outcome=Outcome(registers=(("r9", 1),)),
        )

    def _bad_location_test(self):
        return LitmusTest(
            name="bad-loc",
            threads=((store("x", 1),),),
            outcome=Outcome(final_memory=(("zz", 1),)),
        )

    @pytest.mark.parametrize("maker", ["_bad_register_test", "_bad_location_test"])
    def test_oracles_name_the_offender(self, maker):
        bad = getattr(self, maker)()
        with pytest.raises(ReproError, match=bad.name):
            evaluate_oracles(bad, oracles=("operational",))

    @pytest.mark.parametrize("maker", ["_bad_register_test", "_bad_location_test"])
    def test_verifier_names_the_offender(self, maker):
        bad = getattr(self, maker)()
        with pytest.raises(ReproError, match=bad.name):
            RTLCheck().verify_test(bad)

    def test_from_dict_names_the_offender(self):
        with pytest.raises(LitmusError, match="half-baked"):
            LitmusTest.from_dict({"name": "half-baked", "threads": [[{"kind": "R"}]]})

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ReproError, match="psychic"):
            evaluate_oracles(MP, oracles=("psychic",))

    def test_duplicate_names_rejected_by_verify_suite(self):
        with pytest.raises(ReproError, match="mp-df"):
            RTLCheck().verify_suite([MP, MP])


class TestOraclesAndCrossCheck:
    def test_fixed_design_agrees_everywhere(self):
        verdicts = evaluate_oracles(MP, "fixed")
        assert verdicts.errors == {}
        assert verdicts.op_outcomes == verdicts.ax_outcomes
        assert verdicts.rtl.complete
        assert verdicts.rtl.outcomes == verdicts.op_outcomes
        assert not verdicts.verifier_bug_found
        assert cross_check(verdicts) == []

    def test_buggy_memory_rtl_divergence_detected(self):
        verdicts = evaluate_oracles(MP, "buggy")
        kinds = [d.kind for d in cross_check(verdicts)]
        assert "rtl-vs-model" in kinds
        assert all(kind in INVARIANTS for kind in kinds)

    def test_oracle_subset_skips_unrequested_layers(self):
        verdicts = evaluate_oracles(MP, oracles=("operational", "axiomatic"))
        assert verdicts.rtl is None
        assert verdicts.verifier_bug_found is None
        assert cross_check(verdicts) == []

    def test_verdict_summary_is_json_safe(self):
        summary = evaluate_oracles(MP, oracles=("operational",)).to_dict()
        json.dumps(summary)
        assert summary["operational"]["allowed"] is False
        assert summary["rtl"] is None


class TestShrinker:
    def test_shrinks_buggy_mp_to_single_store(self):
        predicate = discrepancy_predicate("rtl-vs-model", "buggy")
        minimized, stats = shrink_test(MP, predicate)
        assert minimized.instruction_count() <= 4  # acceptance bound
        assert minimized.instruction_count() == 1  # actually one store
        assert minimized.name == "mp-df-min"
        assert stats["final_instructions"] <= stats["initial_instructions"]
        # The minimal test must still reproduce the discrepancy.
        assert predicate(minimized)

    def test_shrink_is_deterministic(self):
        predicate = discrepancy_predicate("rtl-vs-model", "buggy")
        a, _ = shrink_test(MP, predicate)
        b, _ = shrink_test(MP, predicate)
        assert a.to_dict() == b.to_dict()

    def test_refuses_non_reproducing_input(self):
        predicate = discrepancy_predicate("rtl-vs-model", "fixed")
        with pytest.raises(ReproError, match="mp-df"):
            shrink_test(MP, predicate)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="warp-drive"):
            discrepancy_predicate("warp-drive")

    def test_canonicalization_renames_stably(self):
        scrambled = LitmusTest.of(
            "odd",
            [[store("q", 1)], [load("q", "r7")]],
            Outcome.of({"r7": 1}),
        )
        canon = _canonicalize(scrambled, "odd-min")
        assert canon.addresses == ["x"]
        assert canon.outcome.register_map == {"r1": 1}

    def test_evaluation_budget_is_respected(self):
        calls = []

        def predicate(test):
            calls.append(test.name)
            return True  # everything "reproduces" -> shrink runs long

        shrink_test(MP, predicate, max_evaluations=5)
        assert len(calls) <= 5


FAST_ORACLES = ("operational", "axiomatic", "rtl")


class TestRunner:
    def test_fixed_campaign_is_clean(self):
        result = run_fuzz(
            FuzzConfig(seed=11, budget=6, oracles=FAST_ORACLES)
        )
        assert result.tests_run == 6
        assert result.discrepancies == []
        assert result.oracle_errors == []
        assert validate_fuzz_report(result.report()) == []

    def test_buggy_campaign_finds_and_shrinks(self):
        result = run_fuzz(
            FuzzConfig(
                seed=11,
                budget=4,
                oracles=FAST_ORACLES,
                memory_variant="buggy",
                shrink_limit=2,
            )
        )
        assert len(result.discrepancies) >= 1
        shrunk = [e for e in result.discrepancies if e.minimized is not None]
        assert len(shrunk) == min(2, len(result.discrepancies))
        for entry in shrunk:
            assert entry.minimized.instruction_count() <= 4
            assert entry.discrepancy.seed == 11
            assert entry.discrepancy.index is not None

    def test_jobs_do_not_change_results(self):
        base = FuzzConfig(
            seed=13, budget=5, oracles=FAST_ORACLES, memory_variant="buggy",
            shrink=False,
        )
        r1 = run_fuzz(base)
        r2 = run_fuzz(
            FuzzConfig(
                seed=13, budget=5, oracles=FAST_ORACLES,
                memory_variant="buggy", shrink=False, jobs=2,
            )
        )
        d1 = [e.to_dict() for e in r1.discrepancies]
        d2 = [e.to_dict() for e in r2.discrepancies]
        assert d1 == d2
        assert r1.verdict_tally == r2.verdict_tally

    def test_config_validation(self):
        with pytest.raises(ReproError):
            FuzzConfig(budget=-1)
        with pytest.raises(ReproError):
            FuzzConfig(jobs=0)
        with pytest.raises(ReproError):
            FuzzConfig(memory_variant="chaotic")
        with pytest.raises(ReproError):
            FuzzConfig(oracles=("operational", "psychic"))


class TestReportsAndReproducers:
    def _buggy_result(self, seed=17):
        return run_fuzz(
            FuzzConfig(
                seed=seed, budget=3, oracles=FAST_ORACLES,
                memory_variant="buggy", shrink_limit=1,
            )
        )

    def test_report_validates_and_counts(self):
        result = self._buggy_result()
        report = result.report()
        assert validate_fuzz_report(report) == []
        assert report["kind"] == "rtlcheck-difftest-report"
        assert report["discrepancy_count"] == len(result.discrepancies)
        json.dumps(report)  # fully JSON-safe

    def test_validation_catches_corruption(self):
        report = self._buggy_result().report()
        report["discrepancy_count"] += 1
        assert any("discrepancy_count" in p for p in validate_fuzz_report(report))
        del report["seed"]
        assert any("seed" in p for p in validate_fuzz_report(report))

    def test_reproducers_are_byte_identical_across_replays(self):
        """The acceptance contract: re-running a campaign with its
        recorded seed regenerates minimized reproducers byte-for-byte."""
        a = self._buggy_result()
        b = self._buggy_result()
        docs_a = [
            json.dumps(reproducer_document(e), sort_keys=True)
            for e in a.discrepancies
        ]
        docs_b = [
            json.dumps(reproducer_document(e), sort_keys=True)
            for e in b.discrepancies
        ]
        assert docs_a and docs_a == docs_b

    def test_written_reproducer_replays(self, tmp_path):
        result = self._buggy_result()
        entry = next(e for e in result.discrepancies if e.minimized is not None)
        path = write_reproducer(str(tmp_path), entry)
        with open(path) as handle:
            document = json.load(handle)
        assert document["kind"] == "rtlcheck-difftest-reproducer"
        assert document["seed"] == 17
        replayed = LitmusTest.from_dict(document["minimized"])
        predicate = discrepancy_predicate(
            document["discrepancy"]["kind"], document["memory_variant"]
        )
        assert predicate(replayed)


class TestOracleErrorContract:
    """Regression: a ReproError from *any* layer — operational and
    axiomatic included — must land in ``verdicts.errors`` instead of
    aborting the evaluation (the documented contract; the first two
    layers used to leak)."""

    def test_operational_error_is_recorded_not_raised(self, monkeypatch):
        def boom(test):
            raise ReproError(f"{test.name}: injected operational failure")

        monkeypatch.setattr(
            "repro.difftest.oracles.operational_verdicts", boom
        )
        verdicts = evaluate_oracles(MP, oracles=("operational", "axiomatic"))
        assert "injected operational" in verdicts.errors["operational"]
        assert verdicts.op_outcomes is None
        # The healthy layer still answered, and comparisons involving
        # the broken one are skipped rather than crashed.
        assert verdicts.ax_outcomes is not None
        assert cross_check(verdicts) == []

    def test_axiomatic_error_is_recorded_not_raised(self, monkeypatch):
        def boom(test):
            raise ReproError(f"{test.name}: injected axiomatic failure")

        monkeypatch.setattr("repro.difftest.oracles.axiomatic_verdicts", boom)
        verdicts = evaluate_oracles(MP, oracles=("operational", "axiomatic"))
        assert "injected axiomatic" in verdicts.errors["axiomatic"]
        assert verdicts.ax_outcomes is None
        assert verdicts.op_outcomes is not None

    def test_oracle_error_reaches_campaign_report(self, monkeypatch):
        def boom(test):
            raise ReproError(f"{test.name}: injected axiomatic failure")

        monkeypatch.setattr("repro.difftest.oracles.axiomatic_verdicts", boom)
        result = run_fuzz(
            FuzzConfig(
                seed=11,
                budget=2,
                oracles=("operational", "axiomatic"),
                shrink=False,
            )
        )
        # The campaign completes, names the oracle per test, and still
        # produces a valid report.
        assert result.tests_run == 2
        assert len(result.oracle_errors) == 2
        for entry in result.oracle_errors:
            assert entry["oracle"] == "axiomatic"
            assert "injected" in entry["error"]
        assert validate_fuzz_report(result.report()) == []

    def test_malformed_test_still_raises(self):
        bad = LitmusTest(
            name="raw-bad",
            threads=((load("x", "r1"), load("y", "r1")),),
            outcome=Outcome.of({}),
        )
        with pytest.raises(ReproError):
            evaluate_oracles(bad, oracles=("operational",))


class TestCanonicalizationFixes:
    """Regression: `_canonicalize` used to crash past 12 addresses
    (IndexError) and silently split a reused load register into two;
    `shrink_test` used to ship canonicalized tests unchecked."""

    def test_many_addresses_get_derived_names(self):
        addrs = [f"loc{i}" for i in range(13)]
        test = LitmusTest.of(
            "wide",
            [[store(a, 1) for a in addrs]],
            Outcome.of({}, {addrs[-1]: 1}),
        )
        canon = _canonicalize(test, "wide-min")
        assert canon.addresses[:4] == ["x", "y", "z", "w"]
        assert canon.addresses[-1] == "v12"
        assert canon.outcome.final_memory_map == {"v12": 1}

    def test_duplicate_register_is_not_split(self):
        # Only constructible via the raw constructor (validation forbids
        # it); the stable map must collapse both uses onto one canonical
        # name, which the rebuild then rejects — never silently rename
        # them apart, which changes the outcome set.
        raw = LitmusTest(
            name="dup",
            threads=((load("x", "r7"), load("y", "r7")),),
            outcome=Outcome.of({}),
        )
        with pytest.raises(LitmusError, match="duplicate"):
            _canonicalize(raw, "dup-min")

    def test_shrink_falls_back_when_canonicalization_stops_reproducing(self):
        # A predicate sensitive to the concrete register name: renaming
        # r7 -> r1 breaks it, so the shipped reproducer must keep r7.
        test = LitmusTest.of(
            "odd2",
            [[store("q", 1)], [load("q", "r7")]],
            Outcome.of({"r7": 1}),
        )

        def predicate(candidate):
            return "r7" in candidate.outcome.register_map

        minimized, stats = shrink_test(test, predicate)
        assert stats["canonicalization_dropped"] is True
        assert minimized.name == "odd2-min"
        assert "r7" in minimized.outcome.register_map
        assert predicate(minimized)

    def test_canonicalization_kept_when_it_reproduces(self):
        predicate = discrepancy_predicate("rtl-vs-model", "buggy")
        minimized, stats = shrink_test(MP, predicate)
        assert stats["canonicalization_dropped"] is False
        assert minimized.addresses == ["x"]


class TestWorkerCrashContainment:
    """Regression: a non-ReproError escape from a pool worker used to
    propagate out of ``future.result()`` and kill the whole campaign."""

    def _crashing_campaign(self, monkeypatch, jobs, cache_dir=None):
        from repro.executor import FAULT_ENV

        config = FuzzConfig(
            seed=11,
            budget=3,
            oracles=("operational", "axiomatic"),
            jobs=jobs,
            shrink=False,
            cache_dir=cache_dir,
        )
        victim = FuzzGenerator(11).suite(3)[1].name
        monkeypatch.setenv(FAULT_ENV, victim)
        return run_fuzz(config), victim

    def _assert_contained(self, result, victim):
        assert result.tests_run == 3
        crashed = [e for e in result.oracle_errors if e.get("crashed")]
        assert len(crashed) == 1
        assert crashed[0]["test"] == victim
        assert "worker crashed" in crashed[0]["error"]
        assert result.skipped["worker_crashed"] == 1
        # The other two tests were evaluated normally.
        assert len(result.verdicts) == 2
        assert validate_fuzz_report(result.report()) == []

    def test_crash_contained_sequentially(self, monkeypatch):
        result, victim = self._crashing_campaign(monkeypatch, jobs=1)
        self._assert_contained(result, victim)

    def test_crash_contained_in_pool(self, monkeypatch):
        result, victim = self._crashing_campaign(monkeypatch, jobs=2)
        self._assert_contained(result, victim)

    def test_crashed_test_is_retried_on_resume(self, monkeypatch, tmp_path):
        result, victim = self._crashing_campaign(
            monkeypatch, jobs=1, cache_dir=str(tmp_path)
        )
        self._assert_contained(result, victim)
        # The crashed index was NOT checkpointed as done: a resumed run
        # (crash hook cleared) retries exactly that test and comes back
        # clean.
        from repro.executor import FAULT_ENV

        monkeypatch.delenv(FAULT_ENV)
        resumed = run_fuzz(
            FuzzConfig(
                seed=11,
                budget=3,
                oracles=("operational", "axiomatic"),
                shrink=False,
                cache_dir=str(tmp_path),
            )
        )
        assert resumed.resumed == 2
        assert resumed.oracle_errors == []
        assert len(resumed.verdicts) == 3


class TestTraceOracle:
    def test_fixed_memory_trace_layer_is_clean(self):
        verdicts = evaluate_oracles(
            MP, "fixed", oracles=("trace",), trace_samples=6
        )
        assert verdicts.errors == {}
        assert verdicts.trace_checks
        assert all(c.conformant for c in verdicts.trace_checks)
        assert cross_check(verdicts) == []

    def test_buggy_memory_flagged_by_trace_vs_sc(self):
        verdicts = evaluate_oracles(
            MP, "buggy", oracles=("trace",), trace_samples=8
        )
        kinds = [d.kind for d in cross_check(verdicts)]
        assert "trace-vs-sc" in kinds

    def test_trace_agrees_with_enumeration_when_both_run(self):
        verdicts = evaluate_oracles(
            MP, "fixed", oracles=("operational", "trace"), trace_samples=8
        )
        kinds = [d.kind for d in cross_check(verdicts)]
        assert "trace-vs-enumeration" not in kinds
        for check in verdicts.trace_checks:
            assert check.outcome in verdicts.op_outcomes

    def test_trace_discrepancy_shrinks(self):
        predicate = discrepancy_predicate(
            "trace-vs-sc", "buggy", trace_samples=6
        )
        minimized, stats = shrink_test(MP, predicate)
        assert predicate(minimized)
        assert minimized.instruction_count() <= MP.instruction_count()


class TestLongProgramMode:
    def test_long_programs_require_trace_oracle(self):
        with pytest.raises(ReproError, match="trace"):
            FuzzConfig(long_programs=True, oracles=("operational", "rtl"))

    def test_generator_emits_long_tests(self):
        tests = FuzzGenerator(7, long_programs=True).suite(10)
        long = [t for t in tests if t.instruction_count() > _TOTAL_OPS_CAP]
        assert long
        for test in long:
            assert max(len(t) for t in test.threads) >= 8
            assert test.outcome.register_map == {}
            # Unique store values per location (the polynomial case).
            for addr in test.addresses:
                values = [
                    op.value
                    for t in test.threads
                    for op in t
                    if op.is_store and op.addr == addr
                ]
                assert len(values) == len(set(values))

    def test_long_campaign_routes_to_trace_only(self):
        result = run_fuzz(
            FuzzConfig(
                seed=7,
                budget=6,
                oracles=("operational", "axiomatic", "trace"),
                long_programs=True,
                trace_samples=4,
                shrink=False,
            )
        )
        assert result.tests_run == 6
        assert result.skipped.get("long_program", 0) >= 1
        assert result.discrepancies == []
        assert result.oracle_errors == []
        long_names = [
            t.name
            for t in FuzzGenerator(7, long_programs=True).suite(6)
            if t.instruction_count() > _TOTAL_OPS_CAP
        ]
        for name in long_names:
            summary = result.verdicts[name]
            assert summary["operational"] is None
            assert summary["trace"] is not None
            assert summary["trace"]["nonconformant"] == 0
        assert validate_fuzz_report(result.report()) == []
