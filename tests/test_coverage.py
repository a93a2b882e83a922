"""Tests for :mod:`repro.obs.coverage` — microarchitectural coverage
maps, the persistent coverage database, closure reports, and the
coverage-guided fuzz scheduler.

The load-bearing invariants:

* coverage collection is deterministic in ``(seed, jobs)`` — a
  parallel campaign produces the same coverage state, novelty stream,
  and test order as a serial one;
* coverage-map merge is associative and commutative (property-tested),
  so worker deltas can be folded in any grouping;
* the on-disk database round-trips, and corrupt or schema-stale
  documents reset to fresh rather than poisoning later campaigns;
* collection never changes verification verdicts.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CONFIGS, RTLCheck, get_test, obs
from repro.cache import VerificationCache
from repro.difftest import FuzzConfig, FuzzGenerator, run_fuzz
from repro.difftest.schedule import CoverageScheduler
from repro.errors import ReproError
from repro.obs.coverage import (
    COVERAGE_DOMAINS,
    CoverageDB,
    CoverageMap,
    closure_report,
    coverage_diff,
    saturation_curve,
    shape_features,
    shape_key,
    validate_coverage_report,
)

# ---------------------------------------------------------------------------
# CoverageMap
# ---------------------------------------------------------------------------


class TestCoverageMap:
    def test_add_and_counts(self):
        cov = CoverageMap()
        cov.add("state", "a")
        cov.add("state", "a")
        cov.add("state", "b")
        cov.add("shape", "threads:2")
        assert cov.unique("state") == 2
        assert cov.hits("state") == 3
        assert cov.total_unique() == 3
        assert bool(cov)

    def test_unknown_domain_rejected(self):
        with pytest.raises(ReproError, match="domain"):
            CoverageMap().add("branch", "x")

    def test_count_new_only_counts_unseen_keys(self):
        base = CoverageMap()
        base.add("state", "a")
        delta = CoverageMap()
        delta.add("state", "a")
        delta.add("state", "b")
        delta.add("transition", "a>b")
        new = base.count_new(delta)
        assert new["state"] == 1
        assert new["transition"] == 1
        # count_new does not mutate.
        assert base.unique("state") == 1
        assert base.unique("transition") == 0

    def test_state_round_trip(self):
        cov = CoverageMap()
        cov.add("arbiter", "g2:0.1", 5)
        cov.add("assumption", "fired:x")
        state = cov.to_state()
        json.dumps(state)  # JSON-safe
        assert CoverageMap.from_state(state) == cov

    def test_empty_map_is_falsy(self):
        assert not CoverageMap()
        assert CoverageMap().to_state() == {}


# -- merge algebra (property-tested) ----------------------------------------

_domain = st.sampled_from(sorted(COVERAGE_DOMAINS))
_keys = st.text(
    alphabet="abcdefg>:.0123456789", min_size=1, max_size=8
)
_coverage_states = st.dictionaries(
    _domain,
    st.dictionaries(_keys, st.integers(min_value=1, max_value=50), max_size=6),
    max_size=4,
)


def _as_map(state):
    return CoverageMap.from_state(state)


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(_coverage_states, _coverage_states)
    def test_merge_commutes(self, a, b):
        left = _as_map(a)
        left.merge(_as_map(b))
        right = _as_map(b)
        right.merge(_as_map(a))
        assert left == right

    @settings(max_examples=60, deadline=None)
    @given(_coverage_states, _coverage_states, _coverage_states)
    def test_merge_associates(self, a, b, c):
        ab_c = _as_map(a)
        ab_c.merge(_as_map(b))
        ab_c.merge(_as_map(c))
        bc = _as_map(b)
        bc.merge(_as_map(c))
        a_bc = _as_map(a)
        a_bc.merge(bc)
        assert ab_c == a_bc

    @settings(max_examples=60, deadline=None)
    @given(_coverage_states, _coverage_states)
    def test_count_new_matches_merge_growth(self, a, b):
        base = _as_map(a)
        delta = _as_map(b)
        new = base.count_new(delta)
        before = {d: base.unique(d) for d in COVERAGE_DOMAINS}
        base.merge(delta)
        for domain in COVERAGE_DOMAINS:
            assert base.unique(domain) - before[domain] == new.get(domain, 0)


# ---------------------------------------------------------------------------
# Signatures and shape features
# ---------------------------------------------------------------------------


class TestSignatures:
    def test_array_backend_signature_matches_across_designs(self):
        # Equal physical states hash equal regardless of interning
        # order: build the same graph twice and compare per-test
        # coverage states (signatures are embedded in the keys).
        states = []
        for _ in range(2):
            rc = RTLCheck(coverage=True)
            result = rc.verify_test(get_test("mp"), "fixed")
            states.append(result.obs["coverage"])
        assert states[0] == states[1]

    def test_shape_key_ignores_thread_order(self):
        test = get_test("mp")
        assert shape_key(test) == "|".join(sorted(shape_key(test).split("|")))

    def test_shape_features_deterministic(self):
        test = get_test("iriw")
        assert shape_features(test) == shape_features(test)
        assert f"threads:{test.num_threads}" in shape_features(test)


# ---------------------------------------------------------------------------
# Collection through RTLCheck
# ---------------------------------------------------------------------------


class TestCollection:
    def test_coverage_only_run_collects_all_verifier_domains(self):
        rc = RTLCheck(coverage=True)
        result = rc.verify_test(get_test("mp"), "fixed")
        state = result.obs["coverage"]
        for domain in ("state", "transition", "assumption", "shape"):
            assert state.get(domain), f"no {domain} coverage"
        # Coverage-only runs record no spans or counters.
        assert result.obs["events"] == []
        assert result.obs["counters"] == {}

    def test_coverage_does_not_change_verdicts(self):
        plain = RTLCheck().verify_test(get_test("sb"), "fixed")
        covered = RTLCheck(coverage=True).verify_test(get_test("sb"), "fixed")
        assert [
            (p.name, p.status) for p in plain.properties
        ] == [(p.name, p.status) for p in covered.properties]
        assert plain.bug_found == covered.bug_found

    def test_observe_and_coverage_compose(self):
        rc = RTLCheck(observe=True, coverage=True)
        result = rc.verify_test(get_test("mp"), "fixed")
        assert result.obs["events"]  # spans recorded
        assert result.obs["coverage"]["state"]
        # The per-domain key counters ride the ordinary counter stream.
        assert result.obs["counters"]["coverage.state.keys"] > 0

    def test_observed_and_coverage_only_agree_on_coverage(self):
        observed = RTLCheck(observe=True, coverage=True).verify_test(
            get_test("mp"), "fixed"
        )
        coverage_only = RTLCheck(coverage=True).verify_test(
            get_test("mp"), "fixed"
        )
        assert observed.obs["coverage"] == coverage_only.obs["coverage"]

    def test_suite_jobs_invariance(self):
        tests = [get_test(n) for n in ("mp", "sb", "lb")]
        serial = RTLCheck(coverage=True).verify_suite(tests, jobs=1)
        parallel = RTLCheck(coverage=True).verify_suite(tests, jobs=2)
        for test in tests:
            assert (
                serial[test.name].obs["coverage"]
                == parallel[test.name].obs["coverage"]
            )


# ---------------------------------------------------------------------------
# Cache gating
# ---------------------------------------------------------------------------


class TestCacheGating:
    def test_uncovered_entry_upgraded_for_coverage_run(self, tmp_path):
        cache = VerificationCache(tmp_path)
        test = get_test("mp")
        RTLCheck(cache=cache).verify_test(test, "fixed")
        # A coverage run must not accept the uncovered entry ...
        rc = RTLCheck(cache=cache, coverage=True)
        cold = rc.verify_test(test, "fixed")
        assert cold.obs["coverage"]
        assert cache.stats.get("cache.verdict.uncovered_misses") == 1
        # ... and its recompute upgrades the entry in place.
        warm = rc.verify_test(test, "fixed")
        assert cache.stats.get("cache.verdict.hits") == 1
        assert warm.obs == cold.obs

    def test_warm_coverage_hit_strips_observe_payload(self, tmp_path):
        cache = VerificationCache(tmp_path)
        test = get_test("sb")
        cold = RTLCheck(cache=cache, observe=True, coverage=True).verify_test(
            test, "fixed"
        )
        warm = RTLCheck(cache=cache, coverage=True).verify_test(test, "fixed")
        # Same coverage, no replayed spans/counters: the coverage-only
        # warm hit is byte-identical to a coverage-only cold run.
        assert warm.obs["coverage"] == cold.obs["coverage"]
        assert warm.obs["events"] == []
        assert warm.obs["counters"] == {}


# ---------------------------------------------------------------------------
# The persistent database
# ---------------------------------------------------------------------------


class TestCoverageDB:
    def _map(self, **domains):
        cov = CoverageMap()
        for domain, keys in domains.items():
            for key in keys:
                cov.add(domain, key)
        return cov

    def test_round_trip(self, tmp_path):
        db = CoverageDB(str(tmp_path / "cov.json"))
        db.merge(
            self._map(state=["a", "b"], shape=["threads:2"]),
            campaign={"seed": 1, "tests": 5},
        )
        document = db.load()
        assert db.reset_reason is None
        assert document["campaigns"][0]["seed"] == 1
        assert document["campaigns"][0]["new_keys"] == {"shape": 1, "state": 2}
        assert db.coverage_map() == self._map(
            state=["a", "b"], shape=["threads:2"]
        )

    def test_merge_accumulates_and_counts_only_new(self, tmp_path):
        db = CoverageDB(str(tmp_path / "cov.json"))
        db.merge(self._map(state=["a"]), campaign={"seed": 1})
        document = db.merge(
            self._map(state=["a", "b"]), campaign={"seed": 2}
        )
        assert document["campaigns"][1]["new_keys"] == {"state": 1}
        assert db.coverage_map().unique("state") == 2

    def test_corrupt_document_resets(self, tmp_path):
        path = tmp_path / "cov.json"
        path.write_text("{ not json")
        db = CoverageDB(str(path))
        document = db.load()
        assert db.reset_reason == "corrupt"
        assert document["domains"] == {}
        # A merge after the reset writes a valid fresh document.
        db.merge(self._map(state=["a"]))
        assert CoverageDB(str(path)).coverage_map().unique("state") == 1

    def test_stale_schema_resets(self, tmp_path):
        path = tmp_path / "cov.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        db = CoverageDB(str(path))
        assert db.load()["domains"] == {}
        assert db.reset_reason == "stale"

    def test_version_one_document_resets(self, tmp_path):
        """A database written before the register-window slot vectors
        (schema 1) holds state and transition keys no newer run can
        reach; loading it must reset instead of counting every state
        as novel."""
        from repro.obs.coverage import COVERAGE_DB_KIND

        path = tmp_path / "cov.json"
        path.write_text(
            json.dumps(
                {
                    "kind": COVERAGE_DB_KIND,
                    "schema_version": 1,
                    "domains": {"state": {"0123456789abcdef": 3}},
                    "campaigns": [{"tests": 20}],
                    "corpus": [],
                }
            )
        )
        db = CoverageDB(str(path))
        document = db.load()
        assert db.reset_reason == "stale"
        assert document["domains"] == {}
        assert document["campaigns"] == []

    def test_corpus_capped_by_energy(self, tmp_path):
        from repro.obs.coverage import DB_CORPUS_CAP

        db = CoverageDB(str(tmp_path / "cov.json"))
        corpus = [
            {"test": {"name": f"t{i}"}, "energy": float(i)}
            for i in range(DB_CORPUS_CAP + 10)
        ]
        document = db.merge(CoverageMap(), corpus=corpus)
        kept = document["corpus"]
        assert len(kept) == DB_CORPUS_CAP
        assert min(entry["energy"] for entry in kept) == 10.0


# ---------------------------------------------------------------------------
# Closure reports
# ---------------------------------------------------------------------------


class TestClosureReport:
    def test_validates_and_totals_match(self):
        cov = CoverageMap()
        cov.add("state", "a", 3)
        cov.add("shape", "threads:2")
        report = closure_report(cov, tests=10, novelty=[2, 0], guided=True)
        assert validate_coverage_report(report) == []
        assert report["domains"]["state"] == {"unique": 1, "hits": 3}
        assert report["new_keys"] == 2
        assert report["guided"] is True

    def test_tampered_report_rejected(self):
        cov = CoverageMap()
        cov.add("state", "a")
        report = closure_report(cov)
        report["total_unique"] = 99
        assert validate_coverage_report(report) != []

    def test_saturation_curve_windows(self):
        assert saturation_curve([1] * 250, window=100) == [100, 100, 50]
        assert saturation_curve([], window=100) == []

    def test_diff_counts_key_sets(self):
        a = CoverageMap()
        a.add("state", "x")
        a.add("state", "y")
        b = CoverageMap()
        b.add("state", "y")
        b.add("state", "z")
        b.add("arbiter", "g2:0.1")
        diff = coverage_diff(a.to_state(), b.to_state())
        assert diff["domains"]["state"]["shared"] == 1
        assert diff["domains"]["state"]["new_in_other"] == 1
        assert diff["new_in_other"] == 2
        assert diff["only_in_base"] == 1


# ---------------------------------------------------------------------------
# The guided scheduler
# ---------------------------------------------------------------------------


class TestScheduler:
    def _scheduler(self, seed=3):
        return CoverageScheduler(FuzzGenerator(seed=seed), seed=seed)

    def test_empty_corpus_draws_fresh_stream(self):
        sched = self._scheduler()
        batch = sched.next_batch(4)
        assert [t.name for t in batch] == [
            f"fz3-{i:05d}" for i in range(4)
        ]

    def test_novelty_admits_and_energizes(self):
        sched = self._scheduler()
        [test] = sched.next_batch(1)
        sched.feedback(test, {"state": 5, "transition": 10})
        assert len(sched._corpus) == 1
        assert sched._corpus[0].energy == 15.0

    def test_zero_novelty_builds_fatigue_and_novelty_clears_it(self):
        sched = self._scheduler()
        [test] = sched.next_batch(1)
        shape = shape_key(test)
        sched.feedback(test, {"state": 0})
        sched.feedback(test, {"state": 0})
        assert sched.fatigue[shape] == 2
        sched.feedback(test, {"state": 1})
        assert shape not in sched.fatigue

    def test_fatigue_halves_selection_weight(self):
        sched = self._scheduler()
        [test] = sched.next_batch(1)
        sched.feedback(test, {"state": 8})
        entry = sched._corpus[0]
        base = sched._weight(entry)
        sched.fatigue[entry.shape] = 2
        assert sched._weight(entry) == base / 4

    def test_batches_are_deterministic(self):
        names_a = [
            t.name for batch in range(3) for t in self._scheduler_run(batch_count=1)
        ]
        names_b = [
            t.name for batch in range(3) for t in self._scheduler_run(batch_count=1)
        ]
        assert names_a == names_b

    def _scheduler_run(self, batch_count):
        sched = self._scheduler()
        out = []
        for _ in range(batch_count):
            batch = sched.next_batch(6)
            out.extend(batch)
            for test in batch:
                sched.feedback(test, {"state": 3})
        return out

    def test_mutants_enter_after_feedback(self):
        sched = self._scheduler()
        batch = sched.next_batch(6)
        for test in batch:
            sched.feedback(test, {"state": 10, "transition": 10})
        second = sched.next_batch(8)
        mutants = [t for t in second if "-m" in t.name]
        assert mutants, "energized corpus produced no mutants"
        for mutant in mutants:
            meta = sched.generator.meta[mutant.name]
            assert meta["mode"] == "mutant"
            assert meta["parent"] in {t.name for t in batch}
            mutant.validate()

    def test_load_corpus_skips_bad_records(self):
        sched = self._scheduler()
        good = self._scheduler()
        [test] = good.next_batch(1)
        sched.load_corpus(
            [
                {"energy": 1.0},  # no test
                {"test": {"bogus": True}, "energy": 1.0},  # malformed
                {"test": test.to_dict(), "energy": "NaN-ish"},  # bad energy
                {"test": test.to_dict(), "energy": 4.0},  # valid
            ]
        )
        assert [e.test.name for e in sched._corpus] == [test.name]
        assert sched._corpus[0].energy == 4.0

    def test_corpus_state_round_trips_through_db(self, tmp_path):
        sched = self._scheduler()
        batch = sched.next_batch(3)
        for test in batch:
            sched.feedback(test, {"state": 2})
        db = CoverageDB(str(tmp_path / "cov.json"))
        db.merge(CoverageMap(), corpus=sched.corpus_state())
        resumed = self._scheduler()
        resumed.load_corpus(db.load()["corpus"])
        assert {e.test.name for e in resumed._corpus} == {
            t.name for t in batch
        }


# ---------------------------------------------------------------------------
# Campaign-level determinism and guidance
# ---------------------------------------------------------------------------

#: Fast oracle set that still feeds the arbiter + shape domains.
TRACE_ORACLES = ("operational", "axiomatic", "trace")


def _campaign(jobs=1, guided=True, budget=12, tmp=None, **kwargs):
    config = FuzzConfig(
        seed=29,
        budget=budget,
        oracles=TRACE_ORACLES,
        jobs=jobs,
        trace_samples=4,
        shrink=False,
        coverage=True,
        guided=guided,
        cache_dir=None if tmp is None else str(tmp),
        **kwargs,
    )
    return run_fuzz(config)


class TestCampaignCoverage:
    def test_guided_requires_coverage(self):
        with pytest.raises(ReproError, match="guided"):
            FuzzConfig(guided=True)

    def test_campaign_coverage_deterministic_in_jobs(self):
        serial = _campaign(jobs=1)
        parallel = _campaign(jobs=2)
        assert serial.coverage == parallel.coverage
        assert serial.novelty == parallel.novelty
        assert [d.test.name for d in serial.discrepancies] == [
            d.test.name for d in parallel.discrepancies
        ]

    def test_report_carries_valid_closure(self):
        result = _campaign(jobs=1)
        report = result.report()
        closure = report["coverage"]
        assert validate_coverage_report(closure) == []
        assert closure["guided"] is True
        assert closure["tests"] == result.tests_run
        assert closure["new_keys"] == sum(result.novelty)
        assert closure["new_keys"] > 0

    def test_blind_campaign_reports_unguided(self):
        result = _campaign(jobs=1, guided=False, budget=6)
        assert result.report()["coverage"]["guided"] is False

    def test_campaign_persists_database_and_corpus(self, tmp_path):
        result = _campaign(jobs=1, tmp=tmp_path)
        db = CoverageDB(str(tmp_path / "coverage" / "coverage.json"))
        document = db.load()
        assert db.reset_reason is None
        assert document["campaigns"][0]["seed"] == 29
        assert document["campaigns"][0]["guided"] is True
        assert db.coverage_map().to_state() == result.coverage
        assert document["corpus"], "guided campaign persisted no corpus"

    def test_guided_on_buggy_memory_still_finds_discrepancies(self):
        result = run_fuzz(
            FuzzConfig(
                seed=11,
                budget=6,
                oracles=("operational", "axiomatic", "rtl"),
                memory_variant="buggy",
                shrink=False,
                coverage=True,
                guided=True,
            )
        )
        assert result.discrepancies, "guidance must not mask the seeded bug"
        # No verifier oracle in the set, so coverage comes from the
        # shape domain alone — but it must still be there.
        assert result.coverage["shape"]
