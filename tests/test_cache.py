"""The persistent content-addressed verification cache (`repro.cache`).

Covers the contracts docs/caching.md promises:

* key stability — the same inputs digest identically within a process,
  across processes, and regardless of ``--jobs``;
* invalidation — a different memory variant, µspec model, or engine
  configuration is a different key (never a wrong hit);
* robustness — corrupt and stale entries are dropped and recomputed,
  never crash a run;
* observability — a warm hit replays complete spans/counters, and a
  warm run's report validates with aggregates equal to the cold run's;
* resume — re-running after a mid-campaign ``kill -9`` produces
  verdicts byte-identical (modulo wall-clock) to an uninterrupted run;
* maintenance — LRU ``gc`` evicts oldest-touched entries first.
"""

import functools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cache import (
    CacheStats,
    CheckpointManifest,
    VerificationCache,
    keys,
)
from repro.core.rtlcheck import RTLCheck
from repro.litmus.suite import get_test
from repro.obs.report import suite_report, validate_report
from repro.uspec.model import load_model
from repro.verifier.config import CONFIGS, FULL_PROOF

SRC = Path(__file__).resolve().parent.parent / "src"


def _strip_timings(value):
    """Recursively zero every run-dependent field: wall-clock timings
    (``seconds`` / ``*_seconds``) and ``reach.cache_hits`` (which
    counts transitions *replayed* from a memoized graph instead of
    simulated — a measure of reuse, not of the verified result).
    Everything else in a verdict is deterministic."""
    if isinstance(value, dict):
        return {
            k: 0.0
            if k == "seconds"
            or k.endswith("_seconds")
            or k == "reach.cache_hits"
            else _strip_timings(v)
            for k, v in value.items()
        }
    if isinstance(value, list):
        return [_strip_timings(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# key derivation
# ---------------------------------------------------------------------------


class TestKeys:
    def test_stable_within_process(self):
        rc = RTLCheck()
        test = get_test("mp")
        assert rc.verdict_key(test, "fixed") == rc.verdict_key(test, "fixed")

    def test_stable_across_processes(self):
        test = get_test("mp")
        here = RTLCheck().verdict_key(test, "fixed")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "from repro.core.rtlcheck import RTLCheck\n"
            "from repro.litmus.suite import get_test\n"
            "print(RTLCheck().verdict_key(get_test('mp'), 'fixed'))\n"
        )
        there = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()
        assert here == there

    def test_memory_variant_invalidates(self):
        rc = RTLCheck()
        test = get_test("mp")
        assert rc.verdict_key(test, "fixed") != rc.verdict_key(test, "buggy")

    def test_engine_config_invalidates(self):
        test = get_test("mp")
        assert RTLCheck(config=CONFIGS["Hybrid"]).verdict_key(
            test, "fixed"
        ) != RTLCheck(config=FULL_PROOF).verdict_key(test, "fixed")

    def test_uspec_model_invalidates(self):
        test = get_test("mp")
        assert RTLCheck(model=load_model("multi_vscale")).verdict_key(
            test, "fixed"
        ) != RTLCheck(model=load_model("multi_vscale_tso")).verdict_key(
            test, "fixed"
        )

    def test_litmus_test_invalidates(self):
        rc = RTLCheck()
        assert rc.verdict_key(get_test("mp"), "fixed") != rc.verdict_key(
            get_test("sb"), "fixed"
        )

    def test_reach_key_shared_across_configs(self):
        # One reach graph serves every engine configuration: its key
        # does not involve the config or the µspec model.
        test = get_test("mp")
        key = keys.reach_key(
            test=test,
            memory_variant="fixed",
            design_factory=RTLCheck().design_factory,
            program_mapping_factory=RTLCheck().program_mapping_factory,
        )
        assert "config" not in key  # keys are opaque digests
        assert len(key) == 64 and int(key, 16) >= 0


# ---------------------------------------------------------------------------
# verdict tier: hits, byte identity, observability replay
# ---------------------------------------------------------------------------


class TestVerdictTier:
    def test_warm_hit_is_byte_identical(self, tmp_path):
        cache = VerificationCache(tmp_path)
        rc = RTLCheck(cache=cache)
        test = get_test("mp")
        cold = rc.verify_test(test, "fixed")
        warm = rc.verify_test(test, "fixed")
        assert cache.stats.get("cache.verdict.hits") == 1
        assert json.dumps(cold.to_dict(), sort_keys=True) == json.dumps(
            warm.to_dict(), sort_keys=True
        )
        assert warm.sva_text == cold.sva_text

    def test_observed_hit_replays_obs(self, tmp_path):
        cache = VerificationCache(tmp_path)
        rc = RTLCheck(cache=cache, observe=True)
        test = get_test("sb")
        cold = rc.verify_test(test, "fixed")
        warm = rc.verify_test(test, "fixed")
        assert warm.obs is not None
        assert warm.obs == cold.obs

    def test_unobserved_entry_upgraded_for_observed_run(self, tmp_path):
        cache = VerificationCache(tmp_path)
        test = get_test("mp")
        RTLCheck(cache=cache).verify_test(test, "fixed")
        # The observed run must not accept the unobserved entry ...
        observed = RTLCheck(cache=cache, observe=True)
        result = observed.verify_test(test, "fixed")
        assert result.obs is not None
        assert cache.stats.get("cache.verdict.unobserved_misses") == 1
        # ... and its recompute upgrades the entry in place.
        again = observed.verify_test(test, "fixed")
        assert again.obs == result.obs
        assert cache.stats.get("cache.verdict.hits") == 1

    def test_warm_report_validates_and_matches_cold(self, tmp_path):
        # Satellite regression: a warm run's --report must still carry
        # complete per-test counters, validate, and aggregate exactly
        # like the cold run that populated the cache.
        cache = VerificationCache(tmp_path)
        rc = RTLCheck(cache=cache, observe=True)
        tests = [get_test(n) for n in ("mp", "sb")]
        cold = rc.verify_suite(tests)
        warm = rc.verify_suite(tests)
        cold_report = suite_report(cold, jobs=1)
        warm_report = suite_report(warm, jobs=1, cache=cache.stats.snapshot())
        assert validate_report(cold_report) == []
        assert validate_report(warm_report) == []
        assert json.dumps(cold_report["tests"], sort_keys=True) == json.dumps(
            warm_report["tests"], sort_keys=True
        )
        assert cold_report["aggregates"] == warm_report["aggregates"]
        assert warm_report["cache"]["cache.verdict.hits"] == 2

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache = VerificationCache(tmp_path)
        rc = RTLCheck(cache=cache)
        test = get_test("mp")
        cold = rc.verify_test(test, "fixed")
        [entry] = (tmp_path / "verdicts").rglob("*.json")
        entry.write_bytes(b'{"truncated')
        recomputed = rc.verify_test(test, "fixed")
        assert cache.stats.get("cache.verdict.corrupt") == 1
        assert json.dumps(
            _strip_timings(cold.to_dict()), sort_keys=True
        ) == json.dumps(_strip_timings(recomputed.to_dict()), sort_keys=True)
        # The corrupt file was dropped and rewritten by the recompute.
        assert rc.verify_test(test, "fixed").verified
        assert cache.stats.get("cache.verdict.hits") == 1

    def test_stale_format_dropped(self, tmp_path):
        cache = VerificationCache(tmp_path)
        rc = RTLCheck(cache=cache)
        test = get_test("mp")
        rc.verify_test(test, "fixed")
        [entry] = (tmp_path / "verdicts").rglob("*.json")
        data = json.loads(entry.read_text())
        data["format"] = -1
        entry.write_text(json.dumps(data))
        rc.verify_test(test, "fixed")
        assert cache.stats.get("cache.verdict.stale") == 1
        assert cache.stats.get("cache.verdict.hits") == 0


# ---------------------------------------------------------------------------
# suite: jobs-independence, pool bypass, checkpointing
# ---------------------------------------------------------------------------


class TestSuiteCaching:
    TESTS = ("mp", "sb", "lb")

    def test_warm_hits_regardless_of_jobs(self, tmp_path):
        tests = [get_test(n) for n in self.TESTS]
        cold_rc = RTLCheck(cache=VerificationCache(tmp_path))
        cold = cold_rc.verify_suite(tests, jobs=2)
        # A different jobs value must still hit every verdict.
        warm_rc = RTLCheck(cache=VerificationCache(tmp_path))
        warm = warm_rc.verify_suite(tests, jobs=1)
        assert warm_rc.cache.stats.get("cache.verdict.hits") == len(tests)
        for name in cold:
            assert json.dumps(cold[name].to_dict(), sort_keys=True) == json.dumps(
                warm[name].to_dict(), sort_keys=True
            )

    def test_fully_warm_parallel_run_skips_pool(self, tmp_path, monkeypatch):
        tests = [get_test(n) for n in self.TESTS]
        rc = RTLCheck(cache=VerificationCache(tmp_path))
        rc.verify_suite(tests, jobs=1)
        # A fully-warm run must never spawn a worker.
        import repro.executor as executor_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("process pool dispatched on a warm run")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", boom)
        warm = rc.verify_suite(tests, jobs=4)
        assert set(warm) == {t.name for t in tests}

    def test_checkpoint_manifest_written_and_finished(self, tmp_path):
        tests = [get_test(n) for n in self.TESTS]
        cache = VerificationCache(tmp_path)
        RTLCheck(cache=cache).verify_suite(tests)
        [journal] = (tmp_path / "checkpoints").glob("*.jsonl")
        manifest = CheckpointManifest(journal, journal.stem)
        assert manifest.complete is True
        assert sorted(manifest.completed) == sorted(self.TESTS)
        assert manifest.total == len(tests)

    def test_checkpoint_disabled(self, tmp_path):
        tests = [get_test(n) for n in self.TESTS[:1]]
        cache = VerificationCache(tmp_path)
        RTLCheck(cache=cache).verify_suite(tests, checkpoint=False)
        assert not (tmp_path / "checkpoints").exists()


# ---------------------------------------------------------------------------
# resume after kill (the CLI end to end, SIGKILL mid-campaign)
# ---------------------------------------------------------------------------


class TestResumeAfterKill:
    def _run_suite(self, cache_dir, report, extra=()):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        return subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "suite",
                "--only",
                "mp",
                "sb",
                "lb",
                "--jobs",
                "1",
                "--report",
                str(report),
                *extra,
            ],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_resume_produces_byte_identical_verdicts(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "killed")
        # Start a campaign and SIGKILL it after the first completed test.
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "suite",
                "--only",
                "mp",
                "sb",
                "lb",
                "--jobs",
                "1",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        deadline = time.time() + 120
        for line in proc.stdout:
            if line.startswith("[1/") or time.time() > deadline:
                break
        proc.send_signal(signal.SIGKILL)
        proc.wait()

        resumed = self._run_suite(tmp_path / "killed", tmp_path / "resumed.json")
        assert resumed.returncode == 0, resumed.stderr
        fresh = self._run_suite(tmp_path / "fresh", tmp_path / "fresh.json")
        assert fresh.returncode == 0, fresh.stderr

        resumed_report = json.loads((tmp_path / "resumed.json").read_text())
        fresh_report = json.loads((tmp_path / "fresh.json").read_text())
        assert validate_report(resumed_report) == []
        # Verdicts byte-identical modulo wall-clock timings; counters
        # (part of each test snapshot) must match exactly.
        assert json.dumps(
            _strip_timings(resumed_report["tests"]), sort_keys=True
        ) == json.dumps(_strip_timings(fresh_report["tests"]), sort_keys=True)


# ---------------------------------------------------------------------------
# checkpoint manifests
# ---------------------------------------------------------------------------


class TestCheckpointManifest:
    def test_mark_done_idempotent_and_persistent(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = CheckpointManifest(path, "campaign-a", total=3)
        manifest.mark_done("u1")
        manifest.mark_done("u1")
        manifest.mark_done("u2")
        reloaded = CheckpointManifest(path, "campaign-a")
        assert reloaded.completed == ["u1", "u2"]
        assert reloaded.resumed == 2
        assert reloaded.total == 3
        assert not reloaded.complete

    def test_campaign_mismatch_resets(self, tmp_path):
        path = tmp_path / "m.json"
        CheckpointManifest(path, "campaign-a").mark_done("u1")
        other = CheckpointManifest(path, "campaign-b")
        assert other.completed == []
        assert other.resumed == 0

    def test_finish(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = CheckpointManifest(path, "campaign-a")
        manifest.finish()
        assert CheckpointManifest(path, "campaign-a").complete

    def test_torn_last_line_is_ignored(self, tmp_path):
        # A kill mid-append leaves a partial last line: the units before
        # it stand, the torn one is not counted, and the next append
        # starts on a fresh line.
        path = tmp_path / "m.jsonl"
        manifest = CheckpointManifest(path, "campaign-a", total=3)
        manifest.mark_done("u1")
        manifest.mark_done("u2")
        with open(path, "a") as handle:
            handle.write('{"done": "u')
        reloaded = CheckpointManifest(path, "campaign-a")
        assert reloaded.completed == ["u1", "u2"]
        assert reloaded.total == 3
        reloaded.mark_done("u3")
        assert CheckpointManifest(path, "campaign-a").completed == [
            "u1",
            "u2",
            "u3",
        ]

    def test_journal_appends_one_line_per_unit(self, tmp_path):
        path = tmp_path / "m.jsonl"
        manifest = CheckpointManifest(path, "campaign-a")
        for unit in ("u1", "u2", "u2", "u3"):
            manifest.mark_done(unit)
        manifest.finish()
        manifest.finish()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["campaign"] == "campaign-a"
        assert records[1:] == [
            {"done": "u1"},
            {"done": "u2"},
            {"done": "u3"},
            {"complete": True},
        ]


# ---------------------------------------------------------------------------
# monitor (NFA) and reach tiers
# ---------------------------------------------------------------------------


class TestArtifactTiers:
    def test_monitor_roundtrip_clears_memos(self, tmp_path):
        from repro.sva.monitor import PropertyMonitor

        cache = VerificationCache(tmp_path)
        rc = RTLCheck(cache=cache)
        generated = rc.generate(get_test("mp"))
        directive = generated.assertions[0]
        fresh = PropertyMonitor(directive)
        cache.store_monitor(keys.monitor_key(directive), fresh)
        loaded = cache.load_monitor(keys.monitor_key(directive))
        assert loaded is not None
        assert loaded.verdict_memo_hits == 0
        assert loaded.verdict_memo_misses == 0
        assert all(n.memo_hits == 0 and n.memo_misses == 0 for n in loaded.nfas)

    @pytest.mark.parametrize("memory_variant", ["fixed", "buggy"])
    @pytest.mark.parametrize("name", ["mp", "sb", "iwp24"])
    def test_cold_cached_run_matches_uncached(self, tmp_path, name, memory_variant):
        # A cold observed run on a fresh cache reports exactly what an
        # uncached observed run does, memo counters included
        # (``monitor.verdict_memo_*``, ``nfa.predicate_memo_*``).
        test = get_test(name)
        cache = VerificationCache(tmp_path)
        cached = RTLCheck(cache=cache, observe=True).verify_test(
            test, memory_variant
        )
        uncached = RTLCheck(observe=True).verify_test(test, memory_variant)
        # Monitors are built in place: the nfa tier is never touched.
        assert not (tmp_path / "nfas").exists()
        assert not [n for n in cache.stats.snapshot() if n.startswith("cache.nfa.")]
        assert _strip_timings(cached.to_dict()) == _strip_timings(
            uncached.to_dict()
        )
        assert cached.obs["counters"] == uncached.obs["counters"]
        if not cached.verified_by_cover:
            assert "monitor.verdict_memo_misses" in cached.obs["counters"]
            assert "nfa.predicate_memo_misses" in cached.obs["counters"]

    def test_reach_tier_serves_other_config(self, tmp_path):
        # The graph stored by a Full_Proof run is loaded by a Hybrid
        # run (different verdict key, same reach key) — the config
        # sweep pays design simulation once.
        cache = VerificationCache(tmp_path)
        test = get_test("sb")
        RTLCheck(config=FULL_PROOF, cache=cache).verify_test(test, "fixed")
        assert cache.stats.get("cache.reach.puts") == 1
        hybrid = RTLCheck(config=CONFIGS["Hybrid"], cache=cache)
        result = hybrid.verify_test(test, "fixed")
        assert cache.stats.get("cache.reach.hits") == 1
        assert cache.stats.get("cache.verdict.misses") == 2
        # Warm-graph verdicts report the same totals as a cold run.
        cold = RTLCheck(config=CONFIGS["Hybrid"]).verify_test(test, "fixed")
        assert result.graph_transitions == cold.graph_transitions
        assert result.graph_states == cold.graph_states

    def test_warm_graph_verdict_identical_when_observed(self, tmp_path):
        # Same check under observability: counters recorded off a warm
        # graph must equal the cold run's (graph pickles carry their
        # accumulated counters).
        cache = VerificationCache(tmp_path)
        test = get_test("mp")
        RTLCheck(config=FULL_PROOF, cache=cache).verify_test(test, "fixed")
        warm = RTLCheck(
            config=CONFIGS["Hybrid"], cache=cache, observe=True
        ).verify_test(test, "fixed")
        cold = RTLCheck(config=CONFIGS["Hybrid"], observe=True).verify_test(
            test, "fixed"
        )
        warm_counters = dict(warm.obs["counters"])
        cold_counters = dict(cold.obs["counters"])
        # reach.cache_hits is reuse telemetry: the warm graph replays
        # transitions the cold run simulates.
        warm_counters.pop("reach.cache_hits", None)
        cold_counters.pop("reach.cache_hits", None)
        assert warm_counters == cold_counters


# ---------------------------------------------------------------------------
# difftest oracle tier
# ---------------------------------------------------------------------------


class TestOracleTier:
    def test_oracle_outcomes_cached_and_identical(self, tmp_path):
        from repro.difftest.oracles import evaluate_oracles

        cache = VerificationCache(tmp_path)
        test = get_test("mp")
        cold = evaluate_oracles(test, "fixed", cache=cache)
        warm = evaluate_oracles(test, "fixed", cache=cache)
        # operational + axiomatic + rtl + trace (the verifier layer is
        # cached through the verdict tier, not the oracle tier).
        assert cache.stats.get("cache.oracle.hits") == 4
        assert warm.op_outcomes == cold.op_outcomes
        assert warm.ax_outcomes == cold.ax_outcomes
        assert warm.rtl.outcomes == cold.rtl.outcomes
        assert warm.rtl.states == cold.rtl.states
        assert warm.trace_checks == cold.trace_checks
        assert warm.to_dict() == cold.to_dict()

    def test_design_independent_layers_shared_across_variants(self, tmp_path):
        from repro.difftest.oracles import evaluate_oracles

        cache = VerificationCache(tmp_path)
        test = get_test("mp")
        evaluate_oracles(test, "fixed", oracles=("operational", "axiomatic"), cache=cache)
        evaluate_oracles(test, "buggy", oracles=("operational", "axiomatic"), cache=cache)
        # The buggy-variant run reuses both design-independent entries.
        assert cache.stats.get("cache.oracle.hits") == 2
        assert cache.stats.get("cache.oracle.puts") == 2

    def test_fuzz_campaign_warm_and_resumable(self, tmp_path):
        from repro.difftest import FuzzConfig, run_fuzz

        config = FuzzConfig(
            seed=9,
            budget=3,
            memory_variant="fixed",
            shrink=False,
            cache_dir=str(tmp_path),
        )
        cold = run_fuzz(config)
        assert cold.resumed == 0
        assert cold.cache_stats.get("cache.oracle.puts", 0) > 0
        warm = run_fuzz(config)
        # The cold run finished its journal: the warm run replays a
        # complete campaign and resumes nothing.
        assert warm.resumed == 0
        assert warm.cache_stats.get("cache.verdict.hits") == config.budget
        assert warm.verdict_tally == cold.verdict_tally
        assert warm.verdicts == cold.verdicts


# ---------------------------------------------------------------------------
# maintenance: gc / LRU / clear / stats plumbing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _mp_directive():
    return RTLCheck().generate(get_test("mp")).assertions[0]


class TestMaintenance:
    def _put(self, cache, name, age, tier="oracle"):
        key = keys.digest_payload({"entry": name})
        if tier == "nfa":
            # An entry as older versions left it: verification no
            # longer writes the nfa tier.
            from repro.sva.monitor import PropertyMonitor

            cache.store_monitor(key, PropertyMonitor(_mp_directive()))
        else:
            cache.store_oracle(key, {"name": name})
        path = cache._path(tier, key)
        stamp = time.time() - age
        os.utime(path, (stamp, stamp))
        return key

    def test_gc_evicts_lru_first(self, tmp_path):
        cache = VerificationCache(tmp_path)
        oldest = self._put(cache, "oldest", age=2000, tier="nfa")
        old = self._put(cache, "old", age=1000)
        new = self._put(cache, "new", age=0)
        entry_bytes = cache._path("oracle", new).stat().st_size
        evicted = cache.gc(max_bytes=entry_bytes)
        assert evicted == 2
        assert cache.load_oracle(new) is not None
        assert cache.load_oracle(old) is None
        assert not cache._path("nfa", oldest).exists()
        assert cache.stats.get("cache.evictions") == 2

    def test_hit_touches_entry(self, tmp_path):
        cache = VerificationCache(tmp_path)
        old = self._put(cache, "old", age=1000)
        new = self._put(cache, "new", age=500)
        # Touch the older entry via a hit; the *other* one now evicts.
        assert cache.load_oracle(old) is not None
        entry_bytes = cache._path("oracle", old).stat().st_size
        cache.gc(max_bytes=entry_bytes)
        assert cache.load_oracle(old) is not None
        assert cache.load_oracle(new) is None

    def test_clear_removes_everything(self, tmp_path):
        cache = VerificationCache(tmp_path)
        self._put(cache, "a", age=0)
        self._put(cache, "b", age=0, tier="nfa")
        usage = cache.usage()
        assert usage["nfa"]["entries"] == 1 and usage["nfa"]["bytes"] > 0
        assert usage["total"]["entries"] == 2
        removed = cache.clear()
        assert removed == 2
        assert cache.usage()["total"]["entries"] == 0
        assert not (tmp_path / "nfas").exists()

    def test_max_bytes_bound_self_enforces(self, tmp_path):
        # An instance bound triggers eviction after every write.
        cache = VerificationCache(tmp_path, max_bytes=1)
        cache.store_oracle(keys.digest_payload({"entry": "a"}), {"name": "a"})
        cache.store_oracle(keys.digest_payload({"entry": "b"}), {"name": "b"})
        assert cache.usage()["total"]["entries"] <= 1
        assert cache.stats.get("cache.evictions") >= 1

    def test_stats_pickle_zeroed_for_workers(self, tmp_path):
        import pickle

        cache = VerificationCache(tmp_path)
        cache.stats.bump("cache.verdict.hits", 5)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.root == cache.root
        assert clone.stats.snapshot() == {}

    def test_stats_merge_and_summary(self):
        stats = CacheStats()
        stats.merge({"cache.verdict.hits": 2, "cache.verdict.misses": 1})
        stats.merge({"cache.verdict.hits": 1})
        assert stats.get("cache.verdict.hits") == 3
        assert stats.tier_total("hits") == 3
        assert "verdict 3/4 hits" in stats.summary()
