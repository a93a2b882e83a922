"""End-to-end tests for the verification job server (`repro.serve`).

These drive a real socket: a :class:`ThreadedServer` hosts the asyncio
:class:`JobServer` on its own event-loop thread, and the stdlib
:class:`ServeClient` talks to it over HTTP exactly as ``python -m
repro submit`` does.  The contracts under test are the ISSUE's
acceptance criteria:

* a job's report is byte-identical to an equivalent local
  (CLI-machinery) run sharing the same cache directory;
* identical concurrent submissions coalesce into one computation;
* a warm resubmission is a pure cache hit — a fresh server serving it
  never spawns a single worker process;
* a killed server restarted on the same cache directory resumes its
  pending jobs and converges to the same bytes;
* worker crashes are contained per unit with bounded retry, and an
  exhausted retry fails the job (resubmittable), never the server.
"""

import json
import threading

import pytest

from repro import CONFIGS, RTLCheck, get_test, obs
from repro.cache import VerificationCache
from repro.errors import ReproError
from repro.serve import (
    ServeClient,
    ServeError,
    ThreadedServer,
    job_key,
    make_event,
    validate_event,
    validate_spec,
)
from repro.executor import FAULT_ENV

SUITE_TESTS = ["mp", "sb"]
SUITE_SPEC = {"kind": "suite", "params": {"tests": SUITE_TESTS}}
FUZZ_SPEC = {"kind": "fuzz", "params": {"seed": 3, "budget": 8}}


def canonical(document):
    return json.dumps(document, sort_keys=True)


def scrub_volatile(document):
    """Drop run-relative keys from a difftest report for cross-run
    comparison: wall-clock timings, cache hit/miss statistics (a warm
    run hits where a cold run missed), and the checkpoint ``resumed``
    count.  Everything else — verdicts, tallies, discrepancies — is
    byte-stable."""
    if isinstance(document, dict):
        return {
            key: scrub_volatile(value)
            for key, value in document.items()
            if not key.endswith("seconds")
            and key not in ("cache", "resumed")
        }
    if isinstance(document, list):
        return [scrub_volatile(item) for item in document]
    return document


def cli_suite_report(cache_dir, test_names=SUITE_TESTS, observe=False):
    """The report the CLI machinery produces for the same request on
    the same cache directory — ``verify_suite`` plus ``suite_report``,
    exactly what ``python -m repro suite`` assembles (``observe=True``
    models a local run that passed ``--report``)."""
    rtlcheck = RTLCheck(
        config=CONFIGS["Full_Proof"],
        observe=observe,
        cache=VerificationCache(str(cache_dir)),
    )
    results = rtlcheck.verify_suite([get_test(name) for name in test_names])
    return obs.suite_report(
        results, config_name="Full_Proof", memory_variant="fixed", jobs=None
    )


# ---------------------------------------------------------------------------
# Pure-function layer: spec validation, job identity, event shape.
# ---------------------------------------------------------------------------


class TestValidateSpec:
    def test_suite_defaults_are_canonicalized(self):
        spec = validate_spec({"kind": "suite", "params": {"tests": ["mp"]}})
        assert spec["kind"] == "suite"
        assert spec["params"]["tests"] == ["mp"]
        assert spec["params"]["memory_variant"] == "fixed"
        assert spec["params"]["config"] == "Full_Proof"
        assert spec["params"]["observe"] is False

    def test_suite_defaults_to_full_paper_suite(self):
        spec = validate_spec({"kind": "suite"})
        assert len(spec["params"]["tests"]) >= 50

    def test_verify_canonicalizes_to_one_test_suite(self):
        verify = validate_spec({"kind": "verify", "params": {"test": "mp"}})
        suite = validate_spec({"kind": "suite", "params": {"tests": ["mp"]}})
        assert verify == suite
        assert job_key(verify) == job_key(suite)

    def test_observe_is_part_of_the_job_key(self):
        # An observed job does more work (spans/counters attach to every
        # verdict), so it must not be answered from an unobserved job's
        # stored record — `repro submit suite --observe` sets this flag.
        plain = validate_spec({"kind": "suite", "params": {"tests": ["mp"]}})
        observed = validate_spec(
            {"kind": "suite", "params": {"tests": ["mp"], "observe": True}}
        )
        assert job_key(plain) != job_key(observed)

    def test_fuzz_jobs_param_does_not_split_the_key(self):
        one = validate_spec({"kind": "fuzz", "params": {"seed": 1, "jobs": 1}})
        four = validate_spec({"kind": "fuzz", "params": {"seed": 1, "jobs": 4}})
        assert job_key(one) == job_key(four)
        other_seed = validate_spec({"kind": "fuzz", "params": {"seed": 2}})
        assert job_key(one) != job_key(other_seed)

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {"kind": "nope"},
            {"kind": "suite", "params": {"tests": []}},
            {"kind": "suite", "params": {"tests": ["mp", "mp"]}},
            {"kind": "suite", "params": {"tests": ["no-such-test"]}},
            {"kind": "suite", "params": {"tests": ["mp"], "bogus": 1}},
            {"kind": "suite", "params": {"tests": ["mp"]}, "extra": 1},
            {"kind": "suite", "params": {"tests": ["mp"], "config": "nope"}},
            {"kind": "verify", "params": {}},
            {"kind": "fuzz", "params": {"budget": -1}},
            {"kind": "fuzz", "params": {"budget": 10**9}},
            {"kind": "fuzz", "params": {"oracles": ["astrology"]}},
            {"kind": "fuzz", "params": {"jobs": 0}},
            {"kind": "fuzz", "params": {"long_programs": True, "oracles": ["operational"]}},
            {"kind": "suite", "params": {"tests": ["mp"], "explorer": "graph"}},
            {"kind": "suite", "params": {"tests": ["mp"], "state_backend": "dict"}},
        ],
    )
    def test_malformed_specs_are_rejected(self, payload):
        with pytest.raises(Exception) as excinfo:
            validate_spec(payload)
        assert isinstance(excinfo.value, ReproError) or isinstance(
            excinfo.value, Exception
        )

    def test_suite_key_tracks_verification_inputs(self):
        base = validate_spec({"kind": "suite", "params": {"tests": ["mp"]}})
        buggy = validate_spec(
            {"kind": "suite", "params": {"tests": ["mp"], "memory_variant": "buggy"}}
        )
        hybrid = validate_spec(
            {"kind": "suite", "params": {"tests": ["mp"], "config": "Hybrid"}}
        )
        keys = {job_key(base), job_key(buggy), job_key(hybrid)}
        assert len(keys) == 3


class TestEvents:
    def test_make_event_validates(self):
        event = make_event("k" * 64, 0, "started", job_kind="suite")
        assert validate_event(event) == []

    def test_payload_fields_cannot_shadow_the_envelope(self):
        # Regression: a ``kind=`` payload once clobbered the event kind.
        with pytest.raises(ReproError, match="shadow"):
            make_event("k", 0, "started", kind="suite")

    def test_validate_event_rejects_bad_shapes(self):
        assert validate_event("nope")
        assert validate_event({})
        good = make_event("k", 1, "unit")
        assert validate_event({**good, "event": "exploded"})
        assert validate_event({**good, "seq": -1})
        assert validate_event({**good, "schema_version": 999})
        assert validate_event({**good, "kind": "other"})


# ---------------------------------------------------------------------------
# One shared server for the happy-path lifecycle tests (spawn-started
# workers are expensive; these tests share the pool and the cache).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("serve-cache")


@pytest.fixture(scope="module")
def server(shared_cache):
    with ThreadedServer(cache_dir=str(shared_cache), jobs=2) as ts:
        yield ts


@pytest.fixture(scope="module")
def client(server):
    return ServeClient("127.0.0.1", server.port, timeout=300)


class TestJobLifecycle:
    def test_healthz(self, client, shared_cache):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["cache_dir"] == str(shared_cache)

    def test_suite_job_end_to_end(self, client):
        seen = []
        submission, report = client.run(SUITE_SPEC, on_event=seen.append)
        assert submission["source"] == "created"
        assert obs.validate_report(report) == []
        assert report["aggregates"]["num_tests"] == len(SUITE_TESTS)
        assert [t["test"] for t in report["tests"]] == SUITE_TESTS
        # The NDJSON stream: schema-valid events, one per unit, with
        # monotonically increasing seq and a terminal "done".
        assert [validate_event(e) for e in seen] == [[]] * len(seen)
        assert [e["seq"] for e in seen] == list(range(len(seen)))
        kinds = [e["event"] for e in seen]
        assert kinds[0] == "started" and kinds[-1] == "done"
        assert kinds.count("unit") == len(SUITE_TESTS)

    def test_warm_resubmission_is_a_cache_hit(self, client):
        first = client.run(SUITE_SPEC)[1]
        submission, report = client.run(SUITE_SPEC)
        assert submission["source"] == "cache"
        assert canonical(report) == canonical(first)

    def test_report_matches_cli_byte_for_byte(self, client, shared_cache):
        """The served verdicts ARE the CLI's verdicts: replaying the
        same request through ``verify_suite`` on the same cache
        directory reproduces the report byte-for-byte — including
        modeled timings, which the verdict cache replays verbatim."""
        server_report = client.run(SUITE_SPEC)[1]
        assert canonical(server_report) == canonical(
            cli_suite_report(shared_cache)
        )

    def test_observed_report_matches_observed_cli_run(
        self, client, shared_cache
    ):
        """An ``"observe": true`` job reproduces a local ``--report``
        run byte-for-byte: every served verdict carries the full
        span/counter snapshot the CLI would attach."""
        spec = {
            "kind": "suite",
            "params": {"tests": ["mp"], "observe": True},
        }
        report = client.run(spec)[1]
        (entry,) = [t for t in report["tests"] if t["test"] == "mp"]
        assert entry["counters"], "observed verdict carries no counters"
        assert canonical(report) == canonical(
            cli_suite_report(shared_cache, ["mp"], observe=True)
        )

    def test_concurrent_identical_submissions_coalesce(self, client):
        spec = {"kind": "suite", "params": {"tests": ["lb", "n1", "iwp24"]}}
        before = client.stats()["counters"]
        sources, errors = [], []

        def submit():
            try:
                sources.append(client.submit(spec)["source"])
            except Exception as exc:  # surfaces in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # One submission creates the computation; the others attach to
        # it (either mid-flight or, if it already finished, as cache
        # hits) — never a second computation.
        assert sorted(sources)[:1] == ["created"] or "created" in sources
        assert sources.count("created") == 1
        after = client.stats()["counters"]
        assert after["submitted"] == before["submitted"] + 1
        assert (
            after["coalesced"] + after["cache_hits"]
            >= before["coalesced"] + before["cache_hits"] + 2
        )
        # Every submitter reads the same bytes.
        key = job_key(validate_spec(spec))
        client.wait(key, timeout=300)
        reports = [client.report(key) for _ in range(3)]
        assert len({canonical(r) for r in reports}) == 1

    def test_fuzz_job_end_to_end(self, client):
        from repro.difftest import validate_fuzz_report

        seen = []
        submission, report = client.run(FUZZ_SPEC, on_event=seen.append)
        assert submission["source"] == "created"
        assert validate_fuzz_report(report) == []
        assert report["tests_run"] == FUZZ_SPEC["params"]["budget"]
        assert [validate_event(e) for e in seen] == [[]] * len(seen)
        assert sum(1 for e in seen if e["event"] == "progress") > 0
        # Identical resubmission: pure cache hit, byte-identical.
        resubmission, again = client.run(FUZZ_SPEC)
        assert resubmission["source"] == "cache"
        assert canonical(again) == canonical(report)
        # Worker count is execution policy, not identity: the same
        # campaign at jobs=2 coalesces onto the stored record.
        parallel = dict(FUZZ_SPEC, params=dict(FUZZ_SPEC["params"], jobs=2))
        assert client.run(parallel)[0]["source"] == "cache"

    def test_fuzz_report_matches_cli_modulo_wall_clock(
        self, client, shared_cache
    ):
        from repro.difftest import ORACLE_NAMES, FuzzConfig, run_fuzz

        server_report = client.run(FUZZ_SPEC)[1]
        config = FuzzConfig(
            seed=FUZZ_SPEC["params"]["seed"],
            budget=FUZZ_SPEC["params"]["budget"],
            oracles=tuple(ORACLE_NAMES),
            cache_dir=str(shared_cache),
        )
        cli_report = run_fuzz(config).report()
        assert canonical(scrub_volatile(server_report)) == canonical(
            scrub_volatile(cli_report)
        )

    def test_status_and_listing(self, client):
        key = client.submit(SUITE_SPEC)["job"]
        summary = client.status(key)
        assert summary["job"] == key
        assert summary["state"] == "done"
        assert summary["kind"] == "suite"
        assert any(j["job"] == key for j in client.jobs()["jobs"])

    def test_event_replay_of_finished_job_terminates(self, client):
        key = client.submit(SUITE_SPEC)["job"]
        events = list(client.events(key))
        assert events, "finished job must replay its event log"
        assert events[-1]["event"] in ("done", "failed")

    def test_malformed_submission_is_a_client_error(self, client):
        with pytest.raises(ServeError, match="400"):
            client.submit({"kind": "suite", "params": {"tests": ["zzz-none"]}})
        with pytest.raises(ServeError, match="404"):
            client.status("not-a-job-key")

    def test_state_backend_param_is_a_client_error(self, client):
        # One state representation: the retired backend knob is an
        # unknown parameter on every job kind.
        for kind, params in (("suite", {"tests": ["mp"]}), ("fuzz", {"budget": 1})):
            spec = {"kind": kind, "params": {**params, "state_backend": "array"}}
            with pytest.raises(ServeError, match="400") as excinfo:
                client.submit(spec)
            assert f"unknown {kind} job params" in str(excinfo.value)

    def test_report_of_unknown_job_is_404(self, client):
        with pytest.raises(ServeError, match="404"):
            client.report("0" * 64)


# ---------------------------------------------------------------------------
# Warm-path contract: a fresh server on a warm cache never spawns a
# worker process.
# ---------------------------------------------------------------------------


def test_warm_job_on_fresh_server_spawns_no_workers(tmp_path):
    cache_dir = str(tmp_path / "cache")
    with ThreadedServer(cache_dir=cache_dir, jobs=2) as cold:
        cold_client = ServeClient("127.0.0.1", cold.port, timeout=300)
        cold_report = cold_client.run(SUITE_SPEC)[1]
        assert cold_client.stats()["pool"]["pools_spawned"] == 1
    with ThreadedServer(cache_dir=cache_dir, jobs=2) as warm:
        warm_client = ServeClient("127.0.0.1", warm.port, timeout=300)
        submission, warm_report = warm_client.run(SUITE_SPEC)
        assert submission["source"] == "cache"
        assert canonical(warm_report) == canonical(cold_report)
        pool = warm_client.stats()["pool"]
        assert pool["pools_spawned"] == 0
        assert pool["units_dispatched"] == 0


# ---------------------------------------------------------------------------
# Kill-and-restart resume.
# ---------------------------------------------------------------------------


def _wait_cache_quiesce(cache_dir, settle=2.0, timeout=60.0):
    """Wait until nothing writes to ``cache_dir`` for ``settle``
    seconds.  A hard server stop abandons in-flight pool workers
    (``shutdown(wait=False)`` models a kill); they may still finish
    their unit and write its verdict.  Those writes are valid cache
    entries, but a byte-identity test needs a stable disk state before
    the second server starts."""
    import os
    import time

    def snapshot():
        state = []
        for root, _dirs, files in os.walk(cache_dir):
            for name in files:
                path = os.path.join(root, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                state.append((path, stat.st_mtime_ns, stat.st_size))
        return sorted(state)

    deadline = time.monotonic() + timeout
    last = snapshot()
    stable_since = time.monotonic()
    while time.monotonic() < deadline:
        time.sleep(0.2)
        current = snapshot()
        if current != last:
            last = current
            stable_since = time.monotonic()
        elif time.monotonic() - stable_since >= settle:
            return
    raise AssertionError(f"cache dir {cache_dir} did not quiesce")


def test_killed_server_resumes_pending_jobs_byte_identically(tmp_path):
    cache_dir = str(tmp_path / "cache")
    spec = {"kind": "suite", "params": {"tests": ["mp", "sb", "lb"]}}
    first = ThreadedServer(cache_dir=cache_dir, jobs=2).start()
    try:
        submission = ServeClient("127.0.0.1", first.port, timeout=300).submit(
            spec
        )
        key = submission["job"]
        assert submission["source"] == "created"
    finally:
        # Hard stop mid-job: running tasks are cancelled, the pending
        # journal entry survives — this models a killed process.
        first.stop()
    _wait_cache_quiesce(cache_dir)
    with ThreadedServer(cache_dir=cache_dir, jobs=2) as second:
        client = ServeClient("127.0.0.1", second.port, timeout=300)
        assert client.stats()["counters"]["resumed_jobs"] == 1
        final = client.wait(key, timeout=300)
        assert final["state"] == "done"
        report = client.report(key)
        assert obs.validate_report(report) == []
        # Converges to the same bytes as a straight CLI replay over the
        # same cache — resume changed nothing observable.
        assert canonical(report) == canonical(
            cli_suite_report(cache_dir, ["mp", "sb", "lb"])
        )
        # ...and the journal entry is consumed: nothing left pending.
        assert second.server.store.pending() == []


# ---------------------------------------------------------------------------
# Crash containment and bounded retry.
# ---------------------------------------------------------------------------


def test_crashed_unit_is_retried_once_and_job_completes(tmp_path, monkeypatch):
    marker = tmp_path / "crash-once"
    marker.write_text("armed")
    monkeypatch.setenv(FAULT_ENV, f"sb:{marker}")
    with ThreadedServer(cache_dir=str(tmp_path / "cache"), jobs=1) as ts:
        client = ServeClient("127.0.0.1", ts.port, timeout=300)
        submission, report = client.run(
            {"kind": "suite", "params": {"tests": ["sb"]}}
        )
        assert obs.validate_report(report) == []
        pool = client.stats()["pool"]
        assert pool["unit_retries"] == 1
        # A picklable exception is contained without breaking the pool
        # (``pools_broken`` counts hard worker deaths only).
        assert pool["pools_broken"] == 0
    assert not marker.exists(), "the injected crash must have fired"


def test_exhausted_retries_fail_the_job_not_the_server(tmp_path, monkeypatch):
    marker = tmp_path / "crash-once"
    marker.write_text("armed")
    monkeypatch.setenv(FAULT_ENV, f"sb:{marker}")
    spec = {"kind": "suite", "params": {"tests": ["sb"]}}
    with ThreadedServer(cache_dir=str(tmp_path / "cache"), jobs=1, retries=0) as ts:
        client = ServeClient("127.0.0.1", ts.port, timeout=300)
        key = client.submit(spec)["job"]
        final = client.wait(key, timeout=300)
        assert final["state"] == "failed"
        assert "sb" in final["error"]
        with pytest.raises(ServeError, match="410"):
            client.report(key)
        # The server survives, and a failed job is resubmittable: the
        # crash marker is consumed, so the retry now succeeds.
        assert client.submit(spec)["source"] == "created"
        assert client.wait(key, timeout=300)["state"] == "done"
        assert obs.validate_report(client.report(key)) == []


def test_fuzz_crash_retries_recover_the_campaign(tmp_path, monkeypatch):
    from repro.difftest import FuzzConfig, run_fuzz
    from repro.difftest import FuzzGenerator

    victim = FuzzGenerator(11).suite(3)[1].name
    marker = tmp_path / "crash-once"
    marker.write_text("armed")
    monkeypatch.setenv(FAULT_ENV, f"{victim}:{marker}")
    # The default retry (1) recovers the one-shot crash.
    config = FuzzConfig(seed=11, budget=3, shrink=False)
    result = run_fuzz(config)
    assert not marker.exists(), "the injected crash must have fired"
    assert result.tests_run == 3
    assert not [e for e in result.oracle_errors if e.get("crashed")]
    assert result.skipped.get("worker_crashed", 0) == 0
