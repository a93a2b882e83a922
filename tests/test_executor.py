"""The one unit executor (`repro.executor`) and its failure contract.

The failure-contract pool tests use two workers at most, the
thread-sharing test three.  Unit bodies are module-level
functions of this file, so spawn-started workers can import them.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import RTLCheck, get_test
from repro.cache import CheckpointManifest, VerificationCache
from repro.executor import FAULT_ENV, Executor, UnitFailure
from repro.obs import validate_report
from repro.serve import ServeClient, ThreadedServer, validate_event

SRC = Path(__file__).resolve().parents[1] / "src"


def _square(x, delay=0.0):
    time.sleep(delay)
    return x * x


def _units(count, delays=None):
    delays = delays or [0.0] * count
    return [(f"u{i}", (i, delays[i])) for i in range(count)]


class TestExecutor:
    def test_one_worker_never_creates_a_pool(self, monkeypatch):
        import repro.executor as executor_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a one-worker executor built a pool")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", boom)
        executor = Executor(1)
        assert executor.run(_square, _units(4)) == [0, 1, 4, 9]
        assert executor.counters["pools_spawned"] == 0
        assert executor.counters["units_dispatched"] == 4

    def test_results_come_back_in_unit_order(self):
        # u0 finishes last, so completion order differs from unit order.
        seen = []
        executor = Executor(2)
        try:
            results = executor.run(
                _square,
                _units(4, delays=[1.0, 0.0, 0.0, 0.0]),
                progress=lambda name, _result, _cached: seen.append(name),
            )
        finally:
            executor.shutdown()
        assert results == [0, 1, 4, 9]
        assert seen[-1] == "u0" and sorted(seen) == ["u0", "u1", "u2", "u3"]
        assert executor.counters["pools_spawned"] == 1

    def test_lookup_hits_are_not_dispatched(self, monkeypatch):
        import repro.executor as executor_mod

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", None)
        events = []
        executor = Executor(2)
        results = executor.run(
            _square,
            _units(3),
            lookup=lambda name: None if name == "u2" else -1,
            progress=lambda *event: events.append(event),
        )
        # Two hits answered parent-side, one miss left: it runs
        # in-process, so no pool is ever built.
        assert results == [-1, -1, 4]
        assert events == [("u0", -1, True), ("u1", -1, True), ("u2", 4, False)]
        assert executor.counters["units_dispatched"] == 1

    def test_hard_worker_death_breaks_the_pool_once(self, monkeypatch, tmp_path):
        marker = tmp_path / "exit-once"
        marker.write_text("armed")
        monkeypatch.setenv(FAULT_ENV, f"u1:exit:{marker}")
        journal = CheckpointManifest(tmp_path / "j.jsonl", "campaign")
        executor = Executor(2)
        try:
            results = executor.run(_square, _units(4), journal=journal)
        finally:
            executor.shutdown()
        assert not marker.exists(), "the injected worker death must fire"
        assert results == [0, 1, 4, 9]
        assert executor.counters["pools_broken"] == 1
        assert executor.counters["pools_spawned"] == 2
        assert executor.counters["unit_retries"] >= 1
        assert sorted(journal.completed) == ["u0", "u1", "u2", "u3"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_always_failing_unit_is_a_failure_record(
        self, monkeypatch, tmp_path, jobs
    ):
        monkeypatch.setenv(FAULT_ENV, "u2")
        journal = CheckpointManifest(tmp_path / "j.jsonl", "campaign")
        executor = Executor(jobs)
        try:
            results = executor.run(_square, _units(4), journal=journal)
        finally:
            executor.shutdown()
        assert results[:2] == [0, 1] and results[3] == 9
        failure = results[2]
        assert isinstance(failure, UnitFailure)
        assert failure.unit == "u2"
        assert "after 2 attempt(s)" in failure.error
        assert failure.to_dict()["crashed"] is True
        assert executor.counters["unit_retries"] == 1
        assert executor.counters["pools_broken"] == 0
        # A failed unit is never journaled as done.
        assert sorted(journal.completed) == ["u0", "u1", "u3"]

    def test_in_process_exit_raises_instead_of_exiting(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "u0:exit")
        [failure] = Executor(1, retries=0).run(_square, _units(1))
        assert isinstance(failure, UnitFailure)
        assert "exit" in failure.error

    def test_shared_by_threads(self):
        # The job server's jobs share one executor from several threads:
        # every unit runs once per attempt and lands in its own slot.
        executor = Executor(3)
        results, switch = {}, sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(
                    target=lambda k=k: results.update(
                        {k: executor.run(_square, _units(4))}
                    )
                )
                for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
            executor.shutdown()
        assert results == {k: [0, 1, 4, 9] for k in range(4)}
        assert executor.counters["units_dispatched"] == 16
        assert executor.counters["pools_spawned"] == 1

    def test_shut_down_executor_refuses_work(self):
        executor = Executor(1)
        executor.shutdown()
        with pytest.raises(Exception, match="shut down"):
            executor.run(_square, _units(1))


def _env(cache_dir=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop(FAULT_ENV, None)
    return env


_STDIN_MAIN = """
from repro.errors import ReproError
from repro.executor import Executor

executor = Executor(2)
try:
    executor.run(pow, [("a", (2, 3)), ("b", (3, 2))])
except ReproError as exc:
    print("refused:", exc)
print("pools_spawned", executor.counters["pools_spawned"])
"""


def test_pool_refused_for_a_main_read_from_stdin():
    """Spawn workers cannot re-import a ``python -`` main: the executor
    raises one ReproError instead of spawning a pool whose every unit
    would fail."""
    proc = subprocess.run(
        [sys.executable, "-"],
        input=_STDIN_MAIN,
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "refused: cannot start worker processes" in proc.stdout
    assert "'<stdin>'" in proc.stdout
    assert "pools_spawned 0" in proc.stdout


# ---------------------------------------------------------------------------
# The suite failure contract, end to end through the CLI.
# ---------------------------------------------------------------------------

SUITE = ["mp", "sb", "lb", "iwp24"]


def _suite(cache_dir, report, jobs, fault=None, tests=SUITE):
    env = _env(cache_dir)
    if fault is not None:
        env[FAULT_ENV] = fault
    return subprocess.run(
        [
            sys.executable, "-m", "repro", "suite", "--only", *tests,
            "--jobs", str(jobs), "--report", str(report),
        ],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_suite_failed_units_are_reported_and_resumed(tmp_path, jobs):
    cache_dir = tmp_path / "cache"
    failing = _suite(cache_dir, tmp_path / "failed.json", jobs, "sb,lb:exit")
    assert failing.returncode == 1, failing.stderr
    report = json.loads((tmp_path / "failed.json").read_text())
    assert validate_report(report) == []
    assert [t["test"] for t in report["tests"]] == ["mp", "iwp24"]
    assert [f["test"] for f in report["failed"]] == ["sb", "lb"]
    assert report["aggregates"]["num_tests"] == 2
    # Neither crashed unit was written as a verdict or journaled done.
    cache = VerificationCache(cache_dir)
    rtlcheck = RTLCheck(cache=cache)
    for name in ("sb", "lb"):
        key = rtlcheck.verdict_key(get_test(name), "fixed")
        assert cache.load_verdict(key) is None
    [journal] = (cache_dir / "checkpoints").glob("*.jsonl")
    manifest = CheckpointManifest(journal, journal.stem)
    assert sorted(manifest.completed) == ["iwp24", "mp"]
    assert not manifest.complete

    resumed = _suite(cache_dir, tmp_path / "resumed.json", jobs)
    assert resumed.returncode == 0, resumed.stderr
    assert "verdict 2/4 hits" in resumed.stdout
    assert "resumed 2/4" in resumed.stdout
    report = json.loads((tmp_path / "resumed.json").read_text())
    assert validate_report(report) == []
    assert [t["test"] for t in report["tests"]] == SUITE
    assert "failed" not in report


# ---------------------------------------------------------------------------
# Serve: a parallel fuzz job runs on the server's shared executor.
# ---------------------------------------------------------------------------


def test_parallel_fuzz_job_runs_on_the_shared_executor(tmp_path):
    spec = {
        "kind": "fuzz",
        "params": {
            "seed": 23,
            "budget": 4,
            "oracles": ["operational", "axiomatic"],
            "jobs": 2,
        },
    }
    with ThreadedServer(cache_dir=str(tmp_path / "cache"), jobs=2) as ts:
        client = ServeClient("127.0.0.1", ts.port, timeout=120)
        submission = client.submit(spec)
        assert submission["source"] == "created"
        # The event stream reaches EOF (a forked worker holding a
        # client socket would keep it open).
        events = list(client.events(submission["job"]))
        assert [validate_event(e) for e in events] == [[]] * len(events)
        assert events[-1]["event"] == "done"
        assert client.report(submission["job"])["tests_run"] == 4
        pool = client.stats()["pool"]
        assert pool["units_dispatched"] > 0
        assert pool["pools_spawned"] == 1


def test_replaying_a_complete_suite_is_not_a_resume(tmp_path):
    """A second run of a finished campaign hits every verdict and
    resumes nothing: its journal was complete when it attached."""
    tests = ["mp", "lb"]
    for run in ("cold", "warm"):
        proc = _suite(tmp_path / "cache", tmp_path / f"{run}.json", 1, tests=tests)
        assert proc.returncode == 0, proc.stderr
    assert "cache: verdict 2/2 hits" in proc.stdout
    assert "resumed" not in proc.stdout
