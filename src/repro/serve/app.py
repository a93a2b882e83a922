"""The asyncio job server: HTTP front end, dedup, sharding, streaming.

Request lifecycle (the dataflow diagram lives in
``docs/architecture.md``; operator documentation in
``docs/serving.md``):

1. **validate** — the JSON body canonicalizes through
   :func:`repro.serve.jobs.validate_spec` (``verify`` becomes a
   one-test suite);
2. **dedup** — :func:`job_key` digests the request's full input
   closure.  An in-flight job with the same key is *coalesced* (the
   new submission attaches to the running computation); a finished
   record under the key is a *cache hit* served straight from disk —
   no worker pool, no recomputation;
3. **run** — suite jobs run :meth:`RTLCheck.verify_suite` and fuzz jobs
   :func:`run_fuzz`, each in a thread, with the server's cache
   directory and its one shared :class:`~repro.executor.Executor`: the
   campaigns' own prefetch, checkpointing, retry and failure contract
   apply unchanged, and ``--jobs`` bounds the worker processes of all
   jobs together;
4. **stream** — every job appends schema-versioned progress events
   (kind ``rtlcheck-serve-event``), served as NDJSON from
   ``GET /v1/jobs/<key>/events``;
5. **report** — the finished document is the *same* schema-versioned
   report the CLI writes (``rtlcheck-run-report`` /
   ``rtlcheck-difftest-report``), persisted under
   ``<cache root>/serve/reports/`` for warm resubmissions.

Resumability: accepted specs are journaled until their job reaches a
terminal state; a restarted server rescans the journal and resubmits,
and each resumed job's units replay from the verdict/oracle tiers and
its checkpoint journal — a killed server loses at most in-flight
units.

The HTTP layer is deliberately stdlib-only (``asyncio.start_server``
plus hand-rolled HTTP/1.1 parsing, ``Connection: close`` on every
response) — this repo has a no-runtime-dependencies contract.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
from typing import Any, AsyncIterator, Dict, Optional, Tuple

from repro.errors import ReproError
from repro.executor import DEFAULT_RETRIES, Executor, UnitFailure
from repro.serve.jobs import (
    JobStore,
    job_key,
    make_event,
    rtlcheck_for,
    validate_spec,
)

#: Default TCP port (``--port`` overrides; ``port=0`` picks a free one).
DEFAULT_PORT = 8357

_REQUEST_TIMEOUT = 30.0


class Job:
    """One accepted job: spec, state machine, and its event log.

    States: ``queued`` → ``running`` → ``done`` | ``failed``.  Events
    are appended only from the event-loop thread (progress from the job
    threads is marshalled in via ``call_soon_threadsafe``), so no
    locking is needed; streamers wait on a fresh :class:`asyncio.Event` per
    appended entry.
    """

    def __init__(self, key: str, spec: Dict[str, Any], source: str):
        self.key = key
        self.spec = spec
        self.source = source
        self.state = "queued"
        self.report: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.stats: Dict[str, Any] = {}
        self.events: list = []
        self.task: Optional[asyncio.Task] = None
        self._new_event = asyncio.Event()

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")

    def emit(self, event_type: str, **fields: Any) -> None:
        self.events.append(
            make_event(self.key, len(self.events), event_type, **fields)
        )
        waiter, self._new_event = self._new_event, asyncio.Event()
        waiter.set()

    async def stream(self, start: int = 0) -> AsyncIterator[Dict[str, Any]]:
        """Replay events from ``start``, then follow live until the job
        reaches a terminal state."""
        index = start
        while True:
            while index < len(self.events):
                yield self.events[index]
                index += 1
            if self.terminal:
                return
            await self._new_event.wait()

    def summary(self) -> Dict[str, Any]:
        return {
            "job": self.key,
            "kind": self.spec["kind"],
            "state": self.state,
            "source": self.source,
            "events": len(self.events),
            "stats": dict(self.stats),
            "error": self.error,
        }


class JobServer:
    """The verification job server (``python -m repro serve``)."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        jobs: int = 2,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        retries: int = DEFAULT_RETRIES,
    ):
        from repro.cache import default_cache_dir

        self.cache_dir = str(cache_dir or default_cache_dir())
        self.host = host
        self.port = port
        self.jobs = jobs
        self.store = JobStore(self.cache_dir)
        self.executor = Executor(jobs, retries=retries)
        self.jobs_by_key: Dict[str, Job] = {}
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "coalesced": 0,
            "cache_hits": 0,
            "completed": 0,
            "failed": 0,
            "resumed_jobs": 0,
        }
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped: Optional[asyncio.Event] = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._resume_pending()

    def _resume_pending(self) -> None:
        """Resubmit specs an interrupted server left in the journal."""
        for key, spec in self.store.pending():
            if key in self.jobs_by_key:
                continue
            try:
                job, source = self.submit(spec)
            except ReproError:
                # The spec no longer validates (e.g. a renamed test) —
                # drop the journal entry rather than wedging restarts.
                self.store.remove_pending(key)
                continue
            if source == "created":
                self.counters["resumed_jobs"] += 1

    async def serve_forever(self) -> None:
        assert self._stopped is not None, "start() must run first"
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Stop accepting requests, cancel running jobs (their pending
        journal entries survive for the next server), shut the executor
        down, and release :meth:`serve_forever`."""
        if self._server is not None:
            self._server.close()
        tasks = [
            job.task
            for job in self.jobs_by_key.values()
            if job.task is not None and not job.task.done()
        ]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self.executor.shutdown(wait=False)
        if self._stopped is not None:
            self._stopped.set()

    # -- submission: validate -> dedup -> run ---------------------------

    def submit(self, payload: Any) -> Tuple[Job, str]:
        """Accept one job document.  Returns ``(job, source)`` where
        ``source`` is ``"created"`` (a fresh computation),
        ``"coalesced"`` (attached to an identical in-flight job), or
        ``"cache"`` (a finished result replayed from memory or disk)."""
        spec = validate_spec(payload)
        key = job_key(spec)
        job = self.jobs_by_key.get(key)
        if job is not None and job.state != "failed":
            if job.terminal:
                self.counters["cache_hits"] += 1
                return job, "cache"
            self.counters["coalesced"] += 1
            return job, "coalesced"
        record = self.store.load_record(key)
        if record is not None:
            job = Job(key, spec, source="cache")
            job.state = "done"
            job.report = record["report"]
            job.stats = dict(record.get("stats") or {})
            job.emit("done", stats=job.stats, source="cache")
            self.jobs_by_key[key] = job
            self.counters["cache_hits"] += 1
            return job, "cache"
        job = Job(key, spec, source="created")
        self.jobs_by_key[key] = job
        self.store.add_pending(key, spec)
        self.counters["submitted"] += 1
        job.task = asyncio.get_running_loop().create_task(self._run_job(job))
        return job, "created"

    async def _run_job(self, job: Job) -> None:
        job.state = "running"
        job.emit(
            "started", job_kind=job.spec["kind"], params=job.spec["params"]
        )
        run = self._run_suite_sync
        if job.spec["kind"] == "fuzz":
            run = self._run_fuzz_sync
        try:
            report = await asyncio.to_thread(
                run, job, asyncio.get_running_loop()
            )
        except asyncio.CancelledError:
            # Server shutdown: the pending journal entry survives, so a
            # restarted server resumes this job from its checkpoints.
            job.error = "cancelled by server shutdown"
            job.state = "failed"
            job.emit("failed", error=job.error)
            raise
        except Exception as exc:
            job.error = str(exc) or repr(exc)
            job.state = "failed"
            self.counters["failed"] += 1
            self.store.remove_pending(job.key)
            job.emit("failed", error=job.error)
        else:
            job.report = report
            self.store.store_record(job.key, job.spec, report, job.stats)
            self.store.remove_pending(job.key)
            job.state = "done"
            self.counters["completed"] += 1
            job.emit("done", stats=dict(job.stats), source="created")

    def _run_suite_sync(self, job: Job, loop: asyncio.AbstractEventLoop):
        """Thread body of a suite job: ``verify_suite`` on the shared
        executor.  A unit out of retries fails the job, not the server."""
        from repro import get_test, obs
        from repro.cache import VerificationCache

        params = job.spec["params"]
        cache = VerificationCache(self.cache_dir)
        rtlcheck = rtlcheck_for(params, cache=cache)
        tests = [get_test(name) for name in params["tests"]]
        cached = []

        def on_unit(_name, result, hit):
            if not isinstance(result, UnitFailure):
                cached.append(hit)
                loop.call_soon_threadsafe(self._emit_unit, job, result, hit)

        results = rtlcheck.verify_suite(
            tests,
            params["memory_variant"],
            executor=self.executor,
            on_unit=on_unit,
        )
        job.stats["resumed"] = results.resumed
        job.stats["units_total"] = len(tests)
        job.stats["units_cached"] = sum(cached)
        if results.failed:
            raise ReproError(
                "; ".join(failure.error for failure in results.failed)
            )
        report = obs.suite_report(
            results,
            config_name=params["config"],
            memory_variant=params["memory_variant"],
            jobs=None,
        )
        problems = obs.validate_report(report)
        if problems:
            raise ReproError(
                "suite job produced an invalid report: " + "; ".join(problems)
            )
        job.stats["bugs_found"] = report["aggregates"]["bugs_found"]
        job.stats["cache"] = cache.stats.snapshot()
        return report

    def _emit_unit(self, job: Job, result, cached: bool) -> None:
        job.emit(
            "unit",
            test=result.test.name,
            summary=result.summary(),
            bug_found=result.bug_found,
            cached=cached,
        )

    def _run_fuzz_sync(self, job: Job, loop: asyncio.AbstractEventLoop):
        """Thread body of a fuzz job: ``run_fuzz`` on the shared
        executor; progress callbacks marshal back onto the event loop as
        stream events."""
        from repro.difftest import FuzzConfig, run_fuzz, validate_fuzz_report

        params = job.spec["params"]
        config = FuzzConfig(
            seed=params["seed"],
            budget=params["budget"],
            oracles=tuple(params["oracles"]),
            memory_variant=params["memory_variant"],
            jobs=params["jobs"],
            long_programs=params["long_programs"],
            trace_samples=params["trace_samples"],
            cache_dir=self.cache_dir,
        )

        def progress(index, name, new=None):
            fields = {"index": index, "test": name}
            if new is not None:
                fields["new_coverage"] = new
            loop.call_soon_threadsafe(
                functools.partial(job.emit, "progress", **fields)
            )

        result = run_fuzz(config, progress=progress, executor=self.executor)
        report = result.report()
        problems = validate_fuzz_report(report)
        if problems:
            raise ReproError(
                "fuzz job produced an invalid report: " + "; ".join(problems)
            )
        job.stats["tests_run"] = result.tests_run
        job.stats["discrepancies"] = len(result.discrepancies)
        job.stats["resumed"] = result.resumed
        job.stats["cache"] = dict(result.cache_stats)
        return report

    # -- HTTP front end -------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), _REQUEST_TIMEOUT
            )
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, target = parts[0].upper(), parts[1]
            content_length = 0
            while True:
                line = await asyncio.wait_for(
                    reader.readline(), _REQUEST_TIMEOUT
                )
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    content_length = int(value.strip())
            body = b""
            if content_length:
                body = await asyncio.wait_for(
                    reader.readexactly(content_length), _REQUEST_TIMEOUT
                )
            await self._route(method, target.split("?", 1)[0], body, writer)
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ConnectionError,
            ValueError,
        ):
            pass
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # a handler bug must not kill the server
            try:
                await self._send_json(writer, 500, {"error": str(exc)})
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _route(self, method: str, path: str, body: bytes, writer) -> None:
        if path == "/v1/healthz" and method == "GET":
            await self._send_json(
                writer,
                200,
                {"status": "ok", "cache_dir": self.cache_dir, "jobs": self.jobs},
            )
            return
        if path == "/v1/stats" and method == "GET":
            await self._send_json(
                writer,
                200,
                {
                    "counters": dict(self.counters),
                    "pool": dict(self.executor.counters),
                    "jobs_known": len(self.jobs_by_key),
                },
            )
            return
        if path == "/v1/jobs" and method == "POST":
            try:
                payload = json.loads(body.decode("utf-8"))
            except ValueError:
                await self._send_json(
                    writer, 400, {"error": "request body is not valid JSON"}
                )
                return
            try:
                job, source = self.submit(payload)
            except ReproError as exc:
                await self._send_json(writer, 400, {"error": str(exc)})
                return
            status = 200 if job.terminal else 202
            await self._send_json(
                writer,
                status,
                {"job": job.key, "state": job.state, "source": source},
            )
            return
        if path == "/v1/jobs" and method == "GET":
            await self._send_json(
                writer,
                200,
                {"jobs": [j.summary() for j in self.jobs_by_key.values()]},
            )
            return
        if path == "/v1/shutdown" and method == "POST":
            await self._send_json(writer, 200, {"status": "stopping"})
            asyncio.get_running_loop().create_task(self.shutdown())
            return
        if path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/"):]
            key, _, tail = rest.partition("/")
            job = self.jobs_by_key.get(key)
            if job is None:
                await self._send_json(
                    writer, 404, {"error": f"unknown job {key!r}"}
                )
                return
            if tail == "":
                await self._send_json(writer, 200, job.summary())
                return
            if tail == "report":
                if job.state == "done":
                    await self._send_json(writer, 200, job.report)
                elif job.state == "failed":
                    await self._send_json(
                        writer, 410, {"error": job.error, "state": "failed"}
                    )
                else:
                    await self._send_json(
                        writer,
                        404,
                        {"error": "job not finished", "state": job.state},
                    )
                return
            if tail == "events":
                await self._stream_events(writer, job)
                return
        await self._send_json(
            writer, 404, {"error": f"no route for {method} {path}"}
        )

    async def _send_json(self, writer, status: int, document: Any) -> None:
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 410: "Gone", 500: "Internal Server Error"}
        payload = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reason.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    async def _stream_events(self, writer, job: Job) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        async for event in job.stream():
            writer.write(
                (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
            )
            await writer.drain()


class ThreadedServer:
    """A :class:`JobServer` on its own event-loop thread — the harness
    the tests and benchmarks drive a real socket through.

    ``stop(hard=True)`` cancels running jobs without draining them
    (their pending journal survives), which is how the kill-and-restart
    tests model a dead server process.
    """

    def __init__(self, **kwargs: Any):
        kwargs.setdefault("port", 0)
        self._kwargs = kwargs
        self.server: Optional[JobServer] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "ThreadedServer":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ReproError("job server did not start within 30s")
        if self._startup_error is not None:
            raise ReproError(f"job server failed to start: {self._startup_error}")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.server = JobServer(**self._kwargs)
        await self.server.start()
        self.port = self.server.port
        self._ready.set()
        await self.server.serve_forever()

    def stop(self) -> None:
        if (
            self.server is not None
            and self.loop is not None
            and self.loop.is_running()
        ):
            future = asyncio.run_coroutine_threadsafe(
                self.server.shutdown(), self.loop
            )
            try:
                future.result(timeout=30)
            except Exception:
                pass
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
