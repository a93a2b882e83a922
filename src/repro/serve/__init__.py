"""`repro.serve` — verification-as-a-service.

A long-running asyncio job server (``python -m repro serve``) that
accepts verify/suite/fuzz jobs as JSON over a stdlib-only HTTP front
end, dedupes and coalesces identical requests via the content-addressed
cache keys, runs every job's units on one shared executor, streams
per-test progress as NDJSON, and survives kills through the cache's
checkpoint journals.  Responses carry the same schema-versioned reports as the
CLI — byte-identical verdicts to an equivalent local run.  See
``docs/serving.md`` for the operator's manual.
"""

from repro.serve.app import DEFAULT_PORT, Job, JobServer, ThreadedServer
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import (
    JobStore,
    job_key,
    make_event,
    validate_event,
    validate_spec,
)

__all__ = [
    "DEFAULT_PORT",
    "Job",
    "JobServer",
    "JobStore",
    "ServeClient",
    "ServeError",
    "ThreadedServer",
    "job_key",
    "make_event",
    "validate_event",
    "validate_spec",
]
