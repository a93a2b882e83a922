"""Job specifications, cache-keyed identity, and the persistent store.

A *job* is one verification request — a suite run (``verify`` is
canonicalized to a one-test suite, so the two coalesce) or a fuzz
campaign — submitted to the job server as a JSON document.  This module
owns three things:

* **validation / canonicalization** (:func:`validate_spec`): every
  parameter is defaulted and checked up front, so a malformed request
  is rejected at submission with a :class:`ReproError` message instead
  of failing mid-campaign;
* **identity** (:func:`job_key`): the content key of a job is a
  :func:`repro.cache.keys.campaign_key` digest over its canonical
  parameters — for suite jobs, the ordered list of per-test *verdict*
  keys, so two requests share a key exactly when every underlying
  verdict computation is shared.  Execution policy (fuzz ``jobs``) is
  deliberately excluded, the same rule the fuzz campaign key follows:
  results are independent of worker count, so requests differing only
  in parallelism coalesce;
* **persistence** (:class:`JobStore`): finished job records live under
  ``<cache root>/serve/reports/<key>.json`` (a warm resubmission is a
  pure disk read — no worker pool, no recomputation), and accepted but
  unfinished specs are journaled under ``<cache root>/serve/pending/``
  so a killed server rescans and resumes them on restart.

Because :func:`campaign_key` folds in the difftest toolchain
fingerprint, any edit to verification code orphans stored job records
the same way it orphans verdict entries — a stale report can never
outlive the logic that produced it.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError

#: Report kinds re-exported from the central registry in
#: :mod:`repro.obs.report` (all toolchain-written kinds are
#: discoverable there).
from repro.obs.report import SCHEMA_VERSION, SERVE_EVENT_KIND, SERVE_JOB_KIND

_MEMORY_VARIANTS = ("fixed", "buggy")

#: Upper bound on a submitted fuzz budget — a server guard, not a
#: campaign limit (the CLI has no such cap).
MAX_FUZZ_BUDGET = 100_000
#: Upper bound on a submitted per-job ``jobs`` value.
MAX_JOB_WORKERS = 64


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ReproError(message)


def _pop_field(params: Dict[str, Any], name: str, default: Any) -> Any:
    return params.pop(name, default)


def validate_spec(payload: Any) -> Dict[str, Any]:
    """Canonicalize one submitted job document.

    Returns ``{"kind": "suite"|"fuzz", "params": {...}}`` with every
    parameter present and validated; raises :class:`ReproError` with a
    client-facing message otherwise.  ``verify`` requests canonicalize
    to a one-test suite, so ``verify mp`` and ``suite --only mp``
    submissions share a job key and coalesce.
    """
    _require(isinstance(payload, dict), "job spec must be a JSON object")
    payload = dict(payload)
    kind = payload.pop("kind", None)
    _require(
        kind in ("verify", "suite", "fuzz"),
        f"job kind must be 'verify', 'suite', or 'fuzz', got {kind!r}",
    )
    params = payload.pop("params", {})
    _require(isinstance(params, dict), "job 'params' must be a JSON object")
    _require(
        not payload,
        f"unknown top-level job keys: {sorted(payload)}",
    )
    params = dict(params)
    if kind == "fuzz":
        return {"kind": "fuzz", "params": _fuzz_params(params)}
    if kind == "verify":
        test = params.pop("test", None)
        _require(
            isinstance(test, str),
            "verify jobs need a 'test' name (string)",
        )
        params["tests"] = [test]
    return {"kind": "suite", "params": _suite_params(params)}


def _suite_params(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro import CONFIGS, get_test, paper_suite

    tests = _pop_field(params, "tests", None)
    if tests is None:
        tests = [test.name for test in paper_suite()]
    _require(
        isinstance(tests, list)
        and tests
        and all(isinstance(name, str) for name in tests),
        "suite 'tests' must be a non-empty list of test names",
    )
    seen = set()
    for name in tests:
        get_test(name)  # raises LitmusError on unknown names
        _require(name not in seen, f"duplicate test name {name!r} in suite job")
        seen.add(name)
    memory_variant = _pop_field(params, "memory_variant", "fixed")
    _require(
        memory_variant in _MEMORY_VARIANTS,
        f"memory_variant must be one of {list(_MEMORY_VARIANTS)}, "
        f"got {memory_variant!r}",
    )
    config = _pop_field(params, "config", "Full_Proof")
    _require(
        config in CONFIGS,
        f"config must be one of {sorted(CONFIGS)}, got {config!r}",
    )
    observe = _pop_field(params, "observe", False)
    _require(isinstance(observe, bool), "'observe' must be a boolean")
    _require(not params, f"unknown suite job params: {sorted(params)}")
    return {
        "tests": list(tests),
        "memory_variant": memory_variant,
        "config": config,
        "observe": observe,
    }


def _fuzz_params(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.difftest import ORACLE_NAMES
    from repro.difftest.oracles import DEFAULT_TRACE_SAMPLES

    seed = _pop_field(params, "seed", 0)
    _require(isinstance(seed, int), "'seed' must be an integer")
    budget = _pop_field(params, "budget", 100)
    _require(
        isinstance(budget, int) and 0 <= budget <= MAX_FUZZ_BUDGET,
        f"'budget' must be an integer in [0, {MAX_FUZZ_BUDGET}]",
    )
    oracles = _pop_field(params, "oracles", list(ORACLE_NAMES))
    _require(
        isinstance(oracles, list)
        and oracles
        and all(o in ORACLE_NAMES for o in oracles),
        f"'oracles' must be a non-empty subset of {list(ORACLE_NAMES)}",
    )
    memory_variant = _pop_field(params, "memory_variant", "fixed")
    _require(
        memory_variant in _MEMORY_VARIANTS,
        f"memory_variant must be one of {list(_MEMORY_VARIANTS)}, "
        f"got {memory_variant!r}",
    )
    long_programs = _pop_field(params, "long_programs", False)
    _require(isinstance(long_programs, bool), "'long_programs' must be a boolean")
    _require(
        not long_programs or "trace" in oracles,
        "long_programs requires the 'trace' oracle",
    )
    trace_samples = _pop_field(params, "trace_samples", DEFAULT_TRACE_SAMPLES)
    _require(
        isinstance(trace_samples, int) and trace_samples >= 1,
        "'trace_samples' must be an integer >= 1",
    )
    jobs = _pop_field(params, "jobs", 1)
    _require(
        isinstance(jobs, int) and 1 <= jobs <= MAX_JOB_WORKERS,
        f"'jobs' must be an integer in [1, {MAX_JOB_WORKERS}]",
    )
    _require(not params, f"unknown fuzz job params: {sorted(params)}")
    return {
        "seed": seed,
        "budget": budget,
        "oracles": list(oracles),
        "memory_variant": memory_variant,
        "long_programs": long_programs,
        "trace_samples": trace_samples,
        "jobs": jobs,
    }


def rtlcheck_for(params: Dict[str, Any], cache=None):
    """The :class:`RTLCheck` instance a canonical suite-job parameter
    set describes."""
    from repro import CONFIGS, RTLCheck

    return RTLCheck(
        config=CONFIGS[params["config"]],
        observe=params["observe"],
        cache=cache,
    )


def job_key(spec: Dict[str, Any]) -> str:
    """The content key of a canonical job spec.

    Suite jobs digest the ordered per-test *verdict keys* — the full
    input closure of every unit of work — plus the report-shaping
    parameters; fuzz jobs digest the campaign parameters minus
    ``jobs`` (worker count never changes results, so it must never
    split the cache).
    """
    from repro.cache import keys as cache_keys

    params = spec["params"]
    if spec["kind"] == "fuzz":
        payload = {k: v for k, v in params.items() if k != "jobs"}
        return cache_keys.campaign_key("serve-fuzz", payload)
    from repro import get_test

    rtlcheck = rtlcheck_for(params)
    payload = {
        "memory_variant": params["memory_variant"],
        "config": params["config"],
        "observe": params["observe"],
        "verdicts": [
            rtlcheck.verdict_key(get_test(name), params["memory_variant"])
            for name in params["tests"]
        ],
    }
    return cache_keys.campaign_key("serve-suite", payload)


#: Envelope keys of a progress event — payload fields may not shadow
#: them (a ``kind=`` payload once silently clobbered the event kind and
#: broke stream validation).
_EVENT_ENVELOPE = ("schema_version", "kind", "job", "seq", "event")


def make_event(job: str, seq: int, event: str, **fields: Any) -> Dict[str, Any]:
    """One schema-versioned NDJSON progress event."""
    clashes = sorted(set(fields) & set(_EVENT_ENVELOPE))
    if clashes:
        raise ReproError(
            f"event payload fields shadow envelope keys: {clashes}"
        )
    document = {
        "schema_version": SCHEMA_VERSION,
        "kind": SERVE_EVENT_KIND,
        "job": job,
        "seq": seq,
        "event": event,
    }
    document.update(fields)
    return document


_EVENT_TYPES = ("started", "unit", "progress", "done", "failed")


def validate_event(event: Any) -> List[str]:
    """Shape-check one streamed progress event (used by tests and the
    CI smoke's NDJSON validation)."""
    errors: List[str] = []
    if not isinstance(event, dict):
        return ["event is not a JSON object"]
    for key in ("schema_version", "kind", "job", "seq", "event"):
        if key not in event:
            errors.append(f"missing event key {key!r}")
    if errors:
        return errors
    if event["schema_version"] != SCHEMA_VERSION:
        errors.append(
            f"schema_version {event['schema_version']!r} != {SCHEMA_VERSION}"
        )
    if event["kind"] != SERVE_EVENT_KIND:
        errors.append(f"kind {event['kind']!r} != {SERVE_EVENT_KIND!r}")
    if event["event"] not in _EVENT_TYPES:
        errors.append(f"unknown event type {event['event']!r}")
    if not isinstance(event["seq"], int) or event["seq"] < 0:
        errors.append(f"seq must be a non-negative integer, got {event['seq']!r}")
    return errors


class JobStore:
    """On-disk job records and the pending-spec journal.

    Lives under ``<cache root>/serve/`` beside the artifact tiers it
    complements.  Records are immutable values under content keys, so
    the same atomic write discipline as :class:`VerificationCache`
    applies: ``tempfile`` + ``os.replace``, reads never crash (corrupt
    or stale records are dropped and treated as misses).
    """

    def __init__(self, cache_root: str):
        self.root = Path(cache_root) / "serve"
        self.reports = self.root / "reports"
        self.pending_dir = self.root / "pending"

    # -- atomic JSON plumbing ------------------------------------------

    def _write(self, path: Path, document: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(document, handle, sort_keys=True)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        os.replace(tmp, path)

    def _read(self, path: Path) -> Optional[Dict[str, Any]]:
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError):
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return document if isinstance(document, dict) else None

    # -- finished job records ------------------------------------------

    def load_record(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored record of a finished job, or ``None``.  Stale
        schema versions are dropped, not reinterpreted."""
        record = self._read(self.reports / f"{key}.json")
        if record is None:
            return None
        if (
            record.get("kind") != SERVE_JOB_KIND
            or record.get("schema_version") != SCHEMA_VERSION
            or record.get("job") != key
            or "report" not in record
        ):
            try:
                (self.reports / f"{key}.json").unlink()
            except OSError:
                pass
            return None
        return record

    def store_record(
        self,
        key: str,
        spec: Dict[str, Any],
        report: Dict[str, Any],
        stats: Dict[str, Any],
    ) -> Dict[str, Any]:
        record = {
            "schema_version": SCHEMA_VERSION,
            "kind": SERVE_JOB_KIND,
            "job": key,
            "spec": spec,
            "report": report,
            "stats": stats,
        }
        self._write(self.reports / f"{key}.json", record)
        return record

    # -- the pending journal -------------------------------------------

    def add_pending(self, key: str, spec: Dict[str, Any]) -> None:
        self._write(self.pending_dir / f"{key}.json", {"job": key, "spec": spec})

    def remove_pending(self, key: str) -> None:
        try:
            (self.pending_dir / f"{key}.json").unlink()
        except OSError:
            pass

    def pending(self) -> List[Tuple[str, Dict[str, Any]]]:
        """Accepted-but-unfinished specs left by an interrupted server,
        in deterministic (key-sorted) order."""
        out: List[Tuple[str, Dict[str, Any]]] = []
        if not self.pending_dir.is_dir():
            return out
        for path in sorted(self.pending_dir.glob("*.json")):
            document = self._read(path)
            if document is None or "spec" not in document:
                continue
            out.append((document.get("job", path.stem), document["spec"]))
        return out
