"""Structured JSON run reports (the machine-readable Figures 13/14).

A run report is a schema-versioned JSON document assembled from
:meth:`TestVerification.to_dict` snapshots plus suite-level aggregates
mirroring the paper's quantitative artifacts:

* **Figure 13** — modeled runtime-to-verification hours per test and in
  total;
* **Figure 14** — the proven / bounded property breakdown (overall
  proven fraction, the surviving bounded proofs' bounds);
* **observability counters** — suite totals that, by construction,
  equal the sum of the per-test counters regardless of how many worker
  processes produced them (:func:`validate_report` checks exactly that
  invariant).

``python -m repro suite --report FILE`` writes one; consumers load it
with :func:`json.load` and, to rehydrate result objects,
:meth:`TestVerification.from_dict`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional

#: Version of both the report document and the ``to_dict`` snapshots.
#: v2 added per-test ``gauges`` (max / ``.last``-merged) alongside the
#: summed counters.
SCHEMA_VERSION = 2

#: Top-level keys every report must carry.
_REPORT_KEYS = (
    "schema_version",
    "kind",
    "config",
    "memory_variant",
    "jobs",
    "tests",
    "aggregates",
)

#: Aggregate keys every report must carry.
_AGGREGATE_KEYS = (
    "num_tests",
    "bugs_found",
    "verified_by_cover",
    "properties_total",
    "properties_proven",
    "properties_bounded",
    "proven_fraction",
    "bounded_bounds",
    "modeled_hours_per_test",
    "modeled_hours_total",
    "wall_seconds_total",
    "counters",
    "gauges",
)

REPORT_KIND = "rtlcheck-run-report"

#: Report kind emitted by ``python -m repro fuzz`` (document shape is
#: owned by :mod:`repro.difftest.report`; the constant lives here so all
#: report kinds written by the toolchain are discoverable in one place).
DIFFTEST_REPORT_KIND = "rtlcheck-difftest-report"

#: Artifact kind of a single minimized discrepancy reproducer.
DIFFTEST_REPRODUCER_KIND = "rtlcheck-difftest-reproducer"

#: Finished-job records persisted by the job server under
#: ``<cache root>/serve/reports/`` (document shape is owned by
#: :mod:`repro.serve.jobs`; the constant lives here with the other
#: report kinds).
SERVE_JOB_KIND = "rtlcheck-serve-job"

#: One NDJSON progress event streamed from ``GET /v1/jobs/<id>/events``.
SERVE_EVENT_KIND = "rtlcheck-serve-event"


def merge_counters(test_dicts: Iterable[Mapping[str, Any]]) -> Dict[str, float]:
    """Sum the per-test counter maps into suite totals."""
    totals: Dict[str, float] = {}
    for test in test_dicts:
        for name, value in test.get("counters", {}).items():
            totals[name] = totals.get(name, 0) + value
    return totals


def merge_gauges(test_dicts: Iterable[Mapping[str, Any]]) -> Dict[str, float]:
    """Merge the per-test gauge maps into suite values: max by default,
    last-write (in iteration order) for ``.last``-suffixed names — the
    same semantics :meth:`TraceRecorder.merge_state` applies to worker
    snapshots, so suite aggregates match regardless of job count."""
    merged: Dict[str, float] = {}
    for test in test_dicts:
        for name, value in test.get("gauges", {}).items():
            current = merged.get(name)
            if current is None or name.endswith(".last"):
                merged[name] = value
            else:
                merged[name] = max(current, value)
    return merged


def _aggregates(test_dicts: List[Mapping[str, Any]]) -> Dict[str, Any]:
    properties_total = sum(len(t["properties"]) for t in test_dicts)
    properties_proven = sum(t["proven_count"] for t in test_dicts)
    bounded_bounds: List[int] = []
    for t in test_dicts:
        bounded_bounds.extend(t["bounded_bounds"])
    return {
        "num_tests": len(test_dicts),
        "bugs_found": sum(1 for t in test_dicts if t["bug_found"]),
        "verified_by_cover": sum(1 for t in test_dicts if t["verified_by_cover"]),
        "properties_total": properties_total,
        "properties_proven": properties_proven,
        "properties_bounded": sum(t["bounded_count"] for t in test_dicts),
        "proven_fraction": (
            properties_proven / properties_total if properties_total else 1.0
        ),
        "bounded_bounds": bounded_bounds,
        "modeled_hours_per_test": {
            t["test"]: t["modeled_hours"] for t in test_dicts
        },
        "modeled_hours_total": sum(t["modeled_hours"] for t in test_dicts),
        "wall_seconds_total": sum(t["wall_seconds"] for t in test_dicts),
        "counters": merge_counters(test_dicts),
        "gauges": merge_gauges(test_dicts),
    }


def suite_report(
    results: Mapping[str, Any],
    config_name: Optional[str] = None,
    memory_variant: Optional[str] = None,
    jobs: Optional[int] = None,
    cache: Optional[Mapping[str, float]] = None,
    coverage: Optional[Mapping[str, Any]] = None,
    failed: Iterable[Any] = (),
) -> Dict[str, Any]:
    """Assemble the run report for ``results`` (name ->
    :class:`~repro.core.results.TestVerification`, as returned by
    :meth:`RTLCheck.verify_suite`).

    ``cache``, when given, is a cache-statistics snapshot
    (:meth:`repro.cache.CacheStats.snapshot`); it is recorded as a
    top-level ``"cache"`` key.  Cache statistics are run-relative (a
    warm run has hits where a cold run had misses), so they live
    *outside* ``aggregates`` and do not participate in the
    aggregate-equals-sum invariant — the ``tests`` array of a fully-warm
    run is byte-identical to the cold run that populated the cache.

    ``failed`` holds the units that ran out of retries
    (:class:`~repro.executor.UnitFailure`); having no verdict, they are
    listed under a top-level ``"failed"`` key, present only when
    non-empty, outside ``tests`` and ``aggregates``.
    """
    ordered = list(results.values())
    test_dicts = [result.to_dict() for result in ordered]
    if config_name is None and ordered:
        config_name = ordered[0].config_name
    if memory_variant is None and ordered:
        memory_variant = ordered[0].memory_variant
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": REPORT_KIND,
        "config": config_name,
        "memory_variant": memory_variant,
        "jobs": jobs,
        "tests": test_dicts,
        "aggregates": _aggregates(test_dicts),
    }
    if cache is not None:
        report["cache"] = dict(cache)
    if coverage is not None:
        # The closure report document; like "cache", it lives outside
        # ``aggregates`` and the aggregate-equals-sum invariant.
        report["coverage"] = dict(coverage)
    failed = [failure.to_dict() for failure in failed]
    if failed:
        report["failed"] = failed
    return report


def validate_report(report: Mapping[str, Any]) -> List[str]:
    """Check a report's shape and its aggregate-equals-sum invariants.

    Returns a list of problem descriptions; an empty list means the
    report is valid.  Used by the CI smoke run and the test suite.
    """
    errors: List[str] = []
    for key in _REPORT_KEYS:
        if key not in report:
            errors.append(f"missing top-level key {key!r}")
    if errors:
        return errors
    if report["schema_version"] != SCHEMA_VERSION:
        errors.append(
            f"schema_version {report['schema_version']!r} != {SCHEMA_VERSION}"
        )
    if report["kind"] != REPORT_KIND:
        errors.append(f"kind {report['kind']!r} != {REPORT_KIND!r}")
    tests = report["tests"]
    aggregates = report["aggregates"]
    for key in _AGGREGATE_KEYS:
        if key not in aggregates:
            errors.append(f"missing aggregate key {key!r}")
    if errors:
        return errors
    expected = _aggregates(tests)
    for key in _AGGREGATE_KEYS:
        got, want = aggregates[key], expected[key]
        if isinstance(want, float):
            ok = abs(got - want) <= 1e-9 * max(1.0, abs(want))
        elif key in ("counters", "gauges"):
            ok = dict(got) == dict(want)
        elif key == "modeled_hours_per_test":
            ok = set(got) == set(want) and all(
                abs(got[k] - want[k]) <= 1e-9 * max(1.0, abs(want[k]))
                for k in want
            )
        else:
            ok = got == want
        if not ok:
            errors.append(
                f"aggregate {key!r} != sum over tests ({got!r} vs {want!r})"
            )
    for test in tests:
        if test.get("schema_version") != SCHEMA_VERSION:
            errors.append(
                f"test {test.get('test')!r} snapshot schema_version "
                f"{test.get('schema_version')!r} != {SCHEMA_VERSION}"
            )
    verdicts = {test.get("test") for test in tests}
    for entry in report.get("failed", []):
        if not isinstance(entry, dict) or entry.get("crashed") is not True:
            errors.append(f"malformed failed unit {entry!r}")
        elif entry.get("test") in verdicts or "error" not in entry:
            errors.append(f"failed unit {entry!r} has a verdict or no error")
    return errors


def write_report(path: str, report: Mapping[str, Any]) -> None:
    """Write ``report`` as JSON to ``path``."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
