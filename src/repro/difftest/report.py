"""Fuzz-campaign reports and minimized-reproducer artifacts.

Two JSON document shapes, both schema-versioned alongside the
:mod:`repro.obs` run reports:

* the **campaign report** (kind ``rtlcheck-difftest-report``) — one
  document per ``python -m repro fuzz`` run: configuration, verdict
  tallies, every discrepancy with its full test and minimized
  reproducer, per-oracle errors, and the merged observability counters;
* the **reproducer artifact** (kind ``rtlcheck-difftest-reproducer``) —
  one file per minimized discrepancy, carrying everything needed to
  replay it (seed, index, oracle pair, the minimized litmus test).
  Reproducer artifacts deliberately contain *no timestamps or timing*:
  re-running a campaign with the recorded seed regenerates them
  byte-for-byte, which is itself a regression check on the whole
  generate/evaluate/shrink pipeline.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Optional

from repro.obs.report import (
    DIFFTEST_REPORT_KIND,
    DIFFTEST_REPRODUCER_KIND,
    SCHEMA_VERSION,
)

#: Top-level keys every fuzz report must carry.
_FUZZ_REPORT_KEYS = (
    "schema_version",
    "kind",
    "seed",
    "budget",
    "oracles",
    "memory_variant",
    "jobs",
    "max_states",
    "tests_run",
    "discrepancy_count",
    "discrepancies",
    "oracle_errors",
    "skipped",
    "verdict_tally",
    "counters",
    "wall_seconds",
)


def fuzz_report(result) -> Dict[str, Any]:
    """Assemble the campaign report for a
    :class:`~repro.difftest.runner.FuzzResult`."""
    config = result.config
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": DIFFTEST_REPORT_KIND,
        "seed": config.seed,
        "budget": config.budget,
        "oracles": list(config.oracles),
        "memory_variant": config.memory_variant,
        "jobs": config.jobs,
        "max_states": config.max_states,
        "tests_run": result.tests_run,
        "discrepancy_count": len(result.discrepancies),
        "discrepancies": [entry.to_dict() for entry in result.discrepancies],
        "oracle_errors": [dict(e) for e in result.oracle_errors],
        "skipped": dict(result.skipped),
        "verdict_tally": dict(result.verdict_tally),
        "counters": dict(result.counters),
        "wall_seconds": result.wall_seconds,
        # Additive (validators tolerate extra keys): cache statistics
        # and checkpoint-resume bookkeeping for cached campaigns.
        "cache": dict(result.cache_stats),
        "resumed": result.resumed,
        **_coverage_section(result),
    }


def _coverage_section(result) -> Dict[str, Any]:
    """The additive ``coverage`` key for coverage-collecting campaigns
    (the closure-report document, plus the guided flag), absent
    otherwise so non-coverage reports are byte-identical to before."""
    if result.coverage is None:
        return {}
    from repro.obs.coverage import CoverageMap, closure_report

    return {
        "coverage": closure_report(
            CoverageMap.from_state(result.coverage),
            tests=result.tests_run,
            novelty=result.novelty,
            guided=result.config.guided,
        )
    }


def validate_fuzz_report(report: Mapping[str, Any]) -> List[str]:
    """Shape-check a campaign report; returns problem descriptions
    (empty list == valid).  Mirrors :func:`repro.obs.validate_report`."""
    errors: List[str] = []
    for key in _FUZZ_REPORT_KEYS:
        if key not in report:
            errors.append(f"missing top-level key {key!r}")
    if errors:
        return errors
    if report["schema_version"] != SCHEMA_VERSION:
        errors.append(
            f"schema_version {report['schema_version']!r} != {SCHEMA_VERSION}"
        )
    if report["kind"] != DIFFTEST_REPORT_KIND:
        errors.append(f"kind {report['kind']!r} != {DIFFTEST_REPORT_KIND!r}")
    if report["discrepancy_count"] != len(report["discrepancies"]):
        errors.append(
            f"discrepancy_count {report['discrepancy_count']} != "
            f"{len(report['discrepancies'])} entries"
        )
    if report["tests_run"] > report["budget"]:
        errors.append(
            f"tests_run {report['tests_run']} exceeds budget {report['budget']}"
        )
    for entry in report["discrepancies"]:
        for key in ("kind", "oracles", "test", "discrepancy"):
            if key not in entry:
                errors.append(f"discrepancy entry missing key {key!r}")
    return errors


def reproducer_document(entry) -> Dict[str, Any]:
    """The replayable artifact for one
    :class:`~repro.difftest.runner.DiscrepancyEntry`.  Deterministic
    content: no wall-clock fields, keys emitted sorted."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": DIFFTEST_REPRODUCER_KIND,
        "seed": entry.discrepancy.seed,
        "index": entry.discrepancy.index,
        "memory_variant": entry.memory_variant,
        "discrepancy": entry.discrepancy.to_dict(),
        "test": entry.test.to_dict(),
        "minimized": None if entry.minimized is None else entry.minimized.to_dict(),
        "shrink": None
        if entry.shrink_stats is None
        else {
            k: v
            for k, v in entry.shrink_stats.items()
            if k != "wall_seconds"
        },
    }


def write_reproducer(directory: str, entry) -> str:
    """Write ``entry``'s reproducer artifact under ``directory`` and
    return its path.  The filename is derived from (seed, index, kind)
    only, so replays overwrite rather than accumulate."""
    os.makedirs(directory, exist_ok=True)
    disc = entry.discrepancy
    filename = f"fuzz-{disc.seed}-{disc.index:05d}-{disc.kind}.json"
    path = os.path.join(directory, filename)
    with open(path, "w") as handle:
        json.dump(reproducer_document(entry), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
