#!/usr/bin/env python
"""Regenerate the golden verdict table (``tests/fixtures/golden_verdicts.json``).

The table pins, for every test in the 56-test paper suite:

* the **model verdicts** — SC-allowed, TSO-allowed, axiomatic-allowed,
  the SC outcome-set size, and operational/axiomatic set agreement;
* the **RTL verdicts** — whether exhaustive Multi-V-scale enumeration
  matches the SC outcome set, on the fixed and buggy memories;
* the **verifier verdicts** — RTLCheck ``bug_found`` /
  ``verified_by_cover`` on both memories, plus a digest of each full
  :class:`~repro.core.results.TestVerification` (see
  :func:`verification_digest`) that pins every verdict, bound,
  transition count, work profile, fired assumption, counterexample,
  and modeled hour.

``tests/test_golden_verdicts.py`` replays the cheap columns on every
tier-1 run and the expensive ones under ``RTLCHECK_GOLDEN_FULL=1``; any
behaviour change in an oracle layer shows up as a diff against this
fixture.  Run this script (and eyeball the diff!) when such a change is
intentional:

    PYTHONPATH=src python tools/regen_golden_verdicts.py [--jobs N]

The full regeneration verifies every test twice with RTLCheck and
enumerates both memory variants — expect tens of minutes on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..",
    "tests",
    "fixtures",
    "golden_verdicts.json",
)

GOLDEN_KIND = "rtlcheck-golden-verdicts"


def strip_seconds(obj):
    """Drop wall-clock fields (every ``*seconds`` key) recursively."""
    if isinstance(obj, dict):
        return {
            k: strip_seconds(v)
            for k, v in obj.items()
            if not k.endswith("seconds")
        }
    if isinstance(obj, list):
        return [strip_seconds(v) for v in obj]
    return obj


def verification_view(result) -> dict:
    """``result.to_dict()`` without timings and observability state —
    everything left is deterministic in the verification inputs."""
    view = strip_seconds(result.to_dict())
    # Observability counters describe the run, not the verdict.
    view.update(counters={}, gauges={})
    return view


def verification_digest(result) -> str:
    """sha256 of :func:`verification_view` (canonical JSON)."""
    text = json.dumps(verification_view(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def compute_row(name: str) -> dict:
    """All golden columns for one suite test (module-level so it runs
    in worker processes)."""
    from repro import RTLCheck, get_test
    from repro.difftest.oracles import (
        axiomatic_verdicts,
        operational_verdicts,
        rtl_verdicts,
    )

    test = get_test(name)
    op_set, sc_ok, tso_ok = operational_verdicts(test)
    ax_set, ax_ok = axiomatic_verdicts(test)
    row = {
        "test": name,
        "threads": test.num_threads,
        "instructions": test.instruction_count(),
        "sc_allowed": sc_ok,
        "tso_allowed": tso_ok,
        "axiomatic_allowed": ax_ok,
        "outcome_count": len(op_set),
        "axiomatic_matches_operational": op_set == ax_set,
    }
    checker = RTLCheck()
    for variant in ("fixed", "buggy"):
        rtl = rtl_verdicts(test, variant)
        row[f"rtl_{variant}_complete"] = rtl.complete
        row[f"rtl_{variant}_matches_sc"] = rtl.complete and (
            rtl.outcomes == op_set
        )
        result = checker.verify_test(test, variant)
        row[f"verifier_{variant}_bug_found"] = result.bug_found
        row[f"verifier_{variant}_verified_by_cover"] = result.verified_by_cover
        row[f"verifier_{variant}_digest"] = verification_digest(result)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1, metavar="N"
    )
    parser.add_argument("-o", "--output", default=FIXTURE, metavar="FILE")
    args = parser.parse_args(argv)

    from repro import paper_suite

    names = [test.name for test in paper_suite()]
    rows = {}
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = {pool.submit(compute_row, name): name for name in names}
            for future in as_completed(futures):
                row = future.result()
                rows[row["test"]] = row
                print(f"[{len(rows)}/{len(names)}] {row['test']}", flush=True)
    else:
        for name in names:
            rows[name] = compute_row(name)
            print(f"[{len(rows)}/{len(names)}] {name}", flush=True)

    document = {
        "schema_version": 1,
        "kind": GOLDEN_KIND,
        "tests": [rows[name] for name in names],
    }
    with open(args.output, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(names)} golden rows to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
