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

``--suite-only`` runs no verifier: it rewrites the suite pin
(``tests/fixtures/paper_suite.json``), which maps every suite test to
its litmus digest (the input every cache key hashes) and the diy cycle
it was generated from, in about a second:

    PYTHONPATH=src python tools/regen_golden_verdicts.py --suite-only

``--harvest-only`` runs no verifier either: it rewrites the trace
harvest pin (``tests/fixtures/trace_harvest.json``), a digest of
:func:`repro.vscale.trace.harvest_traces` (grants collected) for the
first 60 long-program fuzz tests and every suite test, on both memory
variants, in a few seconds:

    PYTHONPATH=src python tools/regen_golden_verdicts.py --harvest-only

``--rtl-only`` runs no verifier either: it rewrites the RTL enumeration
pin (``tests/fixtures/rtl_enumeration.json``), a digest of the sorted
outcome set plus ``complete``/``states``/``transitions``/
``drained_states`` of :func:`repro.difftest.oracles.rtl_verdicts` for
every suite test on both memory variants, the first 20 seed-0 fuzz
programs (the ``fuzz`` benchmark workload's) on the fixed memory, and
every suite test on the buggy memory under a 500-state budget (the
budget-trip path), in under a minute:

    PYTHONPATH=src python tools/regen_golden_verdicts.py --rtl-only

``--tso-only`` rewrites the x86-TSO verifier pin
(``tests/fixtures/tso_verdicts.json``): for every suite test on both
store-buffer drain orders (``fifo``, and ``lifo`` through the
``"buggy"`` variant), the :func:`verification_digest` of
``RTLCheck.for_tso()`` plus its logical transitions, states explored
and modeled hours, in a few minutes on one core:

    PYTHONPATH=src python tools/regen_golden_verdicts.py --tso-only
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

FIXTURE_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "tests", "fixtures"
)
FIXTURE = os.path.join(FIXTURE_DIR, "golden_verdicts.json")
SUITE_FIXTURE = os.path.join(FIXTURE_DIR, "paper_suite.json")
HARVEST_FIXTURE = os.path.join(FIXTURE_DIR, "trace_harvest.json")
RTL_FIXTURE = os.path.join(FIXTURE_DIR, "rtl_enumeration.json")
TSO_FIXTURE = os.path.join(FIXTURE_DIR, "tso_verdicts.json")

GOLDEN_KIND = "rtlcheck-golden-verdicts"
SUITE_KIND = "rtlcheck-paper-suite"
HARVEST_KIND = "rtlcheck-trace-harvest"
RTL_KIND = "rtlcheck-rtl-enumeration"
TSO_KIND = "rtlcheck-tso-verdicts"

#: ``RTLCheck.for_tso()`` memory variant per store-buffer drain order.
TSO_DRAINS = {"fifo": "fixed", "lifo": "buggy"}

#: The harvest pin's fuzz slice: ``FuzzGenerator(seed, max_procs,
#: long_programs).suite(count)``, the tests a ``fuzz --long-programs``
#: campaign at seed 0 starts with.
HARVEST_FUZZ = {"seed": 0, "max_procs": 4, "long_programs": True, "count": 60}


#: The RTL pin's fuzz slice: the first ``count`` tests of
#: ``FuzzGenerator(seed, max_procs, long_programs)``, the programs the
#: ``fuzz`` benchmark workload enumerates, on the fixed memory.
RTL_FUZZ = {"seed": 0, "max_procs": 4, "long_programs": False, "count": 20}

#: The RTL pin's budget slice: every suite test on the buggy memory
#: under this ``max_states``, small enough that the budget trips.
RTL_BUDGET = 500


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


def suite_rows() -> list:
    """One row per suite test, in suite order: its litmus digest and
    its diy cycle (``None`` for hand-written tests)."""
    from repro import paper_suite
    from repro.cache.keys import litmus_digest
    from repro.litmus import diy_cycle_of

    rows = []
    for test in paper_suite():
        cycle = diy_cycle_of(test.name)
        rows.append(
            {
                "test": test.name,
                "litmus_digest": litmus_digest(test),
                "diy_cycle": None if cycle is None else list(cycle),
            }
        )
    return rows


def harvest_digest(harvest) -> str:
    """sha256 of a :class:`~repro.vscale.trace.Harvest` as canonical
    JSON: every trace's load values, final and initial memory in harvest
    order, plus ``sampled``/``undrained``/``cycles``/``grant_ngrams``."""
    view = {
        "traces": [
            [
                list(map(list, trace.load_values)),
                list(map(list, trace.final_memory)),
                list(map(list, trace.initial_memory)),
            ]
            for trace in harvest.traces
        ],
        "sampled": harvest.sampled,
        "undrained": harvest.undrained,
        "cycles": harvest.cycles,
        "grant_ngrams": harvest.grant_ngrams,
    }
    text = json.dumps(view, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def harvest_tests() -> list:
    """``(source, test)`` pairs the harvest pin covers, in pin order."""
    from repro import paper_suite
    from repro.difftest.generate import FuzzGenerator

    generator = FuzzGenerator(
        HARVEST_FUZZ["seed"],
        HARVEST_FUZZ["max_procs"],
        HARVEST_FUZZ["long_programs"],
    )
    pairs = [("fuzz", test) for test in generator.suite(HARVEST_FUZZ["count"])]
    pairs += [("suite", test) for test in paper_suite()]
    return pairs


def harvest_rows() -> list:
    """One row per (test, memory variant): the digest of its default
    trace-oracle harvest (seed 0, default samples, grants collected)."""
    from repro.cache.keys import litmus_digest
    from repro.vscale.trace import harvest_traces

    rows = []
    for source, test in harvest_tests():
        for variant in ("fixed", "buggy"):
            harvest = harvest_traces(test, variant, collect_grants=True)
            rows.append(
                {
                    "test": test.name,
                    "source": source,
                    "memory": variant,
                    "litmus_digest": litmus_digest(test),
                    "harvest_digest": harvest_digest(harvest),
                }
            )
    return rows


def outcomes_digest(outcomes) -> str:
    """sha256 of an outcome set as canonical JSON (sorted outcomes)."""
    text = json.dumps(sorted(outcomes))
    return hashlib.sha256(text.encode()).hexdigest()


def rtl_cases() -> list:
    """``(source, test, memory variant, max_states)`` the RTL pin
    covers, in pin order; ``max_states`` is ``None`` for the default
    budget."""
    from repro import paper_suite
    from repro.difftest.generate import FuzzGenerator

    suite = paper_suite()
    generator = FuzzGenerator(
        RTL_FUZZ["seed"], RTL_FUZZ["max_procs"], RTL_FUZZ["long_programs"]
    )
    cases = [
        ("suite", test, variant, None)
        for test in suite
        for variant in ("fixed", "buggy")
    ]
    cases += [
        ("fuzz", test, "fixed", None)
        for test in generator.suite(RTL_FUZZ["count"])
    ]
    cases += [("budget", test, "buggy", RTL_BUDGET) for test in suite]
    return cases


def rtl_row(source, test, variant, max_states) -> dict:
    """One RTL pin row: the enumeration's outcome digest and counts."""
    from repro.cache.keys import litmus_digest
    from repro.difftest.oracles import rtl_verdicts

    kwargs = {} if max_states is None else {"max_states": max_states}
    enum = rtl_verdicts(test, variant, **kwargs)
    return {
        "test": test.name,
        "source": source,
        "memory": variant,
        "max_states": max_states,
        "litmus_digest": litmus_digest(test),
        "outcomes_digest": outcomes_digest(enum.outcomes),
        "outcome_count": len(enum.outcomes),
        "complete": enum.complete,
        "states": enum.states,
        "transitions": enum.transitions,
        "drained_states": enum.drained_states,
    }


def tso_row(name: str, drain: str) -> dict:
    """One TSO pin row: ``RTLCheck.for_tso()`` on suite test ``name``
    with the store buffer draining in ``drain`` order."""
    from repro import RTLCheck, get_test

    variant = TSO_DRAINS[drain]
    result = RTLCheck.for_tso().verify_test(get_test(name), variant)
    walks = [result.cover] + [p.ground_truth for p in result.properties]
    return {
        "test": name,
        "drain": drain,
        "memory": variant,
        "verification_digest": verification_digest(result),
        "transitions": sum(walk.transitions for walk in walks),
        "states_explored": sum(walk.states_explored for walk in walks),
        "modeled_hours": result.modeled_hours,
    }


def write_document(document: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1, metavar="N"
    )
    parser.add_argument(
        "--suite-only",
        action="store_true",
        help="write only the suite pin (no verifier runs)",
    )
    parser.add_argument(
        "--harvest-only",
        action="store_true",
        help="write only the trace harvest pin (no verifier runs)",
    )
    parser.add_argument(
        "--rtl-only",
        action="store_true",
        help="write only the RTL enumeration pin (no verifier runs)",
    )
    parser.add_argument(
        "--tso-only",
        action="store_true",
        help="write only the x86-TSO verifier pin",
    )
    parser.add_argument("-o", "--output", default=None, metavar="FILE")
    args = parser.parse_args(argv)

    if args.tso_only:
        from repro import paper_suite

        output = args.output or TSO_FIXTURE
        rows = [
            tso_row(test.name, drain)
            for test in paper_suite()
            for drain in TSO_DRAINS
        ]
        write_document(
            {"schema_version": 1, "kind": TSO_KIND, "tests": rows}, output
        )
        print(f"wrote {len(rows)} TSO verdict rows to {output}")
        return 0

    if args.rtl_only:
        output = args.output or RTL_FIXTURE
        rows = [rtl_row(*case) for case in rtl_cases()]
        write_document(
            {
                "schema_version": 1,
                "kind": RTL_KIND,
                "fuzz": RTL_FUZZ,
                "budget": RTL_BUDGET,
                "tests": rows,
            },
            output,
        )
        print(f"wrote {len(rows)} RTL enumeration rows to {output}")
        return 0

    if args.harvest_only:
        output = args.output or HARVEST_FIXTURE
        rows = harvest_rows()
        write_document(
            {
                "schema_version": 1,
                "kind": HARVEST_KIND,
                "fuzz": HARVEST_FUZZ,
                "tests": rows,
            },
            output,
        )
        print(f"wrote {len(rows)} harvest rows to {output}")
        return 0

    if args.suite_only:
        output = args.output or SUITE_FIXTURE
        rows = suite_rows()
        write_document(
            {"schema_version": 1, "kind": SUITE_KIND, "tests": rows}, output
        )
        print(f"wrote {len(rows)} suite rows to {output}")
        return 0

    from repro import paper_suite

    output = args.output or FIXTURE
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
    write_document(document, output)
    print(f"wrote {len(names)} golden rows to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
