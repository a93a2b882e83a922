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

``--sva-only`` runs no verifier: it rewrites the generation pin
(``tests/fixtures/sva_generation.json``).  For every suite test on
``RTLCheck()`` and on ``RTLCheck.for_tso()``, and for the ``fuzz``
workload's 20 programs on ``RTLCheck()``, it records digests of the
generated ``sva_text``, of the directive-name list, and of the
``repr`` of every axiom's ground formula in the ``"rtl"`` mode the
Assertion Generator uses and the ``"check"`` mode of
:mod:`repro.uhb.verify`, in a few seconds:

    PYTHONPATH=src python tools/regen_golden_verdicts.py --sva-only

``--polycheck-only`` runs no verifier: it rewrites the trace-checker pin
(``tests/fixtures/polycheck_verdicts.json``).  For every program of the
harvest pin it checks, under both ``"sc"`` and ``"tso"``, the traces of
the fixed-memory and buggy-memory harvests plus a seeded batch of
perturbed fixed-memory traces (load values and final memory changed),
and records per batch a digest of every
:class:`~repro.memodel.polycheck.TraceVerdict` field of every trace, in
harvest order, with counts beside it.  The TSO search runs under a
:data:`POLYCHECK_TSO_STATES` budget, so long programs pin the budget
path too.  About ten seconds:

    PYTHONPATH=src python tools/regen_golden_verdicts.py --polycheck-only

``--reach-only`` runs no verifier either: it rewrites the reach-graph
pin (``tests/fixtures/reach_graphs.json``).  For every suite test on
both memory variants it builds the verifier's
:class:`~repro.verifier.reach.ReachGraph` (the default design and the
program mapping's assumptions) in full, expanding nodes in id order,
and records ``num_nodes``, ``sim_transitions``, a sha256 of every
node's edge list (``None`` or ``(input index, child id)``) and a
sha256 of every node's edge frames, items in order.  About ten seconds:

    PYTHONPATH=src python tools/regen_golden_verdicts.py --reach-only
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
SVA_FIXTURE = os.path.join(FIXTURE_DIR, "sva_generation.json")
POLYCHECK_FIXTURE = os.path.join(FIXTURE_DIR, "polycheck_verdicts.json")
REACH_FIXTURE = os.path.join(FIXTURE_DIR, "reach_graphs.json")

GOLDEN_KIND = "rtlcheck-golden-verdicts"
SUITE_KIND = "rtlcheck-paper-suite"
HARVEST_KIND = "rtlcheck-trace-harvest"
RTL_KIND = "rtlcheck-rtl-enumeration"
TSO_KIND = "rtlcheck-tso-verdicts"
SVA_KIND = "rtlcheck-sva-generation"
POLYCHECK_KIND = "rtlcheck-polycheck-verdicts"
REACH_KIND = "rtlcheck-reach-graphs"

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


def text_digest(text: str) -> str:
    """sha256 of ``text``."""
    return hashlib.sha256(text.encode()).hexdigest()


def sva_cases() -> list:
    """``(source, model, test)`` the generation pin covers, in pin
    order: ``model`` is ``"mvs"`` (``RTLCheck()``) or ``"tso"``
    (``RTLCheck.for_tso()``)."""
    from repro import paper_suite
    from repro.difftest.generate import FuzzGenerator

    suite = paper_suite()
    generator = FuzzGenerator(
        RTL_FUZZ["seed"], RTL_FUZZ["max_procs"], RTL_FUZZ["long_programs"]
    )
    cases = [("suite", model, test) for model in ("mvs", "tso") for test in suite]
    cases += [
        ("fuzz", "mvs", test) for test in generator.suite(RTL_FUZZ["count"])
    ]
    return cases


def ground_digest(model, compiled, mode: str) -> str:
    """sha256 of every axiom's ground formula ``repr`` in ``mode``, in
    axiom order; a grounding that raises pins its error message."""
    from repro.errors import ReproError
    from repro.uhb.verify import ground_axioms

    try:
        grounds = ground_axioms(model, compiled, mode=mode)
    except ReproError as exc:
        return text_digest(f"error: {exc}")
    text = json.dumps([[name, repr(ground)] for name, ground in grounds.items()])
    return text_digest(text)


def sva_row(source: str, model: str, test) -> dict:
    """One generation pin row for ``test`` on ``model``."""
    from repro import RTLCheck
    from repro.cache.keys import litmus_digest

    checker = RTLCheck() if model == "mvs" else RTLCheck.for_tso()
    generated = checker.generate(test)
    names = [d.name for d in generated.assumptions + generated.assertions]
    return {
        "test": test.name,
        "source": source,
        "model": model,
        "litmus_digest": litmus_digest(test),
        "assertions": len(generated.assertions),
        "sva_text": text_digest(generated.sva_text),
        "directive_names": text_digest(json.dumps(names)),
        "ground_rtl": ground_digest(checker.model, generated.compiled, "rtl"),
        "ground_check": ground_digest(checker.model, generated.compiled, "check"),
    }


#: The polycheck pin's TSO witness-search budget: the store-buffer
#: search on a long four-thread program can visit tens of thousands of
#: states, so the pin bounds it and records the budget refusals.
POLYCHECK_TSO_STATES = 2_000

#: Perturbed traces the polycheck pin derives from each program's
#: fixed-memory harvest.
POLYCHECK_PERTURBED = 13


def perturbed_traces(test, traces) -> list:
    """``POLYCHECK_PERTURBED`` seeded mutants of ``traces``: each
    changes one or two load values or final memory cells to another
    value a store writes there, the initial value, or (rarely) a value
    nothing writes."""
    import random

    from repro.memodel.polycheck import Trace

    if not traces:
        return []
    rng = random.Random(f"polycheck-perturb:{test.name}")
    addr_of = {op.out: op.addr for t in test.threads for op in t if op.is_load}
    mutants = []
    for _ in range(POLYCHECK_PERTURBED):
        trace = rng.choice(traces)
        regs, memory = dict(trace.load_values), dict(trace.final_memory)
        initial = dict(trace.initial_memory)
        cells = [("r", reg) for reg in sorted(regs)]
        cells += [("m", addr) for addr in sorted(memory)]
        for kind, key in rng.sample(cells, min(len(cells), rng.randint(1, 2))):
            addr = addr_of[key] if kind == "r" else key
            target = regs if kind == "r" else memory
            pool = {initial.get(addr, 0)}
            pool |= {
                op.value
                for t in test.threads
                for op in t
                if op.is_store and op.addr == addr
            }
            pool.add(max(pool) + 1 if rng.random() < 0.1 else target[key])
            choices = sorted(pool - {target[key]})
            if choices:
                target[key] = rng.choice(choices)
        mutants.append(Trace.of(trace.threads, regs, memory, initial))
    return mutants


def polycheck_batch(traces, model: str, max_states: int) -> dict:
    """Every :class:`~repro.memodel.polycheck.TraceVerdict` field of
    ``check_trace(trace, model)`` over ``traces``: a digest of the full
    list (a refused search pins its error message), with counts."""
    from repro.errors import ReproError
    from repro.memodel.polycheck import check_trace

    views = []
    summary = {
        "conformant": 0,
        "closure_rejected": 0,
        "search_states": 0,
        "errors": 0,
    }
    for trace in traces:
        try:
            verdict = check_trace(trace, model, max_states=max_states)
        except ReproError as exc:
            views.append(f"error: {exc}")
            summary["errors"] += 1
            continue
        views.append(
            [
                verdict.conformant,
                verdict.reason,
                verdict.events,
                verdict.closure_rejected,
                verdict.search_states,
            ]
        )
        summary["conformant"] += verdict.conformant
        summary["closure_rejected"] += verdict.closure_rejected
        summary["search_states"] += verdict.search_states
    summary["verdicts"] = text_digest(json.dumps(views))
    return summary


def polycheck_rows(source: str, test) -> list:
    """The polycheck pin's rows for one harvest-pin program: its
    ``fixed`` and ``buggy`` harvests and the ``perturbed`` batch."""
    from repro.cache.keys import litmus_digest
    from repro.memodel.polycheck import DEFAULT_POLYCHECK_STATES
    from repro.vscale.trace import harvest_traces

    fixed = harvest_traces(test, "fixed").traces
    batches = {
        "fixed": fixed,
        "buggy": harvest_traces(test, "buggy").traces,
        "perturbed": perturbed_traces(test, fixed),
    }
    return [
        {
            "test": test.name,
            "source": source,
            "batch": batch,
            "litmus_digest": litmus_digest(test),
            "traces": len(traces),
            "sc": polycheck_batch(traces, "sc", DEFAULT_POLYCHECK_STATES),
            "tso": polycheck_batch(traces, "tso", POLYCHECK_TSO_STATES),
        }
        for batch, traces in batches.items()
    ]


def build_full_graph(test, variant):
    """The verifier's reach graph of ``test`` on memory ``variant``
    (default design, the program mapping's assumptions), every node
    expanded in node-id order."""
    from repro.litmus import compile_test
    from repro.mapping import MultiVScaleProgramMapping
    from repro.sva import AssumptionChecker
    from repro.verifier.reach import ReachGraph
    from repro.vscale.soc import MultiVScale

    compiled = compile_test(test)
    assumptions = MultiVScaleProgramMapping(compiled).all_assumptions()
    graph = ReachGraph(
        MultiVScale(compiled, variant), AssumptionChecker(assumptions)
    )
    node = 0
    while node < graph.num_nodes:
        graph.successors(node)
        node += 1
    return graph


def reach_row(test, variant) -> dict:
    """One reach pin row: the full graph's size and digests of its edge
    lists and of its edge frames, node by node."""
    graph = build_full_graph(test, variant)
    edges = hashlib.sha256()
    frames = hashlib.sha256()
    for node in range(graph.num_nodes):
        successors = graph.successors(node)
        edges.update(
            json.dumps(
                [
                    None if edge is None else [index, edge[1]]
                    for index, edge in enumerate(successors)
                ]
            ).encode()
        )
        frames.update(
            json.dumps(
                [
                    None if edge is None else list(edge[0].items())
                    for edge in successors
                ]
            ).encode()
        )
    return {
        "test": test.name,
        "memory": variant,
        "num_nodes": graph.num_nodes,
        "sim_transitions": graph.sim_transitions,
        "edges_digest": edges.hexdigest(),
        "frames_digest": frames.hexdigest(),
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
    parser.add_argument(
        "--sva-only",
        action="store_true",
        help="write only the SVA generation pin (no verifier runs)",
    )
    parser.add_argument(
        "--polycheck-only",
        action="store_true",
        help="write only the trace-checker pin (no verifier runs)",
    )
    parser.add_argument(
        "--reach-only",
        action="store_true",
        help="write only the reach-graph pin (no verifier runs)",
    )
    parser.add_argument("-o", "--output", default=None, metavar="FILE")
    args = parser.parse_args(argv)

    if args.reach_only:
        from repro import paper_suite

        output = args.output or REACH_FIXTURE
        rows = [
            reach_row(test, variant)
            for test in paper_suite()
            for variant in ("fixed", "buggy")
        ]
        write_document(
            {"schema_version": 1, "kind": REACH_KIND, "tests": rows}, output
        )
        print(f"wrote {len(rows)} reach-graph rows to {output}")
        return 0

    if args.polycheck_only:
        output = args.output or POLYCHECK_FIXTURE
        rows = [
            row
            for source, test in harvest_tests()
            for row in polycheck_rows(source, test)
        ]
        write_document(
            {
                "schema_version": 1,
                "kind": POLYCHECK_KIND,
                "fuzz": HARVEST_FUZZ,
                "perturbed": POLYCHECK_PERTURBED,
                "tso_max_states": POLYCHECK_TSO_STATES,
                "tests": rows,
            },
            output,
        )
        print(f"wrote {len(rows)} polycheck rows to {output}")
        return 0

    if args.sva_only:
        output = args.output or SVA_FIXTURE
        rows = [sva_row(*case) for case in sva_cases()]
        write_document(
            {
                "schema_version": 1,
                "kind": SVA_KIND,
                "fuzz": RTL_FUZZ,
                "tests": rows,
            },
            output,
        )
        print(f"wrote {len(rows)} SVA generation rows to {output}")
        return 0

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
