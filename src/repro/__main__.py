"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    List the 56-test suite with thread/op counts and SC verdicts.
``show <test>``
    Pretty-print one litmus test.
``generate <test> [-o FILE]``
    Run the Assumption/Assertion Generators and emit SystemVerilog.
``verify <test> [--memory buggy|fixed] [--config Hybrid|Full_Proof]``
    End-to-end RTLCheck verification of one test.
``microarch <test>``
    Check-style µhb verification at the microarchitecture level.
``suite [--memory ...] [--config ...] [--jobs N] [--only TEST ...]``
    Verify the 56-test suite (or a subset) with per-test progress
    lines; ``--jobs N`` verifies tests in parallel worker processes.
    A test that fails even on retry is a failed unit: no verdict, exit 1.
``fuzz [--seed N] [--budget N] [--oracles ...] [--jobs N] [--long-programs]``
    Differential litmus fuzzing: generate seeded random tests and
    cross-check the operational, axiomatic, RTL-simulation, verifier,
    and sampled-trace layers against each other; discrepancies are
    shrunk to minimal reproducers (``--reproducers DIR`` writes them as
    replayable JSON artifacts).  ``--long-programs`` mixes in 8-16
    instruction-per-thread tests that only the trace oracle can judge.
    Exits non-zero iff a discrepancy was found.  See
    ``docs/difftest.md``.
``cache {stats,gc,clear}``
    Inspect and maintain the persistent verification cache: per-tier
    entry counts and sizes (``stats``), size-bounded LRU eviction
    (``gc --max-bytes N``), or full removal (``clear``).  See
    ``docs/caching.md``.
``coverage {report,diff,merge}``
    Inspect the persistent microarchitectural coverage database:
    closure report over every merged campaign (``report``), key-set
    diff of two coverage documents (``diff``), and offline merge of
    databases/reports (``merge``).  See ``docs/observability.md``.
``serve [--host H] [--port N] [--jobs N] [--cache-dir DIR]``
    Run the verification job server: accepts verify/suite/fuzz jobs as
    JSON over HTTP, dedupes identical requests via cache keys, runs
    every job's units on one shared worker pool, streams NDJSON
    progress, and resumes interrupted jobs on restart.  See ``docs/serving.md``.
``submit {suite,verify,fuzz} [--host H] [--port N] ...``
    Submit one job to a running server, stream its progress, and fetch
    the final report (the same schema-versioned document the local CLI
    writes).  Exit codes mirror the local commands.

Observability (``verify`` and ``suite``): ``--report FILE`` writes a
schema-versioned JSON run report (the machine-readable Figures 13/14;
written even when counterexamples make the command exit non-zero),
``--trace FILE`` writes a Chrome trace-event file loadable in
Perfetto, and ``--metrics`` prints the merged observability counters
and gauges.  ``--coverage`` additionally collects microarchitectural
coverage maps (reach-graph states/transitions, assumption firings,
litmus shapes; arbiter grant interleavings under ``fuzz``), prints the
closure summary, and — with ``--coverage-report FILE`` — writes the
JSON closure report.  ``fuzz --guided`` turns the coverage signal into
feedback: novel tests seed an energy-weighted mutation corpus.
See ``docs/observability.md``.

Caching (``verify``, ``suite``, ``fuzz``): verification artifacts are
memoized under ``--cache-dir`` (default ``$REPRO_CACHE_DIR``, else
``~/.cache/rtlcheck-repro``), making warm re-runs near-instant and
interrupted campaigns resumable; ``--no-cache`` computes everything
cold.  See ``docs/caching.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro import CONFIGS, RTLCheck, get_test, paper_suite
from repro.executor import DEFAULT_RETRIES, UnitFailure
from repro.litmus import compile_test
from repro.memodel import sc_allowed
from repro.uhb import microarch_observable
from repro.uspec import multi_vscale_model
from repro.verifier.config import DEFAULT_SUITE_JOBS


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="verification cache directory (default: $REPRO_CACHE_DIR, "
        "else ~/.cache/rtlcheck-repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the verification cache for this run",
    )


def _cache_from_args(args):
    """The :class:`VerificationCache` selected by the common cache
    flags, or ``None`` under ``--no-cache``."""
    if args.no_cache:
        return None
    from repro.cache import VerificationCache

    return VerificationCache(args.cache_dir)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--memory",
        choices=["buggy", "fixed"],
        default="fixed",
        help="Multi-V-scale memory variant (default: fixed)",
    )
    parser.add_argument(
        "--config",
        choices=sorted(CONFIGS),
        default="Full_Proof",
        help="verifier engine configuration (default: Full_Proof)",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        help="write a schema-versioned JSON run report to FILE",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome trace-event (Perfetto) file to FILE",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the merged observability counters and gauges",
    )
    _add_coverage_flags(parser)
    _add_cache_flags(parser)


def _add_coverage_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--coverage",
        action="store_true",
        help="collect microarchitectural coverage maps and print the "
        "closure summary",
    )
    parser.add_argument(
        "--coverage-report",
        metavar="FILE",
        help="write the JSON closure report to FILE (implies --coverage)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RTLCheck reproduction (MICRO 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the 56-test suite")

    show = sub.add_parser("show", help="pretty-print one litmus test")
    show.add_argument("test")

    generate = sub.add_parser("generate", help="emit generated SVA")
    generate.add_argument("test")
    generate.add_argument("-o", "--output", help="write to file instead of stdout")
    generate.add_argument(
        "--with-design",
        action="store_true",
        help="emit the Verilog design together with the properties",
    )
    generate.add_argument(
        "--memory",
        choices=["buggy", "fixed"],
        default="fixed",
        help="memory variant for --with-design (default: fixed)",
    )

    verify = sub.add_parser("verify", help="verify one litmus test")
    verify.add_argument("test")
    _add_common(verify)
    verify.add_argument(
        "--no-cover-shortcut",
        action="store_true",
        help="always run the proof phase",
    )

    microarch = sub.add_parser("microarch", help="µhb-level verification")
    microarch.add_argument("test")

    lint = sub.add_parser("lint", help="check a µspec model's SVA synthesizability")
    lint.add_argument(
        "model",
        nargs="?",
        default="multi_vscale",
        help="bundled model name or path to a .uspec file",
    )

    suite = sub.add_parser("suite", help="verify the whole suite")
    _add_common(suite)
    suite.add_argument(
        "--jobs",
        type=int,
        default=DEFAULT_SUITE_JOBS,
        metavar="N",
        help="verify N tests in parallel worker processes (default: 1)",
    )
    suite.add_argument(
        "--only",
        nargs="+",
        metavar="TEST",
        help="restrict the run to these test names (e.g. CI smoke runs)",
    )

    from repro.difftest import ORACLE_NAMES

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing across the semantics layers"
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="campaign seed; together with --budget it fully determines "
        "the generated tests and minimized reproducers (default: 0)",
    )
    fuzz.add_argument(
        "--budget",
        type=int,
        default=100,
        metavar="N",
        help="number of tests to generate and cross-check (default: 100)",
    )
    fuzz.add_argument(
        "--oracles",
        nargs="+",
        choices=list(ORACLE_NAMES),
        default=list(ORACLE_NAMES),
        metavar="ORACLE",
        help=f"oracle layers to run (default: all of {list(ORACLE_NAMES)})",
    )
    fuzz.add_argument(
        "--memory",
        choices=["buggy", "fixed"],
        default="fixed",
        help="Multi-V-scale memory variant under test (default: fixed)",
    )
    fuzz.add_argument(
        "--long-programs",
        action="store_true",
        help="mix in long-program tests (8-16 instructions per thread); "
        "requires the trace oracle, which is the only layer that can "
        "evaluate them",
    )
    fuzz.add_argument(
        "--trace-samples",
        type=int,
        default=None,
        metavar="N",
        help="RTL executions sampled per test by the trace oracle "
        "(default: 8)",
    )
    fuzz.add_argument(
        "--jobs",
        type=int,
        default=DEFAULT_SUITE_JOBS,
        metavar="N",
        help="evaluate N tests in parallel worker processes; results "
        "are independent of this value (default: 1)",
    )
    fuzz.add_argument(
        "--max-states",
        type=int,
        default=None,
        metavar="N",
        help="RTL enumeration state budget per test (comparisons that "
        "trip it are skipped and counted, not reported)",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip delta-debugging minimization of discrepancies",
    )
    fuzz.add_argument(
        "--shrink-limit",
        type=int,
        default=5,
        metavar="N",
        help="minimize at most N discrepancies (default: 5)",
    )
    fuzz.add_argument(
        "--report",
        metavar="FILE",
        help="write the schema-versioned JSON campaign report to FILE",
    )
    fuzz.add_argument(
        "--reproducers",
        metavar="DIR",
        help="write one replayable JSON artifact per discrepancy to DIR",
    )
    fuzz.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome trace-event (Perfetto) file to FILE",
    )
    fuzz.add_argument(
        "--metrics",
        action="store_true",
        help="print the merged observability counters and gauges",
    )
    _add_coverage_flags(fuzz)
    fuzz.add_argument(
        "--guided",
        action="store_true",
        help="coverage-guided seed scheduling: tests that reach novel "
        "coverage enter an energy-weighted mutation corpus "
        "(implies --coverage)",
    )
    fuzz.add_argument(
        "--coverage-db",
        metavar="PATH",
        help="coverage database to merge the campaign into (default: "
        "<cache root>/coverage/coverage.json when caching is on)",
    )
    _add_cache_flags(fuzz)

    cache = sub.add_parser(
        "cache", help="inspect and maintain the verification cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="per-tier entry counts and byte totals"
    )
    cache_gc = cache_sub.add_parser(
        "gc", help="evict least-recently-used entries down to a size bound"
    )
    cache_gc.add_argument(
        "--max-bytes",
        type=int,
        required=True,
        metavar="N",
        help="evict LRU entries until the store fits in N bytes",
    )
    cache_clear = cache_sub.add_parser(
        "clear", help="remove every cache entry and checkpoint manifest"
    )
    for sub_parser in (cache_stats, cache_gc, cache_clear):
        sub_parser.add_argument(
            "--cache-dir",
            metavar="DIR",
            help="verification cache directory (default: $REPRO_CACHE_DIR, "
            "else ~/.cache/rtlcheck-repro)",
        )

    coverage = sub.add_parser(
        "coverage", help="inspect the persistent coverage database"
    )
    coverage_sub = coverage.add_subparsers(dest="coverage_command", required=True)
    cov_report = coverage_sub.add_parser(
        "report", help="closure report over every merged campaign"
    )
    cov_diff = coverage_sub.add_parser(
        "diff", help="per-domain key-set diff of two coverage documents"
    )
    cov_diff.add_argument("base", help="baseline coverage document")
    cov_diff.add_argument("other", help="coverage document to compare")
    cov_merge = coverage_sub.add_parser(
        "merge", help="merge coverage documents into a database"
    )
    cov_merge.add_argument(
        "inputs", nargs="+", metavar="FILE", help="coverage documents to merge"
    )
    cov_merge.add_argument(
        "--into",
        metavar="PATH",
        help="destination database (default: the --db / cache-derived path)",
    )
    for sub_parser in (cov_report, cov_diff, cov_merge):
        sub_parser.add_argument(
            "--db",
            metavar="PATH",
            help="coverage database path (default: "
            "<cache root>/coverage/coverage.json)",
        )
        sub_parser.add_argument(
            "--cache-dir",
            metavar="DIR",
            help="cache directory the default database path derives from",
        )
        sub_parser.add_argument(
            "-o",
            "--output",
            metavar="FILE",
            help="also write the JSON document to FILE",
        )

    from repro.serve.app import DEFAULT_PORT

    serve = sub.add_parser(
        "serve", help="run the verification job server"
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1; the server is "
        "unauthenticated, so bind non-loopback addresses only on "
        "trusted networks)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        metavar="N",
        help=f"TCP port (default: {DEFAULT_PORT}; 0 picks a free port)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="size of the worker pool every job's units share "
        "(default: 2)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=DEFAULT_RETRIES,
        metavar="N",
        help="bounded per-unit retries after a worker crash "
        f"(default: {DEFAULT_RETRIES})",
    )
    serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="verification cache directory the server keys, shards, and "
        "resumes against (default: $REPRO_CACHE_DIR, else "
        "~/.cache/rtlcheck-repro)",
    )

    submit = sub.add_parser(
        "submit", help="submit one job to a running job server"
    )
    submit_sub = submit.add_subparsers(dest="job_kind", required=True)
    submit_suite = submit_sub.add_parser(
        "suite", help="submit a suite verification job"
    )
    submit_suite.add_argument(
        "--only",
        nargs="+",
        metavar="TEST",
        help="restrict the job to these test names (default: all 56)",
    )
    submit_verify = submit_sub.add_parser(
        "verify", help="submit a one-test verification job"
    )
    submit_verify.add_argument("test")
    for sub_parser in (submit_suite, submit_verify):
        sub_parser.add_argument(
            "--memory",
            choices=["buggy", "fixed"],
            default="fixed",
            help="Multi-V-scale memory variant (default: fixed)",
        )
        sub_parser.add_argument(
            "--config",
            choices=sorted(CONFIGS),
            default="Full_Proof",
            help="verifier engine configuration (default: Full_Proof)",
        )
        sub_parser.add_argument(
            "--observe",
            action="store_true",
            help="run the job with observability recording, matching a "
            "local run that passes --report/--trace/--metrics (part of "
            "the job key)",
        )
    submit_fuzz = submit_sub.add_parser(
        "fuzz", help="submit a differential fuzz campaign job"
    )
    submit_fuzz.add_argument("--seed", type=int, default=0)
    submit_fuzz.add_argument("--budget", type=int, default=100, metavar="N")
    submit_fuzz.add_argument(
        "--oracles",
        nargs="+",
        choices=list(ORACLE_NAMES),
        default=list(ORACLE_NAMES),
        metavar="ORACLE",
    )
    submit_fuzz.add_argument(
        "--memory", choices=["buggy", "fixed"], default="fixed"
    )
    submit_fuzz.add_argument("--long-programs", action="store_true")
    submit_fuzz.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes the server's fuzz campaign uses (results "
        "are independent of this value and it is not part of the job "
        "key)",
    )
    for sub_parser in (submit_suite, submit_verify, submit_fuzz):
        sub_parser.add_argument(
            "--host", default="127.0.0.1", help="job server address"
        )
        sub_parser.add_argument(
            "--port",
            type=int,
            default=DEFAULT_PORT,
            metavar="N",
            help=f"job server port (default: {DEFAULT_PORT})",
        )
        sub_parser.add_argument(
            "--timeout",
            type=float,
            default=600.0,
            metavar="SECONDS",
            help="overall client timeout (default: 600)",
        )
        sub_parser.add_argument(
            "--report",
            metavar="FILE",
            help="write the job's final JSON report to FILE",
        )
        sub_parser.add_argument(
            "--events",
            metavar="FILE",
            help="tee the streamed NDJSON progress events to FILE",
        )
        sub_parser.add_argument(
            "--quiet",
            action="store_true",
            help="suppress per-event progress lines",
        )
    return parser


def cmd_list(_args) -> int:
    print(f"{'name':13s} {'threads':>7s} {'ops':>4s} {'SC verdict':>11s}")
    for test in paper_suite():
        verdict = "allowed" if sc_allowed(test) else "forbidden"
        print(
            f"{test.name:13s} {test.num_threads:>7d} "
            f"{test.instruction_count():>4d} {verdict:>11s}"
        )
    return 0


def cmd_show(args) -> int:
    test = get_test(args.test)
    print(test.pretty())
    compiled = compile_test(test)
    print("\nCompiled programs:")
    for core, program in enumerate(compiled.programs):
        listing = "; ".join(str(i) for i in program)
        print(f"  core {core}: {listing}")
    return 0


def cmd_generate(args) -> int:
    generated = RTLCheck().generate(get_test(args.test))
    if args.with_design:
        from repro.vscale import emit_verification_bundle

        text = emit_verification_bundle(
            generated.compiled, generated.sva_text, args.memory
        )
    else:
        text = generated.sva_text
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(
            f"wrote {len(generated.assumptions)} assumptions and "
            f"{len(generated.assertions)} assertions to {args.output}"
        )
    else:
        print(text)
    return 0


def _wants_observability(args) -> bool:
    return bool(args.report or args.trace or args.metrics)


def _wants_coverage(args) -> bool:
    return bool(
        getattr(args, "coverage", False)
        or getattr(args, "coverage_report", None)
        or getattr(args, "guided", False)
    )


def _emit_observability(args, results, jobs=None, cache=None, failed=()):
    """Write the report/trace files and print counters as requested.

    Called on every exit path — a bug-finding run still produces its
    full report before the command returns non-zero, and ``failed``
    units are listed in it.  ``cache``, when given, contributes its statistics snapshot as the report's
    top-level ``"cache"`` key and a ``--metrics`` section.  Returns the
    closure report (or ``None``) so callers can persist it.
    """
    from repro import obs

    states = [r.obs or {} for r in results.values()]
    closure = None
    if _wants_coverage(args):
        coverage_map = obs.merge_states(states).coverage
        if coverage_map is None:
            coverage_map = obs.CoverageMap()
        closure = obs.closure_report(coverage_map, tests=len(results))
    if args.report:
        obs.write_report(
            args.report,
            obs.suite_report(
                results,
                config_name=args.config,
                memory_variant=args.memory,
                jobs=jobs,
                cache=None if cache is None else cache.stats.snapshot(),
                coverage=closure,
                failed=failed,
            ),
        )
        print(f"wrote run report to {args.report}")
    if args.trace:
        obs.write_chrome_trace(
            args.trace, {name: r.obs for name, r in results.items()}
        )
        print(f"wrote Chrome trace to {args.trace}")
    if args.metrics:
        counters = obs.merge_counters(states)
        print("\ncounters:")
        for name in sorted(counters):
            print(f"  {name:40s} {counters[name]:.0f}")
        gauges = obs.merge_gauges(states)
        if gauges:
            print("\ngauges:")
            for name in sorted(gauges):
                print(f"  {name:40s} {gauges[name]:g}")
        if cache is not None:
            stats = cache.stats.snapshot()
            print("\ncache counters:")
            for name in sorted(stats):
                print(f"  {name:40s} {stats[name]:.0f}")
    if closure is not None:
        print()
        print(obs.render_closure(closure))
        if args.coverage_report:
            from repro.obs.coverage import write_coverage_json

            write_coverage_json(args.coverage_report, closure)
            print(f"wrote coverage report to {args.coverage_report}")
    return closure


def cmd_verify(args) -> int:
    cache = _cache_from_args(args)
    rtlcheck = RTLCheck(
        config=CONFIGS[args.config],
        observe=_wants_observability(args),
        coverage=_wants_coverage(args),
        cache=cache,
    )
    result = rtlcheck.verify_test(
        get_test(args.test),
        memory_variant=args.memory,
        skip_cover_shortcut=args.no_cover_shortcut,
    )
    print(result.summary())
    for prop in result.properties:
        extra = f" (bound {prop.verdict.bound})" if prop.status == "bounded" else ""
        print(f"  {prop.name}: {prop.status}{extra}")
    if cache is not None:
        print(f"cache: {cache.stats.summary()}")
    _emit_observability(args, {result.test.name: result}, jobs=1, cache=cache)
    return 1 if result.bug_found else 0


def cmd_microarch(args) -> int:
    test = get_test(args.test)
    result = microarch_observable(multi_vscale_model(), test)
    print(result.summary())
    return 0


def cmd_lint(args) -> int:
    import os

    from repro.uspec import lint_model, lint_source
    from repro.uspec.model import load_model

    if os.path.exists(args.model):
        with open(args.model) as handle:
            report = lint_source(handle.read())
    else:
        report = lint_model(load_model(args.model))
    print(report.render())
    return 0 if report.synthesizable else 1


def cmd_suite(args) -> int:
    cache = _cache_from_args(args)
    rtlcheck = RTLCheck(
        config=CONFIGS[args.config],
        observe=_wants_observability(args),
        coverage=_wants_coverage(args),
        cache=cache,
    )
    tests = paper_suite()
    if args.only:
        tests = [get_test(name) for name in args.only]
    total = len(tests)
    done = [0]

    def on_unit(name, result, _cached):
        done[0] += 1
        failed = isinstance(result, UnitFailure)
        line = f"{name}: FAILED ({result.error})" if failed else result.summary()
        print(f"[{done[0]}/{total}] {line}", flush=True)

    results = rtlcheck.verify_suite(
        tests, memory_variant=args.memory, jobs=args.jobs, on_unit=on_unit
    )
    failures = sum(result.bug_found for result in results.values())
    if cache is not None:
        resumed = f", resumed {results.resumed}/{total}" if results.resumed else ""
        print(f"cache: {cache.stats.summary()}{resumed}")
    # Observability artifacts are written before the exit code is
    # decided, so bug-finding runs still produce their full report.
    closure = _emit_observability(
        args, results, jobs=args.jobs, cache=cache, failed=results.failed
    )
    if closure is not None and cache is not None:
        from repro.obs.coverage import (
            CoverageDB,
            CoverageMap,
            default_coverage_db_path,
        )

        db = CoverageDB(default_coverage_db_path(args.cache_dir))
        db.merge(
            CoverageMap.from_state(closure["coverage"]),
            campaign={
                "command": "suite",
                "config": args.config,
                "memory_variant": args.memory,
                "tests": len(results),
            },
        )
        print(f"coverage database updated: {db.path}")
    if failures:
        print(f"\n{failures} tests produced counterexamples")
    if results.failed:
        print(f"\n{len(results.failed)} tests failed without a verdict")
    return 1 if failures or results.failed else 0


def cmd_fuzz(args) -> int:
    from repro import obs
    from repro.difftest import (
        FuzzConfig,
        run_fuzz,
        validate_fuzz_report,
        write_reproducer,
    )
    from repro.difftest.oracles import DEFAULT_TRACE_SAMPLES
    from repro.verifier.outcomes import DEFAULT_MAX_STATES

    from repro.cache import default_cache_dir

    observe = bool(args.trace or args.metrics)
    coverage = _wants_coverage(args)
    config = FuzzConfig(
        seed=args.seed,
        budget=args.budget,
        oracles=tuple(args.oracles),
        memory_variant=args.memory,
        jobs=args.jobs,
        max_states=args.max_states or DEFAULT_MAX_STATES,
        long_programs=args.long_programs,
        trace_samples=args.trace_samples or DEFAULT_TRACE_SAMPLES,
        shrink=not args.no_shrink,
        shrink_limit=args.shrink_limit,
        observe=observe,
        cache_dir=None
        if args.no_cache
        else (args.cache_dir or default_cache_dir()),
        coverage=coverage,
        guided=args.guided,
        coverage_db=args.coverage_db,
    )
    total = config.budget
    done = [0]

    def progress(_index, name, new=None):
        done[0] += 1
        if done[0] % 25 == 0 or done[0] == total:
            line = f"[{done[0]}/{total}] cross-checked through {name}"
            if new is not None:
                # Cumulative novel coverage keys — the live saturation
                # signal of a --coverage campaign.
                line += f" (+{new} new)"
            print(line, flush=True)

    recorder = obs.TraceRecorder() if observe else obs.NULL_RECORDER
    with obs.use_recorder(recorder):
        result = run_fuzz(config, progress=progress)

    print(
        f"\nfuzz seed={config.seed} budget={config.budget} "
        f"memory={config.memory_variant}: {result.tests_run} tests, "
        f"{len(result.discrepancies)} discrepancies, "
        f"{len(result.oracle_errors)} oracle errors, "
        f"skipped={result.skipped or '{}'} "
        f"({result.wall_seconds:.1f}s)"
    )
    if config.cache_dir is not None:
        from repro.cache import CacheStats

        stats = CacheStats()
        stats.merge(result.cache_stats)
        resumed = f", resumed {result.resumed}/{config.budget}" if result.resumed else ""
        print(f"cache: {stats.summary()}{resumed}")
    for entry in result.discrepancies:
        line = f"  DISCREPANCY {entry.discrepancy.summary()}"
        if entry.minimized is not None:
            line += (
                f" -> minimized to {entry.minimized.instruction_count()} "
                f"instruction(s)"
            )
        print(line)
    shown = [e for e in result.discrepancies if e.minimized is not None]
    if shown:
        print("\nFirst minimized reproducer:")
        print(shown[0].minimized.pretty())

    report = result.report()
    problems = validate_fuzz_report(report)
    if problems:
        # A malformed report is a difftest bug; surface it loudly.
        for problem in problems:
            print(f"REPORT INVALID: {problem}", file=sys.stderr)
        return 2
    if args.report:
        obs.write_report(args.report, report)
        print(f"wrote fuzz report to {args.report}")
    if args.reproducers:
        for entry in result.discrepancies:
            path = write_reproducer(args.reproducers, entry)
            print(f"wrote reproducer {path}")
    if args.trace:
        obs.write_chrome_trace(args.trace, {"fuzz": recorder.to_state()})
        print(f"wrote Chrome trace to {args.trace}")
    if args.metrics:
        print("\ncounters:")
        for name in sorted(recorder.counters):
            print(f"  {name:40s} {recorder.counters[name]:.0f}")
        if recorder.gauges:
            print("\ngauges:")
            for name in sorted(recorder.gauges):
                print(f"  {name:40s} {recorder.gauges[name]:g}")
    if "coverage" in report:
        print()
        print(obs.render_closure(report["coverage"]))
        if args.coverage_report:
            from repro.obs.coverage import write_coverage_json

            write_coverage_json(args.coverage_report, report["coverage"])
            print(f"wrote coverage report to {args.coverage_report}")
    return 1 if result.discrepancies else 0


def cmd_cache(args) -> int:
    from repro.cache import VerificationCache, default_cache_dir

    root = args.cache_dir or default_cache_dir()
    cache = VerificationCache(root)
    if args.cache_command == "stats":
        usage = cache.usage()
        print(f"cache directory: {root}")
        print(f"{'tier':10s} {'entries':>8s} {'bytes':>12s}")
        for tier in ("verdict", "reach", "nfa", "oracle"):
            row = usage[tier]
            print(f"{tier:10s} {row['entries']:>8d} {row['bytes']:>12d}")
        total = usage["total"]
        print(f"{'total':10s} {total['entries']:>8d} {total['bytes']:>12d}")
        checkpoints = cache.root / "checkpoints"
        manifests = (
            len([p for p in checkpoints.glob("*.jsonl")])
            if checkpoints.is_dir()
            else 0
        )
        print(f"checkpoint manifests: {manifests}")
    elif args.cache_command == "gc":
        evicted = cache.gc(args.max_bytes)
        total = cache.usage()["total"]
        print(
            f"evicted {evicted} entries; {total['entries']} entries "
            f"({total['bytes']} bytes) remain"
        )
    elif args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {root}")
    return 0


def _coverage_state_from(path: str):
    """The per-domain coverage state carried by any coverage-bearing
    JSON document: a coverage database, a standalone closure report, or
    a suite/fuzz run report with an embedded ``coverage`` section.
    Returns ``None`` when the document is none of those."""
    import json

    from repro.obs.coverage import COVERAGE_DB_KIND, COVERAGE_REPORT_KIND

    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        return None
    kind = document.get("kind")
    if kind == COVERAGE_DB_KIND:
        return document.get("domains", {})
    if kind == COVERAGE_REPORT_KIND:
        return document.get("coverage", {})
    embedded = document.get("coverage")
    if (
        isinstance(embedded, dict)
        and embedded.get("kind") == COVERAGE_REPORT_KIND
    ):
        return embedded.get("coverage", {})
    return None


def cmd_coverage(args) -> int:
    from repro.obs.coverage import (
        CoverageDB,
        CoverageMap,
        closure_report,
        coverage_diff,
        default_coverage_db_path,
        render_closure,
        render_diff,
        write_coverage_json,
    )

    def load_state(path):
        try:
            state = _coverage_state_from(path)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            raise SystemExit(2)
        if state is None:
            print(
                f"error: {path} is not a coverage database or report",
                file=sys.stderr,
            )
            raise SystemExit(2)
        return state

    db_path = args.db or default_coverage_db_path(args.cache_dir)

    if args.coverage_command == "report":
        db = CoverageDB(db_path)
        document = db.load()
        if db.reset_reason:
            print(
                f"warning: coverage database reset ({db.reset_reason})",
                file=sys.stderr,
            )
        campaigns = document.get("campaigns", [])
        tests = sum(int(c.get("tests", 0)) for c in campaigns)
        report = closure_report(
            CoverageMap.from_state(document.get("domains", {})),
            tests=tests or None,
        )
        print(f"coverage database: {db.path}")
        print(
            f"campaigns merged: {len(campaigns)}; "
            f"corpus entries: {len(document.get('corpus', []))}"
        )
        print(render_closure(report))
        if args.output:
            write_coverage_json(args.output, report)
            print(f"wrote closure report to {args.output}")
        return 0

    if args.coverage_command == "diff":
        diff = coverage_diff(load_state(args.base), load_state(args.other))
        print(render_diff(diff))
        if args.output:
            write_coverage_json(args.output, diff)
            print(f"wrote coverage diff to {args.output}")
        return 0

    # merge
    merged = CoverageMap()
    for path in args.inputs:
        merged.merge_state(load_state(path))
    db = CoverageDB(args.into or db_path)
    document = db.merge(
        merged, campaign={"command": "merge", "inputs": len(args.inputs)}
    )
    total = CoverageMap.from_state(document["domains"]).total_unique()
    print(
        f"merged {len(args.inputs)} document(s) into {db.path}: "
        f"{total} unique keys"
    )
    if args.output:
        write_coverage_json(args.output, document)
        print(f"wrote merged database to {args.output}")
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.serve.app import JobServer

    server = JobServer(
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        host=args.host,
        port=args.port,
        retries=args.retries,
    )

    async def main():
        await server.start()
        print(
            f"serving on http://{server.host}:{server.port} "
            f"(cache: {server.cache_dir}, pool: {server.jobs} workers)",
            flush=True,
        )
        resumed = server.counters["resumed_jobs"]
        if resumed:
            print(f"resumed {resumed} interrupted job(s)", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("\ninterrupted; unfinished jobs resume on the next start")
    return 0


def cmd_submit(args) -> int:
    import json

    from repro.serve.client import ServeClient, ServeError

    if args.job_kind == "fuzz":
        spec = {
            "kind": "fuzz",
            "params": {
                "seed": args.seed,
                "budget": args.budget,
                "oracles": list(args.oracles),
                "memory_variant": args.memory,
                "long_programs": args.long_programs,
                "jobs": args.jobs,
            },
        }
    else:
        params = {
            "memory_variant": args.memory,
            "config": args.config,
            "observe": args.observe,
        }
        if args.job_kind == "verify":
            spec = {"kind": "verify", "params": {**params, "test": args.test}}
        else:
            if args.only:
                params["tests"] = list(args.only)
            spec = {"kind": "suite", "params": params}

    client = ServeClient(args.host, args.port, timeout=args.timeout)
    events_file = open(args.events, "w") if args.events else None

    def on_event(event):
        if events_file is not None:
            events_file.write(json.dumps(event, sort_keys=True) + "\n")
        if args.quiet:
            return
        kind = event["event"]
        if kind == "unit":
            cached = " (cached)" if event["cached"] else ""
            print(f"  {event['summary']}{cached}", flush=True)
        elif kind == "progress":
            index = event["index"] + 1
            if index % 25 == 0:
                print(
                    f"  [{index}] cross-checked through {event['test']}",
                    flush=True,
                )
        elif kind == "failed":
            print(f"  FAILED: {event['error']}", flush=True)

    try:
        submission = client.submit(spec)
        print(
            f"job {submission['job'][:16]}... "
            f"[{submission['source']}] state={submission['state']}"
        )
        key = submission["job"]
        if submission["state"] not in ("done", "failed"):
            for event in client.events(key):
                on_event(event)
        final = client.wait(key, timeout=args.timeout)
        if final["state"] == "failed":
            print(f"job failed: {final.get('error')}", file=sys.stderr)
            return 2
        report = client.report(key)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if events_file is not None:
            events_file.close()

    stats = final.get("stats", {})
    if report["kind"] == "rtlcheck-run-report":
        aggregates = report["aggregates"]
        print(
            f"suite job done [{final['source']}]: "
            f"{aggregates['num_tests']} tests, "
            f"{aggregates['bugs_found']} with counterexamples, "
            f"{aggregates['proven_fraction']:.0%} properties proven"
        )
        failures = aggregates["bugs_found"]
    else:
        print(
            f"fuzz job done [{final['source']}]: "
            f"{report['tests_run']} tests, "
            f"{report['discrepancy_count']} discrepancies"
        )
        failures = report["discrepancy_count"]
    if stats.get("resumed"):
        print(f"resumed {stats['resumed']} unit(s) from a prior run")
    if args.report:
        from repro import obs

        obs.write_report(args.report, report)
        print(f"wrote job report to {args.report}")
    return 1 if failures else 0


COMMANDS = {
    "list": cmd_list,
    "show": cmd_show,
    "generate": cmd_generate,
    "verify": cmd_verify,
    "microarch": cmd_microarch,
    "lint": cmd_lint,
    "suite": cmd_suite,
    "fuzz": cmd_fuzz,
    "cache": cmd_cache,
    "coverage": cmd_coverage,
    "serve": cmd_serve,
    "submit": cmd_submit,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
