#!/usr/bin/env python3
"""The repository benchmark: cold and warm suites, fuzz campaigns.

    python benchmarks/perf/bench.py run --workload all --seed 0
    python benchmarks/perf/bench.py run --workload suite-cold --seed 0 --trace 0
    python benchmarks/perf/bench.py run --workload all --runs 5 --trace 0 --output runs.json
    python benchmarks/perf/bench.py compare PARENT.json CHANGE.json [--claim W:M]
    python benchmarks/perf/bench.py trajectory --output POINT.json

``run`` is a closed loop with one caller: this process launches one
fresh ``python`` child per pass (``workloads.py``), one at a time, each
verifying with ``jobs=1``, so every per-process memo starts cold as it
does for a CLI user.  A run lasts about ``--seconds``: set-up probes,
the cold fill of ``suite-warm``, then passes while the next one is
expected to end in time, and always at least one.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics (the
run alternates untraced and traced passes), and without ``--trace`` the
run is traced and prints both.  Metric names, units and bounds are
declared in ``BENCHMARK.json`` at the repository root; the last line of
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.

No workload input depends on ``--seed`` (see README.md): the suites run
the paper's fixed suite and the fuzz campaigns a fixed campaign seed.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "workloads.py"
GOLDEN = ROOT / "tests" / "fixtures" / "golden_verdicts.json"
WORK = ROOT / ".bench_perf"

#: Pass specs (see ``workloads.py``); ``warm`` is read here only: the
#: run first fills one cache with a cold pass, then times warm passes.
WORKLOADS = {
    "suite-cold": {"kind": "suite"},
    "suite-warm": {"kind": "suite", "warm": True},
    "fuzz": {"kind": "fuzz", "campaign_seed": 0, "budget": 20},
    "fuzz-long": {
        "kind": "fuzz",
        "campaign_seed": 0,
        "budget": 600,
        "long_programs": True,
        "oracles": ["trace"],
    },
}

#: Set-up-only children launched at the start of every run, so that
#: ``setup_s`` is a median even when a run measures a single pass.
SETUP_PROBES = 5
#: Seconds a pass may take before its child is killed.
CHILD_TIMEOUT = 150
#: Untraced runs per workload in a trajectory point.
TRAJECTORY_RUNS = 5
#: Counts that must repeat exactly across traced passes.
EXACT_COUNTS = (
    "explorer.property_transitions",
    "reach.sim_transitions",
    "engines.modeled_hours",
)
SECTIONS = {0: ("end_to_end",), 1: ("per_layer",), None: ("end_to_end", "per_layer")}


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


# -- child processes ----------------------------------------------------


class Work:
    """A scratch directory under ``.bench_perf`` for one run; removed
    when the run ends."""

    def __init__(self):
        self.dir = WORK / f"run-{os.getpid()}"
        self._ids = itertools.count()

    def __enter__(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        return self

    def __exit__(self, *exc_info):
        shutil.rmtree(self.dir, ignore_errors=True)
        return False

    def path(self, stem: str) -> str:
        return str(self.dir / f"{stem}-{next(self._ids)}")

    def launch(self, spec: dict) -> dict:
        """Run one child to completion; its result or ``{"error": ...}``."""
        spec = dict(spec, result=self.path("result"))
        spec.setdefault("cache_dir", self.path("cache"))
        spec_path = self.path("spec")
        Path(spec_path).write_text(json.dumps(spec))
        env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            # Same string hashing, so the same set layouts, in every pass.
            PYTHONHASHSEED="0",
            REPRO_CACHE_DIR=str(self.dir / "default-cache"),
        )
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), spec_path, repr(time.monotonic())],
                env=env,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"pass exceeded {CHILD_TIMEOUT} s"}
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            return {"error": lines[-1] if lines else f"pass exited {proc.returncode}"}
        return json.loads(Path(spec["result"]).read_text())


# -- one run ------------------------------------------------------------


def expected_tests(spec: dict) -> int:
    if spec["kind"] == "fuzz":
        return spec["budget"]
    if spec.get("only"):
        return len(spec["only"])
    return len(json.loads(GOLDEN.read_text())["tests"])


def measure(workload: str, seconds: float, trace: bool, spec=None) -> dict:
    """One run of ``workload``, ending about ``seconds`` after it starts.
    Traced, its passes are untraced/traced pairs.  ``spec`` overrides the
    pass spec (the harness tests narrow the inputs with it)."""
    spec = dict(spec or WORKLOADS[workload])
    warm = spec.pop("warm", False)
    deadline = time.monotonic() + seconds
    errors, untraced, traced = [], [], []
    with Work() as work:
        setups = [work.launch(dict(spec, probe=True)) for _ in range(SETUP_PROBES)]
        errors += [str(p["error"]) for p in setups if "error" in p]
        if warm and not errors:
            spec["cache_dir"] = work.path("cache")
            fill = work.launch(spec)
            if fill.get("error") or fill["failures"]:
                errors.append(f"cold fill pass failed: {fill.get('error')}")
        start = time.monotonic()
        while not errors:
            batch = [work.launch(spec)]
            untraced.append(batch[0])
            if trace:
                trace_file = str(WORK / "traces" / f"{workload}.trace.json")
                Path(trace_file).parent.mkdir(parents=True, exist_ok=True)
                batch.append(work.launch(dict(spec, trace=True, trace_file=trace_file)))
                traced.append(batch[1])
            errors += [str(p["error"]) for p in batch if "error" in p]
            now = time.monotonic()
            if now + (now - start) / len(untraced) > deadline:
                break
    measured = untraced + traced
    ok = [p for p in measured if "error" not in p]
    failed_names = [
        {f["test"] for f in p["failures"]} if "error" not in p else None
        for p in measured
    ]
    attempted = len(measured) * expected_tests(spec)
    failed = sum(expected_tests(spec) if f is None else len(f) for f in failed_names)
    digests = sorted({p["digest"] for p in ok})
    if len(digests) > 1:
        errors.append(f"results digest differs between passes: {digests}")
    if warm:
        for p in ok:
            stats = p["cache_stats"]
            if stats.get("cache.verdict.hits") != p["tests"] or stats.get(
                "cache.verdict.misses"
            ):
                errors.append("a warm pass missed the verdict cache")
    for p in ok:
        errors += [f"{f['test']}: {f['reason']}" for f in p["failures"]]
    run = {
        "workload": workload,
        "trace": trace,
        "passes": len(measured),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": digests[0] if len(digests) == 1 else None,
        "pass_wall_s": [p["wall_s"] for p in ok],
        "pass_norm_wall_s": [p["norm_wall_s"] for p in ok],
    }
    if not errors:
        run["plain"] = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "setup_s": statistics.median(p["plain_setup_s"] for p in setups + untraced),
        }
        run["end_to_end"] = _end_to_end(untraced, [s["setup_s"] for s in setups])
        if trace:
            run.update(_layer_metrics(workload, traced, untraced, errors))
    run["correct"] = not errors and failed == 0
    return run


def _end_to_end(passes, probe_setups) -> dict:
    return {
        "norm_wall_s": statistics.median(p["norm_wall_s"] for p in passes),
        "norm_tests_per_s": statistics.median(
            p["tests"] / p["norm_wall_s"] for p in passes
        ),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
        "setup_s": statistics.median(probe_setups + [p["setup_s"] for p in passes]),
    }


def _layer_metrics(workload, traced, untraced, errors) -> dict:
    layers = [p["layers"] for p in traced]
    for name in EXACT_COUNTS:
        if len({row[name] for row in layers}) > 1:
            errors.append(f"{name} differs between traced passes")
    metrics = {
        name: statistics.median(row[name] for row in layers) for name in layers[0]
    }
    # Each traced pass against the untraced pass just before it, both at
    # reference speed: the host's speed drifts, adjacent passes share it.
    metrics["trace_overhead_frac"] = statistics.median(
        t["norm_wall_s"] / u["norm_wall_s"] for t, u in zip(traced, untraced)
    ) - 1
    traced_wall = statistics.median(p["traced_wall_s"] for p in traced)
    table = _self_time_table(traced[-1]["self_times"], traced[-1]["traced_wall_s"])
    table_path = WORK / "traces" / f"{workload}.selftime.txt"
    table_path.write_text(table)
    return {"per_layer": metrics, "self_time_table": table, "traced_wall_s": traced_wall}


def _self_time_table(rows: dict, wall: float) -> str:
    lines = [f"{'span':<22} {'calls':>8} {'total_s':>10} {'self_s':>10} {'self%':>6}"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name:<22} {row['calls']:>8} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {100 * row['self_s'] / wall:>6.1f}"
        )
    return "\n".join(lines) + "\n"


# -- output -------------------------------------------------------------


def summary_line(runs, sections) -> str:
    """The result line that ends a run's output: medians over ``runs``
    of one workload, for the ``BENCHMARK.json`` sections named."""
    correct = all(r["correct"] for r in runs)
    metrics = {}
    if correct:
        for section in sections:
            for m in declared()[section]:
                values = [r[section].get(m["name"]) for r in runs]
                if None in values:
                    raise RuntimeError(f"metric {m['name']} was not measured")
                metrics[m["name"]] = {
                    "value": statistics.median(values),
                    "unit": m["unit"],
                }
    return json.dumps(
        {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    )


def print_run(run: dict, seed: int) -> None:
    spec = declared()
    print(
        f"{run['workload']} seed={seed} trace={int(run['trace'])}: "
        f"{run['passes']} passes, {run['attempted']} tests, {run['failed']} failed, "
        f"results_digest {run['digest']}"
    )
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            if m["name"] in run.get(section, {}):
                value = run[section][m["name"]]
                print(f"  {m['name']:<38} {value:>14.6g} {m['unit']}")
    if "plain" in run:
        print(
            f"  (plain times, not gated: wall {run['plain']['wall_s']:.4f} s, "
            f"set-up {run['plain']['setup_s']:.4f} s)"
        )
    if run.get("self_time_table"):
        print(f"  (traced wall {run['traced_wall_s']:.4f} s; self times by span:)")
        for line in run["self_time_table"].splitlines():
            print(f"    {line}")
    for error in run["errors"]:
        print(f"  ERROR {error}")


def append_runs(path: str, runs) -> None:
    target = Path(path)
    doc = {"kind": "rtlcheck-perf-runs", "runs": []}
    if target.exists():
        doc = json.loads(target.read_text())
    doc["runs"].extend(runs)
    target.write_text(json.dumps(doc, indent=1) + "\n")


# -- commands -----------------------------------------------------------


def check_tree() -> None:
    """Refuse to run without the program and its reference results."""
    missing = [p for p in (ROOT / "src" / "repro", GOLDEN) if not p.exists()]
    if missing:
        sys.exit(f"bench.py: missing {', '.join(map(str, missing))}")
    compileall.compile_dir(str(ROOT / "src"), quiet=1)


def cmd_run(args) -> int:
    check_tree()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seconds = declared()["run_seconds"] if args.seconds is None else args.seconds
    correct = True
    for name in names:
        runs = []
        for _ in range(args.runs):
            run = measure(name, seconds, args.trace != 0)
            run["seed"] = args.seed
            print_run(run, args.seed)
            runs.append(run)
        if args.output:
            append_runs(args.output, runs)
        correct &= all(r["correct"] for r in runs)
        print(summary_line(runs, SECTIONS[args.trace]), flush=True)
    return 0 if correct else 1


def judge(parent, change, lower_better: bool, bound: float) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for one metric."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1 if lower_better else -1
    worse = sign * (cm - pm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    every_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound and not every_better:
        return "unresolved"
    return "regressed" if worse > bound else "ok"


def claim_met(parent, change, lower_better: bool) -> bool:
    """Ten or more alternating pairs, the change winning at least nine
    tenths of them (ties count for neither), and medians further apart
    than the parent's own quartile spread."""
    sign = 1 if lower_better else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pairs = min(len(parent), len(change))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    return pairs >= 10 and wins >= 0.9 * pairs and sign * (pm - cm) > p3 - p1


def cmd_compare(args) -> int:
    metrics = declared()["end_to_end"]

    def load(path):
        runs = {}
        for run in json.loads(Path(path).read_text())["runs"]:
            if not run["trace"]:
                runs.setdefault(run["workload"], []).append(run)
        return runs

    parent, change = load(args.parent), load(args.change)
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    status = 0
    print(f"{'workload':<11} {'metric':<17} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32}  verdict")
    for workload in [w for w in WORKLOADS if w in parent and w in change]:
        for m in metrics:
            p = [r["end_to_end"][m["name"]] for r in parent[workload] if r["correct"]]
            c = [r["end_to_end"][m["name"]] for r in change[workload] if r["correct"]]
            if not p or not c:
                verdict = "unresolved"
            else:
                lower = m["better"] == "lower"
                verdict = judge(p, c, lower, m["bound"])
                if (workload, m["name"]) in claims:
                    met = claim_met(p, c, lower)
                    verdict += ", claim " + ("met" if met else "not met")
            status |= "regressed" in verdict or "not met" in verdict
            print(f"{workload:<11} {m['name']:<17} {_cell(p):>32} {_cell(c):>32}  "
                  f"{verdict}")
        rates = [
            sum(r["failed"] for r in side[workload])
            / sum(r["attempted"] for r in side[workload])
            for side in (parent, change)
        ]
        verdict = "regressed" if rates[1] > rates[0] else "ok"
        status |= verdict == "regressed"
        print(f"{workload:<11} {'error_rate':<17} {rates[0]:>32.4g} "
              f"{rates[1]:>32.4g}  {verdict}")
    return int(status)


def _cell(values) -> str:
    if not values:
        return "n/a"
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def cmd_trajectory(args) -> int:
    """Record one trajectory point: ``TRAJECTORY_RUNS`` untraced runs and
    one traced run ``TRAJECTORY_RUNS`` run lengths long (so that
    ``trace_overhead_frac`` is a median over several pairs) per workload
    at seed 0, plus the fuzz campaign length at campaign seeds 0-3 (the
    per-seed heavy tail the fixed input hides)."""
    check_tree()
    seconds = declared()["run_seconds"]
    point = {
        "kind": "rtlcheck-perf-trajectory",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "run_seconds": seconds,
        "workloads": {},
    }
    for name in WORKLOADS:
        runs = [measure(name, seconds, False) for _ in range(TRAJECTORY_RUNS)]
        layers = measure(name, TRAJECTORY_RUNS * seconds, True)
        for run in runs + [layers]:
            print_run(run, 0)
        walls = layers["pass_norm_wall_s"]
        point["workloads"][name] = {
            "runs": [dict(r["end_to_end"], plain=r["plain"]) for r in runs],
            "summary": {
                metric: dict(
                    zip(
                        ("q1", "median", "q3"),
                        quartiles([r["end_to_end"][metric] for r in runs]),
                    )
                )
                for metric in runs[0]["end_to_end"]
            },
            "correct": all(r["correct"] for r in runs + [layers]),
            "digest": runs[0]["digest"],
            "layers": layers["per_layer"],
            # (untraced, traced) norm_wall_s of each pair of the traced run
            "trace_pairs": list(zip(walls[: len(walls) // 2], walls[len(walls) // 2:])),
            "self_time_table": layers["self_time_table"].splitlines(),
        }
    lengths = {}
    for seed in range(4):
        run = measure("fuzz", 0, False, dict(WORKLOADS["fuzz"], campaign_seed=seed))
        lengths[str(seed)] = run["plain"]["wall_s"]
    point["fuzz_wall_s_by_campaign_seed"] = lengths
    Path(args.output).write_text(json.dumps(point, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure workloads")
    run.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    run.add_argument("--seed", type=int, default=0, help="recorded; inputs are fixed")
    run.add_argument("--seconds", type=float, help="length of one run")
    run.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        choices=(0, 1),
        help="0: end-to-end metrics; 1 (or bare): per-layer metrics; omitted: both",
    )
    run.add_argument("--runs", type=int, default=1)
    run.add_argument("--output", help="append the runs to this JSON file")
    compare = sub.add_parser("compare", help="judge CHANGE against PARENT")
    compare.add_argument("parent")
    compare.add_argument("change")
    compare.add_argument(
        "--claim", action="append", default=[], metavar="WORKLOAD:METRIC"
    )
    trajectory = sub.add_parser("trajectory", help="record a trajectory point")
    trajectory.add_argument("--output", required=True)
    args = parser.parse_args(argv)
    return {"run": cmd_run, "compare": cmd_compare, "trajectory": cmd_trajectory}[
        args.command
    ](args)


if __name__ == "__main__":
    sys.exit(main())
