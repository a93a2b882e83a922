"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_verify_defaults(self):
        args = build_parser().parse_args(["verify", "mp"])
        assert args.memory == "fixed"
        assert args.config == "Full_Proof"
        assert not args.no_cover_shortcut

    def test_unknown_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "mp", "--memory", "flaky"])

    def test_suite_defaults(self):
        args = build_parser().parse_args(["suite"])
        assert args.jobs == 1
        assert args.only is None

    def test_suite_jobs_and_subset(self):
        args = build_parser().parse_args(
            ["suite", "--jobs", "4", "--only", "mp", "sb"]
        )
        assert args.jobs == 4
        assert args.only == ["mp", "sb"]

    def test_verify_explorer_choice(self):
        """The graph walk is the only explorer: there is no flag to
        choose another."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "mp", "--explorer", "graph"])

    def test_observability_defaults_off(self):
        for command in (["verify", "mp"], ["suite"]):
            args = build_parser().parse_args(command)
            assert args.report is None
            assert args.trace is None
            assert not args.metrics

    def test_observability_flags(self):
        args = build_parser().parse_args(
            ["suite", "--report", "r.json", "--trace", "t.json", "--metrics"]
        )
        assert args.report == "r.json"
        assert args.trace == "t.json"
        assert args.metrics


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mp" in out and "forbidden" in out
        assert len(out.strip().splitlines()) == 57  # header + 56 tests

    def test_show(self, capsys):
        assert main(["show", "mp"]) == 0
        out = capsys.readouterr().out
        assert "(i1) [x] <- 1" in out
        assert "core 0:" in out

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "sb"]) == 0
        out = capsys.readouterr().out
        assert "assert property" in out

    def test_generate_to_file(self, tmp_path, capsys):
        target = tmp_path / "mp.sv"
        assert main(["generate", "mp", "-o", str(target)]) == 0
        assert "assume property" in target.read_text()

    def test_verify_fixed_exits_zero(self, capsys):
        assert main(["verify", "mp"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_verify_buggy_exits_nonzero(self, capsys):
        assert main(["verify", "mp", "--memory", "buggy"]) == 1
        assert "COUNTEREXAMPLE" in capsys.readouterr().out

    def test_verify_hybrid_config(self, capsys):
        assert main(["verify", "lb", "--config", "Hybrid"]) == 0

    def test_microarch(self, capsys):
        assert main(["microarch", "sb"]) == 0
        assert "unobservable" in capsys.readouterr().out

    def test_suite_subset(self, capsys):
        assert main(["suite", "--only", "mp", "sb"]) == 0
        out = capsys.readouterr().out
        assert "mp [fixed]: verified" in out
        assert "sb [fixed]: verified" in out

    def test_suite_subset_parallel(self, capsys):
        assert main(["suite", "--only", "mp", "lb", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "mp [fixed]: verified" in out
        assert "lb [fixed]: verified" in out

    def test_suite_progress_lines(self, capsys):
        assert main(["suite", "--only", "mp", "lb"]) == 0
        out = capsys.readouterr().out
        assert "[1/2]" in out and "[2/2]" in out


class TestObservability:
    def _load_valid_report(self, path):
        import json

        from repro.obs import validate_report

        report = json.loads(path.read_text())
        assert validate_report(report) == []
        return report

    def test_suite_report_trace_metrics(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        trace_path = tmp_path / "t.json"
        assert (
            main(
                [
                    "suite",
                    "--only",
                    "mp",
                    "sb",
                    "--jobs",
                    "2",
                    "--report",
                    str(report_path),
                    "--trace",
                    str(trace_path),
                    "--metrics",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "reach.cache_hits" in out
        report = self._load_valid_report(report_path)
        assert report["jobs"] == 2
        assert [t["test"] for t in report["tests"]] == ["mp", "sb"]
        import json

        trace = json.loads(trace_path.read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_suite_failure_still_writes_report(self, tmp_path, capsys):
        """Satellite: a bug-finding run exits 1 but the report is
        written first and carries the counterexamples."""
        report_path = tmp_path / "r.json"
        assert (
            main(
                [
                    "suite",
                    "--only",
                    "mp",
                    "--memory",
                    "buggy",
                    "--report",
                    str(report_path),
                ]
            )
            == 1
        )
        assert "COUNTEREXAMPLE" in capsys.readouterr().out
        report = self._load_valid_report(report_path)
        assert report["memory_variant"] == "buggy"
        assert report["aggregates"]["bugs_found"] == 1
        assert report["tests"][0]["counters"]

    def test_verify_report(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        assert main(["verify", "lb", "--report", str(report_path)]) == 0
        report = self._load_valid_report(report_path)
        assert report["aggregates"]["num_tests"] == 1


class TestFuzzCommand:
    def test_fuzz_parser_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.seed == 0
        assert args.budget == 100
        assert args.memory == "fixed"
        assert args.jobs == 1
        assert not args.no_shrink
        assert args.oracles == [
            "operational", "axiomatic", "rtl", "verifier", "trace",
        ]
        assert not args.long_programs
        assert args.trace_samples is None

    def test_fuzz_parser_flags(self):
        args = build_parser().parse_args(
            [
                "fuzz", "--seed", "5", "--budget", "20", "--jobs", "2",
                "--oracles", "operational", "rtl", "--memory", "buggy",
                "--no-shrink", "--reproducers", "out",
            ]
        )
        assert (args.seed, args.budget, args.jobs) == (5, 20, 2)
        assert args.oracles == ["operational", "rtl"]
        assert args.no_shrink and args.reproducers == "out"

    def test_fuzz_rejects_unknown_oracle(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--oracles", "psychic"])

    def test_fuzz_fixed_clean_exit_zero(self, tmp_path, capsys):
        report_path = tmp_path / "fuzz.json"
        assert (
            main(
                [
                    "fuzz", "--seed", "11", "--budget", "3",
                    "--oracles", "operational", "axiomatic", "rtl",
                    "--report", str(report_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "0 discrepancies" in out
        import json

        from repro.difftest import validate_fuzz_report

        report = json.loads(report_path.read_text())
        assert validate_fuzz_report(report) == []
        assert report["seed"] == 11 and report["tests_run"] == 3

    def test_fuzz_buggy_exits_nonzero_with_reproducers(self, tmp_path, capsys):
        reproducer_dir = tmp_path / "repros"
        assert (
            main(
                [
                    "fuzz", "--seed", "11", "--budget", "2",
                    "--oracles", "operational", "axiomatic", "rtl",
                    "--memory", "buggy", "--shrink-limit", "1",
                    "--reproducers", str(reproducer_dir),
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "DISCREPANCY" in out and "minimized" in out
        import json

        artifacts = sorted(reproducer_dir.glob("fuzz-11-*.json"))
        assert artifacts
        document = json.loads(artifacts[0].read_text())
        assert document["kind"] == "rtlcheck-difftest-reproducer"
        assert document["minimized"]["threads"]


class TestCacheCLI:
    """The cache flags and the ``cache {stats,gc,clear}`` subcommand.

    The autouse conftest fixture points ``$REPRO_CACHE_DIR`` at a
    per-test temporary directory, so these runs are hermetic.
    """

    def test_cache_flags_default(self):
        for command in (["verify", "mp"], ["suite"], ["fuzz"]):
            args = build_parser().parse_args(command)
            assert args.cache_dir is None
            assert not args.no_cache

    def test_cache_subcommand_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_gc_requires_max_bytes(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "gc"])

    def test_verify_warm_run_reports_hit(self, capsys):
        assert main(["verify", "mp"]) == 0
        assert "cache: verdict 0/1 hits" in capsys.readouterr().out
        assert main(["verify", "mp"]) == 0
        assert "cache: verdict 1/1 hits" in capsys.readouterr().out

    def test_no_cache_disables_summary_and_store(self, capsys):
        assert main(["verify", "mp", "--no-cache"]) == 0
        assert "cache:" not in capsys.readouterr().out
        # Nothing was stored: a later cached run still misses.
        assert main(["verify", "mp"]) == 0
        assert "cache: verdict 0/1 hits" in capsys.readouterr().out

    def test_stats_gc_clear_roundtrip(self, capsys):
        import re

        from repro.cache import VerificationCache, keys
        from repro.core.rtlcheck import RTLCheck
        from repro.litmus.suite import get_test
        from repro.sva.monitor import PropertyMonitor

        assert main(["verify", "mp"]) == 0
        capsys.readouterr()
        # An nfa entry as older versions left it: verification no
        # longer writes that tier, but stats, gc and clear cover it.
        directive = RTLCheck().generate(get_test("mp")).assertions[0]
        VerificationCache().store_monitor(
            keys.digest_payload({"entry": "old"}), PropertyMonitor(directive)
        )

        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "cache directory:" in out
        assert "verdict" in out and "total" in out
        assert re.search(r"^nfa +1 ", out, re.M)
        assert "checkpoint manifests:" in out

        assert main(["cache", "gc", "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out and "0 entries (0 bytes) remain" in out

        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out

        # After clear, the next run is cold again.
        assert main(["verify", "mp"]) == 0
        assert "cache: verdict 0/1 hits" in capsys.readouterr().out

    def test_explicit_cache_dir_flag(self, tmp_path, capsys):
        cache_dir = tmp_path / "explicit"
        assert main(["verify", "mp", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert (cache_dir / "verdicts").is_dir()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert str(cache_dir) in capsys.readouterr().out

    def test_suite_warm_run_all_hits(self, capsys):
        assert main(["suite", "--only", "mp", "sb"]) == 0
        assert "cache: verdict 0/2 hits" in capsys.readouterr().out
        assert main(["suite", "--only", "mp", "sb"]) == 0
        assert "cache: verdict 2/2 hits" in capsys.readouterr().out


class TestCoverageCLI:
    """The ``--coverage`` surface and the ``coverage`` subcommand.

    The autouse conftest fixture gives every test a private
    ``$REPRO_CACHE_DIR``, so the default database path lands in a
    temporary directory.
    """

    def _metrics_tail(self, capsys, jobs):
        assert (
            main(
                [
                    "suite",
                    "--only",
                    "mp",
                    "sb",
                    "lb",
                    "--metrics",
                    "--coverage",
                    "--no-cache",
                    "--jobs",
                    str(jobs),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # Everything from the counters header on is the deterministic
        # machine-facing tail: counters, gauges, closure summary.
        return out[out.index("counters:") :]

    def test_metrics_output_byte_stable_across_jobs(self, capsys):
        serial = self._metrics_tail(capsys, 1)
        parallel = self._metrics_tail(capsys, 2)
        assert serial == parallel
        assert "coverage.state.keys" in serial
        assert "\ngauges:\n" in serial
        assert "coverage closure:" in serial

    def test_verify_coverage_prints_closure(self, capsys):
        assert main(["verify", "mp", "--coverage", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "coverage closure:" in out
        assert "transition" in out

    def test_suite_coverage_report_file_and_db(self, tmp_path, capsys):
        import json

        from repro.obs import validate_coverage_report
        from repro.obs.coverage import default_coverage_db_path

        closure_path = tmp_path / "closure.json"
        assert (
            main(
                [
                    "suite",
                    "--only",
                    "mp",
                    "sb",
                    "--coverage-report",
                    str(closure_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "coverage database updated:" in out
        closure = json.loads(closure_path.read_text())
        assert validate_coverage_report(closure) == []
        assert closure["tests"] == 2
        # --coverage-report implied --coverage; the run report's suite
        # database landed at the cache-derived default path.
        import os

        assert os.path.exists(default_coverage_db_path())

    def test_report_embeds_closure(self, tmp_path):
        import json

        report_path = tmp_path / "r.json"
        assert (
            main(
                [
                    "suite",
                    "--only",
                    "mp",
                    "--coverage",
                    "--no-cache",
                    "--report",
                    str(report_path),
                ]
            )
            == 0
        )
        report = json.loads(report_path.read_text())
        assert report["coverage"]["kind"] == "rtlcheck-coverage-report"

    def test_coverage_report_diff_merge_roundtrip(self, tmp_path, capsys):
        closure_a = tmp_path / "a.json"
        closure_b = tmp_path / "b.json"
        assert (
            main(
                [
                    "fuzz",
                    "--seed",
                    "5",
                    "--budget",
                    "6",
                    "--oracles",
                    "operational",
                    "axiomatic",
                    "--no-shrink",
                    "--coverage-report",
                    str(closure_a),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "fuzz",
                    "--seed",
                    "6",
                    "--budget",
                    "6",
                    "--oracles",
                    "operational",
                    "axiomatic",
                    "--no-shrink",
                    "--coverage-report",
                    str(closure_b),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "(+" in out and "new)" in out  # novelty progress column
        assert main(["coverage", "report"]) == 0
        out = capsys.readouterr().out
        assert "coverage database:" in out
        assert "campaigns merged: 2" in out
        assert main(["coverage", "diff", str(closure_a), str(closure_b)]) == 0
        assert "new in other" in capsys.readouterr().out
        merged_db = tmp_path / "merged.json"
        assert (
            main(
                [
                    "coverage",
                    "merge",
                    str(closure_a),
                    str(closure_b),
                    "--into",
                    str(merged_db),
                ]
            )
            == 0
        )
        assert "merged 2 document(s)" in capsys.readouterr().out
        assert main(["coverage", "report", "--db", str(merged_db)]) == 0
        assert "shape" in capsys.readouterr().out

    def test_coverage_diff_rejects_non_coverage_document(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        with pytest.raises(SystemExit):
            main(["coverage", "diff", str(bogus), str(bogus)])
        assert "not a coverage database" in capsys.readouterr().err

    def test_guided_fuzz_cli(self, capsys):
        assert (
            main(
                [
                    "fuzz",
                    "--seed",
                    "5",
                    "--budget",
                    "8",
                    "--oracles",
                    "operational",
                    "axiomatic",
                    "--no-shrink",
                    "--guided",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "scheduler: coverage-guided" in out
