"""Tests for the 56-test paper suite."""

import json
from pathlib import Path

import pytest

from repro.cache.keys import litmus_digest
from repro.errors import LitmusError
from repro.litmus import (
    PAPER_TEST_NAMES,
    diy_cycle_of,
    get_test,
    paper_suite,
)
from repro.litmus.suite import MAX_CORES
from repro.memodel import sc_allowed


@pytest.fixture(scope="module")
def suite():
    return paper_suite()


#: Every suite test's litmus digest and diy cycle, written by
#: ``tools/regen_golden_verdicts.py --suite-only``.
SUITE_PIN = Path(__file__).parent / "fixtures" / "paper_suite.json"


def test_suite_matches_pin(suite):
    """Suite construction must reproduce the pinned tests exactly.  The
    cache's verdict keys hash the litmus digest, so a match also means
    every test keeps its verdict key."""
    document = json.loads(SUITE_PIN.read_text())
    assert document["kind"] == "rtlcheck-paper-suite"
    assert document["schema_version"] == 1
    rows = document["tests"]
    assert [row["test"] for row in rows] == [test.name for test in suite]
    for test, row in zip(suite, rows):
        assert litmus_digest(test) == row["litmus_digest"], test.name
        cycle = diy_cycle_of(test.name)
        assert row["diy_cycle"] == (cycle and list(cycle)), test.name


class TestSuiteShape:
    def test_exactly_56_tests(self, suite):
        assert len(suite) == 56
        assert len(PAPER_TEST_NAMES) == 56

    def test_paper_name_order(self, suite):
        assert [t.name for t in suite] == PAPER_TEST_NAMES

    def test_family_counts(self):
        rfi = [n for n in PAPER_TEST_NAMES if n.startswith("rfi")]
        safe = [n for n in PAPER_TEST_NAMES if n.startswith("safe")]
        podwr = [n for n in PAPER_TEST_NAMES if n.startswith("podwr")]
        assert len(rfi) == 12
        assert len(safe) == 23
        assert len(podwr) == 2

    def test_all_tests_fit_on_four_cores(self, suite):
        for test in suite:
            assert 1 <= test.num_threads <= MAX_CORES

    def test_all_tests_compile(self, suite):
        from repro.litmus import compile_test

        for test in suite:
            compiled = compile_test(test)
            assert len(compiled.programs) == 4

    def test_names_unique(self, suite):
        names = [t.name for t in suite]
        assert len(names) == len(set(names))

    def test_get_test_roundtrip(self, suite):
        for test in suite:
            assert get_test(test.name) is test

    def test_get_test_unknown(self):
        with pytest.raises(LitmusError):
            get_test("nonexistent")


class TestGeneratedFamilies:
    def test_generated_tests_record_their_cycle(self, suite):
        for test in suite:
            cycle = diy_cycle_of(test.name)
            if test.name.startswith(("rfi", "safe", "podwr")):
                assert cycle is not None
            else:
                assert cycle is None

    def test_rfi_tests_contain_rfi_edge(self, suite):
        for test in suite:
            if test.name.startswith("rfi"):
                assert "Rfi" in diy_cycle_of(test.name)

    def test_safe_tests_avoid_tso_relaxations(self, suite):
        for test in suite:
            if test.name.startswith("safe"):
                cycle = diy_cycle_of(test.name)
                assert "Rfi" not in cycle
                assert "PodWR" not in cycle

    def test_podwr_tests_contain_podwr(self, suite):
        for test in suite:
            if test.name.startswith("podwr"):
                assert "PodWR" in diy_cycle_of(test.name)

    def test_generated_outcomes_are_sc_forbidden(self, suite):
        for test in suite:
            if diy_cycle_of(test.name) is not None:
                assert not sc_allowed(test), test.name


class TestOracleClassification:
    def test_verdict_snapshot(self, suite):
        """The suite contains exactly three SC-allowed candidate
        outcomes (iwp24's one-thread-first interleaving, n5's
        read-own-store, and amd3's 2+2W observation); everything else
        is forbidden — the shape RTLCheck's covering-trace shortcut
        depends on."""
        allowed = sorted(t.name for t in suite if sc_allowed(t))
        assert allowed == ["amd3", "iwp24", "n5"]

    def test_every_load_value_is_pinned(self, suite):
        """Check-mode omniscient evaluation needs every load's value in
        the outcome."""
        for test in suite:
            outs = {op.out for thread in test.threads for op in thread if op.is_load}
            assert outs <= set(test.outcome.register_map), test.name
