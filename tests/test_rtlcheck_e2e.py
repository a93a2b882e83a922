"""End-to-end RTLCheck flow tests (the paper's headline results)."""

import pytest

from repro import RTLCheck, FULL_PROOF, HYBRID, get_test
from repro.rtl.trace import render_timing_diagram


@pytest.fixture(scope="module")
def rtlcheck():
    return RTLCheck()


class TestGeneration:
    def test_generation_takes_under_a_second(self, rtlcheck):
        """The paper reports assertion/assumption generation 'takes just
        seconds per test'; ours is well under one."""
        generated = rtlcheck.generate(get_test("mp"))
        assert generated.generation_seconds < 1.0
        assert generated.assumptions and generated.assertions

    def test_sva_file_structure(self, rtlcheck):
        generated = rtlcheck.generate(get_test("mp"))
        text = generated.sva_text
        assert "reg first;" in text
        assert "assume property (@(posedge clk)" in text
        assert "assert property (@(posedge clk)" in text
        assert text.count("assert property") == len(generated.assertions)
        assert text.count("assume property") == len(generated.assumptions)

    def test_all_assertions_named_after_test_and_axiom(self, rtlcheck):
        generated = rtlcheck.generate(get_test("mp"))
        assert all(d.name.startswith("mp_") for d in generated.assertions)
        assert any("Read_Values" in d.name for d in generated.assertions)


class TestBugDiscovery:
    """Paper §7.1: the V-scale store-dropping bug, found via mp."""

    def test_buggy_memory_yields_read_values_counterexample(self, rtlcheck):
        result = rtlcheck.verify_test(get_test("mp"), memory_variant="buggy")
        assert result.bug_found
        assert not result.verified
        assert any("Read_Values" in p.name for p in result.counterexamples)

    def test_counterexample_trace_shows_dropped_store(self, rtlcheck):
        result = rtlcheck.verify_test(get_test("mp"), memory_variant="buggy")
        cex = result.counterexamples[0].counterexample
        assert cex is not None
        frames = [frame for _inputs, frame in cex]
        # Figure 12: the wdata store buffer is active in the trace and
        # the corrupted x slot reads 0 while the load of y returns 1.
        assert any(frame.get("mem.wvalid") for frame in frames)
        # Renders as a timing diagram without error.
        text = render_timing_diagram(frames, ["core[0].PC_WB", "mem.wdata"])
        assert "mem.wdata" in text

    def test_buggy_verification_not_shortcut_by_cover(self, rtlcheck):
        """On the buggy design mp's 'forbidden' outcome is reachable, so
        the final-value assumption fires and assertions must run."""
        result = rtlcheck.verify_test(get_test("mp"), memory_variant="buggy")
        assert not result.verified_by_cover
        assert "final_values" in result.cover.fired_assumptions

    def test_single_core_bug_invisible_to_ssl(self, rtlcheck):
        """The bug needs two stores to different addresses in successive
        cycles; ssl (store->load, same address) masks it via the wdata
        bypass — so ssl still verifies on the buggy design."""
        result = rtlcheck.verify_test(get_test("ssl"), memory_variant="buggy")
        assert result.verified


class TestFixedDesign:
    def test_mp_verified_by_unreachable_cover(self, rtlcheck):
        result = rtlcheck.verify_test(get_test("mp"))
        assert result.verified
        assert result.verified_by_cover
        assert result.cover_hours < 1.0
        assert "unreachable" in result.summary()

    def test_mp_all_properties_proven_without_shortcut(self, rtlcheck):
        result = rtlcheck.verify_test(
            get_test("mp"), skip_cover_shortcut=True
        )
        assert result.verified
        assert not result.bug_found
        assert result.proven_fraction == 1.0

    def test_allowed_outcome_goes_through_proof_phase(self, rtlcheck):
        result = rtlcheck.verify_test(get_test("iwp24"))
        assert not result.verified_by_cover
        assert result.verified
        assert result.properties

    def test_lb_fast_verification(self, rtlcheck):
        """lb is one of the paper's under-4-minute tests."""
        result = rtlcheck.verify_test(get_test("lb"))
        assert result.verified_by_cover
        assert result.cover_hours < 0.07

    def test_modeled_runtime_capped_at_eleven_hours(self, rtlcheck):
        result = rtlcheck.verify_test(get_test("iriw"))
        assert result.verified
        assert result.modeled_hours <= 11.0

    def test_bounded_bounds_use_config_depth_caps(self):
        hybrid = RTLCheck(config=HYBRID).verify_test(get_test("iriw"))
        full = RTLCheck(config=FULL_PROOF).verify_test(get_test("iriw"))
        if hybrid.bounded_bounds:
            assert max(hybrid.bounded_bounds) <= 43
        if full.bounded_bounds:
            assert max(full.bounded_bounds) <= 22

    def test_summary_strings(self, rtlcheck):
        verified = rtlcheck.verify_test(get_test("mp"))
        assert "mp" in verified.summary()
        buggy = rtlcheck.verify_test(get_test("mp"), memory_variant="buggy")
        assert "COUNTEREXAMPLE" in buggy.summary()


class TestSuiteSlice:
    @pytest.mark.parametrize("name", ["sb", "co-mp", "wrc", "rfi000", "safe000", "n1"])
    def test_fixed_design_verifies(self, rtlcheck, name):
        result = rtlcheck.verify_test(get_test(name))
        assert result.verified, result.summary()

    def test_verify_suite_helper(self, rtlcheck):
        tests = [get_test("mp"), get_test("sb")]
        results = rtlcheck.verify_suite(tests)
        assert set(results) == {"mp", "sb"}
        assert all(r.verified for r in results.values())

    def test_verify_suite_rejects_duplicate_names(self, rtlcheck):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="duplicate test name"):
            rtlcheck.verify_suite([get_test("mp"), get_test("mp")])

    def test_verify_suite_parallel_matches_serial(self, rtlcheck):
        tests = [get_test("mp"), get_test("sb"), get_test("iwp24")]
        serial = rtlcheck.verify_suite(tests)
        parallel = rtlcheck.verify_suite(tests, jobs=2)
        assert list(parallel) == list(serial)
        for name, expected in serial.items():
            got = parallel[name]
            assert got.verified == expected.verified
            assert got.verified_by_cover == expected.verified_by_cover
            assert got.modeled_hours == expected.modeled_hours
            assert [p.status for p in got.properties] == [
                p.status for p in expected.properties
            ]

    def test_verify_suite_parallel_needs_picklable_factories(self):
        from repro.errors import ReproError
        from repro.vscale.soc import MultiVScale

        rtlcheck = RTLCheck(design_factory=lambda c, v: MultiVScale(c, v))
        with pytest.raises(ReproError, match="picklable"):
            rtlcheck.verify_suite([get_test("mp"), get_test("sb")], jobs=2)

    def test_phase_counters_populated(self, rtlcheck):
        result = rtlcheck.verify_test(get_test("iwp24"))
        assert result.cover_seconds > 0
        assert result.proof_seconds > 0
        assert result.graph_states > 0
        assert result.graph_transitions > 0
        assert 0 < result.graph_build_seconds < result.wall_seconds
        assert all(p.check_seconds >= 0 for p in result.properties)

    @pytest.mark.slow
    def test_full_suite_verifies_on_fixed_design(self, rtlcheck):
        """The paper's headline: after the fix, the multicore V-scale
        satisfies its SC axioms across all 56 litmus tests."""
        from repro import paper_suite

        for test in paper_suite():
            result = rtlcheck.verify_test(test)
            assert result.verified, result.summary()
