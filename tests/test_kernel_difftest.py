"""The fuzzer's trace oracle on the compiled kernel.

The differential fuzzer's ``trace`` oracle samples grant schedules with
``repro.vscale.trace.harvest_traces``, which steps raw slot vectors
through the frame-free compiled kernel (``MultiVScale.state_step``).
Its campaigns are only reproducible if that harvest replays exactly and
matches the interpreter's reference wavefront.
"""

from repro import get_test
from repro.vscale.trace import harvest_traces
from tests.test_trace_harvest import assert_same_harvest, reference_harvest


class TestFuzzBackendEquivalence:
    def test_trace_oracle_harvest_deterministic(self):
        """The trace oracle's sampling replays exactly — same (test,
        variant, seed, samples) → same harvest — and matches the
        reference wavefront."""
        first = harvest_traces(get_test("mp"), "buggy", samples=4, seed=0)
        second = harvest_traces(get_test("mp"), "buggy", samples=4, seed=0)
        assert_same_harvest(first, second)
        assert_same_harvest(
            first, reference_harvest(get_test("mp"), "buggy", samples=4, seed=0)
        )
