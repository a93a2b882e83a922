"""Fuzz-campaign regression: kernel backend == array backend.

The differential fuzzer is the repo's broadest consumer of the design
step path — every oracle layer, the shrinker, and the report writer sit
downstream of it.  A seeded campaign on the kernel backend must
therefore produce a byte-identical report to the same campaign on the
array backend, once wall-clock fields and the campaign's own
``state_backend`` echo are scrubbed.

The default budget keeps CI fast; set ``RTLCHECK_STATE_BACKEND_FULL=1``
for the 200-test campaign from the issue's acceptance checklist.
"""

import json
import os

from repro.difftest import FuzzConfig, run_fuzz, validate_fuzz_report
from repro.vscale.trace import harvest_traces
from repro import get_test
from tests.test_trace_harvest import assert_same_harvest, reference_harvest

FULL = os.environ.get("RTLCHECK_STATE_BACKEND_FULL") == "1"
BUDGET = 200 if FULL else 30

ORACLES = ("operational", "axiomatic", "rtl", "trace")


def _scrub(obj):
    if isinstance(obj, dict):
        return {
            key: _scrub(value)
            for key, value in obj.items()
            if not (
                isinstance(key, str)
                and (key.endswith("seconds") or key == "state_backend")
            )
        }
    if isinstance(obj, list):
        return [_scrub(item) for item in obj]
    return obj


def _campaign(backend):
    result = run_fuzz(
        FuzzConfig(
            seed=0,
            budget=BUDGET,
            oracles=ORACLES,
            memory_variant="buggy",
            shrink_limit=2,
            state_backend=backend,
        )
    )
    report = result.report()
    assert validate_fuzz_report(report) == []
    return report


class TestFuzzBackendEquivalence:
    def test_seeded_campaign_byte_identical(self):
        kernel = _campaign("kernel")
        array = _campaign("array")
        assert kernel["state_backend"] == "kernel"
        assert array["state_backend"] == "array"
        kernel_text = json.dumps(_scrub(kernel), sort_keys=True)
        array_text = json.dumps(_scrub(array), sort_keys=True)
        assert kernel_text == array_text

    def test_trace_oracle_harvest_deterministic(self):
        """The trace oracle's sampling replays exactly — same (test,
        variant, seed, samples) → same harvest — and matches the
        reference wavefront on the kernel backend."""
        first = harvest_traces(get_test("mp"), "buggy", samples=4, seed=0)
        second = harvest_traces(get_test("mp"), "buggy", samples=4, seed=0)
        assert_same_harvest(first, second)
        assert_same_harvest(
            first,
            reference_harvest(
                get_test("mp"), "buggy", samples=4, seed=0, state_backend="kernel"
            ),
        )
