"""The verifier's reach graphs against their pin.

``tests/fixtures/reach_graphs.json`` (written by
``tools/regen_golden_verdicts.py --reach-only``) records, for every
suite test on both memory variants, the fully built
:class:`~repro.verifier.reach.ReachGraph`: its node count, its
simulated transitions, and digests of every node's edge list and edge
frames.  Node ids come from interning order, so any change to the
design state encoding that renumbers, merges or splits states, or that
changes a settled frame, shows up here.  A fast subset replays by
default, every row under ``RTLCHECK_GOLDEN_FULL=1``.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from repro import get_test, paper_suite

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from regen_golden_verdicts import REACH_FIXTURE, REACH_KIND, reach_row  # noqa: E402

GOLDEN_FULL = os.environ.get("RTLCHECK_GOLDEN_FULL") == "1"

DOCUMENT = json.loads(Path(REACH_FIXTURE).read_text())
ROWS = {(row["test"], row["memory"]): row for row in DOCUMENT["tests"]}

#: Replayed on every tier-1 run: the canonical forbidden/permitted
#: pair, a 4-core write-atomicity test and an n-test with fences.
FAST_SUBSET = ["mp", "sb", "iwp24", "n4"]


def test_pin_covers_whole_suite():
    assert DOCUMENT["kind"] == REACH_KIND
    assert list(ROWS) == [
        (test.name, variant)
        for test in paper_suite()
        for variant in ("fixed", "buggy")
    ]


@pytest.mark.parametrize(
    "key", sorted(ROWS) if GOLDEN_FULL else [
        (name, variant) for name in FAST_SUBSET for variant in ("fixed", "buggy")
    ],
    ids="/".join,
)
def test_graph_matches_pin(key):
    name, variant = key
    assert reach_row(get_test(name), variant) == ROWS[key]
