"""Pinned x86-TSO verifier verdicts for the 56-test paper suite.

``tests/fixtures/tso_verdicts.json`` pins, per suite test and per
store-buffer drain order (``fifo``, and the seeded ``lifo`` bug through
the ``"buggy"`` variant), the :func:`verification_digest` of
``RTLCheck.for_tso()`` — every verdict, bound, counterexample frame and
modeled hour — plus the logical transitions and states explored by the
cover and property walks.  Any change to Multi-V-scale-TSO's
simulation, its state encoding or the verifier under it shows up as a
diff against this table.

A fast subset replays on every tier-1 run; ``RTLCHECK_GOLDEN_FULL=1``
replays all 112 rows.  Regenerate an intentionally-changed table with
``tools/regen_golden_verdicts.py --tso-only``.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from repro import paper_suite

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from regen_golden_verdicts import (  # noqa: E402
    TSO_DRAINS,
    TSO_FIXTURE,
    TSO_KIND,
    tso_row,
)

#: A relaxation the design exhibits yet verifies (sb), a LIFO bug with
#: a counterexample (mp), a cover-unreachable test (lb), store-buffer
#: forwarding (rfi000) and the smallest test (ssl).
FAST_SUBSET = ("sb", "mp", "lb", "rfi000", "ssl")

GOLDEN_FULL = os.environ.get("RTLCHECK_GOLDEN_FULL") == "1"


def _table():
    with open(TSO_FIXTURE) as handle:
        document = json.load(handle)
    assert document["kind"] == TSO_KIND
    assert document["schema_version"] == 1
    return {(row["test"], row["drain"]): row for row in document["tests"]}


TABLE = _table()


def test_covers_whole_suite_on_both_drain_orders():
    names = [test.name for test in paper_suite()]
    assert sorted(TABLE) == sorted(
        (name, drain) for name in names for drain in TSO_DRAINS
    )
    for name in FAST_SUBSET:
        assert (name, "fifo") in TABLE


def _cases():
    names = sorted({name for name, _ in TABLE}) if GOLDEN_FULL else FAST_SUBSET
    return [(name, drain) for name in names for drain in TSO_DRAINS]


@pytest.mark.parametrize("name,drain", _cases())
def test_tso_verification_matches_pin(name, drain):
    assert tso_row(name, drain) == TABLE[(name, drain)]
