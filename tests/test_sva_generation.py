"""Pinned SVA generation for the paper suite and the fuzz workload.

``tests/fixtures/sva_generation.json`` pins, per test and µspec model
(``RTLCheck()`` and ``RTLCheck.for_tso()`` over the 56 suite tests, plus
the ``fuzz`` workload's 20 seed-0 programs on ``RTLCheck()``), digests
of the generated ``sva_text``, of the directive-name list, and of the
``repr`` of every axiom's ground formula in ``"rtl"`` and ``"check"``
mode.  Operand order inside ground formulas fixes property order, and
so directive names and text: any change to grounding, simplification,
node mapping or SVA emission shows up as a diff against this table.

A fast subset replays on every tier-1 run; ``RTLCHECK_GOLDEN_FULL=1``
replays all 132 rows.  Regenerate an intentionally-changed table with
``tools/regen_golden_verdicts.py --sva-only``.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from repro import paper_suite

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from regen_golden_verdicts import (  # noqa: E402
    SVA_FIXTURE,
    SVA_KIND,
    sva_cases,
    sva_row,
)

#: Message passing, store buffering, a fenced test, a store-forwarding
#: test and the smallest test, on both models; plus three fuzz
#: programs, one of whose check-mode grounding raises.
FAST_SUBSET = ("mp", "sb", "amd3", "rfi000", "ssl", "fz0-00000", "fz0-00002",
               "fz0-00004")

GOLDEN_FULL = os.environ.get("RTLCHECK_GOLDEN_FULL") == "1"


def _table():
    with open(SVA_FIXTURE) as handle:
        document = json.load(handle)
    assert document["kind"] == SVA_KIND
    assert document["schema_version"] == 1
    return {(row["model"], row["test"]): row for row in document["tests"]}


TABLE = _table()

CASES = {(model, test.name): (source, model, test) for source, model, test in sva_cases()}


def test_covers_suite_on_both_models_and_the_fuzz_programs():
    names = [test.name for test in paper_suite()]
    assert sorted(TABLE) == sorted(CASES)
    for model in ("mvs", "tso"):
        assert all((model, name) in TABLE for name in names)
    assert sum(1 for row in TABLE.values() if row["source"] == "fuzz") == 20
    for name in FAST_SUBSET:
        assert ("mvs", name) in TABLE


def _keys():
    if GOLDEN_FULL:
        return sorted(TABLE)
    return sorted(key for key in TABLE if key[1] in FAST_SUBSET)


@pytest.mark.parametrize("model,name", _keys())
def test_generation_matches_pin(model, name):
    assert sva_row(*CASES[(model, name)]) == TABLE[(model, name)]
