"""The memory arbiter connecting the four cores to data memory.

Only one core may start a data-memory transaction per cycle.  The
switching pattern is dictated by a free top-level input — the paper sets
it up this way precisely so the property verifier explores *all*
switching scenarios (§5.2).  The arbiter is pipelined: while
``cur_core`` starts an address phase, ``prev_core`` (granted last cycle)
is completing its data phase (Figures 6, 11).
"""

from __future__ import annotations


class Arbiter:
    """Registered grant: the select input names next cycle's owner."""

    def __init__(self, num_cores: int):
        self.num_cores = num_cores
        self.reset()

    def reset(self) -> None:
        self.cur_core = 0
        self.prev_core = 0

    def granted(self, core: int) -> bool:
        return self.cur_core == core

    def tick(self, select: int) -> None:
        self.prev_core = self.cur_core
        self.cur_core = select % self.num_cores

    # -- flat slot protocol --------------------------------------------

    #: ``cur_core`` (slot 0 — the only state a grant choice touches,
    #: which is what makes batched expansion a one-slot patch) and
    #: ``prev_core`` (slot 1).
    SLOT_COUNT = 2

    def write_slots(self, buf, base: int) -> None:
        buf[base] = self.cur_core
        buf[base + 1] = self.prev_core

    def read_slots(self, vec, base: int) -> None:
        self.cur_core = vec[base]
        self.prev_core = vec[base + 1]
