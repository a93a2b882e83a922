"""Tests for the V-scale data memory: the store-dropping bug and the fix."""

import pytest

from repro.vscale.memory import BuggyMemory, FixedMemory
from repro.vscale.params import DMEM_LOAD, DMEM_STORE

X, Y = 40, 41


def _snapshot(mem):
    """The memory's state through its flat slot protocol."""
    buf = [0] * mem.slot_count()
    mem.write_slots(buf, 0)
    return buf


def _restore(mem, snap):
    mem.read_slots(snap, 0)


class TestFixedMemory:
    def test_store_commits_one_cycle_after_data_phase(self):
        mem = FixedMemory({X: 0})
        mem.tick((0, DMEM_STORE, X), 0)  # address phase of store
        assert mem.read_word(X) == 0
        mem.tick(None, 7)  # data phase: core presents 7
        assert mem.read_word(X) == 7

    def test_load_reads_array_combinationally(self):
        mem = FixedMemory({X: 5})
        mem.tick((1, DMEM_LOAD, X), 0)
        assert mem.load_output() == 5

    def test_back_to_back_store_then_load(self):
        """The paper's fix: data written by a store in one cycle can be
        read by a load in the next cycle."""
        mem = FixedMemory({X: 0})
        mem.tick((0, DMEM_STORE, X), 0)     # store addr phase
        mem.tick((1, DMEM_LOAD, X), 9)      # store data phase + load addr phase
        assert mem.load_output() == 9       # load data phase sees the store

    def test_successive_stores_both_commit(self):
        mem = FixedMemory({X: 0, Y: 0})
        mem.tick((0, DMEM_STORE, X), 0)
        mem.tick((0, DMEM_STORE, Y), 1)  # X's data phase, Y's addr phase
        mem.tick(None, 2)                # Y's data phase
        assert mem.read_word(X) == 1
        assert mem.read_word(Y) == 2

    def test_load_output_zero_when_no_pending_load(self):
        mem = FixedMemory({X: 3})
        assert mem.load_output() == 0
        mem.tick((0, DMEM_STORE, X), 0)
        assert mem.load_output() == 0

    def test_snapshot_restore(self):
        mem = FixedMemory({X: 0})
        mem.tick((0, DMEM_STORE, X), 0)
        snap = _snapshot(mem)
        mem.tick(None, 5)
        assert mem.read_word(X) == 5
        _restore(mem, snap)
        assert mem.read_word(X) == 0
        mem.tick(None, 5)
        assert mem.read_word(X) == 5

    def test_reset_restores_initial_contents(self):
        mem = FixedMemory({X: 4})
        mem.tick((0, DMEM_STORE, X), 0)
        mem.tick(None, 9)
        mem.reset()
        assert mem.read_word(X) == 4
        assert mem.pending is None


class TestBuggyMemory:
    def test_single_store_lands_in_wdata(self):
        mem = BuggyMemory({X: 0})
        mem.tick((0, DMEM_STORE, X), 0)   # addr phase
        mem.tick(None, 7)                 # data phase -> wdata
        assert mem.wdata == 7 and mem.waddr == X and mem.wvalid
        assert mem.read_word(X) == 0      # array not yet updated

    def test_load_bypasses_from_wdata(self):
        mem = BuggyMemory({X: 0})
        mem.tick((0, DMEM_STORE, X), 0)
        mem.tick((1, DMEM_LOAD, X), 7)    # store data phase + load addr
        assert mem.load_output() == 7     # bypass from the store buffer

    def test_successive_stores_drop_the_first(self):
        """Figure 12: if two stores start in successive cycles, the
        memory pushes the *stale* wdata into the first store's slot."""
        mem = BuggyMemory({X: 0, Y: 0})
        mem.tick((0, DMEM_STORE, X), 0)   # cycle 2: St x addr phase
        mem.tick((0, DMEM_STORE, Y), 1)   # cycle 3: St y addr + St x data
        # The push used wdata's old value (0), so x is corrupted:
        assert mem.read_word(X) == 0
        mem.tick(None, 2)                 # St y data phase
        assert mem.wdata == 2 and mem.waddr == Y
        # y's value only lives in wdata; x's value 1 was lost entirely.
        assert mem.read_word(Y) == 0

    def test_spaced_stores_do_not_drop(self):
        mem = BuggyMemory({X: 0, Y: 0})
        mem.tick((0, DMEM_STORE, X), 0)
        mem.tick(None, 1)                 # St x data phase
        mem.tick((0, DMEM_STORE, Y), 0)   # push x (wdata now correct)
        assert mem.read_word(X) == 1
        mem.tick(None, 2)
        assert mem.wdata == 2

    def test_load_transaction_does_not_push(self):
        mem = BuggyMemory({X: 0, Y: 5})
        mem.tick((0, DMEM_STORE, X), 0)
        mem.tick((1, DMEM_LOAD, Y), 1)    # load txn: no push
        assert mem.read_word(X) == 0      # x still unpushed (in wdata)
        assert mem.load_output() == 5

    def test_same_address_successive_stores_mask_the_bug(self):
        """Dropping the first of two same-address stores is architecturally
        invisible (the second overwrites it) — why the bug needed litmus
        tests to find."""
        mem = BuggyMemory({X: 0})
        mem.tick((0, DMEM_STORE, X), 0)
        mem.tick((0, DMEM_STORE, X), 1)
        mem.tick((1, DMEM_LOAD, X), 2)
        assert mem.load_output() == 2     # bypass returns the last store

    def test_ready_hardcoded_high(self):
        assert BuggyMemory().ready == 1
        assert FixedMemory().ready == 1

    def test_snapshot_includes_store_buffer(self):
        mem = BuggyMemory({X: 0})
        mem.tick((0, DMEM_STORE, X), 0)
        mem.tick(None, 7)
        snap = _snapshot(mem)
        mem.tick((0, DMEM_STORE, Y), 0)
        _restore(mem, snap)
        assert mem.wdata == 7 and mem.waddr == X and mem.wvalid == 1
        assert mem.pending is None
