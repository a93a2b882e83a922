"""The V-scale pipelined data memory — buggy and fixed variants.

The memory accepts one transaction per cycle (*address phase*, issued by
the instruction in DX through the arbiter) and completes it the next
cycle (*data phase*, while the instruction is in WB): a load's data is
returned combinationally in the data phase; a store's data is presented
in the data phase and clocked in on the next rising edge (paper §5.1,
Figure 11).

:class:`BuggyMemory` reproduces the shipped V-scale implementation that
RTLCheck exposed (paper §7.1, Figure 12): store data is first staged in
a ``wdata`` register acting as a single-entry store buffer, and ``wdata``
is pushed to the array only when *another* store initiates a
transaction.  If two stores start in successive cycles, the push of the
first store's slot happens before ``wdata`` has been updated with the
first store's data, so the first store is dropped (the memory's
hard-coded ``ready`` signal claims it can accept a store every cycle).

:class:`FixedMemory` is the paper's fix: the intermediate ``wdata``
register is eliminated and a store's data is clocked directly into the
array one cycle after its WB stage, where the next cycle's loads can
read it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import RtlError
from repro.vscale.params import DMEM_LOAD, DMEM_STORE

#: An in-flight transaction: (core, kind, word address).
Transaction = Tuple[int, int, int]


def write_word_slots(
    array: Dict[int, int], words: Sequence[int], buf: List[int], off: int
) -> None:
    """Write ``array``'s declared ``words`` into ``buf[off:]``, in
    order; raise if the array grew a word outside them."""
    if len(array) != len(words):
        extras = sorted(set(array) - set(words))
        raise RtlError(
            "memory grew words outside the declared data set "
            f"{extras}; the flat state layout is static, so every "
            "store target must appear in the initial data memory"
        )
    for index, word in enumerate(words):
        buf[off + index] = array[word]


class MemoryBase:
    """Common state: the word array and the pipelined transaction."""

    #: Matches the V-scale implementation: ready is hard-coded high, so
    #: the pipeline believes a store can be accepted every cycle.
    ready = 1

    def __init__(self, initial: Optional[Dict[int, int]] = None):
        self.initial = dict(initial or {})
        #: The declared word addresses, in slot order.  Litmus-compiled
        #: programs only ever store to declared words, so the flat slot
        #: layout can hold the array statically.
        self.slot_words: Tuple[int, ...] = tuple(sorted(self.initial))
        self.reset()

    def reset(self) -> None:
        self.array: Dict[int, int] = dict(self.initial)
        self.pending: Optional[Transaction] = None

    def read_word(self, word: int) -> int:
        return self.array.get(word, 0)

    # -- combinational -------------------------------------------------

    def load_output(self) -> int:
        """Data returned during the data phase of a pending load."""
        raise NotImplementedError

    # -- sequential ----------------------------------------------------

    def tick(self, new_txn: Optional[Transaction], store_data: int) -> None:
        """Clock edge: ``new_txn`` is this cycle's address phase (if any);
        ``store_data`` is the data presented by a pending store's WB."""
        raise NotImplementedError

    # -- flat slot protocol --------------------------------------------

    #: Pending-transaction encoding: (valid, core, kind, word address).
    PENDING_SLOTS = 4

    def slot_count(self) -> int:
        return self.PENDING_SLOTS + len(self.slot_words)

    def write_slots(self, buf: List[int], base: int) -> None:
        raise NotImplementedError

    def read_slots(self, vec, base: int) -> None:
        raise NotImplementedError

    def _write_base_slots(self, buf: List[int], base: int) -> None:
        pending = self.pending
        if pending is None:
            buf[base] = buf[base + 1] = buf[base + 2] = buf[base + 3] = 0
        else:
            buf[base] = 1
            buf[base + 1], buf[base + 2], buf[base + 3] = pending
        write_word_slots(
            self.array, self.slot_words, buf, base + self.PENDING_SLOTS
        )

    def _read_base_slots(self, vec, base: int) -> None:
        if vec[base]:
            self.pending = (vec[base + 1], vec[base + 2], vec[base + 3])
        else:
            self.pending = None
        off = base + self.PENDING_SLOTS
        self.array = {
            word: vec[off + index]
            for index, word in enumerate(self.slot_words)
        }


class BuggyMemory(MemoryBase):
    """The shipped V-scale memory with the store-dropping bug."""

    def reset(self) -> None:
        super().reset()
        self.wvalid = 0
        self.waddr = 0
        self.wdata = 0

    def load_output(self) -> int:
        if self.pending is None or self.pending[1] != DMEM_LOAD:
            return 0
        addr = self.pending[2]
        # Bypass from the single-entry store buffer.
        if self.wvalid and self.waddr == addr:
            return self.wdata
        return self.read_word(addr)

    def tick(self, new_txn: Optional[Transaction], store_data: int) -> None:
        new_is_store = new_txn is not None and new_txn[1] == DMEM_STORE
        if new_is_store:
            if self.wvalid:
                # Push the buffered slot to the array to make room. The
                # bug: this uses wdata's CURRENT value, which has not yet
                # been updated if the buffered store's data phase is only
                # happening this cycle.
                self.array[self.waddr] = self.wdata
            self.waddr = new_txn[2]
            self.wvalid = 1
        if self.pending is not None and self.pending[1] == DMEM_STORE:
            # The pending store's data phase: clock its data into wdata.
            self.wdata = store_data
        self.pending = new_txn

    def slot_count(self) -> int:
        return super().slot_count() + 3

    def write_slots(self, buf: List[int], base: int) -> None:
        self._write_base_slots(buf, base)
        off = base + self.PENDING_SLOTS + len(self.slot_words)
        buf[off] = self.wvalid
        buf[off + 1] = self.waddr
        buf[off + 2] = self.wdata

    def read_slots(self, vec, base: int) -> None:
        self._read_base_slots(vec, base)
        off = base + self.PENDING_SLOTS + len(self.slot_words)
        self.wvalid = vec[off]
        self.waddr = vec[off + 1]
        self.wdata = vec[off + 2]


class FixedMemory(MemoryBase):
    """The corrected memory: stores commit directly to the array."""

    def load_output(self) -> int:
        if self.pending is None or self.pending[1] != DMEM_LOAD:
            return 0
        return self.read_word(self.pending[2])

    def tick(self, new_txn: Optional[Transaction], store_data: int) -> None:
        if self.pending is not None and self.pending[1] == DMEM_STORE:
            self.array[self.pending[2]] = store_data
        self.pending = new_txn

    def write_slots(self, buf: List[int], base: int) -> None:
        self._write_base_slots(buf, base)

    def read_slots(self, vec, base: int) -> None:
        self._read_base_slots(vec, base)
