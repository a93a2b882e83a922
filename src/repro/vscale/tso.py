"""Multi-V-scale-TSO: a store-buffer variant implementing x86-TSO.

The paper emphasizes that RTLCheck "supports arbitrary ISA-level MCMs,
including ones as sophisticated as x86-TSO" but only evaluates an SC
design.  This module provides the weaker-model case study: each core
gains a FIFO store buffer with store-to-load forwarding, so the machine
exhibits the classic TSO relaxation (the store-buffering outcome of
``sb`` becomes observable) while still satisfying a TSO µspec model
(``repro/uspec/models/multi_vscale_tso.uspec``).

Microarchitecture
-----------------

* Stores do **not** arbitrate for memory at DX; they retire into their
  core's store buffer at the end of WB.
* Loads arbitrate at DX (address phase) as on the SC design; in their
  WB data phase they *forward* from the youngest same-address entry of
  their own store buffer, else read the memory array.
* When the arbiter grants a core whose DX does not need the port, the
  core *drains* its store-buffer head instead: the entry pops at the
  grant cycle and commits to the array during the next cycle (the drain
  occupies the port's data-phase slot, so at most one memory event —
  a load's data phase or a store's commit — happens per cycle, which is
  what makes the µhb ``Memory`` stage events totally ordered and the
  generated SVA sequences well-formed).
* ``fence`` and ``halt`` stall in DX until the core's buffer has fully
  drained, so a drained machine has committed everything.

State
-----

The design snapshots to the same interned flat slot vectors as
Multi-V-scale (:class:`~repro.vscale.soc.VScaleSoC`), and expands
through the same batched ``step_batch``: the grant select feeds only
the arbiter's clock edge.  After the cores' and arbiter's blocks come
the declared memory words, then per core ``STORE_BUFFER_CAPACITY``
``(addr, data, pc)`` entries (oldest first, ``-1`` filling empty
entries), then the in-flight transaction as ``(kind, core, addr, data,
pc)`` with kind 0 for none, 1 for a load, 2 for a drain commit, and
last the cores' register windows.

Signals added to trace frames: ``core[i].sb_count``,
``core[i].commit_valid`` / ``core[i].commit_pc`` (the Memory-stage event
of the committing store), and ``core[i].fwd_valid`` (the load in WB
forwarded from the store buffer).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import RtlError
from repro.isa import Fence, Halt, Lw, Sw
from repro.litmus.test import CompiledTest
from repro.rtl.design import Frame, SlotLayout
from repro.vscale.memory import write_word_slots
from repro.vscale.params import DMEM_LOAD, DMEM_STORE, NUM_CORES
from repro.vscale.soc import VScaleSoC

#: Store-buffer capacity per core.
STORE_BUFFER_CAPACITY = 2

#: A store-buffer entry: (word address, data, absolute pc).
SbEntry = Tuple[int, int, int]

#: An in-flight port transaction: a load's data phase or a drain commit.
#: ("L", core, addr) or ("D", core, addr, data, pc)
Txn = Tuple

#: Slot code of each in-flight transaction kind (0: none); ``read_slots``
#: decodes in the same order.
_TXN_CODES = {"L": 1, "D": 2}
#: The transaction block: kind, core, addr, data, pc.
_TXN_SLOTS = 5
#: Slots per store-buffer entry: addr, data, pc.
_ENTRY_SLOTS = 3

#: Per-core frame signal names in :meth:`MultiVScaleTSO.eval_comb`'s
#: insertion order.
_TSO_CORE_SIGNALS = (
    "PC_IF",
    "PC_DX",
    "PC_WB",
    "stall_IF",
    "stall_DX",
    "stall_WB",
    "dmem_type_DX",
    "dmem_type_WB",
    "load_data_WB",
    "fwd_valid",
    "store_data_WB",
    "halted",
    "sb_count",
    "commit_valid",
    "commit_pc",
)

#: ``_TSO_CORE_KEYS[core_id]``: that core's frame keys, built once so
#: every frame shares the same key objects (as Multi-V-scale's do).
_TSO_CORE_KEYS = tuple(
    tuple(f"core[{core_id}].{name}" for name in _TSO_CORE_SIGNALS)
    for core_id in range(NUM_CORES)
)


class MultiVScaleTSO(VScaleSoC):
    """The four-core V-scale SoC with per-core store buffers (x86-TSO).

    ``drain_order`` selects ``"fifo"`` (correct) or ``"lifo"`` — a
    seeded bug where the buffer drains its *youngest* entry first,
    breaking the total-store-order guarantee; RTLCheck's
    Store_Buffer_FIFO / Read_Values assertions catch it (the TSO
    analogue of the paper's §7.1 case study).
    """

    def __init__(self, compiled: CompiledTest, drain_order: str = "fifo"):
        if drain_order not in ("fifo", "lifo"):
            raise RtlError(f"unknown drain order {drain_order!r}")
        super().__init__(compiled)
        self.drain_order = drain_order
        self.reset()
        self.enable_array_state()

    # ------------------------------------------------------------------

    def reset(self) -> None:
        super().reset()
        self.array: Dict[int, int] = dict(self.compiled.initial_data_memory)
        self.buffers: List[List[SbEntry]] = [[] for _ in range(NUM_CORES)]
        self.pending: Optional[Txn] = None

    # ------------------------------------------------------------------

    def read_word(self, word: int) -> int:
        return self.array.get(word, 0)

    def _forward(self, core_id: int, word: int) -> Optional[int]:
        """Youngest same-address store-buffer entry of ``core_id``."""
        for addr, data, _pc in reversed(self.buffers[core_id]):
            if addr == word:
                return data
        return None

    def eval_comb(self, inputs) -> Frame:
        select = inputs.get("arb_select", 0)
        granted = self.arbiter.cur_core
        views = [core.dx_view() for core in self.cores]

        stall_dx = [False] * NUM_CORES
        for core_id, (core, view) in enumerate(zip(self.cores, views)):
            buffer = self.buffers[core_id]
            # A store currently in WB pushes into the buffer at the end
            # of this cycle; occupancy checks must count it.
            wb_store = int(core.wb_valid and core.wb_type == DMEM_STORE)
            if not view.valid:
                continue
            instr = view.instr
            if isinstance(instr, Lw):
                # Loads need the port's address phase.
                stall_dx[core_id] = core_id != granted
            elif isinstance(instr, Sw):
                # Stores need store-buffer space when they reach WB.
                stall_dx[core_id] = (
                    len(buffer) + wb_store >= STORE_BUFFER_CAPACITY
                )
            elif isinstance(instr, (Fence, Halt)):
                # Fences (and halt, which drains before stopping) wait
                # for every earlier store: still in WB, buffered, or
                # with an in-flight commit.
                in_flight = (
                    self.pending is not None
                    and self.pending[0] == "D"
                    and self.pending[1] == core_id
                )
                stall_dx[core_id] = bool(buffer) or in_flight or bool(wb_store)

        # The granted core uses the port: a DX load's address phase, or
        # a store-buffer drain.
        new_txn: Optional[Txn] = None
        granted_view = views[granted]
        if (
            granted_view.valid
            and isinstance(granted_view.instr, Lw)
            and not stall_dx[granted]
        ):
            new_txn = ("L", granted, granted_view.mem_addr >> 2)
        elif self.buffers[granted]:
            index = 0 if self.drain_order == "fifo" else -1
            addr, data, pc = self.buffers[granted][index]
            new_txn = ("D", granted, addr, data, pc)

        # Data phase of last cycle's transaction.
        load_out = 0
        fwd_valid = 0
        commit = None  # (core, addr, data, pc)
        if self.pending is not None:
            if self.pending[0] == "L":
                _kind, owner, word = self.pending
                forwarded = self._forward(owner, word)
                if forwarded is not None:
                    load_out = forwarded
                    fwd_valid = 1
                else:
                    load_out = self.read_word(word)
            else:
                _kind, owner, addr, data, pc = self.pending
                commit = (owner, addr, data, pc)

        frame: Frame = {}
        for core_id, core in enumerate(self.cores):
            view = views[core_id]
            (
                k_pc_if, k_pc_dx, k_pc_wb, k_stall_if, k_stall_dx, k_stall_wb,
                k_type_dx, k_type_wb, k_load_data, k_fwd_valid, k_store_data,
                k_halted, k_sb_count, k_commit_valid, k_commit_pc,
            ) = _TSO_CORE_KEYS[core_id]
            frame[k_pc_if] = core.pc_if
            frame[k_pc_dx] = view.pc if view.valid else 0
            frame[k_pc_wb] = core.wb_pc if core.wb_valid else 0
            frame[k_stall_if] = int(stall_dx[core_id] or core.fetch_stop)
            frame[k_stall_dx] = int(stall_dx[core_id])
            frame[k_stall_wb] = 0
            frame[k_type_dx] = view.wb_type if view.valid else 0
            frame[k_type_wb] = core.wb_type
            is_load_data_phase = (
                self.pending is not None
                and self.pending[0] == "L"
                and self.pending[1] == core_id
                and core.wb_type == DMEM_LOAD
            )
            frame[k_load_data] = load_out if is_load_data_phase else 0
            frame[k_fwd_valid] = fwd_valid if is_load_data_phase else 0
            frame[k_store_data] = core.wb_store_data
            frame[k_halted] = int(core.halted)
            frame[k_sb_count] = len(self.buffers[core_id])
            if commit is not None and commit[0] == core_id:
                frame[k_commit_valid] = 1
                frame[k_commit_pc] = commit[3]
            else:
                frame[k_commit_valid] = 0
                frame[k_commit_pc] = 0
        frame["arbiter.cur_core"] = self.arbiter.cur_core
        frame["arbiter.prev_core"] = self.arbiter.prev_core
        for word, key in self._mem_keys:
            frame[key] = self.read_word(word)

        self._pending_tick = (select, views, stall_dx, new_txn, load_out, commit)
        return frame

    def tick(self) -> None:
        if self._pending_tick is None:
            raise RtlError("tick() called before eval_comb()")
        select, views, stall_dx, new_txn, load_out, commit = self._pending_tick
        self._pending_tick = None

        # Commit the in-flight drain to the array.
        if commit is not None:
            _owner, addr, data, _pc = commit
            self.array[addr] = data
        # The data phase that completed this cycle (for load routing).
        old_pending = self.pending
        # Pop the entry whose drain was scheduled this cycle.
        if new_txn is not None and new_txn[0] == "D":
            self.buffers[new_txn[1]].pop(0 if self.drain_order == "fifo" else -1)
        self.pending = new_txn
        self.arbiter.tick(select)

        for core_id, core in enumerate(self.cores):
            view = views[core_id]
            # Retiring store pushes into the store buffer (end of WB).
            if core.wb_valid and core.wb_type == DMEM_STORE:
                self.buffers[core_id].append(
                    (core.wb_mem_addr >> 2, core.wb_store_data, core.wb_pc)
                )
            core_load = 0
            if (
                old_pending is not None
                and old_pending[0] == "L"
                and old_pending[1] == core_id
            ):
                core_load = load_out
            core.tick(view, stall_dx[core_id], core_load)

    # ------------------------------------------------------------------

    def _memory_blocks(self, layout: SlotLayout) -> None:
        self._mem_base = layout.block("memory", len(self.data_words))
        self._sb_base = layout.block(
            "store buffers", NUM_CORES * STORE_BUFFER_CAPACITY * _ENTRY_SLOTS
        )
        self._txn_base = layout.block("pending", _TXN_SLOTS)

    def write_slots(self, buf: List[int]) -> None:
        super().write_slots(buf)
        write_word_slots(self.array, self.data_words, buf, self._mem_base)
        off = self._sb_base
        for buffer in self.buffers:
            empty = STORE_BUFFER_CAPACITY - len(buffer)
            if empty < 0:
                raise RtlError(f"store buffer over capacity: {buffer}")
            for entry in buffer + [(-1,) * _ENTRY_SLOTS] * empty:
                buf[off:off + _ENTRY_SLOTS] = entry
                off += _ENTRY_SLOTS
        pending = self.pending
        row = (0,) if pending is None else (_TXN_CODES[pending[0]],) + pending[1:]
        off = self._txn_base
        buf[off:off + _TXN_SLOTS] = (row + (0,) * _TXN_SLOTS)[:_TXN_SLOTS]

    def read_slots(self, vec) -> None:
        super().read_slots(vec)
        off = self._mem_base
        self.array = {
            word: vec[off + index] for index, word in enumerate(self.data_words)
        }
        width = STORE_BUFFER_CAPACITY * _ENTRY_SLOTS
        self.buffers = [
            [
                tuple(vec[entry:entry + _ENTRY_SLOTS])
                for entry in range(base, base + width, _ENTRY_SLOTS)
                if vec[entry] >= 0
            ]
            for base in range(self._sb_base, self._sb_base + NUM_CORES * width, width)
        ]
        off = self._txn_base
        kind, owner, addr, data, pc = vec[off:off + _TXN_SLOTS]
        self.pending = (None, ("L", owner, addr), ("D", owner, addr, data, pc))[kind]

    # ------------------------------------------------------------------

    def drained(self) -> bool:
        return (
            self.all_halted()
            and all(not c.dx_valid and not c.wb_valid for c in self.cores)
            and all(not buf for buf in self.buffers)
            and self.pending is None
        )

    def memory_results(self) -> Dict[str, int]:
        return {
            var: self.read_word(word)
            for var, word in self.compiled.address_map.items()
        }
