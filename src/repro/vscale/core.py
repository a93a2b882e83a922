"""One V-scale core: a three-stage in-order pipeline (IF, DX, WB).

Faithful to the structure the paper relies on (Figures 1, 3c, 6, 11):

* IF fetches from the core's read-only instruction words;
* DX decodes, reads registers, computes the memory address, and — for
  loads/stores — initiates the memory transaction through the arbiter
  (the *address phase*); a core whose DX holds a memory op stalls in DX
  until the arbiter grants it;
* WB is the *data phase*: a load receives its data from memory, a store
  presents ``store_data_WB`` to memory (clocked in on the next edge);
  ``PC_WB`` is zeroed on bubbles exactly as in Figure 3c's Verilog.

The core itself is passive: the SoC (:mod:`repro.vscale.soc`)
orchestrates the combinational ordering between cores, arbiter, and
memory, then calls :meth:`VScaleCore.tick`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import RtlError
from repro.isa import Addi, Halt, Instruction, Lui, Lw, Nop, Sw, decode
from repro.vscale.params import DMEM_LOAD, DMEM_NONE, DMEM_STORE, core_base_pc

_DECODE_CACHE: Dict[int, Instruction] = {}


def cached_decode(word: int) -> Instruction:
    instr = _DECODE_CACHE.get(word)
    if instr is None:
        instr = decode(word)
        _DECODE_CACHE[word] = instr
    return instr


def named_registers(instr: Instruction) -> Tuple[int, ...]:
    """The registers ``instr`` reads or writes."""
    if isinstance(instr, Lw):
        return (instr.rs1, instr.rd)
    if isinstance(instr, Sw):
        return (instr.rs1, instr.rs2)
    if isinstance(instr, Addi):
        return (instr.rs1, instr.rd)
    if isinstance(instr, Lui):
        return (instr.rd,)
    return ()


def register_window(
    imem: Iterable[int], reg_init: Optional[Dict[int, int]] = None
) -> Tuple[int, int]:
    """The half-open register range ``(lo, hi)`` covering every register
    the program in ``imem`` names plus every register ``reg_init`` sets
    (``(0, 0)`` when there are none).  No instruction reaches a register
    outside it, so those stay 0 for the whole run and need no state."""
    regs = {reg for word in imem for reg in named_registers(cached_decode(word))}
    regs.update(reg for reg in (reg_init or {}) if reg != 0)
    if not regs:
        return (0, 0)
    return (min(regs), max(regs) + 1)


class DxView:
    """Combinationally decoded view of the instruction currently in DX."""

    __slots__ = (
        "valid", "instr", "pc", "is_mem", "is_store", "is_halt",
        "mem_addr", "store_data", "wb_type", "load_dest",
        "writes_reg", "alu_out",
    )

    def __init__(self):
        self.valid = False
        self.instr: Optional[Instruction] = None
        self.pc = 0
        self.is_mem = False
        self.is_store = False
        self.is_halt = False
        self.mem_addr = 0
        self.store_data = 0
        self.wb_type = DMEM_NONE
        self.load_dest = 0
        self.writes_reg: Optional[int] = None
        self.alu_out = 0


class VScaleCore:
    """Architectural + pipeline state of one core."""

    def __init__(
        self,
        core_id: int,
        imem: List[int],
        base_pc: Optional[int] = None,
        reg_init: Optional[Dict[int, int]] = None,
    ):
        self.core_id = core_id
        self.imem = list(imem)
        # Classic geometry by default; extended-geometry compiles
        # (difftest long programs) pass their own reset PC.
        self.base_pc = core_base_pc(core_id) if base_pc is None else base_pc
        #: The registers the slot vector carries: ``regs[reg_lo:reg_hi]``
        #: (:func:`register_window` of the program and ``reg_init``).
        self.reg_lo, self.reg_hi = register_window(self.imem, reg_init)
        self.reset(reg_init)

    def reset(self, reg_init: Optional[Dict[int, int]] = None) -> None:
        self.pc_if = self.base_pc
        self.fetch_stop = False
        # DX stage registers.
        self.dx_valid = False
        self.dx_word = 0
        self.dx_pc = 0
        # WB stage registers.
        self.wb_valid = False
        self.wb_pc = 0
        self.wb_type = DMEM_NONE
        self.wb_store_data = 0
        self.wb_load_dest = 0
        self.wb_is_halt = False
        self.wb_writes_reg: Optional[int] = None
        self.wb_alu = 0
        self.wb_mem_addr = 0
        self.halted = False
        self.regs = [0] * 32
        for reg, value in (reg_init or {}).items():
            if reg != 0:
                if not self.reg_lo <= reg < self.reg_hi:
                    raise RtlError(
                        f"core {self.core_id}: reg_init sets x{reg} outside "
                        f"the register window x{self.reg_lo}..x{self.reg_hi - 1}"
                    )
                self.regs[reg] = value

    # ------------------------------------------------------------------
    # Combinational phase
    # ------------------------------------------------------------------

    def dx_view(self) -> DxView:
        """Decode the DX stage for this cycle."""
        view = DxView()
        if not self.dx_valid:
            return view
        instr = cached_decode(self.dx_word)
        view.valid = True
        view.instr = instr
        view.pc = self.dx_pc
        if isinstance(instr, Lw):
            view.is_mem = True
            view.wb_type = DMEM_LOAD
            view.mem_addr = (self.regs[instr.rs1] + instr.imm) & 0xFFFFFFFF
            view.load_dest = instr.rd
        elif isinstance(instr, Sw):
            view.is_mem = True
            view.is_store = True
            view.wb_type = DMEM_STORE
            view.mem_addr = (self.regs[instr.rs1] + instr.imm) & 0xFFFFFFFF
            view.store_data = self.regs[instr.rs2]
        elif isinstance(instr, Halt):
            view.is_halt = True
        elif isinstance(instr, Addi):
            view.writes_reg = instr.rd
            view.alu_out = (self.regs[instr.rs1] + instr.imm) & 0xFFFFFFFF
        elif isinstance(instr, Lui):
            view.writes_reg = instr.rd
            view.alu_out = (instr.imm20 << 12) & 0xFFFFFFFF
        # Nop / Fence: nothing to do in the datapath.
        return view

    def fetch_word(self) -> Optional[int]:
        """The instruction IF presents this cycle, or None past the end."""
        index = (self.pc_if - self.base_pc) >> 2
        if 0 <= index < len(self.imem):
            return self.imem[index]
        return None

    # ------------------------------------------------------------------
    # Sequential phase
    # ------------------------------------------------------------------

    def tick(self, view: DxView, stall_dx: bool, load_data: int) -> None:
        """Commit one clock edge.

        ``view`` is this cycle's decoded DX; ``load_data`` is the value
        memory returned to a load completing WB this cycle.
        """
        # Writeback into the register file (end of the WB cycle).
        if self.wb_valid:
            if self.wb_type == DMEM_LOAD and self.wb_load_dest != 0:
                self.regs[self.wb_load_dest] = load_data
            elif self.wb_writes_reg:
                self.regs[self.wb_writes_reg] = self.wb_alu
            if self.wb_is_halt:
                self.halted = True

        # DX -> WB (bubble on stall_DX, as in Figure 3c).
        if stall_dx or not view.valid:
            self.wb_valid = False
            self.wb_pc = 0
            self.wb_type = DMEM_NONE
            self.wb_store_data = 0
            self.wb_load_dest = 0
            self.wb_is_halt = False
            self.wb_writes_reg = None
            self.wb_alu = 0
            self.wb_mem_addr = 0
        else:
            self.wb_valid = True
            self.wb_pc = view.pc
            self.wb_type = view.wb_type
            # rs2_data_bypassed: the store data captured entering WB; the
            # register file was just updated above, so a load->store
            # dependency forwards naturally.
            if view.is_store:
                instr = view.instr
                assert isinstance(instr, Sw)
                self.wb_store_data = self.regs[instr.rs2]
            else:
                self.wb_store_data = 0
            self.wb_load_dest = view.load_dest
            self.wb_is_halt = view.is_halt
            self.wb_writes_reg = view.writes_reg
            self.wb_alu = view.alu_out
            self.wb_mem_addr = view.mem_addr if view.is_mem else 0

        # IF -> DX.
        if not stall_dx:
            if view.valid and view.is_halt:
                # Halt reached DX: stop fetching; DX drains to a bubble.
                self.fetch_stop = True
            if self.fetch_stop:
                self.dx_valid = False
                self.dx_word = 0
                self.dx_pc = 0
            else:
                word = self.fetch_word()
                if word is None:
                    raise RtlError(
                        f"core {self.core_id}: fetch past instruction memory "
                        f"at PC {self.pc_if:#x} (missing halt?)"
                    )
                self.dx_valid = True
                self.dx_word = word
                self.dx_pc = self.pc_if
                self.pc_if += 4

    # -- flat slot protocol --------------------------------------------

    #: Scalar pipeline/architectural registers in the core's block; the
    #: register window has a block of its own (:attr:`window_size`).
    SLOT_COUNT = 15

    @property
    def window_size(self) -> int:
        return self.reg_hi - self.reg_lo

    def write_slots(self, buf: List[int], base: int, window: int) -> None:
        """Flatten the core into ``buf[base : base + SLOT_COUNT]`` and
        its register window into ``buf[window : window + window_size]``.

        Booleans encode as 0/1 and the optional ``wb_writes_reg`` as
        -1-for-None, keeping the encoding injective (None and r0 are
        distinct pipeline states).
        """
        buf[base] = self.pc_if
        buf[base + 1] = int(self.fetch_stop)
        buf[base + 2] = int(self.dx_valid)
        buf[base + 3] = self.dx_word
        buf[base + 4] = self.dx_pc
        buf[base + 5] = int(self.wb_valid)
        buf[base + 6] = self.wb_pc
        buf[base + 7] = self.wb_type
        buf[base + 8] = self.wb_store_data
        buf[base + 9] = self.wb_load_dest
        buf[base + 10] = int(self.wb_is_halt)
        buf[base + 11] = -1 if self.wb_writes_reg is None else self.wb_writes_reg
        buf[base + 12] = self.wb_alu
        buf[base + 13] = self.wb_mem_addr
        buf[base + 14] = int(self.halted)
        buf[window:window + self.reg_hi - self.reg_lo] = (
            self.regs[self.reg_lo:self.reg_hi]
        )

    def read_slots(self, vec, base: int, window: int) -> None:
        self.pc_if = vec[base]
        self.fetch_stop = bool(vec[base + 1])
        self.dx_valid = bool(vec[base + 2])
        self.dx_word = vec[base + 3]
        self.dx_pc = vec[base + 4]
        self.wb_valid = bool(vec[base + 5])
        self.wb_pc = vec[base + 6]
        self.wb_type = vec[base + 7]
        self.wb_store_data = vec[base + 8]
        self.wb_load_dest = vec[base + 9]
        self.wb_is_halt = bool(vec[base + 10])
        writes = vec[base + 11]
        self.wb_writes_reg = None if writes < 0 else writes
        self.wb_alu = vec[base + 12]
        self.wb_mem_addr = vec[base + 13]
        self.halted = bool(vec[base + 14])
        # Registers outside the window are 0 in every state.
        self.regs[self.reg_lo:self.reg_hi] = (
            vec[window:window + self.reg_hi - self.reg_lo]
        )
