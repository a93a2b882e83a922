"""Compiled frame-free step for the Multi-V-scale SoC.

:func:`build_state_step` generates, per slot layout, a straight-line
``step_state(vec)`` that maps a flat slot vector (see
:mod:`repro.rtl.design`) to its successor without touching the design
object, plus a ``drained(vec)`` quiescence predicate.  Consumers that
never look at signals use it: the trace harvest and the
architectural-outcome enumeration, through
:meth:`~repro.vscale.soc.MultiVScale.state_step`.  Every slot index
outside the register windows is a literal in the generated source;
register slots come from per-design tables.  Per-program data lives in
the namespace the source executes in, not in the source:
each core's instruction memory (``IMEM{i}``), its length (``NI{i}``),
its register -> absolute slot table (``RS{i}``, over the core's
register window) and a precomputed decode table (``DEC{i}``: ``word ->
(kind, rs1 slot, rd or rs2 slot, imm)``), plus the declared data words
as a ``word -> slot`` dict.  The register windows sit after every
other block, so the bases the source names do not depend on them.  The
sources are generated from a hashable :class:`_Layout` record alone
(core, arbiter and memory bases, base PCs, the memory variant), and
the code cache (:func:`_layout_code`) is keyed by that record: a design
whose layout was seen before generates no source, and designs that
share a layout but run different programs share one compiled code
object.  ``step_state`` mirrors :meth:`MultiVScale.eval_comb` +
:meth:`MultiVScale.tick` statement for statement — including the
load->store writeback forwarding, the fetch-past-imem error, and the
memory word-set growth guard — and ``tests/test_kernel_codegen.py``
checks it against the interpreter.

Decode kind codes (``DMEM_LOAD``/``DMEM_STORE`` align with 1/2 on
purpose — the view's ``wb_type`` is just ``kind if kind <= 2 else 0``):

===== ==========
kind  instruction
===== ==========
0     nop / fence / bubble
1     lw
2     sw
3     halt
4     addi
5     lui
===== ==========
"""

from __future__ import annotations

import functools
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from repro.errors import RtlError
from repro.isa import NUM_REGS, Addi, Halt, Lui, Lw, Sw
from repro.vscale.core import cached_decode
from repro.vscale.memory import BuggyMemory, MemoryBase

_M32 = 0xFFFFFFFF

#: Decode entry: (kind, rs1 slot, rd-or-rs2, imm).  Registers read
#: (``rs1``, a store's ``rs2``) are absolute slots through the core's
#: register table; a destination ``rd`` stays a register number, as the
#: pipeline slots ``wb_load_dest``/``wb_writes_reg`` hold it.  For
#: ``lui`` the shifted immediate is precomputed so the kernel never
#: shifts at step time.
DecodeEntry = Tuple[int, int, int, int]


def decode_entry(word: int, regslot: Sequence[Optional[int]]) -> DecodeEntry:
    if word == 0:
        # The bubble word: dx_valid is always clear alongside it, so the
        # interpreter never decodes it; the tables map it to "nothing".
        return (0, 0, 0, 0)
    instr = cached_decode(word)
    if isinstance(instr, Lw):
        return (1, regslot[instr.rs1], instr.rd, instr.imm)
    if isinstance(instr, Sw):
        return (2, regslot[instr.rs1], regslot[instr.rs2], instr.imm)
    if isinstance(instr, Halt):
        return (3, 0, 0, 0)
    if isinstance(instr, Addi):
        return (4, regslot[instr.rs1], instr.rd, instr.imm)
    if isinstance(instr, Lui):
        return (5, 0, instr.rd, (instr.imm20 << 12) & _M32)
    return (0, 0, 0, 0)  # Nop / Fence


def _extend_decode(
    table: Dict[int, DecodeEntry], regslot: Sequence[Optional[int]], word: int
) -> DecodeEntry:
    entry = decode_entry(word, regslot)
    table[word] = entry
    return entry


def _fetch_error(core_id: int, pc: int) -> RtlError:
    return RtlError(
        f"core {core_id}: fetch past instruction memory "
        f"at PC {pc:#x} (missing halt?)"
    )


def _grow_error(word: int) -> RtlError:
    # Identical wording to MemoryBase._write_base_slots: the compiled
    # step hits the guard during its fused tick, the interpreter at
    # write_slots.
    return RtlError(
        "memory grew words outside the declared data set "
        f"{[word]}; the flat state layout is static, so every "
        "store target must appear in the initial data memory"
    )


class _Layout(NamedTuple):
    """Everything the generated sources read: the slot layout of one
    design.  Hashable, so it keys the code cache directly."""

    core_bases: Tuple[int, ...]
    base_pcs: Tuple[int, ...]
    arb: int
    mem: int
    buggy: bool
    #: Slot of the buggy memory's write-buffer ``wvalid`` (``None`` on
    #: the fixed memory, whose sources never read it).
    woff: Optional[int]

    @classmethod
    def of(cls, design) -> "_Layout":
        memory = design.memory
        buggy = isinstance(memory, BuggyMemory)
        mem = design._mem_base
        return cls(
            core_bases=tuple(design._core_bases),
            base_pcs=tuple(core.base_pc for core in design.cores),
            arb=design._arb_base,
            mem=mem,
            buggy=buggy,
            woff=(
                mem + MemoryBase.PENDING_SLOTS + len(memory.slot_words)
                if buggy
                else None
            ),
        )


# ----------------------------------------------------------------------
# Scalar codegen
# ----------------------------------------------------------------------


def _emit_comb(spec: _Layout, w) -> None:
    """The shared combinational phase: decode, stall, grant, memory
    data phase.  Binds per-core locals k/ma/ld/wr/alu/rs2x/ism/st and
    globals granted/g_ism/g_k/g_mw/pv/pc_/pk/pw/sdi/lo."""
    for i, B in enumerate(spec.core_bases):
        w(f"pcif{i} = vec[{B}]")
        w(f"fs{i} = vec[{B + 1}]")
        w(f"dxv{i} = vec[{B + 2}]")
        w(f"k{i} = 0; ma{i} = 0; ld{i} = 0; wr{i} = -1; alu{i} = 0; rs2x{i} = 0")
        w(f"if dxv{i}:")
        w(f"    t = DEC{i}.get(vec[{B + 3}])")
        w("    if t is None:")
        w(f"        t = _dec(DEC{i}, RS{i}, vec[{B + 3}])")
        w(f"    k{i} = t[0]")
        w(f"    if k{i} == 1:")
        w(f"        ma{i} = (vec[t[1]] + t[3]) & {_M32}")
        w(f"        ld{i} = t[2]")
        w(f"    elif k{i} == 2:")
        w(f"        ma{i} = (vec[t[1]] + t[3]) & {_M32}")
        w(f"        rs2x{i} = t[2]")
        w(f"    elif k{i} == 4:")
        w(f"        wr{i} = t[2]; alu{i} = (vec[t[1]] + t[3]) & {_M32}")
        w(f"    elif k{i} == 5:")
        w(f"        wr{i} = t[2]; alu{i} = t[3]")
        w(f"ism{i} = 1 <= k{i} <= 2")
    w(f"granted = vec[{spec.arb}]")
    num_cores = len(spec.core_bases)
    for i in range(num_cores):
        w(f"st{i} = ism{i} and granted != {i}")
    # The granted core's DX view opens this cycle's address phase.
    for i in range(num_cores):
        head = "if" if i == 0 else "elif"
        cond = f"granted == {i}" if i < num_cores - 1 else ""
        if cond:
            w(f"{head} {cond}:")
        else:
            w("else:")
        w(f"    g_ism = ism{i}; g_k = k{i}; g_mw = ma{i} >> 2")
    # Data phase of last cycle's transaction.
    m = spec.mem
    w(f"pv = vec[{m}]")
    w("sdi = 0; lo = 0; pc_ = -1; pk = 0; pw = 0")
    w("if pv:")
    w(f"    pc_ = vec[{m + 1}]; pk = vec[{m + 2}]; pw = vec[{m + 3}]")
    w("    if pk == 2:")
    w("        sdi = vec[SD_OFF[pc_]]")
    if spec.buggy:
        w(f"    elif vec[{spec.woff}] and vec[{spec.woff + 1}] == pw:")
        w(f"        lo = vec[{spec.woff + 2}]")
    w("    else:")
    w("        j = MEMIDX.get(pw)")
    w("        if j is not None:")
    w("            lo = vec[j]")


def _emit_tick(spec: _Layout, w) -> None:
    """The sequential phase into a fresh ``buf`` (the successor vector,
    arbiter grant slot left for the caller to patch per choice)."""
    w("buf = list(vec)")
    m = spec.mem
    # Memory tick.
    if spec.buggy:
        wo = spec.woff
        w("if g_ism and g_k == 2:")
        w(f"    if vec[{wo}]:")
        w(f"        j = MEMIDX.get(vec[{wo + 1}])")
        w("        if j is None:")
        w(f"            raise _grow(vec[{wo + 1}])")
        w(f"        buf[j] = vec[{wo + 2}]")
        w(f"    buf[{wo}] = 1; buf[{wo + 1}] = g_mw")
        w("if pk == 2:")
        w(f"    buf[{wo + 2}] = sdi")
    else:
        w("if pk == 2:")
        w("    j = MEMIDX.get(pw)")
        w("    if j is None:")
        w("        raise _grow(pw)")
        w("    buf[j] = sdi")
    w("if g_ism:")
    w(f"    buf[{m}] = 1; buf[{m + 1}] = granted; buf[{m + 2}] = g_k; buf[{m + 3}] = g_mw")
    w("else:")
    w(f"    buf[{m}] = 0; buf[{m + 1}] = 0; buf[{m + 2}] = 0; buf[{m + 3}] = 0")
    # Arbiter tick (cur_core is the caller-patched free-input slot).
    w(f"buf[{spec.arb + 1}] = granted")
    # Core ticks.
    for i, B in enumerate(spec.core_bases):
        w(f"if vec[{B + 5}]:")
        w(f"    if vec[{B + 7}] == 1 and vec[{B + 9}]:")
        w(f"        buf[RS{i}[vec[{B + 9}]]] = lo if (pc_ == {i} and pk == 1) else 0")
        w(f"    elif vec[{B + 11}] > 0:")
        w(f"        buf[RS{i}[vec[{B + 11}]]] = vec[{B + 12}]")
        w(f"    if vec[{B + 10}]:")
        w(f"        buf[{B + 14}] = 1")
        w(f"if st{i} or not dxv{i}:")
        w(
            f"    buf[{B + 5}] = 0; buf[{B + 6}] = 0; buf[{B + 7}] = 0; "
            f"buf[{B + 8}] = 0; buf[{B + 9}] = 0"
        )
        w(
            f"    buf[{B + 10}] = 0; buf[{B + 11}] = -1; buf[{B + 12}] = 0; "
            f"buf[{B + 13}] = 0"
        )
        w("else:")
        w(f"    buf[{B + 5}] = 1")
        w(f"    buf[{B + 6}] = vec[{B + 4}]")
        w(f"    buf[{B + 7}] = k{i} if k{i} <= 2 else 0")
        # Store data reads the register file *after* writeback (the
        # load->store forwarding the interpreter gets from its phase
        # ordering), hence buf not vec.
        w(f"    buf[{B + 8}] = buf[rs2x{i}] if k{i} == 2 else 0")
        w(f"    buf[{B + 9}] = ld{i}")
        w(f"    buf[{B + 10}] = 1 if k{i} == 3 else 0")
        w(f"    buf[{B + 11}] = wr{i}")
        w(f"    buf[{B + 12}] = alu{i}")
        w(f"    buf[{B + 13}] = ma{i}")
        w(f"if not st{i}:")
        w(f"    if dxv{i} and k{i} == 3:")
        w(f"        fs{i} = 1")
        w(f"        buf[{B + 1}] = 1")
        w(f"    if fs{i}:")
        w(f"        buf[{B + 2}] = 0; buf[{B + 3}] = 0; buf[{B + 4}] = 0")
        w("    else:")
        w(f"        x = (pcif{i} - {spec.base_pcs[i]}) >> 2")
        w(f"        if 0 <= x < NI{i}:")
        w(f"            buf[{B + 2}] = 1; buf[{B + 3}] = IMEM{i}[x]")
        w(f"            buf[{B + 4}] = pcif{i}; buf[{B}] = pcif{i} + 4")
        w("        else:")
        w(f"            raise _fetch({i}, pcif{i})")


def _generate_step_source(spec: _Layout) -> str:
    lines = ["def step_state(vec):"]

    def w(line: str) -> None:
        lines.append("    " + line)

    _emit_comb(spec, w)
    _emit_tick(spec, w)
    w("return buf")
    return "\n".join(lines) + "\n"


def _generate_drained_source(spec: _Layout) -> str:
    halted = " and ".join(f"vec[{B + 14}]" for B in spec.core_bases)
    busy = " or ".join(
        f"vec[{B + 2}] or vec[{B + 5}]" for B in spec.core_bases
    )
    return (
        "def drained(vec):\n"
        f"    return bool(({halted}) and not ({busy}) "
        f"and not vec[{spec.mem}])\n"
    )


# ----------------------------------------------------------------------


def _make_namespace(design, layout: _Layout) -> dict:
    """The per-program data the shared code runs against."""
    mem_slot0 = layout.mem + MemoryBase.PENDING_SLOTS
    namespace = {
        "_dec": _extend_decode,
        "_fetch": _fetch_error,
        "_grow": _grow_error,
        # word address -> absolute slot index of its memory cell.
        "MEMIDX": {
            word: mem_slot0 + i
            for i, word in enumerate(design.memory.slot_words)
        },
        # owner core id -> absolute slot of its wb_store_data.
        "SD_OFF": tuple(base + 8 for base in layout.core_bases),
    }
    for i, (core, window) in enumerate(zip(design.cores, design._window_bases)):
        imem = tuple(core.imem)
        # register -> absolute slot; None outside the window, which no
        # instruction of the program names.
        regslot = tuple(
            window + reg - core.reg_lo if core.reg_lo <= reg < core.reg_hi else None
            for reg in range(NUM_REGS)
        )
        namespace[f"IMEM{i}"] = imem
        namespace[f"NI{i}"] = len(imem)
        namespace[f"RS{i}"] = regslot
        namespace[f"DEC{i}"] = {word: decode_entry(word, regslot) for word in imem}
    return namespace


#: Layouts whose code the cache keeps: above the paper suite's 112
#: (test, memory variant) pairs, so a whole suite stays cache-hot.
KERNEL_CACHE_SIZE = 128


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _layout_code(layout: _Layout):
    """The compiled ``(step_state, drained)`` code objects of ``layout``,
    which every design on that layout execs into its own namespace.  An
    evicted layout recompiles to the same code; the cap keeps long fuzz
    campaigns (long programs change the layout) from holding every code
    object they ever compiled."""
    return tuple(
        compile(generate(layout), f"<step-kernel:{entry}>", "exec")
        for generate, entry in (
            (_generate_step_source, "step_state"),
            (_generate_drained_source, "drained"),
        )
    )


def build_state_step(design):
    """The frame-free compiled pair ``(step_state, drained)`` for
    ``design`` (slot layout bound), for consumers that step raw slot
    tuples and never look at signals — the trace harvest and the
    architectural-outcome enumeration, through
    :meth:`~repro.vscale.soc.MultiVScale.state_step`.

    ``step_state(vec)`` returns the successor as a fresh list with the
    arbiter grant slot unpatched; ``drained(vec)`` is the quiescence
    predicate.  Code objects are shared across every design with the
    same slot layout."""
    layout = _Layout.of(design)
    namespace = _make_namespace(design, layout)
    for code in _layout_code(layout):
        exec(code, namespace)  # noqa: S102 - the source is generated here
    return namespace["step_state"], namespace["drained"]
