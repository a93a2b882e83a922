"""The Multi-V-scale SoC: four V-scale cores, an arbiter, data memory.

This is the paper's Figure 1 design as a simulatable
:class:`~repro.rtl.design.Design`.  The free input ``arb_select`` names
the core the arbiter grants next cycle; the property verifier branches
over it every cycle, exactly as JasperGold explored "all possibilities
for this input" (§5.2).

:class:`VScaleSoC` is what Multi-V-scale shares with its store-buffer
variant (:mod:`repro.vscale.tso`): the cores and arbiter, their slot
blocks, the batched expansion and the frame-free step.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro.errors import RtlError
from repro.isa import encode
from repro.litmus.test import CompiledTest
from repro.rtl.design import Design, Frame, FreeInput, SlotLayout
from repro.vscale.arbiter import Arbiter
from repro.vscale.core import VScaleCore
from repro.vscale.memory import BuggyMemory, FixedMemory, MemoryBase
from repro.vscale.params import DMEM_LOAD, DMEM_STORE, NUM_CORES


#: Per-core frame signal names in :meth:`MultiVScale.eval_comb`'s
#: insertion order.
_CORE_SIGNALS = (
    "PC_IF",
    "PC_DX",
    "PC_WB",
    "stall_IF",
    "stall_DX",
    "stall_WB",
    "dmem_type_DX",
    "dmem_type_WB",
    "load_data_WB",
    "store_data_WB",
    "halted",
)

#: ``_CORE_KEYS[core_id]``: that core's frame keys, built once so every
#: frame shares the same key objects instead of concatenating fresh
#: strings per cycle (a reach graph holds thousands of frames).
_CORE_KEYS = tuple(
    tuple(f"core[{core_id}].{name}" for name in _CORE_SIGNALS)
    for core_id in range(NUM_CORES)
)


class StateStep(NamedTuple):
    """What :meth:`VScaleSoC.state_step` returns."""

    start: Tuple[int, ...]
    #: ``step_state(vec)`` -> the successor as a fresh list, grant
    #: slot unpatched.
    step_state: Callable[[Sequence[int]], List[int]]
    drained: Callable[[Sequence[int]], bool]
    grant_slot: int
    #: Grant-slot value per input choice, in input-space order.
    selects: Tuple[int, ...]


class VScaleSoC(Design):
    """Four V-scale cores programmed with one compiled litmus test and
    the grant arbiter; subclasses add the memory side.

    The slot layout starts with each core's block, then the arbiter's
    (whose first slot, ``cur_core``, is the grant slot); subclasses
    append their own blocks and bind the layout once constructed.
    """

    def __init__(self, compiled: CompiledTest):
        if compiled.num_cores != NUM_CORES:
            raise RtlError(f"expected {NUM_CORES}-core compile, got {compiled.num_cores}")
        self.compiled = compiled
        self.cores: List[VScaleCore] = []
        for core_id, program in enumerate(compiled.programs):
            if len(program) > compiled.imem_words_per_core:
                raise RtlError(f"core {core_id}: program too long for imem")
            imem = [encode(instr) for instr in program]
            self.cores.append(
                VScaleCore(core_id, imem, base_pc=compiled.core_base_pc(core_id))
            )
        self.arbiter = Arbiter(NUM_CORES)
        self.data_words = sorted(compiled.initial_data_memory)
        #: ``(word, frame key)`` per data word, keys shared by every frame.
        self._mem_keys = tuple((word, f"mem[{word}]") for word in self.data_words)
        self._pending_tick = None

    def reset(self) -> None:
        for core_id, core in enumerate(self.cores):
            core.reset(self.compiled.reg_init[core_id])
        self.arbiter.reset()
        self._pending_tick = None

    def free_inputs(self) -> Sequence[FreeInput]:
        return (FreeInput("arb_select", NUM_CORES),)

    # ------------------------------------------------------------------
    # State protocol: the flat slot layout
    # ------------------------------------------------------------------

    def slot_layout(self) -> SlotLayout:
        layout = SlotLayout()
        self._core_bases = [
            layout.block(f"core[{core.core_id}]", core.SLOT_COUNT)
            for core in self.cores
        ]
        self._arb_base = layout.block("arbiter", self.arbiter.SLOT_COUNT)
        return layout

    def write_slots(self, buf: List[int]) -> None:
        for core, base in zip(self.cores, self._core_bases):
            core.write_slots(buf, base)
        self.arbiter.write_slots(buf, self._arb_base)

    def read_slots(self, vec) -> None:
        for core, base in zip(self.cores, self._core_bases):
            core.read_slots(vec, base)
        self.arbiter.read_slots(vec, self._arb_base)
        self._pending_tick = None

    def step_batch(self, state, input_space, frame_hook):
        """Batched expansion sharing one settled evaluation.

        ``arb_select`` feeds only the arbiter's clock edge — the settled
        frame and every other next-state slot are identical for every
        grant choice — so one restore + ``eval_comb`` + ``tick`` covers
        the whole input space, and each choice's successor differs from
        its neighbours in exactly one slot (``arbiter.cur_core``).
        """
        n = len(input_space)
        self.restore(state)
        frame = self.eval_comb(input_space[0])
        self.batch_expansions += 1
        if not frame_hook(frame, n):
            return [None] * n
        self.tick()
        buf = self._slot_buf
        self.write_slots(buf)
        self.slots_copied += len(buf)
        cur_slot = self._arb_base  # the only select-dependent slot
        interner = self._interner
        num_cores = self.arbiter.num_cores
        edges = []
        for inputs in input_space:
            buf[cur_slot] = inputs.get("arb_select", 0) % num_cores
            edges.append((frame, interner.intern(tuple(buf))))
        return edges

    def state_step(self) -> StateStep:
        """The design's frame-free step, for consumers that walk raw
        slot tuples and never look at signals (the trace harvest and the
        architectural-outcome enumeration).

        Resets the design and returns the reset state's slot tuple,
        the ``step_state``/``drained`` pair of :meth:`_step_functions`,
        the arbiter grant slot (the only slot that differs between one
        state's successors) and its value per :meth:`input_space`
        choice.  A final state reads back through :meth:`read_slots`."""
        self.reset()
        step_state, drained = self._step_functions()
        num_cores = self.arbiter.num_cores
        return StateStep(
            start=self.state_vector(self.snapshot()),
            step_state=step_state,
            drained=drained,
            grant_slot=self._arb_base,
            selects=tuple(
                inputs.get("arb_select", 0) % num_cores
                for inputs in self.input_space()
            ),
        )

    def _step_functions(self):
        """``(step_state, drained)`` interpreted on this design:
        ``read_slots`` -> ``eval_comb`` -> ``tick`` -> ``write_slots``."""
        size = self._slot_layout.size

        def step_state(vec) -> List[int]:
            self.read_slots(vec)
            self.eval_comb({})
            self.tick()
            buf = [0] * size
            self.write_slots(buf)
            return buf

        def drained(vec) -> bool:
            self.read_slots(vec)
            return self.drained()

        return step_state, drained

    # ------------------------------------------------------------------

    def all_halted(self) -> bool:
        """Every core has retired its halt (test instructions complete)."""
        return all(core.halted for core in self.cores)

    def register_results(self) -> Dict[str, int]:
        """Litmus output registers read back from the register files
        (meaningful once :meth:`drained`)."""
        results: Dict[str, int] = {}
        for op in self.compiled.ops:
            if op.op.is_load:
                results[op.op.out] = self.cores[op.core].regs[op.data_reg]
        return results


class MultiVScale(VScaleSoC):
    """The four-core V-scale SoC, programmed with one compiled litmus test.

    ``memory_variant`` selects ``"buggy"`` (the shipped V-scale memory
    with the store-dropping bug of §7.1) or ``"fixed"`` (the paper's
    corrected memory).

    Snapshots are interned flat slot vectors, and the verifier's walk
    expands each state through the batched :meth:`step_batch` (see
    ``docs/performance.md``).  Consumers that never look at signals —
    the trace harvest and the architectural outcome enumeration — step
    raw slot tuples through the compiled :meth:`state_step` instead.
    """

    def __init__(self, compiled: CompiledTest, memory_variant: str = "fixed"):
        super().__init__(compiled)
        self.memory_variant = memory_variant
        if memory_variant == "buggy":
            self.memory: MemoryBase = BuggyMemory(compiled.initial_data_memory)
        elif memory_variant == "fixed":
            self.memory = FixedMemory(compiled.initial_data_memory)
        else:
            raise RtlError(f"unknown memory variant {memory_variant!r}")
        self.reset()
        self.enable_array_state()

    def reset(self) -> None:
        super().reset()
        self.memory.reset()

    # ------------------------------------------------------------------

    def eval_comb(self, inputs) -> Frame:
        select = inputs.get("arb_select", 0)
        granted = self.arbiter.cur_core
        views = [core.dx_view() for core in self.cores]

        stall_dx = [
            view.is_mem and core_id != granted
            for core_id, view in enumerate(views)
        ]

        # Address phase: the granted core's DX memory op starts a txn.
        new_txn = None
        granted_view = views[granted]
        if granted_view.is_mem:
            new_txn = (granted, granted_view.wb_type, granted_view.mem_addr >> 2)

        # Data phase: the transaction started last cycle completes.
        pending = self.memory.pending
        store_data_in = 0
        load_out = 0
        if pending is not None:
            owner_core, kind, _addr = pending
            owner = self.cores[owner_core]
            if kind == DMEM_STORE:
                store_data_in = owner.wb_store_data
            else:
                load_out = self.memory.load_output()

        frame: Frame = {}
        for core_id, core in enumerate(self.cores):
            view = views[core_id]
            (
                k_pc_if, k_pc_dx, k_pc_wb, k_stall_if, k_stall_dx, k_stall_wb,
                k_type_dx, k_type_wb, k_load_data, k_store_data, k_halted,
            ) = _CORE_KEYS[core_id]
            frame[k_pc_if] = core.pc_if
            frame[k_pc_dx] = view.pc if view.valid else 0
            frame[k_pc_wb] = core.wb_pc if core.wb_valid else 0
            frame[k_stall_if] = int(stall_dx[core_id] or core.fetch_stop)
            frame[k_stall_dx] = int(stall_dx[core_id])
            frame[k_stall_wb] = 0
            frame[k_type_dx] = view.wb_type if view.valid else 0
            frame[k_type_wb] = core.wb_type
            is_load_data_phase = (
                pending is not None
                and pending[0] == core_id
                and pending[1] == DMEM_LOAD
                and core.wb_type == DMEM_LOAD
            )
            frame[k_load_data] = load_out if is_load_data_phase else 0
            frame[k_store_data] = core.wb_store_data
            frame[k_halted] = int(core.halted)
        frame["arbiter.cur_core"] = self.arbiter.cur_core
        frame["arbiter.prev_core"] = self.arbiter.prev_core
        for word, key in self._mem_keys:
            frame[key] = self.memory.read_word(word)
        if isinstance(self.memory, BuggyMemory):
            frame["mem.wvalid"] = self.memory.wvalid
            frame["mem.waddr"] = self.memory.waddr
            frame["mem.wdata"] = self.memory.wdata

        self._pending_tick = (select, views, stall_dx, new_txn, store_data_in, load_out, pending)
        return frame

    def tick(self) -> None:
        if self._pending_tick is None:
            raise RtlError("tick() called before eval_comb()")
        select, views, stall_dx, new_txn, store_data_in, load_out, pending = self._pending_tick
        self._pending_tick = None
        self.memory.tick(new_txn, store_data_in)
        self.arbiter.tick(select)
        for core_id, core in enumerate(self.cores):
            load_data = 0
            if (
                pending is not None
                and pending[0] == core_id
                and pending[1] == DMEM_LOAD
            ):
                load_data = load_out
            core.tick(views[core_id], stall_dx[core_id], load_data)

    # ------------------------------------------------------------------
    # State protocol: cores, arbiter, then the memory block
    # ------------------------------------------------------------------

    def slot_layout(self) -> SlotLayout:
        layout = super().slot_layout()
        self._mem_base = layout.block("memory", self.memory.slot_count())
        return layout

    def write_slots(self, buf: List[int]) -> None:
        super().write_slots(buf)
        self.memory.write_slots(buf, self._mem_base)

    def read_slots(self, vec) -> None:
        super().read_slots(vec)
        self.memory.read_slots(vec, self._mem_base)

    def _step_functions(self):
        """The compiled pair
        (:func:`repro.vscale.kernel.build_state_step`)."""
        from repro.vscale.kernel import build_state_step

        return build_state_step(self)

    # ------------------------------------------------------------------

    def drained(self) -> bool:
        """All halted with empty pipelines and no in-flight transaction:
        the architectural state can no longer change."""
        return (
            self.all_halted()
            and all(not c.dx_valid and not c.wb_valid for c in self.cores)
            and self.memory.pending is None
        )

    def memory_results(self) -> Dict[str, int]:
        """Final litmus variable values read back from data memory."""
        return {
            var: self.memory.read_word(word)
            for var, word in self.compiled.address_map.items()
        }
