"""Compiled per-design step kernels (the ``kernel`` state backend).

The array backend (:mod:`repro.rtl.design`) made design state a flat
interned slot vector, but every step still runs the design's
``eval_comb``/``tick`` methods: per-object Python attribute code, one
dispatch per signal.  A *step kernel* removes that interpreter from the
hot path.  At ``enable_kernel_state()`` time the design compiles — from
its static :class:`~repro.rtl.design.SlotLayout` and read-only
parameters (instruction memories, decode tables, declared data words) —
a specialized straight-line step function that reads the current slot
vector and writes the successor slot vector directly, with every slot
index a constant baked into the generated source.  No ``Frame`` objects
or attribute dispatch survive on the hot path; the settled frame is
emitted as a single dict literal in exactly the interpreter's key
order, so downstream consumers (assumption checks, property monitors,
VCD rendering) observe byte-identical values.

Consumers that never look at signals — the trace harvest and the
architectural-outcome enumeration — do not take this kernel at all:
they step raw slot tuples through the frame-free ``step_state`` /
``drained`` pair alone (:func:`repro.vscale.kernel.build_state_step`,
reached through :meth:`repro.vscale.soc.MultiVScale.state_step`),
whatever state backend the design runs on.

Determinism contract: a kernel is a pure function of the slot vector.
It must reproduce the interpreter bit for bit — same frames, same
successor vectors, same error raises (fetch past instruction memory,
memory-word growth guard) at the same logical points — so serialized
verdicts, reach graphs, VCDs, and coverage maps are identical across
the ``array`` and ``kernel`` backends.  The differential harness
in ``tests/test_kernel_equivalence.py`` enforces this.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.rtl.design import Frame, Inputs


class StepKernel:
    """A design's compiled step functions over flat slot vectors.

    ``step(vec, hook, repeats)`` settles one cycle from ``vec`` and
    returns ``(frame, successor)``; when ``hook`` is given and rejects
    the frame, the successor is ``None`` and — exactly like the
    interpreter, which only ticks after the hook passes — no
    sequential-phase errors are raised for the pruned cycle.  The
    returned successor is a fresh mutable list with the free-input
    slot(s) *unapplied*; callers patch them via :meth:`apply_inputs`
    (or directly) before interning, mirroring the array backend's
    one-slot-per-choice expansion.
    """

    __slots__ = ("step", "apply_inputs", "source")

    def __init__(
        self,
        step: Callable[..., Tuple[Frame, Optional[List[int]]]],
        apply_inputs: Callable[[List[int], Inputs], None],
        source: str = "",
    ):
        self.step = step
        self.apply_inputs = apply_inputs
        self.source = source

    def __reduce__(self):
        raise TypeError(
            "StepKernel holds compiled closures and cannot be pickled; "
            "designs drop their kernel on serialization and recompile "
            "on first use"
        )
