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

A kernel optionally also provides a *matrix* path: with numpy
available, an entire frontier steps as one 2-D ``(n_states, n_slots)``
int64 slot matrix per call.  The architectural-outcome enumeration
uses it when the frontier is at least :data:`MATRIX_MIN_ROWS` rows;
below that the scalar kernel wins.  (The trace harvest steps far
narrower wavefronts and uses only the frame-free scalar step, see
:func:`repro.vscale.kernel.build_state_step`.)

Determinism contract: a kernel is a pure function of the slot vector.
It must reproduce the interpreter bit for bit — same frames, same
successor vectors, same error raises (fetch past instruction memory,
memory-word growth guard) at the same logical points — so serialized
verdicts, reach graphs, VCDs, and coverage maps are identical across
the ``array`` and ``kernel`` backends.  The differential harness
in ``tests/test_kernel_equivalence.py`` enforces this.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.rtl.design import Frame, Inputs

#: Minimum frontier size before the numpy matrix path engages; under
#: this the per-call numpy overhead (array build, masks) costs more
#: than the scalar kernel's straight-line Python.
MATRIX_MIN_ROWS = 16


def numpy_or_none():
    """The numpy module, or ``None`` when unavailable (the kernel
    backend then runs scalar-only; results are identical either way)."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is an optional dep
        return None
    return numpy


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

    ``step_state(vec)`` is the frame-free variant for consumers that
    never look at signals.  ``drained(vec)`` answers quiescence without
    restoring the design object.  ``step_matrix``/``drained_matrix``
    are the optional numpy paths (``None`` without numpy).
    """

    __slots__ = (
        "step",
        "step_state",
        "drained",
        "apply_inputs",
        "step_matrix",
        "drained_matrix",
        "np",
        "source",
    )

    def __init__(
        self,
        step: Callable[..., Tuple[Frame, Optional[List[int]]]],
        step_state: Callable[[Sequence[int]], List[int]],
        drained: Callable[[Sequence[int]], bool],
        apply_inputs: Callable[[List[int], Inputs], None],
        step_matrix: Optional[Callable[[Any], Any]] = None,
        drained_matrix: Optional[Callable[[Any], Any]] = None,
        np: Any = None,
        source: str = "",
    ):
        self.step = step
        self.step_state = step_state
        self.drained = drained
        self.apply_inputs = apply_inputs
        self.step_matrix = step_matrix
        self.drained_matrix = drained_matrix
        self.np = np
        self.source = source

    def matrix_ready(self, rows: int) -> bool:
        """True when the numpy path exists and ``rows`` states amortize
        its per-call overhead."""
        return self.step_matrix is not None and rows >= MATRIX_MIN_ROWS

    def __reduce__(self):
        raise TypeError(
            "StepKernel holds compiled closures and cannot be pickled; "
            "designs drop their kernel on serialization and recompile "
            "on first use"
        )
