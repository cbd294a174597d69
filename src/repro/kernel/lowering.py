"""Lowering of KIR kernels to an executable form.

The paper lowers fused MLIR kernels to GPU launches or OpenMP regions.
Here lowering produces a :class:`KernelExecutor`: a callable that executes
the kernel over NumPy buffers with vectorised statement-at-a-time
semantics.  Because every KIR loop is element-wise (all accesses at the
current loop index), executing each statement over the full index space in
program order is observationally equivalent to the fused loop, so the
executor is a faithful functional model of the generated device code.

Two execution backends implement that contract:

``codegen`` (the default)
    :class:`~repro.kernel.codegen.CodegenExecutor` — the kernel is
    translated to Python/NumPy source, compiled once with the builtin
    ``compile``, and every subsequent invocation (in particular every
    memoized replay round) runs the pre-compiled closure with zero
    per-statement interpretation.

``interpreter``
    :class:`InterpreterExecutor` — the original tree-walking evaluator,
    kept as the executable specification of kernel semantics.

``differential``
    :class:`DifferentialExecutor` — runs *both* backends on every kernel
    invocation and raises :class:`BackendDivergenceError` unless all
    written buffers and reduction partials agree bit-for-bit.  Enabled
    with ``REPRO_KERNEL_BACKEND=differential``; the test suite and
    ``make bench`` use it to certify the codegen backend.

Reductions produce *partial* results per point task; the runtime folds
the partials of all point tasks into the target scalar store using the
argument's reduction operator, mirroring how Legion applies reduction
instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.config import BACKENDS, default_backend
from repro.kernel.kir import (
    Alloc,
    Assign,
    Function,
    Loop,
    Reduce,
    ReduceKind,
    combine_reduction,
    evaluate_expr,
    reduce_array,
)
from repro.kernel.passes.compose import KernelBinding

@dataclass
class ReductionPartial:
    """A partial reduction value produced by one point task."""

    kind: ReduceKind
    value: float


class BackendDivergenceError(RuntimeError):
    """Raised when the codegen and interpreter backends disagree."""


class KernelExecutor:
    """Base class of kernel executors.

    ``buffers`` maps kernel buffer-parameter names to the NumPy views of
    the point task's sub-stores; pure reduction targets — which are never
    loaded — are passed as ``None``.  ``scalars`` maps scalar parameter
    names to immediate values.  Executors mutate written buffers in place
    and return the reduction partials keyed by target buffer name.
    ``block`` is the elements per block a generated kernel plans its
    block loops at (``None``: ``codegen.BLOCK``) and ``scratch`` a flat
    float64 buffer of :meth:`scratch_elements` its registers are cut
    from (``None``: allocated per call); the interpreter has no blocks
    and ignores both.
    """

    backend = "abstract"

    def __init__(self, function: Function, binding: KernelBinding) -> None:
        self.function = function
        self.binding = binding

    def __call__(
        self,
        buffers: Dict[str, Optional[np.ndarray]],
        scalars: Dict[str, float],
        block: Optional[int] = None,
        scratch: Optional[np.ndarray] = None,
    ) -> Dict[str, ReductionPartial]:
        raise NotImplementedError

    def scratch_elements(self, block: int) -> int:
        """Elements of the ``scratch`` a call blocking at ``block`` uses."""
        return 0


class InterpreterExecutor(KernelExecutor):
    """Tree-walking reference executor (the semantics specification)."""

    backend = "interpreter"

    def __call__(
        self,
        buffers: Dict[str, Optional[np.ndarray]],
        scalars: Dict[str, float],
        block: Optional[int] = None,
        scratch: Optional[np.ndarray] = None,
    ) -> Dict[str, ReductionPartial]:
        local_buffers: Dict[str, Optional[np.ndarray]] = dict(buffers)
        partials: Dict[str, ReductionPartial] = {}

        for stmt in self.function.body:
            if isinstance(stmt, Alloc):
                reference = local_buffers.get(stmt.like)
                if reference is None:
                    # ``stmt.like`` is missing entirely or was handed to the
                    # executor as None (a pure reduction target, which has
                    # no materialised backing to size the allocation from).
                    raise RuntimeError(
                        f"allocation '{stmt.name}' has no reference buffer "
                        f"'{stmt.like}'"
                    )
                local_buffers[stmt.name] = np.zeros_like(reference)
            elif isinstance(stmt, Loop):
                self._execute_loop(stmt, local_buffers, scalars, partials)
        return partials

    def _execute_loop(
        self,
        loop: Loop,
        buffers: Dict[str, Optional[np.ndarray]],
        scalars: Dict[str, float],
        partials: Dict[str, ReductionPartial],
    ) -> None:
        locals_: Dict[str, np.ndarray] = {}
        index_buffer = buffers.get(loop.index_buffer)
        for stmt in loop.body:
            if isinstance(stmt, Assign):
                value = evaluate_expr(stmt.expr, buffers, scalars, locals_)
                if stmt.is_local:
                    locals_[stmt.target] = value
                else:
                    target = buffers.get(stmt.target)
                    if target is None:
                        raise RuntimeError(
                            f"buffer '{stmt.target}' is not materialised"
                        )
                    target[...] = value
            elif isinstance(stmt, Reduce):
                value = evaluate_expr(stmt.expr, buffers, scalars, locals_)
                value = np.asarray(value)
                if value.ndim == 0 and index_buffer is not None:
                    # Broadcast loop-invariant expressions over the index
                    # space so e.g. summing a constant counts elements.
                    value = np.broadcast_to(value, index_buffer.shape)
                partial = reduce_array(stmt.kind, value)
                existing = partials.get(stmt.target)
                if existing is None:
                    partials[stmt.target] = ReductionPartial(kind=stmt.kind, value=partial)
                else:
                    partials[stmt.target] = ReductionPartial(
                        kind=stmt.kind,
                        value=combine_reduction(stmt.kind, existing.value, partial),
                    )


class DifferentialExecutor(KernelExecutor):
    """Runs interpreter and codegen side by side, asserting bit-equality.

    Both backends run on the *real* buffers, one after the other from
    the same initial state, so whatever windows of one store the
    arguments alias (``x[1:] = x[:-1]``) alias for both: codegen runs
    first and its results are set aside, the written buffers are rewound
    — every change went through one of them — and the interpreter runs.
    Private copies would hide exactly the overlap that decides whether
    the generated block loop is legal.  The buffers keep the
    interpreter's results, which are the codegen's or the call raises.
    """

    backend = "differential"

    def __init__(self, function: Function, binding: KernelBinding) -> None:
        super().__init__(function, binding)
        from repro.kernel.codegen import CodegenExecutor

        self.interpreter = InterpreterExecutor(function, binding)
        self.codegen = CodegenExecutor(function, binding)

    def __call__(
        self,
        buffers: Dict[str, Optional[np.ndarray]],
        scalars: Dict[str, float],
        block: Optional[int] = None,
        scratch: Optional[np.ndarray] = None,
    ) -> Dict[str, ReductionPartial]:
        initial = {
            name: buffers[name].copy()
            for name in self.function.buffers_written()
            if buffers.get(name) is not None
        }
        actual = self.codegen(buffers, scalars, block, scratch)
        observed = {
            name: None if array is None else array.copy()
            for name, array in buffers.items()
        }
        for name, array in initial.items():
            buffers[name][...] = array
        expected = self.interpreter(buffers, scalars)
        self._compare(buffers, observed, expected, actual)
        return actual

    def scratch_elements(self, block: int) -> int:
        return self.codegen.scratch_elements(block)

    def _compare(
        self,
        buffers: Dict[str, Optional[np.ndarray]],
        observed: Dict[str, Optional[np.ndarray]],
        expected: Dict[str, ReductionPartial],
        actual: Dict[str, ReductionPartial],
    ) -> None:
        name = self.function.name
        for buffer, array in buffers.items():
            other = observed[buffer]
            if array is None or other is None:
                continue
            if not np.array_equal(array, other, equal_nan=True):
                raise BackendDivergenceError(
                    f"kernel '{name}': codegen and interpreter disagree on "
                    f"buffer '{buffer}'"
                )
        if set(expected) != set(actual):
            raise BackendDivergenceError(
                f"kernel '{name}': reduction targets differ "
                f"({sorted(expected)} vs {sorted(actual)})"
            )
        for target, partial in expected.items():
            other = actual[target]
            if partial.kind is not other.kind or not _floats_equal(
                partial.value, other.value
            ):
                raise BackendDivergenceError(
                    f"kernel '{name}': reduction partial '{target}' diverged "
                    f"({partial} vs {other})"
                )


def _floats_equal(a: float, b: float) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


def lower(
    function: Function,
    binding: KernelBinding,
    backend: Optional[str] = None,
) -> KernelExecutor:
    """Lower a KIR function to an executor using the selected backend."""
    backend = (backend or default_backend()).strip().lower()
    if backend == "codegen":
        from repro.kernel.codegen import CodegenExecutor

        return CodegenExecutor(function=function, binding=binding)
    if backend == "interpreter":
        return InterpreterExecutor(function=function, binding=binding)
    if backend == "differential":
        return DifferentialExecutor(function=function, binding=binding)
    raise ValueError(
        f"unknown kernel backend '{backend}' (expected one of {BACKENDS}); "
        "check the REPRO_KERNEL_BACKEND environment variable"
    )
