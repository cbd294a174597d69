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

    ``tile`` selects the *stacked* convention of a merged launch that
    reduces (``runtime.pool.launch_verdict``): every non-reduction buffer
    spans a run of ranks' tiles of ``tile`` elements each, and each
    reduction target's partials come back as one float64 array, one
    element per rank in rank order.  An executor whose
    :attr:`stack_refusal` is not ``None`` is never called so.
    """

    backend = "abstract"
    #: Why this executor has no stacked convention (``None``: it has one).
    stack_refusal: Optional[str] = "interpreter_backend"

    def __init__(self, function: Function, binding: KernelBinding) -> None:
        self.function = function
        self.binding = binding

    def __call__(
        self,
        buffers: Dict[str, Optional[np.ndarray]],
        scalars: Dict[str, float],
        block: Optional[int] = None,
        scratch: Optional[np.ndarray] = None,
        tile: Optional[int] = None,
    ) -> Dict[str, ReductionPartial]:
        raise NotImplementedError

    def scratch_elements(self, block: int, tile: Optional[int] = None) -> int:
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
        tile: Optional[int] = None,
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
    A stacked call runs the stacked body, then the interpreter rank by
    rank over each ``tile``-element row of the buffers, and demands
    every rank's partial bit for bit.
    """

    backend = "differential"

    def __init__(self, function: Function, binding: KernelBinding) -> None:
        super().__init__(function, binding)
        from repro.kernel.codegen import CodegenExecutor

        self.interpreter = InterpreterExecutor(function, binding)
        self.codegen = CodegenExecutor(function, binding)
        self.stack_refusal = self.codegen.stack_refusal

    def __call__(
        self,
        buffers: Dict[str, Optional[np.ndarray]],
        scalars: Dict[str, float],
        block: Optional[int] = None,
        scratch: Optional[np.ndarray] = None,
        tile: Optional[int] = None,
    ) -> Dict[str, ReductionPartial]:
        initial = {
            name: buffers[name].copy()
            for name in self.function.buffers_written()
            if buffers.get(name) is not None
        }
        actual = self.codegen(buffers, scalars, block, scratch, tile)
        observed = {
            name: None if array is None else array.copy()
            for name, array in buffers.items()
        }
        for name, array in initial.items():
            buffers[name][...] = array
        if tile is None or not any(loop.has_reduction for loop in self.function.loops):
            expected = self.interpreter(buffers, scalars)
            self._compare(buffers, observed, expected, actual)
        else:
            self._compare_rows(buffers, scalars, tile, observed, actual)
        return actual

    def scratch_elements(self, block: int, tile: Optional[int] = None) -> int:
        return self.codegen.scratch_elements(block, tile)

    def _compare_rows(self, buffers, scalars, tile: int, observed, actual) -> None:
        """The interpreter rank by rank over a stacked call's rows."""
        extent = next(array.size for array in buffers.values() if array is not None)
        rows: Dict[str, list] = {}
        for rank in range(extent // tile):
            cut = slice(rank * tile, (rank + 1) * tile)
            row = {name: None if array is None else array[cut] for name, array in buffers.items()}
            for target, partial in self.interpreter(row, scalars).items():
                rows.setdefault(target, []).append(partial)
        self._compare(buffers, observed, {}, {})
        name = self.function.name
        if set(rows) != set(actual):
            raise BackendDivergenceError(
                f"kernel '{name}': reduction targets differ "
                f"({sorted(rows)} vs {sorted(actual)})"
            )
        for target, partials in rows.items():
            expected = np.array([partial.value for partial in partials], dtype=np.float64)
            other = actual[target]
            same = expected.shape == other.shape and (
                expected.view(np.uint64) == other.view(np.uint64)
            ) | (np.isnan(expected) & np.isnan(other))
            if not np.all(same):
                raise BackendDivergenceError(
                    f"kernel '{name}': stacked reduction partials '{target}' "
                    f"diverged ({expected} vs {other})"
                )

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
