"""Opaque task implementations and their chunk-level operator registry.

Not every library task has a KIR generator: Legate Sparse's CSR SpMV, the
random-number fills of cuPyNumeric, and the multigrid transfer operators
are implemented directly against the runtime (in the paper these are CUDA
task variants without MLIR generators).  Such tasks cannot join a fused
kernel, but they still flow through the same execution and profiling
paths.  An :class:`OpaqueTaskImpl` supplies the functional NumPy
implementation and the analytic cost of one point task.

Chunk-level implementations
---------------------------
A registered operator may additionally carry an
:class:`OpaqueChunkImpl`: one library call over the merged span of a
contiguous rank chunk ``[start, stop)`` (e.g. a single NumPy GEMV over
the merged row block) instead of one call per rank.  The chunk contract
is deliberately pipe-safe — a chunk implementation receives only

* ``bases`` — argument index → the argument's *full* base array
  (``None`` for pure reduction targets), never task or point objects,
* ``rects`` — argument index → the chunk's per-rank ``(lo, hi)``
  half-open wire rectangles in rank order,
* ``scalars`` — the launch's ``scalar_args`` tuple,

so the same callable serves the parent's inline path (bases are
region-field arrays) and the worker-process pool (bases are zero-copy
shared-memory views attached from block descriptors).  The chunk cost
function returns the *per-rank* modelled seconds of the chunk, mirroring
the per-rank cost arithmetic exactly, and a chunk execute returns its
per-rank reduction-partial dicts (or ``None`` when the operator
reduces nothing) — so the launch join still folds partials and per-GPU
seconds in recorded rank order, bit-identical to the per-rank path.

Soundness rules for a chunk implementation:

* every output element must be computed by the same floating-point
  operations in the same order as the per-rank call that owns it;
* the cost function must not read data the chunk's execute wrote
  (the per-rank loop interleaves execute and cost; the chunk path runs
  all executes before all costs);
* per-rank seconds must reproduce the per-rank cost arithmetic
  bit-for-bit (same float operations, same order).

Because operators register under a stable name at *module import time*,
they are importable by name: :func:`resolve_opaque_impl` lets a worker
process resolve ``(name, defining module)`` from its own registry —
importing the module first if needed (``spawn`` start method; ``fork``
workers inherit the parent's populated registry) — which is what lets
opaque rank chunks ship to the process pool and ride resident plans.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ir.domain import Point
from repro.ir.task import IndexTask
from repro.kernel.lowering import ReductionPartial
from repro.runtime import telemetry
from repro.runtime.machine import MachineConfig

#: Buffers handed to an opaque implementation: argument index -> NumPy view
#: of the point task's sub-store (None for pure reduction targets).
OpaqueBuffers = Dict[int, Optional[np.ndarray]]

ExecuteFn = Callable[[IndexTask, Point, OpaqueBuffers], Optional[Dict[int, ReductionPartial]]]
CostFn = Callable[[IndexTask, Point, OpaqueBuffers, MachineConfig], float]

#: One rank rectangle in wire form: ``(lo, hi)`` integer tuples (half-open).
WireRect = Tuple[Tuple[int, ...], Tuple[int, ...]]

#: Chunk bases: argument index -> full base array (None for reductions).
ChunkBases = Dict[int, Optional[np.ndarray]]

#: Chunk geometry: argument index -> the chunk's per-rank wire rects.
ChunkRects = Dict[int, Sequence[WireRect]]

ChunkExecuteFn = Callable[
    [ChunkBases, ChunkRects, tuple],
    Optional[List[Optional[Dict[int, ReductionPartial]]]],
]
ChunkCostFn = Callable[[ChunkBases, ChunkRects, tuple, MachineConfig], List[float]]


@dataclass
class OpaqueChunkImpl:
    """The chunk-level (multi-rank) variant of an opaque operator."""

    #: One library call over the merged span of ranks ``[start, stop)``;
    #: returns per-rank reduction-partial dicts in rank order, or
    #: ``None`` when the operator has no reduction targets.
    execute: ChunkExecuteFn
    #: Per-rank modelled seconds of the chunk, in rank order, mirroring
    #: the per-rank cost arithmetic exactly.
    cost_seconds: ChunkCostFn


@dataclass
class OpaqueTaskImpl:
    """A library-provided task variant without a kernel generator."""

    name: str
    execute: ExecuteFn
    cost_seconds: CostFn
    #: Optional chunk-level implementation.
    chunk: Optional[OpaqueChunkImpl] = None
    #: Module whose import registers this operator — what makes the
    #: operator importable by name in worker processes.  ``None`` for
    #: hand-built impls, which therefore never ship off-process.
    module: Optional[str] = None


class OpaqueTaskRegistry:
    """Registry of opaque task implementations, keyed by task name."""

    def __init__(self) -> None:
        self._impls: Dict[str, OpaqueTaskImpl] = {}

    def register(self, impl: OpaqueTaskImpl) -> None:
        """Register (or replace) an opaque implementation."""
        self._impls[impl.name] = impl

    def has(self, task_name: str) -> bool:
        """True when an implementation exists for the task type."""
        return task_name in self._impls

    def get(self, task_name: str) -> OpaqueTaskImpl:
        """Look up the implementation of a task type."""
        impl = self._impls.get(task_name)
        if impl is None:
            raise KeyError(f"no opaque implementation registered for task '{task_name}'")
        return impl

    def registered_names(self):
        """All registered task names (for documentation/tests)."""
        return sorted(self._impls)


_DEFAULT = OpaqueTaskRegistry()


def default_opaque_registry() -> OpaqueTaskRegistry:
    """The process-wide opaque-task registry."""
    return _DEFAULT


def register_opaque_task(
    name: str,
    execute: ExecuteFn,
    cost_seconds: CostFn,
    registry: Optional[OpaqueTaskRegistry] = None,
    chunk_execute: Optional[ChunkExecuteFn] = None,
    chunk_cost_seconds: Optional[ChunkCostFn] = None,
) -> OpaqueTaskImpl:
    """Convenience helper to register an opaque task implementation.

    Supplying both ``chunk_execute`` and ``chunk_cost_seconds`` attaches
    a chunk-level implementation; the defining module of ``execute`` is
    recorded so worker processes can resolve the operator by name.
    """
    chunk = None
    if chunk_execute is not None and chunk_cost_seconds is not None:
        chunk = OpaqueChunkImpl(execute=chunk_execute, cost_seconds=chunk_cost_seconds)
    impl = OpaqueTaskImpl(
        name=name,
        execute=execute,
        cost_seconds=cost_seconds,
        chunk=chunk,
        module=getattr(execute, "__module__", None),
    )
    (registry or _DEFAULT).register(impl)
    return impl


def resolve_opaque_impl(
    name: str,
    module: Optional[str] = None,
    registry: Optional[OpaqueTaskRegistry] = None,
) -> OpaqueTaskImpl:
    """Resolve a registered operator by name, importing its module if needed.

    Worker processes started with ``fork`` inherit the parent's populated
    registry; ``spawn`` workers import ``module`` first, whose
    registration side effect installs the operator.  Raises ``KeyError``
    when the operator cannot be resolved either way.
    """
    registry = registry or _DEFAULT
    if not registry.has(name) and module:
        with telemetry.span("opaque.resolve", f"op={name} module={module}"):
            importlib.import_module(module)
    return registry.get(name)
