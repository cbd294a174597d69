"""Dense linear algebra: mat-vec products and norms.

The dense matrix-vector product is an *opaque* task (no KIR generator):
like cuPyNumeric's cuBLAS-backed GEMV it executes through a library kernel
and therefore never joins a fused kernel, exactly as in the paper's Jacobi
benchmark where the matrix-vector multiply dominates and fusion only
touches the surrounding vector operations.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.ir.privilege import Privilege
from repro.ir.task import IndexTask
from repro.frontend.cunumeric.array import ndarray
from repro.frontend.legate.context import get_context
from repro.runtime.machine import MachineConfig
from repro.runtime.opaque import register_opaque_task


# ----------------------------------------------------------------------
# Opaque GEMV task registration.
# ----------------------------------------------------------------------
def _gemv_execute(task: IndexTask, point, buffers: Dict[int, Optional[np.ndarray]]):
    matrix = buffers[0]
    vector = buffers[1]
    output = buffers[2]
    if output is None or matrix is None or vector is None:
        return None
    # einsum rather than ``matrix @ vector``: BLAS GEMV selects kernels by
    # row count, so its last-bit results change with the row-block size —
    # einsum reduces each row independently, making per-rank and merged
    # chunk-level calls bit-identical (the differential hammer checks it).
    output[...] = np.einsum("ij,j->i", matrix, vector)
    return None


def _gemv_cost(task: IndexTask, point, buffers, machine: MachineConfig) -> float:
    matrix = buffers[0]
    if matrix is None:
        return machine.kernel_launch_latency
    rows, cols = matrix.shape
    bytes_moved = rows * cols * 8 + cols * 8 + rows * 8
    flops = 2.0 * rows * cols
    return machine.kernel_launch_latency + max(
        bytes_moved / machine.gpu_memory_bandwidth, flops / machine.gpu_peak_flops
    )


def _gemv_chunk_execute(bases, rects, scalars):
    """One GEMV over the merged row block of a contiguous rank chunk.

    The row partition tiles ranks in ascending contiguous row order, so
    the chunk collapses to a single GEMV over the merged row block; a
    non-contiguous chunk (never produced by ``row_partition``) degrades
    to one call per rank.  The einsum formulation reduces each output
    row independently of the block's row count, so the merged call
    computes every element with the exact floating-point operations of
    the per-rank call that owns it (see ``_gemv_execute``).
    """
    matrix = bases[0]
    vector = bases[1]
    output = bases[2]
    row_rects = rects[0]
    if all(
        row_rects[index][1][0] == row_rects[index + 1][0][0]
        for index in range(len(row_rects) - 1)
    ):
        lo, hi = row_rects[0][0][0], row_rects[-1][1][0]
        output[lo:hi] = np.einsum("ij,j->i", matrix[lo:hi], vector)
    else:  # pragma: no cover - row partitions are always contiguous
        for lo_point, hi_point in row_rects:
            output[lo_point[0] : hi_point[0]] = np.einsum(
                "ij,j->i", matrix[lo_point[0] : hi_point[0]], vector
            )
    return None


def _gemv_chunk_cost(bases, rects, scalars, machine: MachineConfig):
    """Per-rank modelled seconds of a GEMV chunk (mirrors ``_gemv_cost``)."""
    cols = bases[0].shape[1]
    seconds = []
    for lo, hi in rects[0]:
        rows = hi[0] - lo[0]
        bytes_moved = rows * cols * 8 + cols * 8 + rows * 8
        flops = 2.0 * rows * cols
        seconds.append(
            machine.kernel_launch_latency
            + max(
                bytes_moved / machine.gpu_memory_bandwidth,
                flops / machine.gpu_peak_flops,
            )
        )
    return seconds


register_opaque_task(
    "gemv",
    _gemv_execute,
    _gemv_cost,
    chunk_execute=_gemv_chunk_execute,
    chunk_cost_seconds=_gemv_chunk_cost,
)


def matvec(matrix: ndarray, vector: ndarray) -> ndarray:
    """Dense mat-vec product ``matrix @ vector`` (an opaque GEMV task)."""
    if matrix.ndim != 2 or vector.ndim != 1:
        raise ValueError("matvec expects a 2-D matrix and a 1-D vector")
    rows, cols = matrix.shape
    if cols != vector.shape[0]:
        raise ValueError(f"shape mismatch: {matrix.shape} @ {vector.shape}")
    context = get_context()
    out_store = context.create_store((rows,), name="gemv_out")
    out = ndarray(out_store, context=context)
    out._submit(
        "gemv",
        (matrix.store, vector.store, out_store),
        (
            (context.row_partition(matrix.store, rows), Privilege.READ, None),
            (context.replication(), Privilege.READ, None),
            out.write_spec(),
        ),
    )
    return out


def norm(vector: ndarray) -> float:
    """The 2-norm of a vector.

    Reading the norm synchronises with the runtime (a Legion future read),
    so programs that want to keep execution deferred use ``dot`` on the
    vector with itself instead, as the paper's solvers do.
    """
    squared = vector.dot(vector)
    return math.sqrt(max(0.0, float(squared)))
