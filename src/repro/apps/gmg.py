"""Geometric multigrid solver (paper Section 7.1, Figure 12a).

A CG solver preconditioned with a two-level V-cycle: weighted-Jacobi
smoothing on the fine grid, injection restriction of the residual, a few
smoothing sweeps as the coarse "solve", and piecewise-constant
prolongation back to the fine grid.  The smoother and the CG update are
fusible element-wise chains; the SpMVs and the grid-transfer operators are
opaque tasks, so the task stream interleaves fusible and unfusible work
exactly like the paper's GMG benchmark.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

import repro.frontend.cunumeric as cn
from repro.apps.base import register_application
from repro.apps.cg import _KrylovSetup
from repro.frontend.cunumeric.array import ndarray
from repro.frontend.sparse import poisson_2d
from repro.ir.privilege import Privilege
from repro.ir.task import IndexTask
from repro.runtime.machine import MachineConfig
from repro.runtime.opaque import register_opaque_task


# ----------------------------------------------------------------------
# Opaque grid-transfer tasks (injection restriction, constant prolongation).
# Argument order: fine vector (Replication, READ), coarse/fine output
# (natural tiling, WRITE).  The fine/coarse grid sizes travel as scalars.
# ----------------------------------------------------------------------
def _restrict_execute(task: IndexTask, point, buffers):
    fine, coarse = buffers[0], buffers[1]
    if coarse is None:
        return None
    fine_n = int(task.scalar_args[0])
    coarse_n = int(task.scalar_args[1])
    rect = task.args[1].partition.sub_store_rect(point, task.args[1].store.shape)
    rows = np.arange(rect.lo[0], rect.hi[0], dtype=np.int64)
    ci, cj = np.divmod(rows, coarse_n)
    coarse[...] = fine[(2 * ci) * fine_n + 2 * cj]
    return None


def _prolong_execute(task: IndexTask, point, buffers):
    coarse, fine = buffers[0], buffers[1]
    if fine is None:
        return None
    fine_n = int(task.scalar_args[0])
    coarse_n = int(task.scalar_args[1])
    rect = task.args[1].partition.sub_store_rect(point, task.args[1].store.shape)
    rows = np.arange(rect.lo[0], rect.hi[0], dtype=np.int64)
    fi, fj = np.divmod(rows, fine_n)
    ci = np.minimum(fi // 2, coarse_n - 1)
    cj = np.minimum(fj // 2, coarse_n - 1)
    fine[...] = coarse[ci * coarse_n + cj]
    return None


def _transfer_cost(task: IndexTask, point, buffers, machine: MachineConfig) -> float:
    output = buffers[1]
    elements = 0 if output is None else output.size
    bytes_moved = 2.0 * elements * 8.0
    return machine.kernel_launch_latency + bytes_moved / machine.gpu_memory_bandwidth


def _restrict_chunk_execute(bases, rects, scalars):
    """Injection restriction over a chunk's merged output row span.

    A pure element-wise gather (no reductions), so computing the merged
    row range in one vectorised expression performs the exact
    per-element operations of the per-rank calls.
    """
    fine, coarse = bases[0], bases[1]
    fine_n = int(scalars[0])
    coarse_n = int(scalars[1])
    for lo, hi in _merged_row_spans(rects[1]):
        rows = np.arange(lo, hi, dtype=np.int64)
        ci, cj = np.divmod(rows, coarse_n)
        coarse[lo:hi] = fine[(2 * ci) * fine_n + 2 * cj]
    return None


def _prolong_chunk_execute(bases, rects, scalars):
    """Constant prolongation over a chunk's merged output row span."""
    coarse, fine = bases[0], bases[1]
    fine_n = int(scalars[0])
    coarse_n = int(scalars[1])
    for lo, hi in _merged_row_spans(rects[1]):
        rows = np.arange(lo, hi, dtype=np.int64)
        fi, fj = np.divmod(rows, fine_n)
        ci = np.minimum(fi // 2, coarse_n - 1)
        cj = np.minimum(fj // 2, coarse_n - 1)
        fine[lo:hi] = coarse[ci * coarse_n + cj]
    return None


def _merged_row_spans(row_rects):
    """Coalesce contiguous per-rank ``(lo, hi)`` rects into maximal spans."""
    spans = []
    for lo, hi in row_rects:
        if spans and spans[-1][1] == lo[0]:
            spans[-1][1] = hi[0]
        else:
            spans.append([lo[0], hi[0]])
    return [(lo, hi) for lo, hi in spans]


def _transfer_chunk_cost(bases, rects, scalars, machine: MachineConfig):
    """Per-rank modelled seconds of a transfer chunk (mirrors ``_transfer_cost``)."""
    seconds = []
    for lo, hi in rects[1]:
        elements = max(0, hi[0] - lo[0])
        bytes_moved = 2.0 * elements * 8.0
        seconds.append(
            machine.kernel_launch_latency
            + bytes_moved / machine.gpu_memory_bandwidth
        )
    return seconds


register_opaque_task(
    "gmg_restrict",
    _restrict_execute,
    _transfer_cost,
    chunk_execute=_restrict_chunk_execute,
    chunk_cost_seconds=_transfer_chunk_cost,
)
register_opaque_task(
    "gmg_prolong",
    _prolong_execute,
    _transfer_cost,
    chunk_execute=_prolong_chunk_execute,
    chunk_cost_seconds=_transfer_chunk_cost,
)


@register_application("gmg")
class GeometricMultigrid(_KrylovSetup):
    """CG preconditioned with a two-level V-cycle."""

    def __init__(
        self,
        grid_points_per_gpu: int = 64,
        smoother_weight: float = 0.8,
        pre_smooth: int = 2,
        post_smooth: int = 2,
        coarse_sweeps: int = 4,
        context=None,
        index_bytes: int = 4,
    ) -> None:
        super().__init__(grid_points_per_gpu, context, index_bytes)
        # Coarse grid: half the resolution in each dimension.
        self.coarse_points = max(2, self.grid_points // 2)
        self.coarse_matrix = poisson_2d(self.coarse_points, index_bytes=index_bytes)
        self.fine_diag = self.matrix.diagonal()
        self.coarse_diag = self.coarse_matrix.diagonal()
        self.weight = float(smoother_weight)
        self.pre_smooth = int(pre_smooth)
        self.post_smooth = int(post_smooth)
        self.coarse_sweeps = int(coarse_sweeps)
        self.reset()

    # ------------------------------------------------------------------
    # Grid transfer helpers.
    # ------------------------------------------------------------------
    def _restrict(self, fine: ndarray) -> ndarray:
        coarse_rows = self.coarse_points * self.coarse_points
        out_store = self.context.create_store((coarse_rows,), name="gmg_coarse")
        out = ndarray(out_store, context=self.context)
        out._submit(
            "gmg_restrict",
            (fine.store, out_store),
            ((self.context.replication(), Privilege.READ, None), out.write_spec()),
            (float(self.grid_points), float(self.coarse_points)),
        )
        return out

    def _prolong(self, coarse: ndarray) -> ndarray:
        fine_rows = self.rows
        out_store = self.context.create_store((fine_rows,), name="gmg_fine")
        out = ndarray(out_store, context=self.context)
        out._submit(
            "gmg_prolong",
            (coarse.store, out_store),
            ((self.context.replication(), Privilege.READ, None), out.write_spec()),
            (float(self.grid_points), float(self.coarse_points)),
        )
        return out

    def _smooth(self, matrix, diagonal, x: ndarray, rhs: ndarray, sweeps: int) -> ndarray:
        """Weighted-Jacobi sweeps: ``x <- x + w (b - A x) / diag``."""
        for _ in range(sweeps):
            residual = rhs - matrix.dot(x)
            x = x + self.weight * (residual / diagonal)
        return x

    def _vcycle(self, rhs: ndarray) -> ndarray:
        """One two-level V-cycle applied to ``rhs`` (initial guess zero)."""
        x = cn.zeros(self.rows, name="gmg_z")
        x = self._smooth(self.matrix, self.fine_diag, x, rhs, self.pre_smooth)
        residual = rhs - self.matrix.dot(x)
        coarse_rhs = self._restrict(residual)
        coarse_x = cn.zeros(self.coarse_points * self.coarse_points, name="gmg_cx")
        coarse_x = self._smooth(
            self.coarse_matrix, self.coarse_diag, coarse_x, coarse_rhs, self.coarse_sweeps
        )
        correction = self._prolong(coarse_x)
        x = x + correction
        x = self._smooth(self.matrix, self.fine_diag, x, rhs, self.post_smooth)
        return x

    # ------------------------------------------------------------------
    # Preconditioned CG driver.
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """(Re-)initialise the PCG state."""
        self.x = cn.zeros(self.rows, name="gmg_x")
        self.r = self.rhs - self.matrix.dot(self.x)
        self.z = self._vcycle(self.r)
        self.p = self.z.copy()
        self.rz_old = float(self.r.dot(self.z))

    def step(self) -> None:
        """One preconditioned-CG iteration."""
        ap = self.matrix.dot(self.p)
        alpha = self.rz_old / max(float(self.p.dot(ap)), 1e-300)
        self.x = self.x + alpha * self.p
        self.r = self.r - alpha * ap
        self.z = self._vcycle(self.r)
        rz_new = float(self.r.dot(self.z))
        beta = rz_new / max(self.rz_old, 1e-300)
        self.p = self.z + beta * self.p
        self.rz_old = rz_new

    def checksum(self) -> float:
        """Sum of the current iterate."""
        return float(self.x.sum())

    def residual_norm(self) -> float:
        """2-norm of the current residual (for convergence tests)."""
        residual = self.rhs - self.matrix.dot(self.x)
        return float(residual.dot(residual)) ** 0.5
