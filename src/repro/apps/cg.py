"""Conjugate-gradient solver benchmark (paper Section 7.1, Figure 11a).

Two variants are provided:

* :class:`ConjugateGradient` — the naturally-written CG of
  :func:`repro.frontend.sparse.linalg.cg`: every AXPY is a separate
  multiply and add task and every dot product a separate reduction, the
  style the paper argues users actually write.
* :class:`ManuallyFusedConjugateGradient` — the hand-optimised variant the
  original Legate Sparse authors wrote, using the fused ``axpy``/``aypx``
  tasks directly.  The paper shows Diffuse makes the natural version beat
  this one.

Neither reads a value on the host inside an iteration: the dot products
stay 0-d arrays and ``alpha``/``beta`` futures (``repro.ir.future``), so
one iteration is one epoch of the deferred task stream.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

import repro.frontend.cunumeric as cn
from repro.apps.base import Application, register_application
from repro.frontend.cunumeric.ufuncs import axpy
from repro.frontend.legate.context import RuntimeContext
from repro.frontend.sparse import poisson_2d


class _KrylovSetup(Application):
    """Shared set-up for the sparse Krylov benchmarks."""

    def __init__(
        self,
        grid_points_per_gpu: int = 64,
        context: Optional[RuntimeContext] = None,
        index_bytes: int = 4,
    ) -> None:
        super().__init__(context)
        # Weak scaling grows the grid with the GPU count while keeping the
        # number of rows per GPU constant.
        gpus = self.context.num_gpus
        self.grid_points = int(np.ceil(np.sqrt(float(grid_points_per_gpu) ** 2 * gpus)))
        self.matrix = poisson_2d(self.grid_points, index_bytes=index_bytes)
        self.rows = self.matrix.nrows
        self.rhs = cn.ones(self.rows, name="krylov_b")

    def reference_solution(self) -> np.ndarray:
        """Dense NumPy solve of the same system (small tests only)."""
        dense = self.matrix.to_dense()
        return np.linalg.solve(dense, np.ones(self.rows))


@register_application("cg")
class ConjugateGradient(_KrylovSetup):
    """Naturally-written CG over cuPyNumeric + Legate Sparse."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.reset()

    def reset(self) -> None:
        """(Re-)initialise the solver state."""
        self.x = cn.zeros(self.rows, name="cg_x")
        self.r = self.rhs - self.matrix.dot(self.x)
        self.p = self.r.copy()
        self.rs_old = self.r.dot(self.r).future()
        # The one host read: set-up runs here, not in the first iteration.
        float(self.rs_old)

    def step(self) -> None:
        """One CG iteration written as separate multiply/add/dot tasks."""
        ap = self.matrix.dot(self.p)
        alpha = self.rs_old / cn.maximum_scalar(self.p.dot(ap), 1e-300)
        self.x = self.x + alpha * self.p
        self.r = self.r - alpha * ap
        rs_new = self.r.dot(self.r).future()
        beta = rs_new / cn.maximum_scalar(self.rs_old, 1e-300)
        self.p = self.r + beta * self.p
        self.rs_old = rs_new

    def checksum(self) -> float:
        """Sum of the current iterate."""
        return float(self.x.sum())


@register_application("cg-manual")
class ManuallyFusedConjugateGradient(ConjugateGradient):
    """Hand-optimised CG using the fused axpy/aypx tasks."""

    def step(self) -> None:
        """One CG iteration written with hand-fused vector kernels."""
        ap = self.matrix.dot(self.p)
        alpha = self.rs_old / cn.maximum_scalar(self.p.dot(ap), 1e-300)
        self.x = axpy(alpha, self.p, self.x)
        self.r = axpy(-alpha, ap, self.r)
        rs_new = self.r.dot(self.r).future()
        beta = rs_new / cn.maximum_scalar(self.rs_old, 1e-300)
        # p = r + beta p expressed with the fused aypx task.
        out = self.p._fresh_like(name="aypx")
        out._submit(
            "aypx",
            (self.r.store, self.p.store, out.store),
            (self.r.read_spec(), self.p.read_spec(), out.write_spec()),
            (beta,),
        )
        self.p = out
        self.rs_old = rs_new
