"""Sparse iterative solver helpers mirroring ``scipy.sparse.linalg``.

These are the "naturally written" solver implementations the paper's
evaluation runs through Diffuse: every vector operation is an ordinary
cuPyNumeric expression (separate multiply/add/dot tasks), and the SpMV is
the opaque task of :mod:`repro.frontend.sparse.csr`.  The functions are
also reused by the application drivers in :mod:`repro.apps`.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.frontend.cunumeric.array import ndarray, nonzero_scalar
from repro.ir.future import Future
from repro.frontend.sparse.csr import csr_matrix


def cg(
    matrix: csr_matrix,
    rhs: ndarray,
    x0: ndarray,
    iterations: int,
    tolerance: float = 0.0,
    check_interval: int = 0,
    on_iteration: Optional[Callable[[int], None]] = None,
) -> Tuple[ndarray, Future]:
    """Naturally-written conjugate gradient (paper Section 7.1).

    The dot products stay futures (``repro.ir.future``): ``alpha`` and
    ``beta`` are resolved by the launches that take them, so nothing is
    read on the host unless ``check_interval`` is N > 0, which converts
    the residual norm to a host value (forcing a flush) once every N
    iterations and stops once it is below ``tolerance`` squared.  0
    keeps everything deferred, which lets Diffuse fuse AXPYs and dot
    products across iteration boundaries exactly as described in the
    paper.
    Returns the solution and the final residual 2-norm squared, a
    future (``float()`` reads it).
    """
    x = x0
    r = rhs - matrix.dot(x)
    p = r.copy()
    rs = r.dot(r).future()
    for iteration in range(iterations):
        if on_iteration is not None:
            on_iteration(iteration)
        ap = matrix.dot(p)
        alpha = rs / nonzero_scalar(p.dot(ap))
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = r.dot(r).future()
        beta = rs_new / nonzero_scalar(rs)
        p = r + beta * p
        rs = rs_new
        if check_interval and (iteration + 1) % check_interval == 0:
            if float(rs) < tolerance * tolerance:
                break
    return x, rs


def bicgstab(
    matrix: csr_matrix,
    rhs: ndarray,
    x0: ndarray,
    iterations: int,
    on_iteration: Optional[Callable[[int], None]] = None,
) -> Tuple[ndarray, float]:
    """Naturally-written BiCGSTAB (paper Section 7.1).

    Returns the solution and the final residual 2-norm squared.
    """
    x = x0
    r = rhs - matrix.dot(x)
    r_hat = r.copy()
    p = r.copy()
    rho = float(r_hat.dot(r))
    residual = rho
    for iteration in range(iterations):
        if on_iteration is not None:
            on_iteration(iteration)
        v = matrix.dot(p)
        alpha = rho / nonzero_scalar(float(r_hat.dot(v)))
        s = r - alpha * v
        t = matrix.dot(s)
        omega = float(t.dot(s)) / nonzero_scalar(float(t.dot(t)))
        x = x + alpha * p + omega * s
        r = s - omega * t
        rho_new = float(r_hat.dot(r))
        beta = (rho_new / nonzero_scalar(rho)) * (alpha / nonzero_scalar(omega))
        p = r + beta * (p - omega * v)
        rho = rho_new
        residual = float(r.dot(r))
    return x, residual

