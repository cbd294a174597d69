"""2-D incompressible Navier-Stokes channel flow (paper Figure 12b).

A cuPyNumeric port of the "CFD Python: 12 steps to Navier-Stokes" channel
flow application the paper benchmarks: velocity fields ``u``/``v`` and a
pressure field ``p`` on a 2-D grid, advanced with finite differences.
Every update is an element-wise expression over *aliasing shifted views*
of the distributed grids (``field[1:-1, 0:-2]`` and friends), which is
precisely the access pattern that limits fusion across the writes at the
end of each sub-step — the behaviour the paper analyses for this
benchmark.

The paper's application uses periodic boundaries in x; periodic slicing
(``numpy.roll``) is not expressible with this frontend's contiguous
views, so the port uses a lid-driven-cavity-style set of Dirichlet
boundary conditions from the same lesson series.  The interior update —
the part that dominates the task stream and the fusion behaviour — is
unchanged.  See DESIGN.md, "Deviations".
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

import repro.frontend.cunumeric as cn
from repro.apps.base import Application, register_application
from repro.frontend.cunumeric.array import ndarray
from repro.frontend.legate.context import RuntimeContext
from repro.ir.privilege import Privilege
from repro.ir.task import IndexTask
from repro.runtime.machine import MachineConfig
from repro.runtime.opaque import register_opaque_task


# ----------------------------------------------------------------------
# Opaque pressure-RHS stencil (the paper's "library" task of this app).
# Argument order: u (Replication, READ), v (Replication, READ), rhs
# output (natural tiling, WRITE).  Scalars: dx, dy, dt, rho.
#
# The operator is *block-invariant*: every output element is a fixed
# gather of its global 5-point neighbourhood from the replicated inputs,
# so computing any sub-block — one rank's tile or a chunk's merged tiles
# — performs the exact per-element float operations of the full-grid
# expression.  That is what licenses the chunk-level implementation
# below: one vectorised call per rank tile of
# the chunk, no reduction partials to fold.
# ----------------------------------------------------------------------
def _rhs_block(u, v, out, lo, hi, scalars) -> None:
    """Write the Poisson RHS for output block ``[lo, hi)`` into ``out``.

    Output index ``(i, j)`` corresponds to interior grid point
    ``(i + 1, j + 1)`` of the full fields.
    """
    dx, dy, dt, rho = scalars
    r0, c0 = lo[0], lo[1]
    r1, c1 = hi[0], hi[1]
    un = u[r0 + 2:r1 + 2, c0 + 1:c1 + 1]
    us = u[r0:r1, c0 + 1:c1 + 1]
    ue = u[r0 + 1:r1 + 1, c0 + 2:c1 + 2]
    uw = u[r0 + 1:r1 + 1, c0:c1]
    vn = v[r0 + 2:r1 + 2, c0 + 1:c1 + 1]
    vs = v[r0:r1, c0 + 1:c1 + 1]
    ve = v[r0 + 1:r1 + 1, c0 + 2:c1 + 2]
    vw = v[r0 + 1:r1 + 1, c0:c1]
    dudx = (ue - uw) / (2.0 * dx)
    dvdy = (vn - vs) / (2.0 * dy)
    dudy = (un - us) / (2.0 * dy)
    dvdx = (ve - vw) / (2.0 * dx)
    out[...] = rho * (
        (dudx + dvdy) / dt - dudx * dudx - 2.0 * (dudy * dvdx) - dvdy * dvdy
    )


def _rhs_execute(task: IndexTask, point, buffers):
    u, v, out = buffers[0], buffers[1], buffers[2]
    if out is None:
        return None
    rect = task.args[2].partition.sub_store_rect(point, task.args[2].store.shape)
    _rhs_block(u, v, out, tuple(rect.lo), tuple(rect.hi), task.scalar_args)
    return None


def _rhs_cost(task: IndexTask, point, buffers, machine: MachineConfig) -> float:
    out = buffers[2]
    elements = 0 if out is None else out.size
    # Eight neighbour gathers plus one write per output element.
    bytes_moved = 9.0 * elements * 8.0
    return machine.kernel_launch_latency + bytes_moved / machine.gpu_memory_bandwidth


def _rhs_chunk_execute(bases, rects, scalars):
    """One vectorised stencil call per rank tile of the chunk."""
    u, v, out = bases[0], bases[1], bases[2]
    for lo, hi in rects[2]:
        _rhs_block(u, v, out[lo[0]:hi[0], lo[1]:hi[1]], lo, hi, scalars)
    return None


def _rhs_chunk_cost(bases, rects, scalars, machine: MachineConfig):
    """Per-rank modelled seconds of an RHS chunk (mirrors ``_rhs_cost``)."""
    seconds = []
    for lo, hi in rects[2]:
        elements = max(0, hi[0] - lo[0]) * max(0, hi[1] - lo[1])
        bytes_moved = 9.0 * elements * 8.0
        seconds.append(
            machine.kernel_launch_latency
            + bytes_moved / machine.gpu_memory_bandwidth
        )
    return seconds


register_opaque_task(
    "cfd_rhs_stencil",
    _rhs_execute,
    _rhs_cost,
    chunk_execute=_rhs_chunk_execute,
    chunk_cost_seconds=_rhs_chunk_cost,
)


@register_application("cfd")
class ChannelFlow(Application):
    """Navier-Stokes solver on a 2-D grid with pressure-Poisson coupling."""

    def __init__(
        self,
        points_per_gpu: int = 128,
        pressure_iterations: int = 8,
        reynolds_viscosity: float = 0.1,
        density: float = 1.0,
        dt: float = 0.0001,
        context: Optional[RuntimeContext] = None,
    ) -> None:
        super().__init__(context)
        gpus = self.context.num_gpus
        # Weak scaling: grow the grid area with the GPU count.
        side = int(np.ceil(np.sqrt(float(points_per_gpu) ** 2 * gpus)))
        self.nx = self.ny = side + 2
        self.dx = 2.0 / (self.nx - 1)
        self.dy = 2.0 / (self.ny - 1)
        self.dt = float(dt)
        self.rho = float(density)
        self.nu = float(reynolds_viscosity)
        self.pressure_iterations = int(pressure_iterations)
        self.u = cn.zeros((self.ny, self.nx), name="cfd_u")
        self.v = cn.zeros((self.ny, self.nx), name="cfd_v")
        self.p = cn.zeros((self.ny, self.nx), name="cfd_p")
        # Lid velocity along the top boundary drives the flow.
        self.u[-1:, :] = 1.0

    # ------------------------------------------------------------------
    # Shifted interior views of a field.
    # ------------------------------------------------------------------
    @staticmethod
    def _views(field):
        center = field[1:-1, 1:-1]
        north = field[2:, 1:-1]
        south = field[0:-2, 1:-1]
        east = field[1:-1, 2:]
        west = field[1:-1, 0:-2]
        return center, north, south, east, west

    def _build_rhs(self):
        """The source term of the pressure Poisson equation.

        Submitted as the opaque ``cfd_rhs_stencil`` library task (the
        paper's CUDA task variant without an MLIR generator): one gather
        over the replicated velocity fields into a fresh interior-shaped
        store.  The rest of the step remains a fusible element-wise
        stream.
        """
        out_store = self.context.create_store(
            (self.ny - 2, self.nx - 2), name="cfd_rhs"
        )
        out = ndarray(out_store, context=self.context)
        replicated = (self.context.replication(), Privilege.READ, None)
        out._submit(
            "cfd_rhs_stencil",
            (self.u.store, self.v.store, out_store),
            (replicated, replicated, out.write_spec()),
            (self.dx, self.dy, self.dt, self.rho),
        )
        return out

    def _pressure_poisson(self, rhs) -> None:
        dx2, dy2 = self.dx * self.dx, self.dy * self.dy
        denominator = 2.0 * (dx2 + dy2)
        for _ in range(self.pressure_iterations):
            pc, pn, ps, pe, pw = self._views(self.p)
            interior = ((pe + pw) * dy2 + (pn + ps) * dx2) / denominator - (
                dx2 * dy2 / denominator
            ) * rhs
            self.p[1:-1, 1:-1] = interior
            # Dirichlet/Neumann-style boundary conditions.
            self.p[:, -1:] = self.p[:, -2:-1]
            self.p[0:1, :] = self.p[1:2, :]
            self.p[:, 0:1] = self.p[:, 1:2]
            self.p[-1:, :] = 0.0

    def step(self) -> None:
        """Advance the velocity and pressure fields by one time step."""
        dx, dy, dt, rho, nu = self.dx, self.dy, self.dt, self.rho, self.nu
        rhs = self._build_rhs()
        self._pressure_poisson(rhs)

        uc, un, us, ue, uw = self._views(self.u)
        vc, vn, vs, ve, vw = self._views(self.v)
        pc, pn, ps, pe, pw = self._views(self.p)

        new_u = (
            uc
            - uc * (dt / dx) * (uc - uw)
            - vc * (dt / dy) * (uc - us)
            - (dt / (2.0 * rho * dx)) * (pe - pw)
            + nu * ((dt / (dx * dx)) * (ue - 2.0 * uc + uw) + (dt / (dy * dy)) * (un - 2.0 * uc + us))
        )
        new_v = (
            vc
            - uc * (dt / dx) * (vc - vw)
            - vc * (dt / dy) * (vc - vs)
            - (dt / (2.0 * rho * dy)) * (pn - ps)
            + nu * ((dt / (dx * dx)) * (ve - 2.0 * vc + vw) + (dt / (dy * dy)) * (vn - 2.0 * vc + vs))
        )

        self.u[1:-1, 1:-1] = new_u
        self.v[1:-1, 1:-1] = new_v

        # Boundary conditions: no-slip walls, moving lid at the top.
        self.u[0:1, :] = 0.0
        self.u[:, 0:1] = 0.0
        self.u[:, -1:] = 0.0
        self.u[-1:, :] = 1.0
        self.v[0:1, :] = 0.0
        self.v[-1:, :] = 0.0
        self.v[:, 0:1] = 0.0
        self.v[:, -1:] = 0.0

    def checksum(self) -> float:
        """Sum of the velocity magnitudes (forces a flush)."""
        return float((self.u * self.u + self.v * self.v).sum())

    # ------------------------------------------------------------------
    # NumPy reference for the correctness tests.
    # ------------------------------------------------------------------
    def reference_checksum(self, iterations: int) -> float:
        """Run the same scheme in plain NumPy and return the checksum."""
        ny, nx = self.ny, self.nx
        dx, dy, dt, rho, nu = self.dx, self.dy, self.dt, self.rho, self.nu
        u = np.zeros((ny, nx))
        v = np.zeros((ny, nx))
        p = np.zeros((ny, nx))
        u[-1, :] = 1.0
        for _ in range(iterations):
            uc, un, us, ue, uw = (
                u[1:-1, 1:-1], u[2:, 1:-1], u[0:-2, 1:-1], u[1:-1, 2:], u[1:-1, 0:-2]
            )
            vc, vn, vs, ve, vw = (
                v[1:-1, 1:-1], v[2:, 1:-1], v[0:-2, 1:-1], v[1:-1, 2:], v[1:-1, 0:-2]
            )
            dudx = (ue - uw) / (2 * dx)
            dvdy = (vn - vs) / (2 * dy)
            dudy = (un - us) / (2 * dy)
            dvdx = (ve - vw) / (2 * dx)
            rhs = rho * ((dudx + dvdy) / dt - dudx**2 - 2 * dudy * dvdx - dvdy**2)
            dx2, dy2 = dx * dx, dy * dy
            den = 2 * (dx2 + dy2)
            for _q in range(self.pressure_iterations):
                pe, pw = p[1:-1, 2:], p[1:-1, 0:-2]
                pn, ps = p[2:, 1:-1], p[0:-2, 1:-1]
                p[1:-1, 1:-1] = ((pe + pw) * dy2 + (pn + ps) * dx2) / den - (dx2 * dy2 / den) * rhs
                p[:, -1] = p[:, -2]
                p[0, :] = p[1, :]
                p[:, 0] = p[:, 1]
                p[-1, :] = 0.0
            uc, un, us, ue, uw = (
                u[1:-1, 1:-1], u[2:, 1:-1], u[0:-2, 1:-1], u[1:-1, 2:], u[1:-1, 0:-2]
            )
            vc, vn, vs, ve, vw = (
                v[1:-1, 1:-1], v[2:, 1:-1], v[0:-2, 1:-1], v[1:-1, 2:], v[1:-1, 0:-2]
            )
            pe, pw, pn, ps = p[1:-1, 2:], p[1:-1, 0:-2], p[2:, 1:-1], p[0:-2, 1:-1]
            new_u = (
                uc - uc * (dt / dx) * (uc - uw) - vc * (dt / dy) * (uc - us)
                - (dt / (2 * rho * dx)) * (pe - pw)
                + nu * ((dt / dx2) * (ue - 2 * uc + uw) + (dt / dy2) * (un - 2 * uc + us))
            )
            new_v = (
                vc - uc * (dt / dx) * (vc - vw) - vc * (dt / dy) * (vc - vs)
                - (dt / (2 * rho * dy)) * (pn - ps)
                + nu * ((dt / dx2) * (ve - 2 * vc + vw) + (dt / dy2) * (vn - 2 * vc + vs))
            )
            u[1:-1, 1:-1] = new_u
            v[1:-1, 1:-1] = new_v
            u[0, :] = 0.0
            u[:, 0] = 0.0
            u[:, -1] = 0.0
            u[-1, :] = 1.0
            v[0, :] = 0.0
            v[-1, :] = 0.0
            v[:, 0] = 0.0
            v[:, -1] = 0.0
        return float(np.sum(u * u + v * v))
