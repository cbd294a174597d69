"""TorchSWE-style shallow-water equation solver (paper Figure 12c).

A cuPyNumeric port of the structure of the TorchSWE solver the paper
evaluates: conserved variables ``h`` (water depth), ``hu`` and ``hv``
(momenta) on a 2-D grid, advanced with a Lax-Friedrichs finite-volume
scheme.  Each time step computes per-cell velocities, physical fluxes in
both directions, and neighbour-averaged updates — a long stream of
element-wise operations over aliasing shifted views, interrupted only by
the boundary-condition writes.

Two variants are provided, mirroring the paper's comparison:

* :class:`ShallowWater` — the naturally-written port.
* :class:`ManuallyFusedShallowWater` — the developer-optimised variant
  (the paper's ``numpy.vectorize`` version): scalar factors are
  pre-combined and hand-fused AXPY-style tasks replace some of the
  separate multiply/add pairs, reducing the task count but not reaching
  what Diffuse achieves automatically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

import repro.frontend.cunumeric as cn
from repro.apps.base import Application, register_application
from repro.frontend.cunumeric.array import ndarray
from repro.frontend.legate.context import RuntimeContext
from repro.ir.domain import Domain
from repro.ir.privilege import Privilege
from repro.ir.task import IndexTask
from repro.runtime.machine import MachineConfig
from repro.runtime.opaque import register_opaque_task

_GRAVITY = 9.81


# ----------------------------------------------------------------------
# Opaque Lax-Friedrichs update operators (the manually-vectorised
# library routines of the paper's TorchSWE baseline).  Argument order:
# h, hu, hv (Replication, READ), conserved-variable output (natural
# tiling, WRITE).  Scalar: alpha = -dt / (2 dx), the AXPY factor.
#
# The three updates are *block-invariant*: every output element is a
# fixed gather of its global 4-neighbourhood from the replicated inputs,
# so any sub-block performs the exact per-element float operations of
# the full-interior expression — which licenses the chunk-level
# implementations (one vectorised call per rank tile, no reduction
# partials).  The boundary reflection below is *not* block-invariant
# (its edge copies are sequentially dependent through the corners), so
# its chunk implementation runs each rank's copies whole, in rank order.
# ----------------------------------------------------------------------
def _edge_views(field, lo, hi):
    """East/west/north/south neighbour views for output block [lo, hi).

    Output index ``(i, j)`` corresponds to interior grid point
    ``(i + 1, j + 1)`` of the full fields.
    """
    r0, c0 = lo[0], lo[1]
    r1, c1 = hi[0], hi[1]
    east = field[r0 + 1:r1 + 1, c0 + 2:c1 + 2]
    west = field[r0 + 1:r1 + 1, c0:c1]
    north = field[r0 + 2:r1 + 2, c0 + 1:c1 + 1]
    south = field[r0:r1, c0 + 1:c1 + 1]
    return east, west, north, south


def _update_h_block(h, hu, hv, out, lo, hi, alpha) -> None:
    he, hw, hn, hs = _edge_views(h, lo, hi)
    hue, huw, _hun, _hus = _edge_views(hu, lo, hi)
    _hve, _hvw, hvn, hvs = _edge_views(hv, lo, hi)
    flux = (hue - huw) + (hvn - hvs)
    avg = 0.25 * (he + hw + hn + hs)
    out[...] = alpha * flux + avg


def _update_hu_block(h, hu, hv, out, lo, hi, alpha) -> None:
    he, hw, hn, hs = _edge_views(h, lo, hi)
    hue, huw, hun, hus = _edge_views(hu, lo, hi)
    _hve, _hvw, hvn, hvs = _edge_views(hv, lo, hi)
    inv_he, inv_hw = 1.0 / he, 1.0 / hw
    inv_hn, inv_hs = 1.0 / hn, 1.0 / hs
    pressure_diff_x = (0.5 * _GRAVITY) * (he * he - hw * hw)
    flux = (hue * (hue * inv_he) - huw * (huw * inv_hw)) + pressure_diff_x + (
        hvn * (hun * inv_hn) - hvs * (hus * inv_hs)
    )
    avg = 0.25 * (hue + huw + hun + hus)
    out[...] = alpha * flux + avg


def _update_hv_block(h, hu, hv, out, lo, hi, alpha) -> None:
    he, hw, hn, hs = _edge_views(h, lo, hi)
    hue, huw, _hun, _hus = _edge_views(hu, lo, hi)
    hve, hvw, hvn, hvs = _edge_views(hv, lo, hi)
    inv_he, inv_hw = 1.0 / he, 1.0 / hw
    inv_hn, inv_hs = 1.0 / hn, 1.0 / hs
    pressure_diff_y = (0.5 * _GRAVITY) * (hn * hn - hs * hs)
    flux = (hue * (hve * inv_he) - huw * (hvw * inv_hw)) + (
        hvn * (hvn * inv_hn) - hvs * (hvs * inv_hs)
    ) + pressure_diff_y
    avg = 0.25 * (hve + hvw + hvn + hvs)
    out[...] = alpha * flux + avg


def _swe_update_execute(block_fn):
    """Per-rank execute for one conserved-variable update operator."""

    def execute(task: IndexTask, point, buffers):
        h, hu, hv, out = buffers[0], buffers[1], buffers[2], buffers[3]
        if out is None:
            return None
        rect = task.args[3].partition.sub_store_rect(
            point, task.args[3].store.shape
        )
        block_fn(h, hu, hv, out, tuple(rect.lo), tuple(rect.hi), task.scalar_args[0])
        return None

    return execute


def _swe_update_chunk(block_fn):
    """Chunk execute: one vectorised call per rank tile of the chunk."""

    def chunk_execute(bases, rects, scalars):
        h, hu, hv, out = bases[0], bases[1], bases[2], bases[3]
        alpha = scalars[0]
        for lo, hi in rects[3]:
            block_fn(h, hu, hv, out[lo[0]:hi[0], lo[1]:hi[1]], lo, hi, alpha)
        return None

    return chunk_execute


# Vectorised-op counts of the three update operators: each NumPy
# binary/unary op in the block functions above is one pass of the
# hand-vectorised port this operator models — one kernel launch that
# reads two operand arrays and materialises one temporary.  Costing
# the operator as the sum of those passes (rather than one fused
# 13-gather stencil) keeps the Figure 12c story honest: the manually
# vectorised port still pays multi-pass memory traffic and per-op
# launch latency, which Diffuse's fused natural variant does not.
_H_UPDATE_OPS = 9.0
_HU_UPDATE_OPS = 26.0
_HV_UPDATE_OPS = 26.0


def _swe_update_cost(n_ops: float):
    """Per-rank cost of one update: `n_ops` vectorised three-pass ops."""

    def cost(task: IndexTask, point, buffers, machine: MachineConfig) -> float:
        out = buffers[3]
        elements = 0 if out is None else out.size
        bytes_moved = 3.0 * n_ops * elements * 8.0
        return (
            n_ops * machine.kernel_launch_latency
            + bytes_moved / machine.gpu_memory_bandwidth
        )

    return cost


def _swe_update_chunk_cost(n_ops: float):
    """Per-rank modelled seconds of an update chunk (mirrors the per-rank cost)."""

    def chunk_cost(bases, rects, scalars, machine: MachineConfig):
        seconds = []
        for lo, hi in rects[3]:
            elements = max(0, hi[0] - lo[0]) * max(0, hi[1] - lo[1])
            bytes_moved = 3.0 * n_ops * elements * 8.0
            seconds.append(
                n_ops * machine.kernel_launch_latency
                + bytes_moved / machine.gpu_memory_bandwidth
            )
        return seconds

    return chunk_cost


def _reflect_execute(task: IndexTask, point, buffers):
    """In-place reflective boundaries: the exact sequential edge copies.

    The column copies read the corner values the row copies just wrote,
    so the operator is not block-invariant: a chunk runs each of its
    ranks' copies whole (a single-point launch over the replicated
    field is one rank).
    """
    field = buffers[0]
    if field is not None:
        _reflect(field)
    return None


def _reflect(field) -> None:
    field[0:1, :] = field[1:2, :]
    field[-1:, :] = field[-2:-1, :]
    field[:, 0:1] = field[:, 1:2]
    field[:, -1:] = field[:, -2:-1]


def _reflect_seconds(rows: int, columns: int, machine: MachineConfig) -> float:
    edge_elements = 2.0 * (rows + columns)
    bytes_moved = 2.0 * edge_elements * 8.0
    return machine.kernel_launch_latency + bytes_moved / machine.gpu_memory_bandwidth


def _reflect_cost(task: IndexTask, point, buffers, machine: MachineConfig) -> float:
    field = buffers[0]
    if field is None:
        return 0.0
    return _reflect_seconds(field.shape[0], field.shape[1], machine)


def _reflect_chunk(bases, rects, scalars):
    """Chunk execute: each rank's edge copies on its tile, in rank order."""
    field = bases[0]
    for lo, hi in rects[0]:
        _reflect(field[lo[0]:hi[0], lo[1]:hi[1]])
    return None


def _reflect_chunk_cost(bases, rects, scalars, machine: MachineConfig):
    """Per-rank modelled seconds of a reflection chunk."""
    return [_reflect_seconds(hi[0] - lo[0], hi[1] - lo[1], machine) for lo, hi in rects[0]]


register_opaque_task(
    "swe_update_h",
    _swe_update_execute(_update_h_block),
    _swe_update_cost(_H_UPDATE_OPS),
    chunk_execute=_swe_update_chunk(_update_h_block),
    chunk_cost_seconds=_swe_update_chunk_cost(_H_UPDATE_OPS),
)
register_opaque_task(
    "swe_update_hu",
    _swe_update_execute(_update_hu_block),
    _swe_update_cost(_HU_UPDATE_OPS),
    chunk_execute=_swe_update_chunk(_update_hu_block),
    chunk_cost_seconds=_swe_update_chunk_cost(_HU_UPDATE_OPS),
)
register_opaque_task(
    "swe_update_hv",
    _swe_update_execute(_update_hv_block),
    _swe_update_cost(_HV_UPDATE_OPS),
    chunk_execute=_swe_update_chunk(_update_hv_block),
    chunk_cost_seconds=_swe_update_chunk_cost(_HV_UPDATE_OPS),
)
register_opaque_task(
    "swe_reflect_edges",
    _reflect_execute,
    _reflect_cost,
    chunk_execute=_reflect_chunk,
    chunk_cost_seconds=_reflect_chunk_cost,
)


@register_application("torchswe")
class ShallowWater(Application):
    """Naturally-written shallow-water solver."""

    def __init__(
        self,
        points_per_gpu: int = 128,
        dt: float = 1e-4,
        context: Optional[RuntimeContext] = None,
        seed: int = 3,
    ) -> None:
        super().__init__(context)
        gpus = self.context.num_gpus
        side = int(np.ceil(np.sqrt(float(points_per_gpu) ** 2 * gpus)))
        self.n = side + 2
        self.dx = 1.0 / self.n
        self.dt = float(dt)
        rng = np.random.default_rng(seed)
        # A smooth random initial water column over a flat bed.
        base = 1.0 + 0.1 * rng.random((self.n, self.n))
        self._initial_h = base
        self.h = cn.array(base, name="swe_h")
        self.hu = cn.zeros((self.n, self.n), name="swe_hu")
        self.hv = cn.zeros((self.n, self.n), name="swe_hv")

    # ------------------------------------------------------------------
    # Shifted interior views.
    # ------------------------------------------------------------------
    @staticmethod
    def _views(field):
        center = field[1:-1, 1:-1]
        north = field[2:, 1:-1]
        south = field[0:-2, 1:-1]
        east = field[1:-1, 2:]
        west = field[1:-1, 0:-2]
        return center, north, south, east, west

    def _fluxes(self, h, hu, hv):
        """Physical fluxes of the shallow-water system for given views."""
        u = hu / h
        v = hv / h
        pressure = 0.5 * _GRAVITY * (h * h)
        flux_h_x = hu
        flux_hu_x = hu * u + pressure
        flux_hv_x = hu * v
        flux_h_y = hv
        flux_hu_y = hv * u
        flux_hv_y = hv * v + pressure
        return (flux_h_x, flux_hu_x, flux_hv_x, flux_h_y, flux_hu_y, flux_hv_y)

    def step(self) -> None:
        """One Lax-Friedrichs time step."""
        lam = self.dt / (2.0 * self.dx)
        hc, hn, hs, he, hw = self._views(self.h)
        huc, hun, hus, hue, huw = self._views(self.hu)
        hvc, hvn, hvs, hve, hvw = self._views(self.hv)

        # Fluxes at the four neighbours of every interior cell.
        fe = self._fluxes(he, hue, hve)
        fw = self._fluxes(hw, huw, hvw)
        fn = self._fluxes(hn, hun, hvn)
        fs = self._fluxes(hs, hus, hvs)

        # Lax-Friedrichs update: neighbour average minus flux differences.
        new_h = 0.25 * (he + hw + hn + hs) - lam * ((fe[0] - fw[0]) + (fn[3] - fs[3]))
        new_hu = 0.25 * (hue + huw + hun + hus) - lam * ((fe[1] - fw[1]) + (fn[4] - fs[4]))
        new_hv = 0.25 * (hve + hvw + hvn + hvs) - lam * ((fe[2] - fw[2]) + (fn[5] - fs[5]))

        self.h[1:-1, 1:-1] = new_h
        self.hu[1:-1, 1:-1] = new_hu
        self.hv[1:-1, 1:-1] = new_hv
        self._apply_boundaries()

    def _apply_boundaries(self) -> None:
        """Reflective boundaries: copy the first interior row/column outward."""
        self.h[0:1, :] = self.h[1:2, :]
        self.h[-1:, :] = self.h[-2:-1, :]
        self.h[:, 0:1] = self.h[:, 1:2]
        self.h[:, -1:] = self.h[:, -2:-1]
        for momentum in (self.hu, self.hv):
            momentum[0:1, :] = momentum[1:2, :]
            momentum[-1:, :] = momentum[-2:-1, :]
            momentum[:, 0:1] = momentum[:, 1:2]
            momentum[:, -1:] = momentum[:, -2:-1]

    def checksum(self) -> float:
        """Total water volume plus momentum magnitudes."""
        return float(self.h.sum()) + float(self.hu.sum()) + float(self.hv.sum())

    # ------------------------------------------------------------------
    # NumPy reference for the correctness tests.
    # ------------------------------------------------------------------
    def reference_checksum(self, iterations: int) -> float:
        """Run the same scheme with plain NumPy."""
        h = self._initial_h.copy()
        hu = np.zeros_like(h)
        hv = np.zeros_like(h)
        lam = self.dt / (2.0 * self.dx)

        def views(f):
            return f[1:-1, 1:-1], f[2:, 1:-1], f[0:-2, 1:-1], f[1:-1, 2:], f[1:-1, 0:-2]

        def fluxes(hh, hhu, hhv):
            u = hhu / hh
            v = hhv / hh
            pr = 0.5 * _GRAVITY * hh * hh
            return (hhu, hhu * u + pr, hhu * v, hhv, hhv * u, hhv * v + pr)

        for _ in range(iterations):
            hc, hn, hs, he, hw = views(h)
            huc, hun, hus, hue, huw = views(hu)
            hvc, hvn, hvs, hve, hvw = views(hv)
            fe = fluxes(he, hue, hve)
            fw = fluxes(hw, huw, hvw)
            fn = fluxes(hn, hun, hvn)
            fs = fluxes(hs, hus, hvs)
            new_h = 0.25 * (he + hw + hn + hs) - lam * ((fe[0] - fw[0]) + (fn[3] - fs[3]))
            new_hu = 0.25 * (hue + huw + hun + hus) - lam * ((fe[1] - fw[1]) + (fn[4] - fs[4]))
            new_hv = 0.25 * (hve + hvw + hvn + hvs) - lam * ((fe[2] - fw[2]) + (fn[5] - fs[5]))
            h[1:-1, 1:-1] = new_h
            hu[1:-1, 1:-1] = new_hu
            hv[1:-1, 1:-1] = new_hv
            for f in (h, hu, hv):
                f[0, :] = f[1, :]
                f[-1, :] = f[-2, :]
                f[:, 0] = f[:, 1]
                f[:, -1] = f[:, -2]
        return float(np.sum(h) + np.sum(hu) + np.sum(hv))


@register_application("torchswe-manual")
class ManuallyFusedShallowWater(ShallowWater):
    """Developer-optimised variant with pre-combined constants.

    The optimisation mirrors what the TorchSWE developers did with
    ``numpy.vectorize``: each conserved variable's whole Lax-Friedrichs
    update is one hand-vectorised library call — an opaque task the
    runtime cannot fuse into, computing exactly the pre-combined
    flux/average/AXPY expressions the earlier hand-fused task stream
    produced — and the reflective boundaries are one library call per
    field.  Fewer tasks than the natural version, but opaque to Diffuse.
    The three update operators are mutually independent, which is what
    gives this app its width-3 dependence levels.
    """

    def step(self) -> None:
        alpha = -(self.dt / (2.0 * self.dx))
        # All three updates read the *current* h/hu/hv, so they are
        # submitted before any interior write — program order makes the
        # writes depend on every read.
        new_h = self._submit_update("swe_update_h", alpha)
        new_hu = self._submit_update("swe_update_hu", alpha)
        new_hv = self._submit_update("swe_update_hv", alpha)
        self.h[1:-1, 1:-1] = new_h
        self.hu[1:-1, 1:-1] = new_hu
        self.hv[1:-1, 1:-1] = new_hv
        self._apply_boundaries()

    def _submit_update(self, name: str, alpha: float):
        """Submit one opaque conserved-variable update, returning its output."""
        out_store = self.context.create_store(
            (self.n - 2, self.n - 2), name=name
        )
        out = ndarray(out_store, context=self.context)
        replicated = (self.context.replication(), Privilege.READ, None)
        out._submit(
            name,
            (self.h.store, self.hu.store, self.hv.store, out_store),
            (replicated, replicated, replicated, out.write_spec()),
            (float(alpha),),
        )
        return out

    def _apply_boundaries(self) -> None:
        """Reflective boundaries as one opaque library call per field."""
        context = self.context
        skeleton = context.skeleton(
            "swe_reflect_edges",
            Domain((1,)),
            ((context.replication(), Privilege.READ_WRITE, None),),
        )
        for field in (self.h, self.hu, self.hv):
            context.submit(skeleton, (field.store,))
