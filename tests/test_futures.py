"""Futures: a reduction's result stays deferred until a launch takes it.

``apps/cg.py`` keeps its dot products as 0-d arrays and ``alpha`` /
``beta`` as futures (``repro.ir.future``), so a CG iteration reads
nothing on the host and is one epoch.  A launch resolving a future whose
producer is still in its round gets a round fence, so the window rounds
— fusion groups, temporaries and analysis charges — are the ones the
host reads used to cut.  These tests pin that

* CG and cg-manual compute the buffers and charge every iteration's
  simulated seconds bit for bit as the host-read programs did, at 1, 4
  and 64 ranks, under both kernel backends, traced and untraced, inline
  and over a worker process;
* a future evaluates as the host's ``max`` and ``/`` on NaN, ±0 and
  values below 1e-300, and opaque operators (per chunk and per rank,
  eager and replayed) see the value;
* a launch resolving a future of the same epoch starts a new
  super-kernel unit;
* ``float()`` of a future flushes;
* a 0-d store that only a future still holds is not reclaimed;
* ``linalg.cg`` reads on the host only every ``check_interval``
  iterations and computes the buffers of the host-read solver.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.apps  # noqa: F401 - registers the applications
import repro.frontend.cunumeric as cn
from repro import config
from repro.apps.cg import ConjugateGradient, ManuallyFusedConjugateGradient
from repro.apps.torchswe import ManuallyFusedShallowWater
from repro.experiments.harness import scaled_machine
from repro.frontend.cunumeric.array import ndarray
from repro.frontend.cunumeric.ufuncs import axpy
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.frontend.sparse import linalg, poisson_2d
from repro.ir.future import Future
from repro.ir.privilege import Privilege
from repro.runtime import superkernel
from repro.runtime.trace import TraceController


# ----------------------------------------------------------------------
# The host-read programs the futures replaced.
# ----------------------------------------------------------------------
class HostReadCG(ConjugateGradient):
    """CG reading both dot products on the host every iteration."""

    def reset(self) -> None:
        self.x = cn.zeros(self.rows, name="cg_x")
        self.r = self.rhs - self.matrix.dot(self.x)
        self.p = self.r.copy()
        self.rs_old = float(self.r.dot(self.r))

    def step(self) -> None:
        ap = self.matrix.dot(self.p)
        alpha = self.rs_old / max(float(self.p.dot(ap)), 1e-300)
        self.x = self.x + alpha * self.p
        self.r = self.r - alpha * ap
        rs_new = float(self.r.dot(self.r))
        beta = rs_new / max(self.rs_old, 1e-300)
        self.p = self.r + beta * self.p
        self.rs_old = rs_new


class HostReadManualCG(ManuallyFusedConjugateGradient):
    """cg-manual reading both dot products on the host every iteration."""

    reset = HostReadCG.reset

    def step(self) -> None:
        ap = self.matrix.dot(self.p)
        alpha = self.rs_old / max(float(self.p.dot(ap)), 1e-300)
        self.x = axpy(alpha, self.p, self.x)
        self.r = axpy(-alpha, ap, self.r)
        rs_new = float(self.r.dot(self.r))
        beta = rs_new / max(self.rs_old, 1e-300)
        out = self.p._fresh_like(name="aypx")
        out._submit(
            "aypx",
            (self.r.store, self.p.store, out.store),
            (self.r.read_spec(), self.p.read_spec(), out.write_spec()),
            (beta,),
        )
        self.p = out
        self.rs_old = rs_new


def _nonzero(value: float) -> float:
    """The zero guard the host-read solver applied to its denominators."""
    if value == 0.0:
        return 1e-300
    return value


def host_read_linalg_cg(matrix, rhs, x0, iterations):
    """``linalg.cg`` as it read both dot products every iteration."""
    x = x0
    r = rhs - matrix.dot(x)
    p = r.copy()
    rs_value = float(r.dot(r))
    for _iteration in range(iterations):
        ap = matrix.dot(p)
        alpha = rs_value / _nonzero(float(p.dot(ap)))
        x = x + alpha * p
        r = r - alpha * ap
        rs_value_new = float(r.dot(r))
        beta = rs_value_new / _nonzero(rs_value)
        p = r + beta * p
        rs_value = rs_value_new
    return x, rs_value


ITERATIONS = 12


def _run(cls, num_gpus):
    """Buffers, checksum and per-iteration simulated seconds of 12 iterations."""
    context = RuntimeContext(num_gpus=num_gpus, machine=scaled_machine(num_gpus, 1e-4))
    set_context(context)
    try:
        app = cls(grid_points_per_gpu=4, context=context)
        app.run(ITERATIONS)
        buffers = {
            name: value.to_numpy()
            for name, value in vars(app).items()
            if isinstance(value, ndarray)
        }
        checksum = app.checksum()
    finally:
        set_context(None)
    return buffers, checksum, context.profiler.iteration_seconds(), context.profiler


@pytest.mark.parametrize("point_workers", [1, 2])
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("backend", ["codegen", "differential"])
@pytest.mark.parametrize("num_gpus", [1, 4, 64])
@pytest.mark.parametrize(
    "futures, host_read",
    [(ConjugateGradient, HostReadCG), (ManuallyFusedConjugateGradient, HostReadManualCG)],
    ids=["cg", "cg-manual"],
)
def test_cg_is_bit_identical_to_the_host_read_program(
    futures, host_read, num_gpus, backend, trace, point_workers, flags, force_dispatch
):
    flags(
        REPRO_KERNEL_BACKEND=backend, REPRO_TRACE=trace,
        REPRO_POINT_WORKERS=point_workers, REPRO_WORKERS=1,
    )
    expected_buffers, expected_checksum, expected_seconds, _ = _run(host_read, num_gpus)
    buffers, checksum, seconds, profiler = _run(futures, num_gpus)
    assert buffers.keys() == expected_buffers.keys()
    for name, value in expected_buffers.items():
        assert buffers[name].tobytes() == value.tobytes(), name
    assert checksum == expected_checksum
    assert seconds == expected_seconds
    # Two futures per iteration, each resolved by its launches; two
    # fences (alpha, beta) per iteration.
    assert profiler.round_fences == 2 * ITERATIONS
    assert profiler.future_scalars >= 2 * ITERATIONS
    if trace:
        assert profiler.epochs_per_replayed_iteration == 1.0
    if point_workers > 1 and trace and num_gpus > 1:
        assert profiler.point_process_chunks > 0


# ----------------------------------------------------------------------
# Values.
# ----------------------------------------------------------------------
SPECIALS = [
    float("nan"), 0.0, -0.0, 1e-310, -1e-310, 1e-300, 5e-324, 2.5, -3.0,
    float("inf"), float("-inf"),
]


def _scalar(context, value: float) -> ndarray:
    """A 0-d array holding ``value`` (as a reduction leaves it)."""
    store = context.create_scalar_store(name="special")
    context.legion.write_scalar(store, value)
    return ndarray(store, context=context, partition=context.replication())


def _same(a: float, b: float) -> bool:
    """Bit-equal, or both NaN."""
    return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a) == math.copysign(1, b))


@pytest.mark.parametrize("trace", [0, 1])
def test_future_values_match_the_host(trace, flags):
    flags(REPRO_TRACE=trace)
    context = RuntimeContext(num_gpus=4)
    set_context(context)
    try:
        ones = cn.ones(8)
        for numerator in (1.0, -2.0, float("nan")):
            for value in SPECIALS:
                host_max = numerator / max(value, 1e-300)
                host_nonzero = numerator / _nonzero(value)
                host_first = max(1e-300, value)
                a, b = _scalar(context, numerator), _scalar(context, value)
                futures = [
                    a / cn.maximum_scalar(b, 1e-300),
                    a / cn.nonzero_scalar(b),
                    cn.maximum_scalar(1e-300, b),
                    -(a * b) + b - a,
                ]
                expected = [host_max, host_nonzero, host_first, -(numerator * value) + value - numerator]
                # Resolved by a launch: the launch multiplies by 1.0.
                launched = [float((ones * future).to_numpy()[0]) for future in futures]
                for future, want, got in zip(futures, expected, launched):
                    assert isinstance(future, Future)
                    assert _same(float(future), want), (numerator, value, float(future), want)
                    assert _same(got, want * 1.0), (numerator, value, got, want)
    finally:
        set_context(None)


def test_zero_d_arithmetic_builds_futures_not_tasks(flags):
    flags(REPRO_TRACE=1)
    context = RuntimeContext(num_gpus=4)
    set_context(context)
    try:
        x = cn.full(8, 2.0)
        total = x.sum()
        submitted = context.diffuse.stats.submitted_tasks
        scaled = 2 * total - 1.0 / total
        assert isinstance(scaled, Future)
        assert isinstance(-total, Future)
        assert context.diffuse.stats.submitted_tasks == submitted
        assert float(scaled) == 2 * 16.0 - 1.0 / 16.0
        # A 0-d operand of an n-d array is a launch's scalar.
        assert np.array_equal((x - total).to_numpy(), np.full(8, -14.0))
        assert np.array_equal((total - x).to_numpy(), np.full(8, 14.0))
    finally:
        set_context(None)


class FutureAlphaSWE(ManuallyFusedShallowWater):
    """torchswe-manual handing its opaque updates ``alpha`` as a future."""

    def _submit_update(self, name: str, alpha: float):
        held = _scalar(self.context, alpha)
        out_store = self.context.create_store((self.n - 2, self.n - 2), name=name)
        out = ndarray(out_store, context=self.context)
        replicated = (self.context.replication(), Privilege.READ, None)
        out._submit(
            name,
            (self.h.store, self.hu.store, self.hv.store, out.store),
            (replicated, replicated, replicated, out.write_spec()),
            (held.future(),),
        )
        return out


@pytest.mark.parametrize("opaque_chunks", [True, False])
@pytest.mark.parametrize("trace", [0, 1])
def test_an_opaque_launch_resolves_its_future(trace, opaque_chunks, flags, monkeypatch):
    """Chunk and per-rank operators, eager and replayed, see the value."""
    flags(REPRO_TRACE=trace)
    monkeypatch.setattr(config, "OPAQUE_CHUNKS", opaque_chunks)
    results = []
    for cls in (ManuallyFusedShallowWater, FutureAlphaSWE):
        context = RuntimeContext(num_gpus=4)
        set_context(context)
        try:
            app = cls(points_per_gpu=16, context=context)
            app.run(4)
            results.append([app.h.to_numpy(), app.hu.to_numpy(), app.hv.to_numpy()])
            if cls is FutureAlphaSWE:
                assert context.profiler.future_scalars > 0
        finally:
            set_context(None)
    for expected, got in zip(*results):
        assert got.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Where a future cuts the plan.
# ----------------------------------------------------------------------
def test_a_same_epoch_future_splits_the_superkernel_unit(flags):
    """``d = x.dot(x); y = x * d; e = y.dot(y)`` replayed: the dot and
    the launch resolving ``d`` run in two units, not one."""
    flags(REPRO_TRACE=1, REPRO_KERNEL_BACKEND="codegen", REPRO_POINT_WORKERS=1, REPRO_WORKERS=1)
    context = RuntimeContext(num_gpus=4)
    set_context(context)
    try:
        x = cn.ones(64)
        for _ in range(6):
            context.begin_iteration()
            d = x.dot(x)
            y = x * d
            e = y.dot(y)
            context.flush()
        assert float(e) == 64.0 * 64.0 * 64.0
        profiler = context.profiler
        assert profiler.round_fences == 6
        assert profiler.trace_hits >= 3
        # Two units of one section each: [dot] and [multiply_scalar + dot].
        units = [
            step
            for ref in superkernel._LOWERED_PLANS
            for plan in [ref()]
            if plan is not None and plan.superkernel not in (None, superkernel._NO_UNITS)
            for step in plan.superkernel.steps
            if isinstance(step, superkernel.SuperKernelStep)
        ]
        assert len(units) == 2
        assert [len(unit.sections) for unit in units] == [1, 1]
    finally:
        set_context(None)


@pytest.mark.parametrize("trace", [0, 1])
def test_float_of_a_future_flushes(trace, flags):
    flags(REPRO_TRACE=trace)
    context = RuntimeContext(num_gpus=4)
    set_context(context)
    try:
        x = cn.full(16, 3.0)
        future = x.dot(x) * 0.5
        y = x * future
        engine = context.diffuse
        if trace:
            assert engine.trace.pending == 3  # fill, dot, multiply
        else:
            assert not engine.window.empty
        assert float(future) == 72.0
        if trace:
            assert engine.trace.pending == 0
        assert engine.window.empty
        assert np.array_equal(y.to_numpy(), np.full(16, 216.0))
    finally:
        set_context(None)


def test_a_store_held_only_by_a_future_is_not_reclaimed(flags, monkeypatch):
    flags(REPRO_TRACE=1)
    reclaimed = []
    original = TraceController._reclaim_dead_fields

    def spied(controller, slot_stores):
        before = set(controller._reclaim_watch)
        original(controller, slot_stores)
        reclaimed.extend(before - set(controller._reclaim_watch))

    monkeypatch.setattr(TraceController, "_reclaim_dead_fields", spied)
    context = RuntimeContext(num_gpus=4)
    set_context(context)
    try:
        x = cn.full(16, 2.0)
        d = x.dot(x)
        store = d.store
        future = d.future() + 1.0
        del d
        context.flush()  # the producer's epoch
        y = x + x
        context.flush()  # an epoch that never touches the store
        assert store.uid not in reclaimed
        z = x * future  # held by the pending launch alone from here on
        del future
        assert store.pending_stream_references == 1 and store.application_references == 1
        context.flush()
        assert np.array_equal(z.to_numpy(), np.full(16, 130.0))
        assert np.array_equal(y.to_numpy(), np.full(16, 4.0))
        w = x + 1.0
        context.flush()  # the next epoch's scan reclaims it
        assert store.unreferenced and store.uid in reclaimed
        assert np.array_equal(w.to_numpy(), np.full(16, 3.0))
    finally:
        set_context(None)


# ----------------------------------------------------------------------
# linalg.cg
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_gpus", [1, 4])
@pytest.mark.parametrize("check_interval, reads", [(0, 0), (1, 12), (4, 3), (5, 2)])
def test_linalg_cg_reads_every_check_interval(num_gpus, check_interval, reads, flags, monkeypatch):
    flags(REPRO_TRACE=1)
    host_reads = []
    for name in ("read_scalar", "read_future"):
        original = getattr(RuntimeContext, name)

        def counted(context, value, _original=original):
            host_reads.append(value)
            return _original(context, value)

        monkeypatch.setattr(RuntimeContext, name, counted)
    set_context(RuntimeContext(num_gpus=num_gpus))
    try:
        matrix = poisson_2d(8)
        expected_x, expected_residual = host_read_linalg_cg(
            matrix, cn.ones(64), cn.zeros(64), ITERATIONS
        )
        expected = expected_x.to_numpy()
        del host_reads[:]
        x, residual = linalg.cg(
            matrix, cn.ones(64), cn.zeros(64), ITERATIONS, check_interval=check_interval
        )
        assert len(host_reads) == reads
        assert isinstance(residual, Future)
        assert x.to_numpy().tobytes() == expected.tobytes()
        assert float(residual) == expected_residual
    finally:
        set_context(None)
