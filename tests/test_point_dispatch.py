"""Intra-launch point dispatch (``REPRO_POINT_WORKERS``).

The flag, the rank-chunk plan, parity at an odd dispatch width, point
chunks beside the steps of a wide plan level, eager launches staying in
the parent at any point width, and the profiler counters, with both dispatch
thresholds forced to zero so the worker processes (and the chunk join
machinery behind them) are exercised on tiny problems.
``REPRO_POINT_WORKERS=1`` is the serial per-rank launch loop; the
``REPRO_WORKERS`` {1, 4} × ``REPRO_POINT_WORKERS`` {1, 4} parity hammer
lives in ``tests/test_process_dispatch.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.apps.base import build_application
from repro.experiments.harness import scaled_machine
from repro.frontend.cunumeric.array import ndarray as cn_ndarray
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.runtime.pool import point_chunks
from repro.runtime.procpool import shutdown_process_pool


@pytest.fixture(autouse=True)
def _reload_flags_after():
    yield
    config.reload_flags()


pytestmark = pytest.mark.usefixtures("force_dispatch")


# ----------------------------------------------------------------------
# Configuration and chunk planning.
# ----------------------------------------------------------------------
class TestPointConfig:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_POINT_WORKERS", raising=False)
        config.reload_flags()
        assert config.point_worker_count() == 1

    def test_explicit_width(self, monkeypatch):
        monkeypatch.setenv("REPRO_POINT_WORKERS", "4")
        config.reload_flags()
        assert config.point_worker_count() == 4

    def test_width_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_POINT_WORKERS", "0")
        config.reload_flags()
        assert config.point_worker_count() == 1
        monkeypatch.setenv("REPRO_POINT_WORKERS", "junk")
        config.reload_flags()
        assert config.point_worker_count() == 1


class TestPointChunks:
    def test_serial_width_is_one_chunk(self):
        assert point_chunks(8, 1) == [(0, 8)]

    def test_even_split(self):
        assert point_chunks(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_to_leading_chunks(self):
        assert point_chunks(7, 4) == [(0, 2), (2, 4), (4, 6), (6, 7)]

    def test_width_capped_by_points(self):
        assert point_chunks(2, 8) == [(0, 1), (1, 2)]

    def test_chunks_cover_and_are_contiguous(self):
        for num_points in range(1, 17):
            for width in (1, 2, 3, 4, 8):
                chunks = point_chunks(num_points, width)
                assert chunks[0][0] == 0
                assert chunks[-1][1] == num_points
                for (_, stop), (start, _) in zip(chunks, chunks[1:]):
                    assert stop == start


# ----------------------------------------------------------------------
# End-to-end parity at dispatch width 2.
# ----------------------------------------------------------------------
COMBOS = [(1, 1), (2, 1), (4, 1), (1, 4), (2, 4), (4, 4)]


def _run_app(app_name, point_workers, workers, monkeypatch, iterations, **app_kwargs):
    monkeypatch.setenv("REPRO_POINT_WORKERS", str(point_workers))
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "differential")
    config.reload_flags()
    context = RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))
    set_context(context)
    try:
        app = build_application(app_name, context=context, **app_kwargs)
        app.run(iterations)
        checksum = app.checksum()
        state = {
            name: value.to_numpy()
            for name, value in vars(app).items()
            if isinstance(value, cn_ndarray)
        }
    finally:
        set_context(None)
    return context, state, checksum


class TestTwoWorkerParity:
    """Two worker processes, two ranks per chunk.

    Every app runs under the differential backend at
    ``REPRO_POINT_WORKERS=2`` with ``REPRO_WORKERS`` ∈ {1, 4}; buffers,
    checksums and simulated seconds must match the (1, 1) serial
    baseline bit for bit.
    """

    APPS = [
        ("cg", dict(grid_points_per_gpu=12), 5),
        ("jacobi", dict(rows_per_gpu=32), 6),
        ("black-scholes", dict(elements_per_gpu=128), 6),
    ]

    @pytest.mark.parametrize("app_name,kwargs,iterations", APPS, ids=[a[0] for a in APPS])
    def test_matrix_bit_identical(self, app_name, kwargs, iterations, monkeypatch):
        ctx_base, state_base, checksum_base = _run_app(
            app_name, 1, 1, monkeypatch, iterations, **kwargs
        )
        for point_workers, workers in [(2, 1), (2, 4)]:
            ctx, state, checksum = _run_app(
                app_name, point_workers, workers, monkeypatch, iterations, **kwargs
            )
            label = f"point={point_workers} workers={workers}"
            assert checksum == checksum_base, label
            assert set(state) == set(state_base), label
            for name in state_base:
                assert np.array_equal(state[name], state_base[name]), (label, name)
            assert (
                ctx.profiler.iteration_seconds()
                == ctx_base.profiler.iteration_seconds()
            ), label
            assert (
                ctx.legion.simulated_seconds == ctx_base.legion.simulated_seconds
            ), label
            assert ctx.profiler.point_launches > 0, label
            assert ctx.profiler.point_width_max == 2, label
        shutdown_process_pool()


# ----------------------------------------------------------------------
# Point chunks beside the steps of a wide level.
# ----------------------------------------------------------------------
def _run_two_matvecs(monkeypatch, point_workers, workers, iterations=5, rows=24):
    """A wide epoch: two independent mat-vecs (DAG width 2)."""
    monkeypatch.setenv("REPRO_POINT_WORKERS", str(point_workers))
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "codegen")
    config.reload_flags()
    context = RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))
    set_context(context)
    try:
        import repro.frontend.cunumeric as cn
        from repro.frontend.cunumeric import linalg

        rng = np.random.default_rng(7)
        a = cn.array(rng.uniform(1.0, 2.0, (rows, rows)), name="A")
        b = cn.array(rng.uniform(1.0, 2.0, (rows, rows)), name="B")
        x = cn.array(rng.uniform(0.0, 1.0, rows), name="x")
        y = cn.array(rng.uniform(0.0, 1.0, rows), name="y")
        outs = None
        for _ in range(iterations):
            context.profiler.begin_iteration()
            u = linalg.matvec(a, x)
            v = linalg.matvec(b, y)
            outs = (u.to_numpy(), v.to_numpy())
        sim = context.legion.simulated_seconds
    finally:
        set_context(None)
    return context, outs, sim


class TestWideAppParity:
    """Point chunks co-scheduled with independent steps of a wide level."""

    @pytest.mark.parametrize("point_workers,workers", COMBOS[1:], ids=[
        f"p{p}w{w}" for p, w in COMBOS[1:]
    ])
    def test_two_matvec_bit_identical(self, point_workers, workers, monkeypatch):
        _, outs_base, sim_base = _run_two_matvecs(monkeypatch, 1, 1)
        ctx, outs, sim = _run_two_matvecs(monkeypatch, point_workers, workers)
        np.testing.assert_array_equal(outs[0], outs_base[0])
        np.testing.assert_array_equal(outs[1], outs_base[1])
        assert sim == sim_base
        assert ctx.profiler.trace_hits > 0
        if point_workers > 1:
            assert ctx.profiler.point_process_chunks > 0
        shutdown_process_pool()

    def test_wide_level_still_dispatches_steps(self, monkeypatch):
        """Step-level dispatch survives alongside point chunking."""
        ctx, _outs, _sim = _run_two_matvecs(monkeypatch, 4, 4)
        assert ctx.profiler.plan_replays > 0
        assert ctx.profiler.plan_width_max == 2
        assert ctx.profiler.plan_dispatched_steps > 0

    def test_wide_level_with_different_rank_tables(self, monkeypatch):
        """Regression: chunk closures bind their own step's runner.

        Two independent compiled steps of *different* shapes share one
        dependence level; each step's dispatched chunk futures outlive
        the scheduling loop's iteration, so a late-bound runner would
        execute one step's ranks against the other's rect table
        (IndexError or silently corrupted buffers).
        """
        monkeypatch.setenv("REPRO_POINT_WORKERS", "2")
        monkeypatch.setenv("REPRO_WORKERS", "4")
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "codegen")
        # Super-kernel lowering would fuse the width-2 level into one
        # step, hiding exactly the multi-step dispatch window this
        # regression test exists to exercise.
        monkeypatch.setattr(config, "SUPERKERNEL", False)
        config.reload_flags()
        context = RuntimeContext(
            num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4)
        )
        set_context(context)
        try:
            import repro.frontend.cunumeric as cn

            rng = np.random.default_rng(11)
            # A 2-D and a 1-D elementwise op: their partitions cannot
            # align, so they stay two distinct compiled steps sharing a
            # width-2 level with *different* rect tables (the 1-D op is
            # whole-domain batched to a single rank, the 2-D op keeps
            # its four row tiles).
            a_host = rng.uniform(1.0, 2.0, (16, 64))
            b_host = rng.uniform(0.0, 1.0, 128)
            a = cn.array(a_host, name="wideA")
            b = cn.array(b_host, name="wideB")
            for _ in range(6):
                context.profiler.begin_iteration()
                u = a * 2.0
                v = b + 1.0
                np.testing.assert_array_equal(u.to_numpy(), a_host * 2.0)
                np.testing.assert_array_equal(v.to_numpy(), b_host + 1.0)
            assert context.profiler.trace_hits > 0
            assert context.profiler.plan_dispatched_steps > 0
        finally:
            set_context(None)

    def test_chunk_closures_bind_runner_by_value(self, monkeypatch):
        """Deterministic form of the late-binding regression.

        Replace the pool submit with a deferred future that runs its
        closure only at ``result()`` time — i.e. after the scheduling
        loop has moved past every step of the level, exactly the window
        in which a late-bound ``run_chunk`` would have been rebound to a
        different step.  On a single-core host the threaded test above
        rarely hits that window; this one always does.
        """
        import repro.runtime.scheduler as scheduler_module

        class _DeferredFuture:
            def __init__(self, fn):
                self._fn = fn

            def result(self):
                return self._fn()

        class _DeferredPool:
            def submit(self, fn):
                return _DeferredFuture(fn)

        monkeypatch.setattr(scheduler_module, "worker_pool", lambda: _DeferredPool())
        monkeypatch.setenv("REPRO_POINT_WORKERS", "2")
        monkeypatch.setenv("REPRO_WORKERS", "4")
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "codegen")
        monkeypatch.setattr(config, "SUPERKERNEL", False)
        config.reload_flags()
        context = RuntimeContext(
            num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4)
        )
        set_context(context)
        try:
            import repro.frontend.cunumeric as cn

            rng = np.random.default_rng(13)
            a_host = rng.uniform(1.0, 2.0, (16, 64))
            b_host = rng.uniform(0.0, 1.0, 128)
            a = cn.array(a_host, name="lateA")
            b = cn.array(b_host, name="lateB")
            for _ in range(6):
                context.profiler.begin_iteration()
                u = a * 2.0
                v = b + 1.0
                np.testing.assert_array_equal(u.to_numpy(), a_host * 2.0)
                np.testing.assert_array_equal(v.to_numpy(), b_host + 1.0)
            assert context.profiler.trace_hits > 0
            assert context.profiler.plan_dispatched_steps > 0
        finally:
            set_context(None)


# ----------------------------------------------------------------------
# Serial regression: REPRO_POINT_WORKERS=1 is the PR-3 path.
# ----------------------------------------------------------------------
class TestSerialRegression:
    """Satellite: the sharing-hazard fix leaves serial results unchanged."""

    def test_serial_chunk_plan_is_single_chunk(self, monkeypatch):
        from repro.runtime.executor import TaskExecutor
        from repro.runtime.machine import MachineConfig
        from repro.runtime.region import RegionManager

        monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
        config.reload_flags()
        executor = TaskExecutor(RegionManager(), MachineConfig(num_gpus=4))
        assert executor.point_chunk_plan(8, ()) == [(0, 8)]

    def test_eager_launches_run_in_the_parent_at_any_point_width(self, monkeypatch):
        """``REPRO_TRACE=0``: point width 4 is point width 1, bit for bit.

        Worker processes serve replayed plan steps only, so every eager
        launch runs as one chunk in the parent: no worker process is
        spawned, nothing crosses a pipe and no point dispatch is
        recorded.
        """
        import multiprocessing

        from repro.runtime import procpool

        def run(point_workers):
            monkeypatch.setenv("REPRO_POINT_WORKERS", str(point_workers))
            monkeypatch.setenv("REPRO_WORKERS", "1")
            monkeypatch.setenv("REPRO_TRACE", "0")
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", "differential")
            config.reload_flags()
            context = RuntimeContext(
                num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4)
            )
            set_context(context)
            try:
                app = build_application(
                    "cg", context=context, grid_points_per_gpu=12
                )
                app.run(4)
                checksum = app.checksum()
                state = {
                    name: value.to_numpy()
                    for name, value in vars(app).items()
                    if isinstance(value, cn_ndarray)
                }
            finally:
                set_context(None)
            return context, state, checksum

        shutdown_process_pool()
        ctx1, state1, checksum1 = run(1)
        ctx4, state4, checksum4 = run(4)
        assert procpool._POOL is None
        assert multiprocessing.active_children() == []
        profiler = ctx4.profiler
        assert profiler.wire_requests == 0
        assert profiler.point_launches == profiler.point_process_chunks == 0
        assert checksum4 == checksum1
        assert profiler.iteration_seconds() == ctx1.profiler.iteration_seconds()
        assert ctx4.legion.simulated_seconds == ctx1.legion.simulated_seconds
        for name in state1:
            assert np.array_equal(state4[name], state1[name]), name
        ctx4.legion.regions.close_arena()


# ----------------------------------------------------------------------
# Profiler counters.
# ----------------------------------------------------------------------
class TestPointProfiling:
    def test_counters_and_reset(self):
        from repro.runtime.profiler import Profiler

        profiler = Profiler()
        assert profiler.point_chunks_per_launch == 0.0
        assert profiler.point_utilization == 0.0
        profiler.record_point_dispatch(ranks=8, chunks=4, process_chunks=3, width=4)
        profiler.record_point_dispatch(ranks=8, chunks=2, process_chunks=1, width=4)
        assert profiler.point_launches == 2
        assert profiler.point_ranks == 16
        assert profiler.point_chunks == 6
        assert profiler.point_process_chunks == 4
        assert profiler.point_width_max == 4
        assert profiler.point_chunks_per_launch == 3.0
        assert profiler.point_utilization == 0.75
        profiler.reset()
        assert profiler.point_launches == 0
        assert profiler.point_chunks == profiler.point_process_chunks == 0
        assert profiler.point_width_max == 0
        assert profiler.point_utilization == 0.0
