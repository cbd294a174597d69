"""The dependence-partitioned plan scheduler (``runtime/scheduler.py``).

Acceptance bar: ``REPRO_WORKERS=N`` (N>1) produces bit-identical buffers
and identical simulated seconds to serial execution for every harness
application, asserted under the differential kernel backend with the
pool-dispatch threshold forced to zero so the worker pool (and the
thread-safe executor/region caches behind it) is actually exercised.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.apps.base import build_application
from repro.experiments.harness import scaled_machine
from repro.frontend.cunumeric.array import ndarray as cn_ndarray
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.ir.domain import Domain
from repro.ir.partition import natural_tiling
from repro.ir.privilege import Privilege, ReductionOp
from repro.ir.store import StoreManager
from repro.ir.task import IndexTask, StoreArg
from repro.runtime.scheduler import (
    MIN_DISPATCH_VOLUME,
    PlanSchedule,
    analyze_plan,
)
from repro.runtime.trace import AnalysisCharge, CompiledStep, ExecutionPlan, OpaqueStep


@pytest.fixture(autouse=True)
def _reload_flags_after():
    yield
    config.reload_flags()


# ----------------------------------------------------------------------
# Configuration.
# ----------------------------------------------------------------------
class TestWorkerConfig:
    def test_explicit_worker_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        config.reload_flags()
        assert config.worker_count() == 4

    def test_worker_count_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        config.reload_flags()
        assert config.worker_count() == 1
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        config.reload_flags()
        assert config.worker_count() == 1

    def test_default_is_cpu_bounded(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        config.reload_flags()
        import os

        expected = max(1, min(os.cpu_count() or 1, config.MAX_DEFAULT_WORKERS))
        assert config.worker_count() == expected


# ----------------------------------------------------------------------
# Plan analysis: dependence DAG construction from footprints.
# ----------------------------------------------------------------------
def _compiled_step(footprint):
    return CompiledStep(
        kernel=None,
        task_name="t",
        fused=False,
        constituents=1,
        launches=1,
        num_points=1,
        buffer_bindings=(),
        scalar_order=(),
        scalar_positions=(),
        reductions={},
        footprint=footprint,
        kernel_seconds=0.0,
        communication_seconds=0.0,
        overhead_seconds=0.0,
    )


def _plan(steps):
    return ExecutionPlan(
        steps=tuple(steps),
        exit_states=(),
        bytes_moved=0.0,
        forwarded_tasks=0,
        fused_tasks=0,
        fused_constituents=0,
        temporaries_eliminated=0,
    )


def _levels(schedule: PlanSchedule):
    return [tuple(level) for level in schedule.levels]


class TestPlanAnalysis:
    def test_raw_dependence_chains(self):
        # A writes slot 0; B reads slot 0, writes slot 1.
        a = _compiled_step(((0, False, True, False),))
        b = _compiled_step(((0, True, False, False), (1, False, True, False)))
        schedule = analyze_plan(_plan([a, b]), [])
        assert _levels(schedule) == [(0,), (1,)]
        assert schedule.width == 1
        assert schedule.steps[1].deps == (0,)

    def test_independent_steps_share_a_level(self):
        a = _compiled_step(((0, True, False, False), (1, False, True, False)))
        b = _compiled_step(((0, True, False, False), (2, False, True, False)))
        schedule = analyze_plan(_plan([a, b]), [])
        assert _levels(schedule) == [(0, 1)]
        assert schedule.width == 2

    def test_war_dependence_orders_write_after_read(self):
        # A reads slot 0; B overwrites slot 0 -> B must wait for A.
        a = _compiled_step(((0, True, False, False), (1, False, True, False)))
        b = _compiled_step(((0, False, True, False),))
        schedule = analyze_plan(_plan([a, b]), [])
        assert _levels(schedule) == [(0,), (1,)]
        assert schedule.steps[1].deps == (0,)

    def test_waw_and_reduce_conflicts_are_ordered(self):
        # Two reductions into the same slot stay in recorded order.
        a = _compiled_step(((0, False, False, True),))
        b = _compiled_step(((0, False, False, True),))
        schedule = analyze_plan(_plan([a, b]), [])
        assert _levels(schedule) == [(0,), (1,)]

    def test_analysis_charges_are_not_scheduled(self):
        a = _compiled_step(((0, False, True, False),))
        schedule = analyze_plan(_plan([AnalysisCharge(1e-6), a, AnalysisCharge(2e-6)]), [])
        assert len(schedule.steps) == 1
        assert schedule.steps[0].plan_index == 1

    def test_diamond(self):
        # A -> (B, C) -> D.
        a = _compiled_step(((0, False, True, False),))
        b = _compiled_step(((0, True, False, False), (1, False, True, False)))
        c = _compiled_step(((0, True, False, False), (2, False, True, False)))
        d = _compiled_step(((1, True, False, False), (2, True, False, False), (3, False, True, False)))
        schedule = analyze_plan(_plan([a, b, c, d]), [])
        assert _levels(schedule) == [(0,), (1, 2), (3,)]
        assert schedule.width == 2
        assert schedule.steps[3].deps == (1, 2)

    def test_schedule_cached_on_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        config.reload_flags()
        plan = _plan([_compiled_step(((0, False, True, False),))])
        assert plan.schedule is None
        schedule = analyze_plan(plan, [])
        plan.schedule = schedule
        assert plan.schedule is schedule


# ----------------------------------------------------------------------
# End-to-end parity: scheduled replay is bit-identical to serial.
# ----------------------------------------------------------------------
def _run_app(app_name, workers, monkeypatch, iterations, **app_kwargs):
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    # Pin point dispatch off: this file asserts the PR-3 step-level
    # behaviour exactly (tests/test_point_dispatch.py covers the matrix).
    monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
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


class TestScheduledReplayParity:
    """Satellite: hammer the same plans from ``REPRO_WORKERS=4``."""

    APPS = [
        ("cg", dict(grid_points_per_gpu=16), 8),
        ("jacobi", dict(rows_per_gpu=48), 8),
        ("black-scholes", dict(elements_per_gpu=256), 10),
    ]

    @pytest.mark.parametrize("app_name,kwargs,iterations", APPS, ids=[a[0] for a in APPS])
    def test_workers_bit_identical(self, app_name, kwargs, iterations, monkeypatch):
        import repro.runtime.scheduler as scheduler_module

        # Force every step through the worker pool regardless of size so
        # the concurrent path (and the caches under it) is exercised.
        monkeypatch.setattr(scheduler_module, "MIN_DISPATCH_VOLUME", 0)

        ctx_serial, state_serial, checksum_serial = _run_app(
            app_name, 1, monkeypatch, iterations, **kwargs
        )
        ctx_pool, state_pool, checksum_pool = _run_app(
            app_name, 4, monkeypatch, iterations, **kwargs
        )

        assert ctx_pool.profiler.trace_hits > 0
        assert ctx_pool.profiler.plan_replays > 0

        assert checksum_pool == checksum_serial
        assert set(state_pool) == set(state_serial)
        for name in state_serial:
            assert np.array_equal(state_pool[name], state_serial[name]), name

        # Identical simulated seconds, per iteration and in total.
        assert (
            ctx_pool.profiler.iteration_seconds()
            == ctx_serial.profiler.iteration_seconds()
        )
        assert ctx_pool.legion.simulated_seconds == ctx_serial.legion.simulated_seconds

    def test_repeated_hammering_is_stable(self, monkeypatch):
        """Replaying one plan many times through the pool stays bit-stable."""
        import repro.runtime.scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module, "MIN_DISPATCH_VOLUME", 0)
        ctx_a, state_a, checksum_a = _run_app(
            "cg", 4, monkeypatch, 16, grid_points_per_gpu=16
        )
        ctx_b, state_b, checksum_b = _run_app(
            "cg", 4, monkeypatch, 16, grid_points_per_gpu=16
        )
        assert checksum_a == checksum_b
        for name in state_a:
            assert np.array_equal(state_a[name], state_b[name]), name


# ----------------------------------------------------------------------
# Width > 1: independent opaque launches overlap.
# ----------------------------------------------------------------------
def _two_matvec_context(monkeypatch, workers):
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "codegen")
    config.reload_flags()
    context = RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))
    set_context(context)
    return context


def _run_two_matvecs(context, iterations=6, rows=32):
    import repro.frontend.cunumeric as cn
    from repro.frontend.cunumeric import linalg

    rng = np.random.default_rng(3)
    a = cn.array(rng.uniform(1.0, 2.0, (rows, rows)), name="A")
    b = cn.array(rng.uniform(1.0, 2.0, (rows, rows)), name="B")
    x = cn.array(rng.uniform(0.0, 1.0, rows), name="x")
    y = cn.array(rng.uniform(0.0, 1.0, rows), name="y")
    outs = None
    for _ in range(iterations):
        context.profiler.begin_iteration()
        # Two independent mat-vecs in one epoch: neither reads the
        # other's output, so the plan's DAG has one level of width 2.
        u = linalg.matvec(a, x)
        v = linalg.matvec(b, y)
        outs = (u.to_numpy(), v.to_numpy())
    return outs


class TestHorizontalConcurrency:
    def test_width_two_plan_dispatches_to_pool(self, monkeypatch):
        import repro.runtime.scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module, "MIN_DISPATCH_VOLUME", 0)
        context = _two_matvec_context(monkeypatch, workers=4)
        try:
            outs_pool = _run_two_matvecs(context)
            profiler = context.profiler
            assert profiler.trace_hits > 0
            assert profiler.plan_replays > 0
            assert profiler.plan_width_max == 2
            assert profiler.plan_dispatched_steps > 0
            assert 0.0 < profiler.worker_utilization <= 1.0
            assert profiler.plan_average_width > 1.0
            sim_pool = context.legion.simulated_seconds
        finally:
            set_context(None)

        context = _two_matvec_context(monkeypatch, workers=1)
        try:
            outs_serial = _run_two_matvecs(context)
            assert context.profiler.plan_replays == 0  # serial path
            sim_serial = context.legion.simulated_seconds
        finally:
            set_context(None)

        np.testing.assert_array_equal(outs_pool[0], outs_serial[0])
        np.testing.assert_array_equal(outs_pool[1], outs_serial[1])
        assert sim_pool == sim_serial


# ----------------------------------------------------------------------
# Profiler counters.
# ----------------------------------------------------------------------
class TestPlanProfiling:
    def test_counters_and_reset(self):
        from repro.runtime.profiler import Profiler

        profiler = Profiler()
        assert profiler.plan_average_width == 0.0
        assert profiler.worker_utilization == 0.0
        profiler.record_plan_execution(steps=4, levels=2, width=3, dispatched=3)
        assert profiler.plan_replays == 1
        assert profiler.plan_width_max == 3
        assert profiler.plan_average_width == 2.0
        assert profiler.worker_utilization == 0.75
        profiler.reset()
        assert profiler.plan_replays == 0
        assert profiler.plan_width_max == 0
        assert profiler.worker_utilization == 0.0
