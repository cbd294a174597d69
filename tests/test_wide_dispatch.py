"""Wide-plan process dispatch (width>1 levels feeding the process pool).

Acceptance bar: multiple in-flight steps of one wide level ship rank
chunks to the process pool concurrently and the results stay
bit-identical — buffers, checksums AND simulated seconds — to the
serial 1/1 baseline for every ``REPRO_WORKERS`` {1,4} ×
``REPRO_POINT_WORKERS`` {1,4} combination, asserted under the
differential kernel backend with resident plans and opaque chunk impls
enabled.  The hammer runs CFD, TorchSWE in both variants and BiCGSTAB;
the manually fused TorchSWE variant is the wide anchor — its three
independent update operators form width-3 dependence levels.

Alongside the hammer: launches run by plan-pool threads (they chunk as
the scheduling thread does, and run their chunks on their own thread),
the kill-a-worker-mid-run degradation test (a torn pool must degrade
wide levels to inline chunks without changing a single bit) and the
level frames of resident replay.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.apps.base import build_application
from repro.experiments.harness import scaled_machine
from repro.frontend.cunumeric.array import ndarray as cn_ndarray
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.runtime.procpool import shutdown_process_pool


@pytest.fixture(autouse=True)
def _reload_flags_after():
    yield
    config.reload_flags()
    shutdown_process_pool()


pytestmark = pytest.mark.usefixtures("force_dispatch")


COMBOS = [(1, 1), (4, 1), (1, 4), (4, 4)]


def _set_flags(monkeypatch, point_workers, workers):
    monkeypatch.setenv("REPRO_POINT_WORKERS", str(point_workers))
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "differential")
    config.reload_flags()


def _run_app(app_name, point_workers, workers, monkeypatch, iterations, **kwargs):
    _set_flags(monkeypatch, point_workers, workers)
    context = RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))
    set_context(context)
    try:
        app = build_application(app_name, context=context, **kwargs)
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


# ----------------------------------------------------------------------
# The width>1 differential hammer (satellite).
# ----------------------------------------------------------------------
class TestWideParity:
    """CFD / TorchSWE / BiCGSTAB across the full dispatch matrix.

    Every combination must reproduce the 1/1 baseline bit for bit.
    ``torchswe-manual`` additionally asserts the wide plumbing actually
    engaged: its captured plans must record width-3 levels, and under
    4/4 its wide-level opaque chunks must ride the process substrate
    (chunk counters > 0) — a silent degrade to width 1 or to the inline
    fallback fails the test, not just the bench.
    """

    # (app, kwargs, iterations, wide) — `wide` marks the app whose
    # captured plans are known to contain width>1 levels.
    APPS = [
        ("bicgstab", dict(grid_points_per_gpu=12), 5, False),
        ("cfd", dict(points_per_gpu=16, pressure_iterations=2), 4, False),
        ("torchswe", dict(points_per_gpu=16), 4, False),
        ("torchswe-manual", dict(points_per_gpu=16), 4, True),
    ]

    @pytest.mark.parametrize("app_name,kwargs,iterations,wide", APPS, ids=[a[0] for a in APPS])
    def test_matrix_bit_identical(self, app_name, kwargs, iterations, wide, monkeypatch):
        ctx_base, state_base, checksum_base = _run_app(
            app_name, 1, 1, monkeypatch, iterations, **kwargs
        )
        for point_workers, workers in COMBOS[1:]:
            ctx, state, checksum = _run_app(
                app_name, point_workers, workers, monkeypatch, iterations, **kwargs
            )
            label = f"{app_name} point={point_workers} workers={workers}"
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
            assert ctx.profiler.trace_hits > 0, label
            if wide and workers > 1:
                # The captured plans really are wide — the width
                # histogram is deterministic across hosts.
                assert ctx.profiler.plan_width_max >= 2, label
                assert max(ctx.profiler.plan_level_widths) >= 2, label
            if wide and workers > 1 and point_workers > 1:
                # Wide-level chunks actually shipped to the process pool.
                assert ctx.profiler.opaque_process_chunks > 0, label
                assert ctx.profiler.point_process_chunks > 0, label
        shutdown_process_pool()


# ----------------------------------------------------------------------
# Launches on plan-pool threads: no nested-dispatch guard.
# ----------------------------------------------------------------------
class TestPlanPoolLaunches:
    def _executor(self, monkeypatch):
        from repro.runtime.executor import TaskExecutor
        from repro.runtime.machine import MachineConfig
        from repro.runtime.region import RegionManager

        _set_flags(monkeypatch, 4, 4)
        return TaskExecutor(RegionManager(), MachineConfig(num_gpus=4))

    def test_pool_worker_chunks_like_the_scheduling_thread(self, monkeypatch):
        """Point chunks never ride the thread pool, so a step running on
        a pool worker cuts the same chunk plan as the scheduling thread."""
        from repro.runtime.pool import worker_pool

        executor = self._executor(monkeypatch)
        here = executor.point_chunk_plan(8, ())
        assert here == [(0, 2), (2, 4), (4, 6), (6, 8)]
        assert worker_pool().submit(executor.point_chunk_plan, 8, ()).result() == here

    def test_pool_worker_runs_unshipped_chunks_inline(self, monkeypatch):
        """A chunked launch a plan-pool thread runs (a plan with nothing
        resident) runs its chunks on that thread, in rank order, with
        nothing submitted back to its own pool."""
        import threading

        from repro.runtime.executor import ChunkWork
        from repro.runtime.pool import worker_pool

        executor = self._executor(monkeypatch)
        ran = []

        def run(start, stop):
            ran.append((threading.get_ident(), start, stop))
            return [None] * (stop - start), [1.0] * (stop - start)

        chunks = [(0, 2), (2, 4), (4, 6), (6, 8)]

        def launch():
            # Neither a kernel nor an operator: nothing a worker could run.
            return threading.get_ident(), executor.launch(ChunkWork((), 8, run), chunks, 4)

        ident, (seconds, partials) = worker_pool().submit(launch).result(timeout=30)
        assert (seconds, partials) == (2.0, {})
        assert ran == [(ident, start, stop) for start, stop in chunks]
        assert executor.profiler.point_launches == 0


# ----------------------------------------------------------------------
# Worker death mid-run: degrade, never diverge.
# ----------------------------------------------------------------------
class TestWorkerDeath:
    def test_killed_worker_mid_run_degrades_bit_identically(self, monkeypatch):
        """Tear a pool worker out from under a wide app mid-run.

        The next dispatch that touches the dead worker surfaces
        :class:`ProcessPoolBrokenError` internally; the executor and
        scheduler degrade that launch, the broken pool marks itself
        closed, :func:`process_pool` rebuilds a fresh one for the
        launches after it, and the final state must still match the
        undisturbed inline baseline bit for bit.
        """
        import repro.runtime.procpool as procpool

        app_name, kwargs, iterations = "torchswe-manual", dict(points_per_gpu=16), 6

        _, state_base, checksum_base = _run_app(
            app_name, 1, 1, monkeypatch, iterations, **kwargs
        )

        _set_flags(monkeypatch, 4, 4)
        context = RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))
        set_context(context)
        try:
            app = build_application(app_name, context=context, **kwargs)
            app.run(3)
            # The pool exists and has been fed; now kill a worker.
            pool = procpool.process_pool()
            chunks_before = context.profiler.point_process_chunks
            assert chunks_before > 0
            pool._processes[0].terminate()
            pool._processes[0].join(timeout=5.0)
            # The rest of the run must complete — the launch that hits
            # the dead worker degrades, the pool rebuilds behind it.
            app.run(iterations - 3)
            assert pool.closed
            assert procpool.process_pool() is not pool
            assert context.profiler.point_process_chunks > chunks_before
            checksum = app.checksum()
            state = {
                name: value.to_numpy()
                for name, value in vars(app).items()
                if isinstance(value, cn_ndarray)
            }
        finally:
            set_context(None)
        assert checksum == checksum_base
        for name in state_base:
            assert np.array_equal(state[name], state_base[name]), name
        shutdown_process_pool()


# ----------------------------------------------------------------------
# Level frames: one message per worker per resident plan level.
# ----------------------------------------------------------------------
class TestLevelFrames:
    """The resident protocol ships levels, not steps.

    ``torchswe-manual`` replays a (3, 1, 3) plan: the three update
    operators of level 0 and the fused copy of level 1 ship, the three
    rank-1 boundary calls of level 2 stay in the parent.  (At the
    benchmark workload's size: below it the copies are a one-rank launch.)
    """

    KWARGS = dict(points_per_gpu=64)

    def _start(self, monkeypatch, app_name="torchswe-manual"):
        _set_flags(monkeypatch, 2, 2)
        # The shipped backend: the differential executor runs a fused
        # unit as one unchunked call, which would leave level 1 inline.
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "codegen")
        config.reload_flags()
        context = RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))
        set_context(context)
        return context, build_application(app_name, context=context, **self.KWARGS)

    def test_two_frames_per_shipping_level_and_no_thread_submission(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        context, app = self._start(monkeypatch)
        try:
            app.run(4)  # capture, ship the plan, saturate the descriptor ids
            warm = context.profiler.snapshot()
            submitted = []
            monkeypatch.setattr(
                ThreadPoolExecutor, "submit",
                lambda self, fn, *args, **kwargs: submitted.append(fn),
            )
            app.run(3)
            steady = context.profiler.snapshot()
        finally:
            set_context(None)
        epochs = steady["trace_hits"] - warm["trace_hits"]
        assert epochs == 3
        # Two levels ship, two workers each: 4 frames where the per-step
        # protocol sent 8 messages; 8 chunks still come back per epoch.
        assert steady["wire_requests"] - warm["wire_requests"] == 4 * epochs
        assert steady["point_process_chunks"] - warm["point_process_chunks"] == 8 * epochs
        assert steady["opaque_process_chunks"] - warm["opaque_process_chunks"] == 6 * epochs
        # Only level 0's three steps ran off the scheduling thread as
        # part of a wide level — and none of them on a pool thread.
        assert steady["plan_dispatched_steps"] - warm["plan_dispatched_steps"] == 3 * epochs
        assert submitted == []

    def test_mixed_level_matches_serial_replay(self, monkeypatch):
        """A shipped step beside a step that stays in the parent.

        The rank-1 boundary call on an unrelated field is independent of
        the 4-rank update, so the two share level 0: the update travels
        in the level's frame while the parent runs the boundary call.
        """
        import repro.runtime.scheduler as scheduler_module
        from repro.apps import base as apps_base
        from repro.apps.torchswe import ManuallyFusedShallowWater
        from repro.frontend import cunumeric as cn
        from repro.ir.domain import Domain
        from repro.ir.privilege import Privilege
        from repro.ir.task import StoreArg

        class MixedLevel(ManuallyFusedShallowWater):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.scratch = cn.array(self._initial_h * 3.0, name="scratch")

            def step(self):
                new_h = self._submit_update("swe_update_h", -(self.dt / (2.0 * self.dx)))
                self.context.submit(
                    "swe_reflect_edges",
                    Domain((1,)),
                    [StoreArg(self.scratch.store, self.context.replication(), Privilege.READ_WRITE)],
                )
                self.h[1:-1, 1:-1] = new_h
                self._apply_boundaries()

            def checksum(self):
                return super().checksum() + float(self.scratch.sum())

        monkeypatch.setitem(apps_base._APPLICATIONS, "test-mixed-level-swe", MixedLevel)
        shapes = set()
        original = scheduler_module.PlanScheduler._resident_level

        def spy(self, resident, level_index, launches, entries, results):
            shapes.add((len(launches), len(entries)))
            return original(self, resident, level_index, launches, entries, results)

        monkeypatch.setattr(scheduler_module.PlanScheduler, "_resident_level", spy)
        ctx_base, state_base, checksum_base = _run_app(
            "test-mixed-level-swe", 1, 1, monkeypatch, 5, **self.KWARGS
        )
        assert not shapes
        ctx, state, checksum = _run_app(
            "test-mixed-level-swe", 2, 2, monkeypatch, 5, **self.KWARGS
        )
        assert (2, 1) in shapes, shapes
        assert checksum == checksum_base
        for name in state_base:
            assert np.array_equal(state[name], state_base[name]), name
        assert ctx.profiler.iteration_seconds() == ctx_base.profiler.iteration_seconds()
        assert ctx.legion.simulated_seconds == ctx_base.legion.simulated_seconds

    def test_frame_round_trips(self):
        from repro.runtime.procpool import _pack_run_message, _unpack_run_message
        from repro.runtime.shm import BlockDescriptor

        three = (
            (0, (0.5, -2.0), (3, None, 7)),
            (1, (), (0,)),
            (65535, (1e300,), (None, 32767)),
        )
        for entries in ((), three[:1], three):
            packed = _pack_run_message(41, 9, entries)
            assert packed is not None
            assert _unpack_run_message(packed) == ("r", 41, 9, entries)
        # Header 10 bytes; per entry 4 + 8 per value + 2 per sync item.
        assert len(_pack_run_message(41, 9, three)) == 10 + (4 + 16 + 6) + (4 + 2) + (4 + 8 + 4)
        # What does not fit the frame falls back to the pickled tuple: a
        # first-sighting descriptor, a non-float scalar, an id past i16.
        descriptor = BlockDescriptor("repro-test", 0, (4,), "float64")
        assert _pack_run_message(1, 1, ((0, (1.0,), (descriptor,)),)) is None
        assert _pack_run_message(1, 1, ((0, (1,), (0,)),)) is None
        assert _pack_run_message(1, 1, ((0, (1.0,), (40000,)),)) is None

    def test_entry_error_mid_frame_keeps_descriptor_ids_in_step(
        self, monkeypatch, tmp_path, shm_entries
    ):
        """The second of a frame's three entries raises in the workers.

        The error re-raises in the parent with the worker's traceback,
        and the pool survives with both sides' descriptor tables still
        in step: the failing frame carried first-sighting descriptors
        *behind* the failing entry (a freed wedge moved the epoch's arena
        blocks), which a worker that interned entry by entry would
        have skipped — every later sync would then resolve to the wrong
        block.  A fresh run over the same workers must match a clean one.
        """
        import gc
        import os

        import repro.runtime.procpool as procpool
        from repro.runtime.opaque import (
            OpaqueChunkImpl,
            OpaqueTaskImpl,
            default_opaque_registry,
        )

        _, state_base, checksum_base = _run_app(
            "torchswe-manual", 1, 1, monkeypatch, 5, **self.KWARGS
        )
        shm_before = shm_entries()
        marker = tmp_path / "fault"
        registry = default_opaque_registry()
        healthy = registry.get("swe_update_hu")

        def faulty_chunk(bases, rects, scalars):
            if os.path.exists(marker):
                raise ValueError("injected chunk fault")
            return healthy.chunk.execute(bases, rects, scalars)

        # Fork workers inherit the registry: swap before the pool exists.
        shutdown_process_pool()
        registry.register(
            OpaqueTaskImpl(
                healthy.name, healthy.execute, healthy.cost_seconds,
                OpaqueChunkImpl(faulty_chunk, healthy.chunk.cost_seconds), healthy.module,
            )
        )
        try:
            context, app = self._start(monkeypatch)
            try:
                # A block ahead of the app's own, freed before the failing
                # epoch: its update outputs then land at unseen offsets.
                regions = context.legion.regions
                wedge = context.create_store((2 * app.n, 2 * app.n), name="wedge")
                assert regions.field(wedge).shm_descriptor is not None
                app.run(4)
                pool = procpool.process_pool()
                known = [len(ids) for ids in pool._descriptor_ids]
                assert regions.reclaim_storage(wedge)
                marker.touch()
                with pytest.raises(ValueError, match="injected chunk fault") as raised:
                    app.run(1)
                assert "worker traceback" in str(raised.value)
                assert "faulty_chunk" in str(raised.value)
                marker.unlink()
                # The frame did carry new descriptors, and the pool lives.
                assert [len(ids) for ids in pool._descriptor_ids] > known
                assert not pool.closed and procpool.process_pool() is pool
            finally:
                set_context(None)
            del context, app, regions, wedge, raised
            context, app = self._start(monkeypatch)
            try:
                app.run(5)
                assert procpool.process_pool() is pool
                assert app.checksum() == checksum_base
                state = {
                    name: value.to_numpy()
                    for name, value in vars(app).items()
                    if isinstance(value, cn_ndarray)
                }
            finally:
                set_context(None)
            del context, app
            for name in state_base:
                assert np.array_equal(state[name], state_base[name]), name
        finally:
            registry.register(healthy)
            shutdown_process_pool()
        gc.collect()
        assert shm_entries() <= shm_before

    def test_worker_interns_every_entry_before_running_the_first(self):
        """The worker half of the above, without processes."""
        from repro.runtime.procpool import OpaqueResidentStep, _execute_frame
        from repro.runtime.shm import BlockDescriptor

        step = OpaqueResidentStep("not-a-registered-operator", None, None, (), ((0, 1),))
        first = BlockDescriptor("repro-test", 0, (4,), "float64")
        later = BlockDescriptor("repro-test", 64, (4,), "float64")
        descriptors = [first]
        message = ("r", 7, 3, ((0, (), (0,)), (1, (), (later, None))))
        with pytest.raises(KeyError, match="not-a-registered-operator"):
            _execute_frame(message, {3: {0: step, 1: step}}, {}, descriptors)
        assert descriptors == [first, later]
