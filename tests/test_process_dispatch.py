"""Shared-memory multiprocess dispatch (``REPRO_POINT_WORKERS`` > 1).

Acceptance bar: rank chunks in worker processes are bit-identical to
the inline rank loop — buffers, checksums AND simulated seconds — for
every ``REPRO_WORKERS`` {1,4} × ``REPRO_POINT_WORKERS`` {1,4}
combination, asserted under the differential kernel backend with the
dispatch thresholds forced to zero so the pools are exercised on tiny
problems.  Alongside the end-to-end hammer, this file unit-tests the
shared-memory arena, the worker-process pool protocol, the
config-reload pool invalidation and the inline fallback for region
fields that predate the flag flip.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro import config
from repro.apps.base import build_application
from repro.experiments.harness import scaled_machine
from repro.frontend.cunumeric.array import ndarray as cn_ndarray
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.runtime import procpool
from repro.runtime.opaque import (
    OpaqueTaskRegistry,
    default_opaque_registry,
    register_opaque_task,
)
from repro.runtime.procpool import shutdown_process_pool
from repro.runtime.shm import SharedArena, attach_view


@pytest.fixture(autouse=True)
def _reload_flags_after():
    yield
    config.reload_flags()


pytestmark = pytest.mark.usefixtures("force_dispatch")


# ----------------------------------------------------------------------
# Configuration.
# ----------------------------------------------------------------------
class TestDispatchConfig:
    def test_default_is_inline(self, monkeypatch):
        monkeypatch.delenv("REPRO_POINT_WORKERS", raising=False)
        config.reload_flags()
        assert config.dispatch_backend() == "thread"

    def test_point_workers_mean_processes(self, monkeypatch):
        monkeypatch.setenv("REPRO_POINT_WORKERS", "2")
        config.reload_flags()
        assert config.dispatch_backend() == "process"


# ----------------------------------------------------------------------
# The shared-memory arena.
# ----------------------------------------------------------------------
class TestSharedArena:
    def test_allocate_zeroed_and_descriptor_roundtrip(self):
        arena = SharedArena(segment_bytes=4096)
        try:
            array, descriptor = arena.allocate((16,), np.float64)
            assert np.array_equal(array, np.zeros(16))
            array[:] = np.arange(16.0)
            # Attaching through the descriptor maps the same pages.
            view = attach_view(descriptor)
            assert np.array_equal(view, np.arange(16.0))
            view[0] = 41.0
            assert array[0] == 41.0
        finally:
            del array, view
            arena.close()

    def test_blocks_share_segments_and_release_recycles(self):
        arena = SharedArena(segment_bytes=4096)
        try:
            a, da = arena.allocate((8,), np.float64)
            b, db = arena.allocate((8,), np.float64)
            assert da.segment == db.segment
            assert da.offset != db.offset
            assert arena.segment_count == 1
            a[:] = 7.0
            del a
            arena.release(da)
            # The freed block is reused (first fit) and comes back zeroed.
            c, dc = arena.allocate((8,), np.float64)
            assert dc.segment == da.segment and dc.offset == da.offset
            assert np.array_equal(c, np.zeros(8))
        finally:
            arena.close()

    def test_oversized_allocation_gets_own_segment(self):
        arena = SharedArena(segment_bytes=4096)
        try:
            _small, _ = arena.allocate((8,), np.float64)
            big, dbig = arena.allocate((4096,), np.float64)
            assert big.nbytes > 4096
            assert arena.segment_count == 2
            assert dbig.offset == 0
        finally:
            del big
            arena.close()

    def test_release_coalesces_adjacent_holes(self):
        arena = SharedArena(segment_bytes=4096)
        try:
            arrays = [arena.allocate((8,), np.float64) for _ in range(3)]
            descriptors = [d for _a, d in arrays]
            arrays = [a for a, _d in arrays]
            del arrays
            for descriptor in descriptors:
                arena.release(descriptor)
            # All three 64-byte blocks coalesced with the tail hole: a
            # fresh 3-block allocation fits at the segment start again.
            merged, dm = arena.allocate((24,), np.float64)
            assert dm.offset == 0
            del merged
        finally:
            arena.close()

    def test_close_unlinks_dev_shm(self):
        arena = SharedArena(segment_bytes=4096)
        array, descriptor = arena.allocate((8,), np.float64)
        name = descriptor.segment
        if os.path.isdir("/dev/shm"):
            assert os.path.exists(f"/dev/shm/{name}")
        del array
        arena.close()
        assert arena.closed
        if os.path.isdir("/dev/shm"):
            assert not os.path.exists(f"/dev/shm/{name}")
        # Idempotent.
        arena.close()

    def test_closed_arena_refuses_allocation(self):
        arena = SharedArena(segment_bytes=4096)
        arena.close()
        with pytest.raises(RuntimeError):
            arena.allocate((8,), np.float64)


# ----------------------------------------------------------------------
# Shared-memory region fields.
# ----------------------------------------------------------------------
class TestShmRegionFields:
    def _manager_and_store(self, monkeypatch, point_workers):
        from repro.ir.store import StoreManager
        from repro.runtime.region import RegionManager

        monkeypatch.setenv("REPRO_POINT_WORKERS", point_workers)
        config.reload_flags()
        manager = RegionManager()
        store = StoreManager().create_store((32,), name="field")
        return manager, store

    def test_inline_fields_are_private(self, monkeypatch):
        manager, store = self._manager_and_store(monkeypatch, "1")
        field = manager.field(store)
        assert field.shm_descriptor is None
        assert manager.arena is None

    def test_point_dispatch_fields_are_shared(self, monkeypatch):
        manager, store = self._manager_and_store(monkeypatch, "2")
        field = manager.field(store)
        assert field.shm_descriptor is not None
        assert manager.arena is not None
        field.data[:] = 3.5
        view = attach_view(field.shm_descriptor)
        assert np.array_equal(view, np.full(32, 3.5))
        del view
        manager.close_arena()

    def test_attach_and_release_recycle_blocks(self, monkeypatch):
        manager, store = self._manager_and_store(monkeypatch, "2")
        field = manager.field(store)
        first = field.shm_descriptor
        attached = manager.attach(store, np.arange(32.0))
        assert attached.shm_descriptor is not None
        assert np.array_equal(attached.data, np.arange(32.0))
        # The replaced field returned its block; releasing the store
        # returns the new one too.
        manager.release(store)
        assert attached.shm_descriptor is None
        assert first is not None
        manager.close_arena()

    def test_finalizer_unlinks_on_gc(self, monkeypatch):
        import gc

        manager, store = self._manager_and_store(monkeypatch, "2")
        field = manager.field(store)
        name = field.shm_descriptor.segment
        if os.path.isdir("/dev/shm"):
            assert os.path.exists(f"/dev/shm/{name}")
        del manager, field
        gc.collect()
        if os.path.isdir("/dev/shm"):
            assert not os.path.exists(f"/dev/shm/{name}")


# ----------------------------------------------------------------------
# Pool invalidation on config reloads (satellite).
# ----------------------------------------------------------------------
class TestReloadInvalidation:
    def test_thread_pool_resizes_after_reload(self, monkeypatch):
        from repro.runtime.pool import worker_pool

        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_POINT_WORKERS", "4")
        config.reload_flags()
        pool = worker_pool()
        # Plan steps only: point chunks never ride the thread pool.
        assert pool._max_workers == 2
        monkeypatch.setenv("REPRO_WORKERS", "3")
        config.reload_flags()
        resized = worker_pool()
        assert resized._max_workers == 3
        assert resized is not pool

    def test_reload_keeps_a_correctly_sized_pool(self, monkeypatch):
        from repro.runtime.pool import worker_pool

        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
        config.reload_flags()
        pool = worker_pool()
        # Reload without changing the sizing flags: no churn.
        config.reload_flags()
        assert worker_pool() is pool

    def test_process_pool_retired_when_point_dispatch_stops(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        monkeypatch.setenv("REPRO_POINT_WORKERS", "2")
        config.reload_flags()
        pool = procpool.process_pool()
        assert pool.size == 2
        monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
        config.reload_flags()
        assert pool.closed
        monkeypatch.setenv("REPRO_POINT_WORKERS", "3")
        config.reload_flags()
        fresh = procpool.process_pool()
        assert fresh is not pool
        assert fresh.size == 3
        shutdown_process_pool()


# ----------------------------------------------------------------------
# The worker-pool protocol.
# ----------------------------------------------------------------------
def _fill_execute(task, point, buffers):
    return None


def _fill_cost(task, point, buffers, machine):
    return 0.0


def _fill_chunk(bases, rects, scalars):
    """Chunk impl of the ``test-fill`` probe: fill the chunk's rects."""
    for lo, hi in rects[0]:
        bases[0][lo[0]:hi[0]] = scalars[0]


def _fill_chunk_cost(bases, rects, scalars, machine):
    return [0.0] * len(rects[0])


def _frame(template, values, descriptors):
    """``(plan, entries)`` of a one-step plan and its level frame."""
    plan = procpool.ResidentPlan(
        plan_id=procpool.next_resident_plan_id(),
        generation=procpool.resident_generation(),
        steps={0: template},
    )
    return plan, [(0, values, descriptors, template.chunks)]


class TestProcessPoolProtocol:
    """The level frame, the one work message a worker accepts, on its
    error paths."""

    def test_step_whose_spec_fails_to_lower_raises_and_pool_answers_next_frame(
        self, monkeypatch
    ):
        fill = register_opaque_task(
            "test-fill", _fill_execute, _fill_cost, registry=OpaqueTaskRegistry(),
            chunk_execute=_fill_chunk, chunk_cost_seconds=_fill_chunk_cost,
        )
        # Forked workers inherit the registry: register before the pool.
        monkeypatch.setitem(default_opaque_registry()._impls, fill.name, fill)
        pool = procpool.ProcessWorkerPool(1)
        arena = SharedArena(segment_bytes=4096)
        try:
            array, descriptor = arena.allocate((4,), np.float64)
            broken = procpool.ResidentStep(
                procpool.kernel_spec_id(SimpleNamespace()),
                procpool.KernelSpec(None, None, "no-such-backend"),
                (), (), False, None, ((0, 1),),
            )
            for _attempt in range(2):
                # Re-raised type-preserving, with the worker traceback.
                with pytest.raises(ValueError, match="no-such-backend") as raised:
                    pool.run_resident_chunks(*_frame(broken, (), ()))
                assert "worker traceback" in str(raised.value)
            assert not pool.closed
            # The same worker runs the next frame: the pipe stayed in step.
            step = procpool.OpaqueResidentStep(
                fill.name, fill.module, None,
                ((0, False, descriptor, None, [((0,), (2,)), ((2,), (4,))]),),
                ((0, 2),),
            )
            results = pool.run_resident_chunks(*_frame(step, (7.0,), (descriptor,)))
            assert results == [((), [0.0, 0.0])]
            assert np.array_equal(array, np.full(4, 7.0))
        finally:
            del array
            pool.shutdown()
            arena.close()

    def test_terminated_worker_breaks_pool_and_closed_pool_refuses_frames(self):
        """A killed worker tears the pool down instead of wedging it: the
        frame raises :class:`ProcessPoolBrokenError` (not a raw
        ``EOFError``), the pool marks itself closed so
        :func:`process_pool` rebuilds it, and the closed pool refuses
        the next frame at once."""
        pool = procpool.ProcessWorkerPool(1)
        try:
            pool._processes[0].terminate()
            pool._processes[0].join(timeout=5.0)
            step = procpool.OpaqueResidentStep(
                "not-a-registered-operator", None, None, (), ((0, 1),)
            )
            with pytest.raises(procpool.ProcessPoolBrokenError):
                pool.run_resident_chunks(*_frame(step, (), ()))
            assert pool.closed
            with pytest.raises(procpool.ProcessPoolBrokenError, match="closed"):
                pool.run_resident_chunks(*_frame(step, (), ()))
        finally:
            pool.shutdown()

    def test_kernel_spec_id_is_stable_and_unique(self):
        from repro.runtime.procpool import kernel_spec_id

        class Holder:
            pass

        a, b = Holder(), Holder()
        first = kernel_spec_id(a)
        assert kernel_spec_id(a) == first
        assert kernel_spec_id(b) != first


# ----------------------------------------------------------------------
# End-to-end parity: the differential hammer matrix (satellite).
# ----------------------------------------------------------------------
COMBOS = [(1, 1), (4, 1), (1, 4), (4, 4)]


def _run_app(app_name, point_workers, workers, monkeypatch, iterations, **kwargs):
    monkeypatch.setenv("REPRO_POINT_WORKERS", str(point_workers))
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "differential")
    config.reload_flags()
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


class TestProcessParity:
    """The workers × point-workers differential hammer.

    CG (compiled kernels with reductions), Jacobi (the chunked opaque
    GEMV) and Black-Scholes (elementwise chains, the batching path) must
    be bit-identical — buffers, checksums and simulated seconds — to the
    inline 1/1 baseline for every combination, with both kernel backends
    cross-checked on every invocation by the differential executor.
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
        for point_workers, workers in COMBOS[1:]:
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
            if point_workers > 1:
                assert ctx.profiler.point_launches > 0, label
                # Compiled chunks — and, since the chunk-level operator
                # registry, Jacobi's chunked opaque GEMV — ride the
                # worker processes.
                assert ctx.profiler.point_process_chunks > 0, label
        shutdown_process_pool()

    def test_fields_allocated_before_flip_run_inline(self, monkeypatch):
        """Graceful degradation: pre-existing private fields stay inline.

        Region fields allocated while ``REPRO_POINT_WORKERS`` is 1 carry
        no shared-memory descriptor; raising it mid-run must run the
        chunks of replayed steps touching them inline (bit-for-bit as
        before) rather than failing to ship them.
        """
        monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
        monkeypatch.setenv("REPRO_WORKERS", "1")
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "codegen")
        config.reload_flags()
        context = RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))
        set_context(context)
        try:
            app = build_application("black-scholes", context=context, elements_per_gpu=128)
            app.run(2)
            assert np.isfinite(app.checksum())
            monkeypatch.setenv("REPRO_POINT_WORKERS", "4")
            config.reload_flags()
            app.run(2)
            assert np.isfinite(app.checksum())
            assert context.profiler.declines["no_shm_descriptor"] > 0
            assert context.profiler.point_process_chunks == 0
        finally:
            set_context(None)
        shutdown_process_pool()
