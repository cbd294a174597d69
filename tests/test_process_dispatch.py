"""Shared-memory multiprocess dispatch (``REPRO_POINT_WORKERS`` > 1).

``REPRO_POINT_WORKERS=N`` is N-way: the scheduling thread is slot 0 of
every shipped level and N − 1 worker processes are the rest.

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

import errno
import multiprocessing
import os
import subprocess
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import repro.frontend.cunumeric as cn
from repro import config
from repro.apps import base as apps_base
from repro.apps.base import Application, build_application
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

    def test_segment_names_lead_with_the_creating_pid(self):
        arena = SharedArena(segment_bytes=4096)
        try:
            _array, descriptor = arena.allocate((4,), np.float64)
            assert descriptor.segment.startswith(f"repro-{os.getpid()}-")
        finally:
            del _array
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
        # The replaced field returned its block; reclaiming the store
        # returns the new one too.
        manager.reclaim_storage(store)
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
        # Two slots: chunk 0 of a step is the caller's, chunk 1 the worker's.
        pool = procpool.ProcessWorkerPool(2)
        arena = SharedArena(segment_bytes=4096)
        try:
            array, descriptor = arena.allocate((4,), np.float64)
            broken = procpool.ResidentStep(
                procpool.KernelSpec(None, None, "no-such-backend"), (), ((0, 1), (1, 2)),
                kernel_id=procpool.kernel_spec_id(SimpleNamespace()),
            )
            for _attempt in range(2):
                # Re-raised type-preserving, with the worker traceback.
                with pytest.raises(ValueError, match="no-such-backend") as raised:
                    pool.run_resident_chunks(*_frame(broken, (), ()))
                assert "worker traceback" in str(raised.value)
            assert not pool.closed
            # The same worker runs the next frame: the pipe stayed in step.
            step = procpool.ResidentStep(
                procpool.OpaqueSpec(fill.name, fill.module, None),
                ((0, False, [((0,), (2,)), ((2,), (4,))]),),
                ((0, 1), (1, 2)),
            )
            # The worker fills rank 1's rect; rank 0 is left to the caller.
            results = pool.run_resident_chunks(*_frame(step, (7.0,), (descriptor,)))
            assert results == [((), [0.0])]
            assert np.array_equal(array, [0.0, 0.0, 7.0, 7.0])
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
        pool = procpool.ProcessWorkerPool(2)
        try:
            pool._processes[0].terminate()
            pool._processes[0].join(timeout=5.0)
            step = procpool.ResidentStep(
                procpool.OpaqueSpec("not-a-registered-operator", None, None), (), ((0, 1), (1, 2))
            )
            with pytest.raises(procpool.ProcessPoolBrokenError):
                pool.run_resident_chunks(*_frame(step, (), ()))
            assert pool.closed
            with pytest.raises(procpool.ProcessPoolBrokenError, match="closed"):
                pool.run_resident_chunks(*_frame(step, (), ()))
        finally:
            pool.shutdown()

    def test_reply_to_another_frame_breaks_the_pool(self):
        """A round trip reads the next message on each pipe as its reply:
        one answering an earlier frame (sent, never read) breaks the pool
        like a dead worker instead of being taken for this frame's."""
        pool = procpool.ProcessWorkerPool(2)
        try:
            step = procpool.ResidentStep(
                procpool.OpaqueSpec("not-a-registered-operator", None, None), (), ((0, 1), (1, 2))
            )
            plan, entries = _frame(step, (), ())
            with pool.lock:
                pool._send(0, ("r", 0, plan.plan_id, ()))
            with pytest.raises(procpool.ProcessPoolBrokenError, match="answered frame 0"):
                pool.run_resident_chunks(plan, entries)
            assert pool.closed
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
# Exit leaves nothing behind.
# ----------------------------------------------------------------------
_EXIT_SCRIPT = """
import os
os.environ.update(REPRO_POINT_WORKERS="2", REPRO_WORKERS="1")
from multiprocessing import resource_tracker
from repro.runtime import procpool
from repro.runtime.shm import SharedArena
arena = SharedArena(segment_bytes=4096)
_array, descriptor = arena.allocate((4,), "float64")
procpool.process_pool()
print(resource_tracker._resource_tracker._pid, descriptor.segment)
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_exit_reaps_the_workers_and_the_resource_tracker():
    """A process that used the pool and an arena exits leaving no
    process and no segment: its workers are joined, its arena unlinked,
    and the resource tracker its first segment started is stopped and
    reaped before the interpreter exits (left alone it would still be
    exiting, an orphan in the session, once its parent is gone)."""
    import repro

    source = os.path.dirname(os.path.dirname(repro.__file__))
    child = subprocess.Popen(
        [sys.executable, "-c", _EXIT_SCRIPT],
        env={**os.environ, "PYTHONPATH": source},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    assert "resource_tracker" not in err
    tracker, segment = out.split()
    assert segment.startswith(f"repro-{child.pid}-")
    assert not os.path.exists(f"/dev/shm/{segment}")
    assert not os.path.exists(f"/proc/{tracker}")


# ----------------------------------------------------------------------
# The scheduling thread is slot 0.
# ----------------------------------------------------------------------
#: ``(pid, thread ident, rank rects)`` of every ``test-stamp-pid`` chunk
#: run in this process.
_STAMPED = []


def _stamp(task, point, buffers):
    buffers[0][...] = os.getpid()


def _stamp_chunk(bases, rects, scalars):
    """Write the running process's pid over the chunk's ranks."""
    _STAMPED.append((os.getpid(), threading.get_ident(), tuple(rects[0])))
    for lo, hi in rects[0]:
        bases[0][lo[0]:hi[0]] = os.getpid()


def _stamp_chunk_cost(bases, rects, scalars, machine):
    return [0.0] * len(rects[0])


class _StampPid(Application):
    """One opaque step per iteration stamping its ranks with a pid."""

    def __init__(self, rows_per_gpu=16, context=None):
        super().__init__(context)
        rows = rows_per_gpu * self.context.num_gpus
        self.out = cn.array(np.zeros(rows), name="stamp_out")

    def step(self):
        self.out._submit("test-stamp-pid", (self.out.store,), (self.out.write_spec(),))


class TestCallingThreadSlot:
    """Under ``REPRO_POINT_WORKERS=2`` a shipped step's chunk 0 runs on
    the scheduling thread and chunk 1 in the one worker process."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_two_way_dispatch_spawns_one_worker(self, monkeypatch, workers):
        """However many plan-step threads there are: a 2-way chunk plan
        reaches slots 0 and 1 only, so the pool spawns one process."""
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
        monkeypatch.setenv("REPRO_POINT_WORKERS", "2")
        config.reload_flags()
        shutdown_process_pool()
        pool = procpool.process_pool()
        assert pool.size == 2
        assert len(multiprocessing.active_children()) == 1
        shutdown_process_pool()
        assert multiprocessing.active_children() == []

    def test_chunk_zero_on_the_calling_thread_chunk_one_in_the_worker(self, monkeypatch):
        # Forked workers inherit the registry: register before the pool.
        shutdown_process_pool()
        stamp = register_opaque_task(
            "test-stamp-pid", _stamp, _fill_cost, registry=OpaqueTaskRegistry(),
            chunk_execute=_stamp_chunk, chunk_cost_seconds=_stamp_chunk_cost,
        )
        monkeypatch.setitem(default_opaque_registry()._impls, stamp.name, stamp)
        monkeypatch.setitem(apps_base._APPLICATIONS, "test-stamp-pid", _StampPid)
        monkeypatch.setenv("REPRO_WORKERS", "1")
        monkeypatch.setenv("REPRO_POINT_WORKERS", "2")
        monkeypatch.setenv("REPRO_TRACE", "1")
        config.reload_flags()
        context = RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))
        set_context(context)
        try:
            app = build_application("test-stamp-pid", context=context)
            app.run(3)  # eager, capture, first replay: the plan is shipped
            warm = context.profiler.snapshot()
            del _STAMPED[:]
            app.run(3)
            steady = context.profiler.snapshot()
            stamps = app.out.to_numpy()
            (worker,) = multiprocessing.active_children()
        finally:
            set_context(None)
            shutdown_process_pool()
        assert steady["trace_hits"] - warm["trace_hits"] == 3
        # One shipping level per replay: one frame, to the one worker.
        assert steady["wire_requests"] - warm["wire_requests"] == 3
        assert steady["opaque_chunk_calls"] - warm["opaque_chunk_calls"] == 6
        assert steady["opaque_process_chunks"] - warm["opaque_process_chunks"] == 3
        # Chunk 0 (ranks 0-1) on this thread, chunk 1 (ranks 2-3) in the worker.
        ranks_0_1 = (((0,), (16,)), ((16,), (32,)))
        assert _STAMPED == [(os.getpid(), threading.get_ident(), ranks_0_1)] * 3
        assert np.array_equal(stamps[:32], np.full(32, os.getpid()))
        assert np.array_equal(stamps[32:], np.full(32, worker.pid))


# ----------------------------------------------------------------------
# Each slot on its own CPU.
# ----------------------------------------------------------------------
def _allowed_cpus():
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _cpu_set(cpus):
    return "{" + ", ".join(map(str, sorted(cpus))) + "}"


@pytest.mark.skipif(len(_allowed_cpus()) < 2, reason="placement needs 2 allowed CPUs")
class TestPlacement:
    """A 2-slot pool pins its worker to the top allowed CPU and keeps
    the sending thread off it only while a level is in flight."""

    @pytest.fixture
    def fill_step(self, monkeypatch):
        """A 2-chunk ``test-fill`` step and the descriptor of its field."""
        fill = register_opaque_task(
            "test-fill", _fill_execute, _fill_cost, registry=OpaqueTaskRegistry(),
            chunk_execute=_fill_chunk, chunk_cost_seconds=_fill_chunk_cost,
        )
        # Forked workers inherit the registry: register before the pool.
        monkeypatch.setitem(default_opaque_registry()._impls, fill.name, fill)
        arena = SharedArena(segment_bytes=4096)
        array, descriptor = arena.allocate((4,), np.float64)
        step = procpool.ResidentStep(
            procpool.OpaqueSpec(fill.name, fill.module, None),
            ((0, False, [((0,), (2,)), ((2,), (4,))]),),
            ((0, 1), (1, 2)),
        )
        yield step, descriptor
        del array
        arena.close()

    def test_each_worker_runs_on_its_own_cpu(self):
        allowed = _allowed_cpus()
        pool = procpool.ProcessWorkerPool(2)
        try:
            assert [os.sched_getaffinity(p.pid) for p in pool._processes] == [{allowed[-1]}]
            assert pool.placement == (
                f"slot 0 on CPUs {_cpu_set(allowed[:-1])}, worker 1 on CPU {allowed[-1]}"
            )
            # Between levels the calling thread keeps every CPU.
            assert os.sched_getaffinity(0) == set(allowed)
        finally:
            pool.shutdown()

    def test_the_sending_thread_leaves_the_worker_cpu_while_a_level_is_in_flight(
        self, fill_step
    ):
        step, descriptor = fill_step
        before = os.sched_getaffinity(0)
        seen = []
        pool = procpool.ProcessWorkerPool(2)
        try:
            results = pool.run_resident_chunks(
                *_frame(step, (7.0,), (descriptor,)),
                meanwhile=lambda: seen.append(os.sched_getaffinity(0)),
            )
            worker_cpus = set().union(*(os.sched_getaffinity(p.pid) for p in pool._processes))
        finally:
            pool.shutdown()
        assert results == [((), [0.0])]
        (during,) = seen
        assert not during & worker_cpus
        assert during | worker_cpus == before
        assert os.sched_getaffinity(0) == before

    def test_the_mask_comes_back_after_a_worker_error_mid_frame(self, fill_step):
        step, descriptor = fill_step
        broken = procpool.ResidentStep(
            procpool.KernelSpec(None, None, "no-such-backend"), (), ((0, 1), (1, 2)),
            kernel_id=procpool.kernel_spec_id(SimpleNamespace()),
        )
        before = os.sched_getaffinity(0)
        seen = []
        pool = procpool.ProcessWorkerPool(2)
        try:
            with pytest.raises(ValueError, match="no-such-backend"):
                pool.run_resident_chunks(
                    *_frame(broken, (), ()), meanwhile=lambda: seen.append(os.sched_getaffinity(0))
                )
            assert seen[0] < before
            assert os.sched_getaffinity(0) == before
            # The next level is placed the same way.
            assert pool.run_resident_chunks(*_frame(step, (7.0,), (descriptor,))) == [((), [0.0])]
            assert os.sched_getaffinity(0) == before
        finally:
            pool.shutdown()

    def test_the_mask_comes_back_after_a_lost_frame(self, fill_step, lose_first_frame):
        step, descriptor = fill_step
        before = os.sched_getaffinity(0)
        seen = []
        pool = procpool.ProcessWorkerPool(2)
        try:
            with pytest.raises(procpool.ProcessPoolBrokenError):
                pool.run_resident_chunks(
                    *_frame(step, (7.0,), (descriptor,)),
                    meanwhile=lambda: seen.append(os.sched_getaffinity(0)),
                )
        finally:
            pool.shutdown()
        assert lose_first_frame == [pool]
        assert seen[0] < before
        assert os.sched_getaffinity(0) == before

    @pytest.mark.parametrize("cause", ["more_slots_than_cpus", "setaffinity_raises"])
    def test_a_declined_pool_runs_unplaced_and_says_why(self, monkeypatch, cause):
        """The pool runs as an unplaced one does, records why, and
        leaves nothing behind: the next pool is placed again."""
        iterations, kwargs = 6, dict(rows_per_gpu=32)
        before = os.sched_getaffinity(0)
        shutdown_process_pool()
        placed = _run_app("jacobi", 2, 1, monkeypatch, iterations, **kwargs)
        shutdown_process_pool()
        with monkeypatch.context() as patch:
            if cause == "more_slots_than_cpus":
                os.sched_setaffinity(0, {min(before)})
                reason = "unplaced: 2 slots > 1 CPUs"
            else:
                def refuse(pid, mask):
                    raise OSError(errno.EINVAL, "refused")

                patch.setattr(os, "sched_setaffinity", refuse)
                reason = "unplaced: sched_setaffinity raised OSError(22, 'refused')"
            try:
                unplaced = _run_app("jacobi", 2, 1, monkeypatch, iterations, **kwargs)
            finally:
                shutdown_process_pool()
                if cause == "more_slots_than_cpus":
                    os.sched_setaffinity(0, before)
        again = _run_app("jacobi", 2, 1, monkeypatch, iterations, **kwargs)
        shutdown_process_pool()
        assert os.sched_getaffinity(0) == before
        placement = [run[0].profiler.snapshot()["point_placement"] for run in (placed, unplaced, again)]
        assert placement[1] == reason
        assert placement[0] == placement[2] and placement[0].startswith("slot 0 on CPUs")
        for context, state, checksum in (unplaced, again):
            assert context.profiler.point_process_chunks > 0
            assert checksum == placed[2]
            assert context.profiler.iteration_seconds() == placed[0].profiler.iteration_seconds()
            for name, value in placed[1].items():
                assert state[name].tobytes() == value.tobytes(), name


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
