"""One chunk-dispatch path (``runtime/executor.py``): every kind of work
on every substrate gives the eager interpreter's answer.

The equivalence matrix is work kind (compiled per-rank, compiled
stacked, element-wise, super-kernel, opaque per-rank, opaque chunk) × substrate (inline,
resident process, resident process whose first level frame loses its
pool) × ``REPRO_WORKERS`` {1, 4} × kernel backend
(codegen, differential): buffers, checksum AND the simulated seconds of
every replayed iteration must equal an eager (``REPRO_TRACE=0``)
interpreter run bit for bit, and the kind and the substrate under test
must really have run.  Every kind also runs chunked inline (the
resident frame declining every step).  Two kinds repeat at a work size
of several blocks per rank (the kernel tier's block loop, with its
per-call scratch, under every substrate).  The rest of the file pins
the seams: every decline reason on a constructed replayed step,
declined and lost steps running inline on the scheduling thread, a hung
worker, a lost frame whose step updates its field in place, and the
allocator policy that keeps array memory mapped between
launches.
"""

from __future__ import annotations

import os
import resource
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.frontend.cunumeric as cn
from repro import config
from repro.apps import base as apps_base
from repro.apps.base import Application, build_application
from repro.experiments.harness import scaled_machine
from repro.frontend.cunumeric.array import ndarray as cn_ndarray
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.ir.partition import Replication, natural_tiling
from repro.ir.privilege import Privilege
from repro.ir.task import IndexTask, StoreArg
from repro.kernel import codegen
from repro.runtime import procpool, region
from repro.runtime.executor import TaskExecutor
from repro.runtime.opaque import (
    OpaqueTaskImpl,
    OpaqueTaskRegistry,
    default_opaque_registry,
    register_opaque_task,
)
from repro.runtime.pool import worker_pool


@pytest.fixture(autouse=True)
def _reload_flags_after():
    yield
    procpool.shutdown_process_pool()
    config.reload_flags()


# ----------------------------------------------------------------------
# The equivalence matrix.
# ----------------------------------------------------------------------
#: kind -> (app, app arguments, ``config`` levers switched off, "this kind
#: ran" predicate).
KINDS = {
    "compiled-per-rank": (
        "cfd", dict(points_per_gpu=24, pressure_iterations=2), ("SUPERKERNEL",),
        lambda p: p.superkernel_calls == 0 and p.replay_closure_calls > p.trace_hits,
    ),
    # CG's reducing launches without super-kernels: one stacked call per
    # chunk, eager and replayed.
    "compiled-stacked": (
        "cg", dict(grid_points_per_gpu=12), ("SUPERKERNEL",),
        lambda p: p.superkernel_calls == 0 and p.stacked_launches > 0,
    ),
    "element-wise": (
        "black-scholes", dict(elements_per_gpu=128), (),
        lambda p: p.batched_launches > 0,
    ),
    "super-kernel": (
        "cg", dict(grid_points_per_gpu=12), (),
        lambda p: p.superkernel_calls > 0,
    ),
    "opaque-per-rank": (
        "two-matvec", dict(rows_per_gpu=16), ("OPAQUE_CHUNKS",),
        lambda p: p.opaque_rank_calls > 0 and p.opaque_chunk_calls == 0,
    ),
    "opaque-chunk": (
        "two-matvec", dict(rows_per_gpu=16), (),
        lambda p: p.opaque_chunk_calls > 0 and p.opaque_rank_calls == 0,
    ),
    # The block loop of generated kernels: an element-wise chain and a
    # reduction-bearing one (CG's fused axpy + dot) at >= 4 blocks per
    # rank.  The compiled closure is shared process-wide, so concurrent
    # calls from plan-pool threads must never share its scratch.
    "element-wise-blocked": (
        "black-scholes", dict(elements_per_gpu=128), (),
        lambda p: p.batched_launches > 0,
    ),
    "super-kernel-blocked": (
        "cg", dict(grid_points_per_gpu=12), (),
        lambda p: p.superkernel_calls > 0,
    ),
}

#: Kinds run with ``codegen.BLOCK`` shrunk to this many elements, for
#: this many iterations.
BLOCKED_KINDS = ("element-wise-blocked", "super-kernel-blocked")
BLOCKED_BLOCK = 32
BLOCKED_ITERATIONS = 20

PROCESS = {"REPRO_POINT_WORKERS": "4"}

#: substrate -> (flags, "this substrate ran" predicate).  The
#: ``process-lost`` leg replays through the ``lose_first_frame`` fixture:
#: the first frame's steps run inline, the rest reach a fresh pool.
SUBSTRATES = {
    "inline": ({"REPRO_POINT_WORKERS": "1"}, lambda p: p.point_launches == 0),
    "process-resident": (
        PROCESS, lambda p: p.point_process_chunks > 0 and p.wire_requests > 0,
    ),
    "process-lost": (
        PROCESS,
        lambda p: p.declines["worker_lost"] > 0 and p.point_process_chunks > 0,
    ),
}

ITERATIONS = 5


def _run(monkeypatch, app_name, kwargs, flags, iterations=ITERATIONS):
    defaults = {
        "REPRO_TRACE": "1", "REPRO_WORKERS": "1", "REPRO_POINT_WORKERS": "1",
        "REPRO_KERNEL_BACKEND": "codegen", "REPRO_HOTPATH_CACHE": "1",
    }
    for name, value in {**defaults, **flags}.items():
        monkeypatch.setenv(name, value)
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


_REFERENCES = {}


def _reference(monkeypatch, app_name, kwargs, iterations):
    """The eager interpreter run (memoized per app; it never varies)."""
    key = (app_name, tuple(sorted(kwargs.items())), iterations)
    if key not in _REFERENCES:
        _REFERENCES[key] = _run(
            monkeypatch, app_name, kwargs,
            {"REPRO_TRACE": "0", "REPRO_KERNEL_BACKEND": "interpreter"},
            iterations,
        )
    return _REFERENCES[key]


@pytest.mark.parametrize("kernel_backend", ["codegen", "differential"])
@pytest.mark.parametrize("workers", ["1", "4"])
@pytest.mark.parametrize("substrate", list(SUBSTRATES))
@pytest.mark.parametrize("kind", list(KINDS))
def test_every_work_kind_on_every_substrate_matches_the_eager_interpreter(
    kind, substrate, workers, kernel_backend, monkeypatch, force_dispatch, request
):
    lost = None
    if substrate == "process-lost":
        lost = request.getfixturevalue("lose_first_frame")
    _check_equivalence(
        kind, substrate, *SUBSTRATES[substrate], workers, kernel_backend, monkeypatch
    )
    if lost:
        # The plan re-shipped to the pool built after the lost frame.
        fresh = procpool.process_pool()
        assert lost[0].closed and fresh is not lost[0]
        assert any(fresh._plans_shipped)


@pytest.mark.parametrize("kernel_backend", ["codegen", "differential"])
@pytest.mark.parametrize("workers", ["1", "4"])
@pytest.mark.parametrize("kind", list(KINDS))
def test_every_work_kind_on_the_inline_rung_matches_the_eager_interpreter(
    kind, workers, kernel_backend, monkeypatch, force_dispatch
):
    """Chunked inline replay: ``REPRO_POINT_WORKERS=4`` with every field
    on the private heap, so the resident plan declines every multi-chunk
    step and its chunks run inline in rank order."""
    monkeypatch.setattr(region.RegionManager, "_field_arena", lambda self: None)
    _check_equivalence(
        kind, "inline-rung", PROCESS,
        lambda p: p.point_launches == 0 and p.declines["no_shm_descriptor"] > 0,
        workers, kernel_backend, monkeypatch,
    )


def _check_equivalence(
    kind, substrate, substrate_flags, substrate_ran, workers, kernel_backend, monkeypatch
):
    app_name, kwargs, levers_off, kind_ran = KINDS[kind]
    iterations = ITERATIONS
    if kind in BLOCKED_KINDS:
        iterations = BLOCKED_ITERATIONS
        monkeypatch.setattr(codegen, "BLOCK", BLOCKED_BLOCK)
        # Workers are forked: a pool started now inherits the block size.
        procpool.shutdown_process_pool()
    ctx_ref, state_ref, checksum_ref = _reference(monkeypatch, app_name, kwargs, iterations)
    for lever in levers_off:
        monkeypatch.setattr(config, lever, False)
    flags = {
        **substrate_flags,
        "REPRO_WORKERS": workers, "REPRO_KERNEL_BACKEND": kernel_backend,
    }
    ctx, state, checksum = _run(monkeypatch, app_name, kwargs, flags, iterations)

    assert checksum == checksum_ref
    assert set(state) == set(state_ref)
    for name in state_ref:
        assert np.array_equal(state[name], state_ref[name]), name
    # Simulated seconds of every replayed iteration (the first epochs run
    # eagerly in both, but under differently grown fusion windows).
    profiler = ctx.profiler
    assert profiler.trace_hits > 0
    first_replayed = min(r.iteration for r in profiler.records if r.replayed)
    seconds, seconds_ref = profiler.iteration_seconds(), ctx_ref.profiler.iteration_seconds()
    assert first_replayed < iterations - 1
    assert len(seconds) == len(seconds_ref) == iterations
    assert seconds[first_replayed:] == seconds_ref[first_replayed:]

    assert kind_ran(profiler), profiler.snapshot()
    if kind in BLOCKED_KINDS and not substrate.startswith("process"):
        # (Worker processes keep their own count.)
        assert profiler.multi_block_calls > 0
    if kind == "opaque-per-rank" and substrate != "inline":
        # Per-rank operators have nothing a worker could resolve: the
        # resident plan declines them by name and their chunks run inline.
        assert profiler.declines["unshippable_operator"] > 0
        assert profiler.opaque_process_chunks == 0
    else:
        assert substrate_ran(profiler), profiler.snapshot()


# ----------------------------------------------------------------------
# Every step that stays in the parent says why.
# ----------------------------------------------------------------------
def _context(monkeypatch, point_workers="4"):
    monkeypatch.setenv("REPRO_POINT_WORKERS", point_workers)
    monkeypatch.setenv("REPRO_WORKERS", "1")
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_HOTPATH_CACHE", "1")
    config.reload_flags()
    return RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))


def _gemv_launch(context, scalars=()):
    """A constructed 4-rank GEMV launch over known data; returns
    ``(task, expected result, output field)``."""
    import repro.frontend.cunumeric.linalg  # noqa: F401 - registers "gemv"

    matrix = context.create_store((16, 8))
    vector = context.create_store((8,))
    out = context.create_store((16,))
    regions = context.legion.regions
    regions.field(matrix).data[...] = np.arange(128.0).reshape(16, 8)
    regions.field(vector).data[...] = np.linspace(1.0, 2.0, 8)
    launch = context.launch_domain(1)
    task = IndexTask(
        "gemv",
        launch,
        [
            StoreArg(matrix, context.row_partition(matrix, 16), Privilege.READ),
            StoreArg(vector, Replication(), Privilege.READ),
            StoreArg(out, natural_tiling((16,), launch), Privilege.WRITE),
        ],
        scalar_args=scalars,
    )
    expected = np.einsum(
        "ij,j->i", np.arange(128.0).reshape(16, 8), np.linspace(1.0, 2.0, 8)
    )
    return task, expected, regions.field(out)


def _gemv_step(context, scalars=(), impl=None):
    """The GEMV launch prepared as the plan scheduler prepares a replayed
    step: ``(executor, work, chunk plan, expected result, output field)``."""
    executor = context.legion.executor
    task, expected, out = _gemv_launch(context, scalars)
    work = executor.opaque_work(
        impl or default_opaque_registry().get("gemv"),
        executor._rows(task, enumerate(task.args)),
        task.launch_domain.volume, task.scalar_args, lambda: task,
    )
    chunks = executor.point_chunk_plan(work.num_points, work.rows)
    return executor, work, chunks, expected, out


def _resident_plan(executor, work, chunks):
    """A one-step resident plan of ``work`` (its template must ship)."""
    template = executor.resident_template(work, chunks)
    assert template is not None
    return procpool.ResidentPlan(
        plan_id=procpool.next_resident_plan_id(),
        generation=procpool.resident_generation(),
        steps={0: template},
    )


class TestDeclineReasons:
    """Each reason a replayed step stays in the parent, on a constructed
    4-rank GEMV step: the reason is recorded once, and the step's chunks
    then run inline in this process with the right answer."""

    @staticmethod
    def _runs_inline(executor, work, chunks, expected, out):
        out.data[...] = 0.0
        executor.launch(work, chunks, 4)
        assert np.array_equal(out.data, expected)
        assert executor.profiler.point_launches == 0
        assert executor.profiler.opaque_chunk_calls == len(chunks)
        assert executor.profiler.opaque_process_chunks == 0

    def test_below_volume(self, monkeypatch):
        executor, work, chunks, expected, out = _gemv_step(_context(monkeypatch))
        # 16*8 + 4*8 + 16 elements: far below MIN_POINT_DISPATCH_VOLUME.
        assert chunks == [(0, 4)]
        assert executor.profiler.declines["below_volume"] == 1
        self._runs_inline(executor, work, chunks, expected, out)

    def test_nothing_declines_on_a_plan_pool_thread(self, monkeypatch, force_dispatch):
        """A level frame sent from a plan-pool thread ships exactly as one
        sent from the scheduling thread: no step is turned away."""
        executor, work, chunks, expected, out = _gemv_step(_context(monkeypatch))
        plan = _resident_plan(executor, work, chunks)

        def send():
            entry = executor.resident_entry(plan, 0, work, chunks)
            return executor.run_resident_level(plan, 0, [entry], [work], lambda: None)

        (shipped,) = worker_pool().submit(send).result(timeout=30)
        executor.launch(work, chunks, 4, shipped)
        assert np.array_equal(out.data, expected)
        assert sum(executor.profiler.declines.values()) == 0
        assert executor.profiler.point_launches == 1
        # Chunk 0 ran on the sending thread, chunks 1-3 in the workers.
        assert executor.profiler.opaque_process_chunks == 3

    def test_field_without_shm_descriptor(self, monkeypatch, force_dispatch):
        context = _context(monkeypatch, point_workers="1")
        executor, work, _chunks, expected, out = _gemv_step(context)  # private heap
        monkeypatch.setenv("REPRO_POINT_WORKERS", "4")
        config.reload_flags()
        chunks = executor.point_chunk_plan(work.num_points, work.rows)
        assert len(chunks) == 4
        assert executor.resident_template(work, chunks) is None
        assert executor.profiler.declines["no_shm_descriptor"] == 1
        self._runs_inline(executor, work, chunks, expected, out)

    def test_operator_not_resolvable_by_name(self, monkeypatch, force_dispatch):
        registered = default_opaque_registry().get("gemv")
        hand_built = OpaqueTaskImpl(
            name="gemv", execute=registered.execute,
            cost_seconds=registered.cost_seconds, chunk=registered.chunk, module=None,
        )
        executor, work, chunks, expected, out = _gemv_step(
            _context(monkeypatch), impl=hand_built
        )
        assert executor.resident_template(work, chunks) is None
        assert executor.profiler.declines["unshippable_operator"] == 1
        self._runs_inline(executor, work, chunks, expected, out)

    def test_chunk_plan_differs_from_the_resident_template(
        self, monkeypatch, force_dispatch
    ):
        executor, work, chunks, expected, out = _gemv_step(_context(monkeypatch))
        plan = _resident_plan(executor, work, chunks)
        # The baked plan rides a (one-entry) resident level frame ...
        entry = executor.resident_entry(plan, 0, work, chunks)
        (shipped,) = executor.run_resident_level(plan, 0, [entry], [work], lambda: None)
        assert len(shipped.results) == len(chunks)
        assert shipped.process_chunks == 3
        assert np.array_equal(out.data, expected)
        assert executor.profiler.declines["template_mismatch"] == 0
        # ... any other plan declines its entry and runs inline instead.
        other = [(0, 1), (1, 4)]
        assert executor.resident_entry(plan, 0, work, other) is None
        assert executor.profiler.declines["template_mismatch"] == 1
        self._runs_inline(executor, work, other, expected, out)

    def test_non_numeric_scalars(self, monkeypatch, force_dispatch):
        """Not a reason: opaque scalars ship as they are, so a string
        scalar reaches the workers exactly as the calling thread runs
        with it, and the shipped run matches the inline one bit for bit."""
        executor, work, chunks, expected, out = _gemv_step(
            _context(monkeypatch), scalars=("not-a-number",)
        )
        self._runs_inline(executor, work, chunks, expected, out)
        inline = out.data.tobytes()
        plan = _resident_plan(executor, work, chunks)
        entry = executor.resident_entry(plan, 0, work, chunks)
        assert entry[1] == ("not-a-number",)
        out.data[...] = 0.0
        (shipped,) = executor.run_resident_level(plan, 0, [entry], [work], lambda: None)
        executor.launch(work, chunks, 4, shipped)
        assert out.data.tobytes() == inline
        assert sum(executor.profiler.declines.values()) == 0
        assert executor.profiler.opaque_process_chunks == 3

    def test_lost_worker(self, monkeypatch, force_dispatch):
        """Workers that take the frame and never answer (a pool seen dead
        *before* the send just gets rebuilt by ``process_pool()``): the
        calling thread's chunk ran during the round trip, and the launch
        runs the workers' three inline, never chunk 0 again."""
        monkeypatch.setattr(procpool, "REPLY_DEADLINE_SECONDS", 0.3)
        executor, work, chunks, expected, out = _gemv_step(_context(monkeypatch))
        plan = _resident_plan(executor, work, chunks)
        pool = procpool.process_pool()
        children = list(pool._processes)
        for child in children:
            os.kill(child.pid, signal.SIGSTOP)
        ran, run = [], work.run
        work.run = lambda start, stop: ran.append((start, stop)) or run(start, stop)
        entry = executor.resident_entry(plan, 0, work, chunks)
        (shipped,) = executor.run_resident_level(plan, 0, [entry], [work], lambda: None)
        assert ran == chunks[:1]
        assert [done is None for done in shipped.results] == [False, True, True, True]
        assert shipped.process_chunks == 0
        assert executor.profiler.declines["worker_lost"] == 1
        assert pool.closed
        for child in children:
            child.join(timeout=5.0)
            assert not child.is_alive()
        executor.launch(work, chunks, 4, shipped)
        assert ran == chunks
        assert np.array_equal(out.data, expected)
        assert executor.profiler.point_launches == 0
        assert executor.profiler.opaque_chunk_calls == len(chunks)
        assert executor.profiler.opaque_process_chunks == 0

    def test_lost_pool_is_rebuilt_and_the_plan_reships(
        self, monkeypatch, force_dispatch, lose_first_frame
    ):
        """The frame after a lost one reaches a fresh pool, which gets the
        plan shipped before the frame and answers it."""
        executor, work, chunks, expected, out = _gemv_step(_context(monkeypatch))
        plan = _resident_plan(executor, work, chunks)
        entry = executor.resident_entry(plan, 0, work, chunks)
        (shipped,) = executor.run_resident_level(plan, 0, [entry], [work], lambda: None)
        assert shipped.process_chunks == 0
        assert executor.profiler.declines["worker_lost"] == 1
        (lost,) = lose_first_frame
        assert lost.closed
        out.data[...] = 0.0
        entry = executor.resident_entry(plan, 0, work, chunks)
        (shipped,) = executor.run_resident_level(plan, 0, [entry], [work], lambda: None)
        fresh = procpool.process_pool()
        assert fresh is not lost and not fresh.closed
        assert all(plan.plan_id in plans for plans in fresh._plans_shipped)
        executor.launch(work, chunks, 4, shipped)
        assert np.array_equal(out.data, expected)
        assert executor.profiler.declines["worker_lost"] == 1
        assert executor.profiler.opaque_process_chunks == 3

    def test_snapshot_has_one_flat_key_per_reason(self):
        from repro.runtime.profiler import DECLINE_REASONS, Profiler

        snapshot = Profiler().snapshot()
        assert len(DECLINE_REASONS) == 5
        for reason in DECLINE_REASONS:
            assert snapshot[f"decline_{reason}"] == 0


# ----------------------------------------------------------------------
# A level frame is one synchronous round trip under the pool's lock.
# ----------------------------------------------------------------------
def _round_trip(executor, plan, work, chunks, out, expected):
    """Ship ``work`` as a one-entry level frame and fold its reply."""
    out.data[...] = 0.0
    entry = executor.resident_entry(plan, 0, work, chunks)
    (shipped,) = executor.run_resident_level(plan, 0, [entry], [work], lambda: None)
    assert None not in shipped.results
    executor.launch(work, chunks, len(chunks), shipped)
    assert np.array_equal(out.data, expected)


class TestSynchronousRoundTrip:
    def test_pool_starts_no_thread(self, monkeypatch, force_dispatch):
        """Building the pool and answering a frame happen on the calling
        thread: no reply reader or other helper thread is started."""
        procpool.shutdown_process_pool()
        executor, work, chunks, expected, out = _gemv_step(
            _context(monkeypatch, point_workers="2")
        )
        plan = _resident_plan(executor, work, chunks)
        before = sorted(thread.name for thread in threading.enumerate())
        _round_trip(executor, plan, work, chunks, out, expected)
        after = sorted(thread.name for thread in threading.enumerate())
        assert procpool.process_pool().size == 2
        assert after == before
        assert not any(name.startswith("procpool-") for name in after)
        # Two slots: this thread runs chunk 0, the one worker chunk 1.
        assert len(chunks) == 2
        assert executor.profiler.opaque_process_chunks == 1

    def test_concurrent_callers_share_the_pool(self, monkeypatch, force_dispatch):
        """More threads than cores send frames of their own resident plans
        to the one pool at once: the lock hands each a whole round trip,
        so every caller gets bit-correct chunks, declines nothing and is
        charged exactly its own messages (one plan ship and one frame per
        worker per round; four chunks, so three workers and three worker
        chunks per round), and the pool then answers one more frame."""
        callers, rounds = 4, 10
        steps = [_gemv_step(_context(monkeypatch)) for _caller in range(callers)]
        plans = [_resident_plan(executor, work, chunks) for executor, work, chunks, *_ in steps]
        start = threading.Barrier(callers)

        def caller(step, plan):
            executor, work, chunks, expected, out = step
            start.wait(timeout=30)
            for _round in range(rounds):
                _round_trip(executor, plan, work, chunks, out, expected)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(callers) as pool:
                futures = [pool.submit(caller, *pair) for pair in zip(steps, plans)]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        for executor, _work, chunks, _expected, _out in steps:
            assert len(chunks) == 4
            assert sum(executor.profiler.declines.values()) == 0
            assert executor.profiler.opaque_process_chunks == rounds * 3
            assert executor.profiler.wire_requests == (rounds + 1) * 3
        executor, work, chunks, expected, out = steps[0]
        _round_trip(executor, plans[0], work, chunks, out, expected)
        assert not procpool.process_pool().closed


# ----------------------------------------------------------------------
# Declined and lost steps run inline, in rank order, on the scheduling
# thread.
# ----------------------------------------------------------------------
def _record_inline_launches(monkeypatch):
    """Record every chunked launch that runs chunks in this process.

    Returns ``(inline, submitted)``: per such launch, the thread that ran
    it, the chunks it had to run (all of them, or those a lost frame's
    workers held) and the ``(thread ident, start, stop)`` of every chunk
    it ran; and whatever those launches submitted to a thread pool.
    """
    local = threading.local()
    inline, submitted = [], []
    submit = ThreadPoolExecutor.submit

    def counted_submit(self, fn, *args, **kwargs):
        if getattr(local, "in_launch", False):
            submitted.append(fn)
        return submit(self, fn, *args, **kwargs)

    launch = TaskExecutor.launch

    def recorded_launch(self, work, chunks, width, shipped=None, threads=1):
        if len(chunks) < 2 or (shipped is not None and shipped.process_chunks):
            return launch(self, work, chunks, width, shipped, threads)
        pending = list(chunks)
        if shipped is not None:
            pending = [chunk for chunk, done in zip(chunks, shipped.results) if done is None]
        ran, run = [], work.run

        def recorded(start, stop):
            ran.append((threading.get_ident(), start, stop))
            return run(start, stop)

        work.run, local.in_launch = recorded, True
        try:
            return launch(self, work, chunks, width, shipped, threads)
        finally:
            work.run, local.in_launch = run, False
            inline.append((threading.current_thread(), pending, ran))

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted_submit)
    monkeypatch.setattr(TaskExecutor, "launch", recorded_launch)
    return inline, submitted


@pytest.mark.parametrize(
    "reason", ["no_shm_descriptor", "unshippable_operator", "worker_lost"]
)
def test_declined_chunks_run_inline_on_the_calling_thread(
    reason, monkeypatch, force_dispatch, request
):
    """A chunked replayed step the resident frame declines runs its
    chunks on the scheduling thread, one after another in rank order,
    and submits nothing to a thread pool; one whose frame lost its pool
    runs the lost workers' chunks so (the scheduling thread's own ran
    during the round trip).  ``no_shm_descriptor``: the matrices are
    allocated while ``REPRO_POINT_WORKERS`` is 1.
    ``unshippable_operator``: the GEMVs run per rank (chunked operators
    off), which no worker can resolve.  ``worker_lost``: the first frame
    loses its pool; the next frame's ``process_pool()`` builds a fresh
    pool, and the plan re-ships to it."""
    kwargs = dict(rows_per_gpu=16)
    if reason == "unshippable_operator":
        monkeypatch.setattr(config, "OPAQUE_CHUNKS", False)
    ctx_ref, state_ref, checksum_ref = _run(monkeypatch, "two-matvec", kwargs, {})
    if reason == "worker_lost":
        lost = request.getfixturevalue("lose_first_frame")
    inline, submitted = _record_inline_launches(monkeypatch)
    for name, value in {"REPRO_TRACE": "1", "REPRO_WORKERS": "4",
                        "REPRO_KERNEL_BACKEND": "codegen", "REPRO_HOTPATH_CACHE": "1",
                        **PROCESS}.items():
        monkeypatch.setenv(name, value)
    if reason == "no_shm_descriptor":
        monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
    config.reload_flags()
    context = RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))
    set_context(context)
    try:
        app = build_application("two-matvec", context=context, **kwargs)
        monkeypatch.setenv("REPRO_POINT_WORKERS", "4")
        config.reload_flags()
        app.run(ITERATIONS)
        checksum = app.checksum()
        state = {
            name: value.to_numpy()
            for name, value in vars(app).items()
            if isinstance(value, cn_ndarray)
        }
    finally:
        set_context(None)

    profiler = context.profiler
    assert profiler.declines[reason] > 0
    assert inline
    assert submitted == []
    for thread, chunks, ran in inline:
        assert thread is threading.current_thread()
        assert ran == [(thread.ident, start, stop) for start, stop in chunks]
    if reason == "worker_lost":
        assert profiler.declines["worker_lost"] == 1
        fresh = procpool.process_pool()
        assert lost[0].closed and fresh is not lost[0]
        assert any(fresh._plans_shipped)
        assert profiler.point_process_chunks > 0
    if reason == "unshippable_operator":
        assert profiler.opaque_rank_calls > 0
        assert profiler.opaque_process_chunks == 0
    assert checksum == checksum_ref
    for name in state_ref:
        assert np.array_equal(state[name], state_ref[name]), name
    assert profiler.iteration_seconds() == ctx_ref.profiler.iteration_seconds()


# ----------------------------------------------------------------------
# A hung worker cannot hang the parent.
# ----------------------------------------------------------------------
# A lost frame runs no chunk twice.
# ----------------------------------------------------------------------
def _scale_in_place(task, point, buffers):
    """``test-scale-in-place`` on one rank: ``x = x * scale + shift``."""
    scale, shift = task.scalar_args
    buffers[0][...] = buffers[0] * scale + shift


def _scale_in_place_cost(task, point, buffers, machine):
    return buffers[0].size * 1e-9


def _scale_in_place_chunk(bases, rects, scalars):
    scale, shift = scalars
    for lo, hi in rects[0]:
        view = bases[0][lo[0]:hi[0]]
        view[...] = view * scale + shift


def _scale_in_place_chunk_cost(bases, rects, scalars, machine):
    return [(hi[0] - lo[0]) * 1e-9 for lo, hi in rects[0]]


class _InPlaceScale(Application):
    """One opaque step per iteration that updates its field in place."""

    def __init__(self, rows_per_gpu=16, context=None):
        super().__init__(context)
        rows = rows_per_gpu * self.context.num_gpus
        self.x = cn.array(np.linspace(1.0, 2.0, rows), name="inplace_x")

    def step(self):
        self.x._submit(
            "test-scale-in-place",
            (self.x.store,),
            ((self.x.partition(), Privilege.READ_WRITE, None),),
            (1.5, 0.25),
        )

    def checksum(self):
        return float(self.x.sum())


@pytest.mark.parametrize("point_workers", [2, 4])
def test_lost_frame_runs_an_in_place_update_once(
    point_workers, monkeypatch, force_dispatch, lose_first_frame
):
    """A shipped step that updates its field in place (``READ_WRITE``,
    ``x = 1.5 x + 0.25`` on every rank) loses its first level frame with
    the pool.  The scheduling thread ran its own chunk during the round
    trip and the launch runs only the lost workers' chunks: a chunk run
    twice would scale its ranks twice.  Buffers, checksum and the
    simulated seconds of every iteration equal the eager interpreter's."""
    # Forked workers inherit the registry: register before the pool.
    procpool.shutdown_process_pool()
    impl = register_opaque_task(
        "test-scale-in-place", _scale_in_place, _scale_in_place_cost,
        registry=OpaqueTaskRegistry(),
        chunk_execute=_scale_in_place_chunk, chunk_cost_seconds=_scale_in_place_chunk_cost,
    )
    monkeypatch.setitem(default_opaque_registry()._impls, impl.name, impl)
    monkeypatch.setitem(apps_base._APPLICATIONS, "test-in-place-scale", _InPlaceScale)
    kwargs = dict(rows_per_gpu=16)
    ctx_ref, state_ref, checksum_ref = _run(
        monkeypatch, "test-in-place-scale", kwargs,
        {"REPRO_TRACE": "0", "REPRO_KERNEL_BACKEND": "interpreter"},
    )
    ctx, state, checksum = _run(
        monkeypatch, "test-in-place-scale", kwargs,
        {"REPRO_POINT_WORKERS": str(point_workers)},
    )

    profiler = ctx.profiler
    assert len(lose_first_frame) == 1
    assert profiler.declines["worker_lost"] == 1
    replays = profiler.trace_hits
    assert replays == 3
    # One chunk per eager iteration, point_workers per replay (chunk 0 on
    # the scheduling thread); the first replay's frame was lost, so its
    # worker chunks ran here too.
    assert profiler.opaque_chunk_calls == (ITERATIONS - replays) + replays * point_workers
    assert profiler.opaque_process_chunks == (replays - 1) * (point_workers - 1)
    assert checksum == checksum_ref
    for name in state_ref:
        assert np.array_equal(state[name], state_ref[name]), name
    assert profiler.iteration_seconds() == ctx_ref.profiler.iteration_seconds()


# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "app_name,kwargs,shipped_per_level",
    [
        ("two-matvec", dict(rows_per_gpu=16), None),
        # Width-3 levels: the lost frame carried three steps.
        ("torchswe-manual", dict(points_per_gpu=16), 3),
    ],
    ids=["two-matvec", "torchswe-manual"],
)
def test_hung_worker_degrades_to_the_next_rung(
    app_name, kwargs, shipped_per_level, monkeypatch, force_dispatch, shm_entries
):
    """``SIGSTOP`` a worker mid-run: the reply deadline passes, the pool
    is torn down (stopped worker included), the lost level's worker
    chunks run inline on the scheduling thread bit-identically, and the
    next frame builds a fresh pool.  A lost level frame is *one*
    ``worker_lost``, however many steps it carried; each of them runs
    its workers' chunks inline once, and the plan re-ships to the fresh
    workers."""
    ctx_inline, state_inline, checksum_inline = _run(
        monkeypatch, app_name, kwargs, {"REPRO_WORKERS": "4"}
    )

    monkeypatch.setattr(procpool, "REPLY_DEADLINE_SECONDS", 0.5)
    for name, value in {**PROCESS, "REPRO_WORKERS": "4"}.items():
        monkeypatch.setenv(name, value)
    config.reload_flags()
    shm_before = shm_entries()
    context = RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))
    set_context(context)
    try:
        app = build_application(app_name, context=context, **kwargs)
        app.run(3)
        pool = procpool.process_pool()
        children = list(pool._processes)
        profiler = context.profiler
        assert profiler.point_process_chunks > 0
        inline, submitted = _record_inline_launches(monkeypatch)
        os.kill(children[0].pid, signal.SIGSTOP)
        app.run(1)
        assert inline and submitted == []
        for thread, chunks, ran in inline:
            assert thread is threading.current_thread()
            assert ran == [(thread.ident, start, stop) for start, stop in chunks]
        if shipped_per_level is not None:
            # Each of the frame's steps ran inline, once.
            assert profiler.declines["worker_lost"] == 1
            assert len(inline) == shipped_per_level
        app.run(ITERATIONS - 4)
        checksum = app.checksum()
        state = {
            name: value.to_numpy()
            for name, value in vars(app).items()
            if isinstance(value, cn_ndarray)
        }
        assert profiler.declines["worker_lost"] >= 1
        assert pool.closed
        for child in children:
            child.join(timeout=5.0)
            assert not child.is_alive()
        # The launches after the degraded one went to a fresh pool, which
        # holds the re-shipped plan.
        fresh = procpool.process_pool()
        assert fresh is not pool and not fresh.closed
        assert any(fresh._plans_shipped)
    finally:
        set_context(None)
        procpool.shutdown_process_pool()
    assert checksum == checksum_inline
    for name in state_inline:
        assert np.array_equal(state[name], state_inline[name]), name
    assert profiler.iteration_seconds() == ctx_inline.profiler.iteration_seconds()
    assert context.legion.simulated_seconds == ctx_inline.legion.simulated_seconds
    del context, app, profiler
    import gc

    gc.collect()
    assert shm_entries() <= shm_before


# ----------------------------------------------------------------------
# Array memory stays mapped between launches.
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not region.KEEPS_FREED_MEMORY_MAPPED, reason="no glibc mallopt on this platform"
)
def test_second_round_of_bigtile_iterations_takes_no_page_faults(monkeypatch):
    """glibc hands freed blocks >= 128 KiB back to the OS by default, so
    every whole-tile temporary is page-faulted in again (> 10,000 minor
    faults per round here); ``runtime/region.py`` pins the allocator so
    they stay mapped.  The warm-up ends in a replay, so the measured
    round is steady: three replays and no capture."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    config.reload_flags()
    context = RuntimeContext(num_gpus=4, fusion=True)
    set_context(context)
    profiler = context.profiler
    try:
        app = build_application("black-scholes", context=context, elements_per_gpu=65536)
        app.run(3)
        assert profiler.trace_hits >= 1
        misses = profiler.trace_misses
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        app.run(3)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    finally:
        set_context(None)
    assert profiler.trace_misses == misses
    assert faults < 256, faults
