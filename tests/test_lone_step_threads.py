"""A chain level's compiled step splits its rank chunks across the plan threads.

Without worker processes (``REPRO_POINT_WORKERS=1``) the plan threads of a
level that pools nothing are idle, so ``scheduler._plan_dispatch`` gives a
compiled or chunkable super-kernel step the most chunks, at most
``REPRO_WORKERS``, that each span two of their blocks: chunk 0 on the
scheduling thread, the others on ``pool.worker_pool()`` threads, every one
through ``ChunkWork.run`` at ``executor.thread_block(k)`` elements per block.
These tests shrink ``codegen.BLOCK`` so tier-1 sizes engage, and pin that
buffers and per-iteration simulated seconds equal ``REPRO_WORKERS=1`` bit
for bit, where the split may and may not happen, and what a failing chunk
does.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.apps  # noqa: F401 - registers the applications
import repro.frontend.cunumeric as cn
from repro import config
from repro.apps.base import build_application
from repro.experiments.harness import scaled_machine
from repro.frontend.cunumeric.array import ndarray as cn_ndarray
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.kernel import codegen
from repro.runtime import procpool, scheduler, superkernel
from repro.runtime.executor import ChunkWork, TaskExecutor
from repro.runtime.machine import MachineConfig
from repro.runtime.pool import point_chunks, thread_split, worker_pool
from repro.runtime.region import RegionManager

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))
from e2ebench import churn  # noqa: E402

#: Elements per block while these tests run: every tier-1 tile spans
#: several, so a split's chunks clear the two-block rule.
SMALL_BLOCK = 8

#: The block size the benchmark runs at.
BLOCK = codegen.BLOCK


def _set_flags(monkeypatch, workers, point_workers="1", backend="codegen"):
    for name, value in {
        "REPRO_TRACE": "1", "REPRO_HOTPATH_CACHE": "1", "REPRO_KERNEL_BACKEND": backend,
        "REPRO_WORKERS": str(workers), "REPRO_POINT_WORKERS": str(point_workers),
    }.items():
        monkeypatch.setenv(name, value)
    config.reload_flags()


def _churn_program(context, iterations):
    inputs, programs = churn.generate_session(3, 4 * 64, 4)
    arrays = [cn.array(data) for data in inputs]
    values = []
    for program in programs:
        for _ in range(iterations):
            context.begin_iteration()
            values.append(churn.evaluate(cn, program, arrays))
            context.flush()
    return {"values": np.asarray(values, dtype=np.float64)}


def _app(name, **kwargs):
    def run(context, iterations):
        app = build_application(name, context=context, **kwargs)
        app.run(iterations)
        return {
            key: value.to_numpy()
            for key, value in vars(app).items()
            if isinstance(value, cn_ndarray)
        }

    return run


#: program -> (ranks, runner).  CG at 64 ranks of 16 rows lowers merged
#: super-kernel sections; at 3 ranks of 57, 57 and 55 rows ranked ones.
PROGRAMS = {
    "black-scholes": (4, _app("black-scholes", elements_per_gpu=128)),
    "churn": (4, _churn_program),
    "cg-merged": (64, _app("cg", grid_points_per_gpu=4)),
    "cg-ranked": (3, _app("cg", grid_points_per_gpu=7)),
}


def _run(monkeypatch, program, workers, iterations=6, **flags):
    _set_flags(monkeypatch, workers, **flags)
    ranks, runner = PROGRAMS[program]
    context = RuntimeContext(
        num_gpus=ranks, fusion=True, machine=scaled_machine(ranks, 1e-4)
    )
    set_context(context)
    try:
        state = runner(context, iterations)
    finally:
        set_context(None)
    return context.profiler, state


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(codegen, "BLOCK", SMALL_BLOCK)
    monkeypatch.setattr(superkernel, "SPECULATIVE_LOWERINGS", 64)
    yield
    procpool.shutdown_process_pool()
    config.reload_flags()


@pytest.fixture
def launches(monkeypatch):
    """Every launch of a plan, first run or replay: ``(thread, threads,
    work, chunk threads)``, the last the thread each of a split's chunks
    ran on, in chunk order."""
    seen = []
    launch = TaskExecutor.launch

    def recorded(self, work, chunks, width, shipped=None, threads=1):
        ran = {}
        if threads > 1:
            run = work.run

            def tracked(start, stop, block=None, scratch=None):
                ran[start] = threading.current_thread()
                return run(start, stop, block, scratch)

            work.run = tracked
        try:
            return launch(self, work, chunks, width, shipped, threads)
        finally:
            order = [ran[start] for start, _stop in chunks if start in ran]
            seen.append((threading.current_thread(), threads, work, order))

    monkeypatch.setattr(TaskExecutor, "launch", recorded)
    return seen


class TestLoneStepThreads:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("program", list(PROGRAMS))
    def test_split_is_bit_identical_to_one_worker(self, monkeypatch, program, workers):
        serial, expected = _run(monkeypatch, program, 1)
        profiler, state = _run(monkeypatch, program, workers)
        assert serial.snapshot()["point_thread_chunks"] == 0
        snapshot = profiler.snapshot()
        assert snapshot["point_thread_chunks"] > 0, snapshot
        assert snapshot["point_thread_block"] == 2 * SMALL_BLOCK
        assert snapshot["point_chunks"] == snapshot["point_process_chunks"] == 0
        assert set(state) == set(expected)
        for name in expected:
            assert np.array_equal(state[name], expected[name]), name
        first = min(record.iteration for record in profiler.records if record.replayed)
        assert first < len(profiler.iterations) - 1
        assert profiler.iteration_seconds()[first:] == serial.iteration_seconds()[first:]
        if program.startswith("cg"):
            assert snapshot["superkernel_calls"] > 0

    @pytest.mark.parametrize("elements, splits", [(8, False), (16, True)])
    def test_a_chunk_splits_only_when_it_spans_two_of_its_blocks(
        self, monkeypatch, elements, splits
    ):
        """Two chunks of two ranks plan blocks of ``2 × SMALL_BLOCK`` = 16
        elements: 2 × 16 elements per chunk run two blocks and split, 2 × 8
        would run one whole-tile block and stay one call."""
        program = (4, _app("black-scholes", elements_per_gpu=elements))
        monkeypatch.setitem(PROGRAMS, "black-scholes", program)
        profiler, _state = _run(monkeypatch, "black-scholes", 2)
        assert profiler.trace_hits > 0
        assert (profiler.point_thread_chunks > 0) == splits

    def test_a_step_splits_into_the_most_chunks_that_span_two_blocks(
        self, monkeypatch, launches
    ):
        """Four ranks of 24 elements under four workers: four or three
        chunks would leave a chunk of 24 < 2 × 16 elements, two chunks of
        48 clear it, so the step splits in two rather than not at all."""
        program = (4, _app("black-scholes", elements_per_gpu=24))
        monkeypatch.setitem(PROGRAMS, "black-scholes", program)
        _run(monkeypatch, "black-scholes", 4)
        split = [threads for _thread, threads, _work, _order in launches if threads > 1]
        assert split and set(split) == {2}

    @pytest.mark.parametrize("workers", range(2, 9))
    def test_the_benchmark_shapes_at_the_real_block(self, monkeypatch, workers):
        """At ``codegen.BLOCK``, ``bs-bigtile``'s step (4 ranks of 65,536
        elements) splits at every worker count, into one chunk per rank
        from four workers on; ``stream-churn``'s (4 ranks of 16,384)
        never does."""
        monkeypatch.setattr(codegen, "BLOCK", BLOCK)

        def tables(volume):
            return [[(None, volume)] * 4] * 3

        split = thread_split(tables(65536), 4, workers)
        assert split == point_chunks(4, min(workers, 4))
        assert thread_split(tables(16384), 4, workers) is None

    @pytest.mark.parametrize(
        "workers, block, splits", [(1, SMALL_BLOCK, False), (2, SMALL_BLOCK, True), (2, BLOCK, False)]
    )
    def test_a_first_run_splits_as_its_replays_will(
        self, monkeypatch, launches, workers, block, splits
    ):
        """An epoch's first run executes its plan: a step splits there
        only where a replay's would — not with one plan thread, and not
        when the step's chunks would not span two blocks — and the split
        grows the scratch its replays cut registers from.  The schedule
        the first run built is the one the replays reuse."""
        monkeypatch.setattr(codegen, "BLOCK", block)
        _set_flags(monkeypatch, workers)
        ranks, runner = PROGRAMS["black-scholes"]
        context = RuntimeContext(num_gpus=ranks, fusion=True)
        set_context(context)
        try:
            # Run 1 grows the window past its fingerprint, so run 2 is
            # the capture; no replay.
            runner(context, 2)
        finally:
            set_context(None)
        (plan,) = context.diffuse.trace.cache.values()
        assert context.profiler.trace_hits == 0
        assert context.profiler.trace_misses == 2
        assert plan.schedule is not None
        assert any(threads > 1 for _thread, threads, _work, _order in launches) == splits
        assert (context.legion.executor._scratch.size > 0) == splits
        assert context.profiler.point_thread_chunks == 0

    def test_slot_zero_is_the_scheduling_thread(self, monkeypatch, launches):
        _run(monkeypatch, "black-scholes", 2)
        split = [entry for entry in launches if entry[1] > 1]
        assert split
        main = threading.main_thread()
        for thread, _threads, _work, order in split:
            assert thread is main
            assert order[0] is main
            assert all(other.name.startswith("repro-worker") for other in order[1:])
            assert len(order) == 2

    def test_thread_chunks_cut_registers_from_the_reserved_scratch(self, monkeypatch):
        """A thread chunk's block registers are views of the executor's
        scratch reserve, grown by the plan's first run, never a thread's
        own allocation."""
        seen = []
        blocks = codegen._Call.blocks

        def recorded(call, loop, *buffers):
            cut = blocks(call, loop, *buffers)
            _reference, tiles, _written, registers, _fulls, _take = call.loops[loop]
            if call.blocked and registers:
                owned = call.scratch is not None and np.shares_memory(cut[0][tiles], call.scratch)
                seen.append((threading.current_thread().name, owned))
            return cut

        monkeypatch.setattr(codegen._Call, "blocks", recorded)
        _run(monkeypatch, "black-scholes", 2)
        pooled = [owned for name, owned in seen if name.startswith("repro-worker")]
        assert pooled and all(pooled)
        assert any(owned for name, owned in seen if name == "MainThread")

    def test_a_pooled_level_never_splits(self, monkeypatch, launches):
        """GMG's wide levels hand compiled steps to the pool; those run
        whole on the pool threads, never split again."""
        monkeypatch.setattr(scheduler, "MIN_DISPATCH_VOLUME", 0)
        monkeypatch.setattr(config, "SUPERKERNEL", False)
        dispatches = []
        plan_dispatch = scheduler._plan_dispatch

        def recorded(*args):
            dispatch = plan_dispatch(*args)
            dispatches.append(dispatch)
            return dispatch

        monkeypatch.setattr(scheduler, "_plan_dispatch", recorded)
        _set_flags(monkeypatch, 4)
        context = RuntimeContext(num_gpus=4, fusion=True)
        set_context(context)
        try:
            build_application("gmg", context=context).run(5)
        finally:
            set_context(None)
        pooled = [
            (dispatch.decisions[launch[0]][0], launch)
            for dispatch in dispatches
            for level, is_pooled in zip(dispatch.levels, dispatch.pooled)
            if is_pooled
            for launch in level
        ]
        assert any(dispatched and launch[1].compiled for dispatched, launch in pooled)
        assert all(launch[4] == 1 for _dispatched, launch in pooled)
        assert context.profiler.plan_dispatched_steps > 0
        assert all(
            thread is threading.main_thread() for thread, threads, _w, _o in launches if threads > 1
        )

    def test_a_non_chunkable_super_kernel_never_splits(self, monkeypatch, launches):
        """The differential backend lowers every unit in verify mode, which
        never chunks: its units report one rank and run whole."""
        profiler, _state = _run(monkeypatch, "cg-merged", 4, backend="differential")
        fused = [entry for entry in launches if getattr(entry[2].kernel, "is_superkernel", False)]
        assert fused and profiler.superkernel_calls > 0
        assert all(threads == 1 for _thread, threads, _work, _order in fused)

    def test_worker_processes_take_no_thread_chunks(self, monkeypatch, force_dispatch):
        profiler, _state = _run(monkeypatch, "black-scholes", 4, point_workers="2")
        snapshot = profiler.snapshot()
        assert snapshot["point_thread_chunks"] == 0
        assert snapshot["point_process_chunks"] > 0

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_failing_chunk_is_waited_for_and_reraised(self, failing):
        """Chunk ``failing`` raises; the other one is slow.  The launch
        returns only after both finished, re-raises the original type, and
        the pool runs the next launch."""

        class ChunkFailure(ValueError):
            pass

        finished = []

        def run(start, stop, block=None, scratch=None):
            if start == failing * 2:
                raise ChunkFailure(start)
            time.sleep(0.2)
            finished.append(start)
            return [None] * (stop - start), [float(start)] * (stop - start)

        class Kernel:
            def scratch_elements(self, block, tile=None):
                return 0

        executor = TaskExecutor(RegionManager(), MachineConfig(num_gpus=4))
        pool = worker_pool()
        with pytest.raises(ChunkFailure):
            executor.launch(
                ChunkWork((), 4, run, kernel=Kernel()), [(0, 2), (2, 4)], 1, threads=2
            )
        assert finished == [2 - failing * 2]

        def good(start, stop, block=None, scratch=None):
            return [None] * (stop - start), [float(block)] * (stop - start)

        seconds, partials = executor.launch(
            ChunkWork((), 4, good, kernel=Kernel()), [(0, 2), (2, 4)], 1, threads=2
        )
        assert worker_pool() is pool
        assert seconds == 2 * SMALL_BLOCK and partials == {}
