"""Chunk-level opaque operator registry (``config.OPAQUE_CHUNKS``).

Acceptance bar: chunk-level opaque execution is bit-identical to the
per-rank path — buffers, checksums AND simulated seconds — for every
``REPRO_WORKERS`` {1,4} × ``REPRO_POINT_WORKERS`` {1,4} combination,
asserted under the
differential kernel backend on apps covering every registered chunk
implementation (GEMV, SpMV, the multigrid transfers).  Alongside the
hammer, this file unit-tests the registry/resolve API, the bounded
opaque-binding LRU, the shippability guards (hand-built and
chunk-less operators fall back without crossing the pipe), the level
frame's unknown-operator error path and the dead-worker degrade.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.apps.base import build_application
from repro.experiments.harness import (
    ExperimentScale,
    run_application_experiment,
    scaled_machine,
)
from repro.frontend.cunumeric.array import ndarray as cn_ndarray
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.runtime.opaque import (
    OpaqueTaskImpl,
    OpaqueTaskRegistry,
    default_opaque_registry,
    register_opaque_task,
    resolve_opaque_impl,
)
from repro.runtime.procpool import shutdown_process_pool


@pytest.fixture(autouse=True)
def _reload_flags_after():
    yield
    config.reload_flags()


pytestmark = pytest.mark.usefixtures("force_dispatch")


# ----------------------------------------------------------------------
# The registry and name resolution.
# ----------------------------------------------------------------------
def _execute(task, point, buffers):
    return None


def _cost(task, point, buffers, machine):
    return 0.0


def _chunk_execute(bases, rects, scalars):
    return None


def _chunk_cost(bases, rects, scalars, machine):
    return []


class TestRegistry:
    def test_register_records_chunk_and_module(self):
        registry = OpaqueTaskRegistry()
        impl = register_opaque_task(
            "probe",
            _execute,
            _cost,
            registry=registry,
            chunk_execute=_chunk_execute,
            chunk_cost_seconds=_chunk_cost,
        )
        assert registry.get("probe") is impl
        assert impl.chunk is not None
        assert impl.chunk.execute is _chunk_execute
        assert impl.module == _execute.__module__

    def test_chunk_requires_both_halves(self):
        registry = OpaqueTaskRegistry()
        impl = register_opaque_task(
            "probe", _execute, _cost, registry=registry, chunk_execute=_chunk_execute
        )
        assert impl.chunk is None

    def test_builtin_operators_carry_chunk_impls(self):
        registry = default_opaque_registry()
        for name in ("gemv", "spmv_csr", "gmg_restrict", "gmg_prolong"):
            impl = registry.get(name)
            assert impl.chunk is not None, name
            assert impl.module, name

    def test_resolve_known_operator(self):
        impl = resolve_opaque_impl("gmg_restrict", module="repro.apps.gmg")
        assert impl is default_opaque_registry().get("gmg_restrict")

    def test_resolve_unknown_operator_raises(self):
        with pytest.raises(KeyError):
            resolve_opaque_impl("not-a-registered-operator")


# ----------------------------------------------------------------------
# The bounded opaque-binding LRU (satellite regression).
# ----------------------------------------------------------------------
class _StubField:
    def view(self, rect):
        return np.zeros(1)


class TestBindingMemoLRU:
    def _executor(self):
        import repro.runtime.executor as executor_module
        from repro.runtime.region import RegionManager

        return executor_module.TaskExecutor(RegionManager(), scaled_machine(1, 1e-4))

    def test_eviction_is_bounded_and_least_recent(self, monkeypatch):
        import repro.runtime.executor as executor_module

        monkeypatch.setattr(executor_module, "OPAQUE_BINDING_MEMO_LIMIT", 4)
        executor = self._executor()
        fields = [_StubField() for _ in range(6)]
        tables = [[(None, 0)] for _ in range(6)]
        prepared = [((0, fields[i], False, tables[i]),) for i in range(6)]

        rows = [executor._opaque_binding_rows(prepared[i], 1) for i in range(4)]
        assert len(executor._opaque_binding_memo) == 4
        # A hit refreshes its entry (and returns the cached rows).
        assert executor._opaque_binding_rows(prepared[0], 1) is rows[0]
        # An insert at capacity evicts exactly one entry: the stalest.
        executor._opaque_binding_rows(prepared[4], 1)
        assert len(executor._opaque_binding_memo) == 4
        # The refreshed entry survived the eviction ...
        assert executor._opaque_binding_rows(prepared[0], 1) is rows[0]
        # ... and the untouched oldest entry did not (it is rebuilt).
        assert executor._opaque_binding_rows(prepared[1], 1) is not rows[1]
        assert len(executor._opaque_binding_memo) == 4

    def test_memo_never_exceeds_limit(self, monkeypatch):
        import repro.runtime.executor as executor_module

        monkeypatch.setattr(executor_module, "OPAQUE_BINDING_MEMO_LIMIT", 3)
        executor = self._executor()
        for _ in range(10):
            prepared = ((0, _StubField(), False, [(None, 0)]),)
            executor._opaque_binding_rows(prepared, 1)
            assert len(executor._opaque_binding_memo) <= 3


# ----------------------------------------------------------------------
# The worker pool's unknown-operator error path.
# ----------------------------------------------------------------------
class TestOpaqueFrameProtocol:
    def test_unknown_operator_raises_and_pool_survives(self, monkeypatch):
        """A resident step naming an operator no worker registry holds."""
        import repro.runtime.procpool as procpool

        monkeypatch.setenv("REPRO_WORKERS", "1")
        monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
        config.reload_flags()
        pool = procpool.ProcessWorkerPool(2)
        try:
            # Chunk 1 is the one worker's (chunk 0 is the caller's slot).
            step = procpool.ResidentStep(
                procpool.OpaqueSpec("not-a-registered-operator", None, None), (), ((0, 1), (1, 2))
            )
            plan = procpool.ResidentPlan(
                plan_id=procpool.next_resident_plan_id(),
                generation=procpool.resident_generation(),
                steps={0: step},
            )
            entries = [(0, (), (), step.chunks)]
            # The worker's error is re-raised type-preserving in the
            # parent, with the worker traceback appended ...
            with pytest.raises(KeyError, match="not-a-registered-operator") as raised:
                pool.run_resident_chunks(plan, entries)
            assert "worker traceback" in str(raised.value)
            # ... and the pipe stayed in step: the worker answers the
            # next frame.
            with pytest.raises(KeyError, match="not-a-registered-operator"):
                pool.run_resident_chunks(plan, entries)
            assert not pool.closed
        finally:
            pool.shutdown()


# ----------------------------------------------------------------------
# End-to-end parity: chunked vs per-rank, the differential hammer.
# ----------------------------------------------------------------------
COMBOS = [(1, 1), (4, 1), (1, 4), (4, 4)]


def _set_flags(point_workers, workers, chunks, monkeypatch):
    monkeypatch.setenv("REPRO_POINT_WORKERS", str(point_workers))
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "differential")
    monkeypatch.setattr(config, "OPAQUE_CHUNKS", chunks)
    config.reload_flags()


def _run_app(app_name, point_workers, workers, chunks, monkeypatch, iterations, **kwargs):
    _set_flags(point_workers, workers, chunks, monkeypatch)
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


class TestChunkedParity:
    """Chunked vs per-rank opaque execution across the dispatch matrix.

    The two-mat-vec recurrence (opaque GEMV on a width-2 DAG) and GMG
    (SpMV plus both multigrid transfer operators interleaved with
    fusible chains) must be bit-identical — buffers, checksums and
    simulated seconds — to the per-rank inline 1/1 baseline for every
    chunked combination, with both kernel backends cross-checked on
    every invocation by the differential executor.  Together the two
    apps execute every registered chunk implementation.
    """

    APPS = [
        ("two-matvec", dict(rows_per_gpu=16), 5),
        ("gmg", dict(grid_points_per_gpu=8), 3),
    ]

    @pytest.mark.parametrize("app_name,kwargs,iterations", APPS, ids=[a[0] for a in APPS])
    def test_matrix_bit_identical(self, app_name, kwargs, iterations, monkeypatch):
        ctx_base, state_base, checksum_base = _run_app(
            app_name, 1, 1, False, monkeypatch, iterations, **kwargs
        )
        assert ctx_base.profiler.opaque_rank_calls > 0
        assert ctx_base.profiler.opaque_chunk_calls == 0
        for point_workers, workers in COMBOS:
            ctx, state, checksum = _run_app(
                app_name, point_workers, workers, True, monkeypatch, iterations, **kwargs
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
            assert ctx.profiler.trace_hits > 0, label
            assert ctx.profiler.opaque_chunk_calls > 0, label
            if point_workers > 1:
                # Opaque chunks rode the worker-process substrate.
                assert ctx.profiler.opaque_process_chunks > 0, label
        shutdown_process_pool()

    def test_chunking_collapses_steady_opaque_calls(self, monkeypatch):
        """Two GEMV launches per iteration at 8 ranks: 16 per-rank library
        calls, 2 chunk-level ones (point width 1, one chunk per launch).

        Every measured iteration replays (the counters are read before
        the checksum's read-backs)."""
        scale = ExperimentScale({"rows_per_gpu": 32}, 5e-5, 4, 2)
        per_iteration = {}
        for chunks in (False, True):
            _set_flags(1, 1, chunks, monkeypatch)
            result = run_application_experiment("two-matvec", num_gpus=8, scale=scale)
            counters, warmup = result.counters, result.warmup_counters
            assert counters["trace_hits"] - warmup["trace_hits"] == result.iterations
            calls = sum(
                counters[name] - warmup[name]
                for name in ("opaque_rank_calls", "opaque_chunk_calls")
            )
            per_iteration[chunks] = calls / result.iterations
        assert per_iteration == {False: 16.0, True: 2.0}


# ----------------------------------------------------------------------
# Fallback and degrade regressions.
# ----------------------------------------------------------------------
class TestFallbacks:
    def _swap_gemv(self, replacement):
        registry = default_opaque_registry()
        original = registry.get("gemv")
        registry.register(replacement(original))
        return registry, original

    def test_unshippable_operator_stays_in_the_parent(self, monkeypatch):
        """Hand-built impls (``module=None``) never cross the pipe.

        The executor's shippability guard must run their chunks inline —
        still chunk-level, still bit-identical — instead of shipping an
        unresolvable name to the workers.
        """
        ctx_base, state_base, checksum_base = _run_app(
            "two-matvec", 1, 1, False, monkeypatch, 4, rows_per_gpu=16
        )
        registry, original = self._swap_gemv(
            lambda orig: OpaqueTaskImpl(
                name=orig.name,
                execute=orig.execute,
                cost_seconds=orig.cost_seconds,
                chunk=orig.chunk,
                module=None,
            )
        )
        try:
            ctx, state, checksum = _run_app(
                "two-matvec", 4, 4, True, monkeypatch, 4, rows_per_gpu=16
            )
            assert checksum == checksum_base
            for name in state_base:
                assert np.array_equal(state[name], state_base[name]), name
            assert ctx.profiler.opaque_chunk_calls > 0
            assert ctx.profiler.opaque_process_chunks == 0
        finally:
            registry.register(original)
        shutdown_process_pool()

    def test_chunkless_operator_falls_back_to_per_rank(self, monkeypatch):
        """Operators without a chunk impl run the per-rank loop unchanged."""
        ctx_base, state_base, checksum_base = _run_app(
            "two-matvec", 1, 1, False, monkeypatch, 4, rows_per_gpu=16
        )
        registry, original = self._swap_gemv(
            lambda orig: OpaqueTaskImpl(
                name=orig.name,
                execute=orig.execute,
                cost_seconds=orig.cost_seconds,
                chunk=None,
                module=orig.module,
            )
        )
        try:
            ctx, state, checksum = _run_app(
                "two-matvec", 4, 4, True, monkeypatch, 4, rows_per_gpu=16
            )
            assert checksum == checksum_base
            for name in state_base:
                assert np.array_equal(state[name], state_base[name]), name
            assert ctx.profiler.opaque_rank_calls > 0
            assert ctx.profiler.opaque_chunk_calls == 0
        finally:
            registry.register(original)
        shutdown_process_pool()

    def test_dead_workers_degrade_mid_run(self, monkeypatch):
        """Killing the pool mid-run degrades gracefully, bit-identically."""
        import repro.runtime.procpool as procpool

        monkeypatch.setenv("REPRO_POINT_WORKERS", "4")
        monkeypatch.setenv("REPRO_WORKERS", "4")
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "differential")
        config.reload_flags()
        context = RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))
        set_context(context)
        try:
            app = build_application("two-matvec", context=context, rows_per_gpu=16)
            app.run(1)
            pool = procpool.process_pool()
            for process in pool._processes:
                process.terminate()
            for process in pool._processes:
                process.join(timeout=5.0)
            # The next dispatch surfaces the broken pool; execution must
            # degrade (inline chunks or a rebuilt pool) without error and
            # stay bit-identical to the uninterrupted run.
            app.run(1)
            checksum = app.checksum()
        finally:
            set_context(None)
        # Re-run the same split schedule on the inline baseline.
        monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
        monkeypatch.setenv("REPRO_WORKERS", "1")
        config.reload_flags()
        context_base = RuntimeContext(
            num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4)
        )
        set_context(context_base)
        try:
            baseline_app = build_application(
                "two-matvec", context=context_base, rows_per_gpu=16
            )
            baseline_app.run(1)
            baseline_app.run(1)
            checksum_base = baseline_app.checksum()
        finally:
            set_context(None)
        assert checksum == checksum_base
        assert (
            context.legion.simulated_seconds == context_base.legion.simulated_seconds
        )
        shutdown_process_pool()
