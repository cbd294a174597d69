"""Plan-resident process replay.

Acceptance bar: with plans resident in the worker processes the replay
stays bit-identical to inline replay — buffers, checksums AND simulated
seconds — across ``config.SUPERKERNEL`` {off,on} × ``REPRO_WORKERS``
{1,4} × ``REPRO_POINT_WORKERS`` {1,4}, asserted under the differential
kernel backend with the dispatch thresholds forced to zero.  Alongside
the hammer, this file covers the staleness story (only
``config.reload_flags()`` retires resident plans; an attach does not)
and the broken-pool degrade path (a killed worker's level runs inline,
then the plan re-ships to the fresh pool), plus the wire-traffic
counter the residency exists to shrink.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.apps.base import build_application
from repro.experiments.harness import scaled_machine
from repro.frontend.cunumeric.array import ndarray as cn_ndarray
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.runtime import procpool
from repro.runtime.procpool import shutdown_process_pool


@pytest.fixture(autouse=True)
def _reload_flags_after():
    yield
    config.reload_flags()


pytestmark = pytest.mark.usefixtures("force_dispatch")


# ----------------------------------------------------------------------
# Staleness: flag reloads retire resident plans, attaches do not.
# ----------------------------------------------------------------------
class TestResidentInvalidation:
    def test_plan_ids_never_repeat(self):
        first = procpool.next_resident_plan_id()
        second = procpool.next_resident_plan_id()
        assert second > first

    def test_reload_flags_bumps_generation(self):
        before = procpool.resident_generation()
        config.reload_flags()
        assert procpool.resident_generation() > before

    @staticmethod
    def _cg_with_an_attach(monkeypatch, point_workers):
        """Six CG iterations whose matrix values are re-attached, scaled,
        after the third: ``(context, state, checksum, generation moved,
        plan ships after the attach, opaque chunks a worker ran after
        the attach)``."""
        monkeypatch.setenv("REPRO_POINT_WORKERS", str(point_workers))
        monkeypatch.setenv("REPRO_WORKERS", "1")
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "codegen")
        config.reload_flags()
        ships = []
        send = procpool.ProcessWorkerPool._send

        def spy(self, worker, message):
            ships.append(message[0] == "plan")
            return send(self, worker, message)

        monkeypatch.setattr(procpool.ProcessWorkerPool, "_send", spy)
        context = RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))
        set_context(context)
        try:
            app = build_application("cg", context=context, grid_points_per_gpu=12)
            app.run(3)
            generation = procpool.resident_generation()
            store = app.matrix._data_store
            context.attach(store, context.read_array(store) * 1.5)
            del ships[:]
            shipped_before = context.profiler.opaque_process_chunks
            app.run(3)
            state = {
                name: value.to_numpy()
                for name, value in vars(app).items()
                if isinstance(value, cn_ndarray)
            }
            return (
                context, state, app.checksum(),
                procpool.resident_generation() != generation, sum(ships),
                context.profiler.opaque_process_chunks - shipped_before,
            )
        finally:
            set_context(None)
            shutdown_process_pool()

    def test_attach_keeps_the_shipped_plan(self, monkeypatch):
        """Attaching new data to a store a shipped step reads retires
        nothing: the frames carry the new field's descriptor, so the plan
        the workers hold keeps serving, bit-identical to inline replay
        doing the same attach."""
        ctx_base, state_base, checksum_base, *_ = self._cg_with_an_attach(monkeypatch, 1)
        ctx, state, checksum, moved, plan_ships, worker_chunks = self._cg_with_an_attach(
            monkeypatch, 2
        )
        _assert_matches(ctx, state, checksum, (ctx_base, state_base, checksum_base), "attach")
        # The SpMV reading the attached values ran in the worker ...
        assert worker_chunks > 0
        # ... from the plan shipped before the attach.
        assert not moved
        assert plan_ships == 0

    def test_retire_resident_plan_clears_cache(self):
        class PlanStub:
            resident = "sentinel"

        plan = PlanStub()
        procpool.retire_resident_plan(plan)
        assert plan.resident is None
        # Idempotent, and tolerant of plans never registered.
        procpool.retire_resident_plan(plan)
        procpool.retire_resident_plan(object())


# ----------------------------------------------------------------------
# End-to-end parity: the resident differential hammer (tentpole).
# ----------------------------------------------------------------------
COMBOS = [(1, 1), (4, 1), (1, 4), (4, 4)]

APPS = [
    ("cg", dict(grid_points_per_gpu=12), 5),
    ("jacobi", dict(rows_per_gpu=32), 6),
    ("black-scholes", dict(elements_per_gpu=128), 6),
    ("two-matvec", dict(rows_per_gpu=24), 6),
]


def _set_flags(point_workers, workers, monkeypatch, superkernel):
    monkeypatch.setenv("REPRO_POINT_WORKERS", str(point_workers))
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "differential")
    monkeypatch.setattr(config, "SUPERKERNEL", superkernel == "1")
    config.reload_flags()


def _run_app(
    app_name,
    point_workers,
    workers,
    monkeypatch,
    iterations,
    superkernel="0",
    **kwargs,
):
    _set_flags(point_workers, workers, monkeypatch, superkernel)
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


def _assert_matches(ctx, state, checksum, baseline, label):
    ctx_base, state_base, checksum_base = baseline
    assert checksum == checksum_base, label
    assert set(state) == set(state_base), label
    for name in state_base:
        assert np.array_equal(state[name], state_base[name]), (label, name)
    assert ctx.profiler.iteration_seconds() == ctx_base.profiler.iteration_seconds(), label
    assert ctx.legion.simulated_seconds == ctx_base.legion.simulated_seconds, label


class TestResidentParity:
    """The super-kernel × workers × point-workers hammer.

    CG (compiled kernels with reductions), Jacobi (opaque GEMV),
    Black-Scholes (elementwise chains) and two-matvec (width-2 plan
    levels) must all be bit-identical — buffers, checksums and simulated
    seconds — to inline replay (1/1) for every flag combination, with
    both kernel backends cross-checked inside the workers by the
    differential executor.
    """

    @pytest.mark.parametrize("app_name,kwargs,iterations", APPS, ids=[a[0] for a in APPS])
    def test_matrix_bit_identical(self, app_name, kwargs, iterations, monkeypatch):
        baseline = _run_app(app_name, 1, 1, monkeypatch, iterations, **kwargs)
        for superkernel in ("0", "1"):
            for point_workers, workers in COMBOS:
                ctx, state, checksum = _run_app(
                    app_name,
                    point_workers,
                    workers,
                    monkeypatch,
                    iterations,
                    superkernel=superkernel,
                    **kwargs,
                )
                label = f"superkernel={superkernel} point={point_workers} workers={workers}"
                _assert_matches(ctx, state, checksum, baseline, label)
                assert ctx.profiler.trace_hits > 0, label
                if point_workers > 1 and app_name != "jacobi":
                    assert ctx.profiler.point_process_chunks > 0, label
                    assert ctx.profiler.wire_bytes > 0, label
                    assert ctx.profiler.wire_requests > 0, label
        shutdown_process_pool()

    def test_resident_shrinks_steady_state_wire_bytes(self, monkeypatch):
        """The counter the residency exists to move.

        The first replay ships the plan with its rect tables; a steady
        epoch sends level frames only, each below the first replay's
        bytes and below ``PIPE_BUF`` (one atomic pipe write).  A frame
        pickles to builtins only: a class reference in it (a descriptor
        shipped as a dataclass or named tuple, a NumPy scalar) would
        cost a ``GLOBAL`` opcode and its name in every frame.  The
        counters are deterministic (sizes of actual payloads), so this
        holds on any host.
        """
        import pickletools
        import select
        from multiprocessing.reduction import ForkingPickler

        # The seed-path CI leg (REPRO_HOTPATH_CACHE=0) moves the byte counts.
        monkeypatch.setenv("REPRO_HOTPATH_CACHE", "1")
        _set_flags(4, 1, monkeypatch, "0")
        messages = []
        send = procpool.ProcessWorkerPool._send

        def spy(self, worker, message):
            messages.append(message)
            return send(self, worker, message)

        monkeypatch.setattr(procpool.ProcessWorkerPool, "_send", spy)
        context = RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))
        set_context(context)
        profiler = context.profiler
        replayed = []
        try:
            app = build_application("cg", context=context, grid_points_per_gpu=12)
            for _ in range(12):
                hits, sent = profiler.trace_hits, profiler.wire_bytes
                del messages[:]
                app.run(1)
                if profiler.trace_hits > hits:
                    replayed.append(
                        (profiler.wire_bytes - sent) / (profiler.trace_hits - hits)
                    )
        finally:
            set_context(None)
        shutdown_process_pool()
        steady = replayed[-4:]
        assert len(replayed) > len(steady)
        assert all(0 < epoch < replayed[0] for epoch in steady), replayed
        # The last epoch's messages: level frames only.
        assert messages and all(message[0] == "r" for message in messages)
        for message in messages:
            payload = bytes(ForkingPickler.dumps(message))
            assert len(payload) < select.PIPE_BUF, len(payload)
            opcodes = {opcode.name for opcode, _arg, _pos in pickletools.genops(payload)}
            assert not opcodes & {"GLOBAL", "STACK_GLOBAL", "INST", "OBJ"}, message


# ----------------------------------------------------------------------
# Staleness and degradation, end to end.
# ----------------------------------------------------------------------
class TestResidentRecovery:
    def _start_app(self, monkeypatch, app_name="cg", **kwargs):
        monkeypatch.setenv("REPRO_POINT_WORKERS", "4")
        monkeypatch.setenv("REPRO_WORKERS", "1")
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "differential")
        config.reload_flags()
        context = RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))
        set_context(context)
        return context, build_application(app_name, context=context, **kwargs)

    def _baseline(self, monkeypatch, iterations):
        _ctx, state, checksum = _run_app(
            "cg", 1, 1, monkeypatch, iterations, grid_points_per_gpu=12
        )
        return state, checksum

    def test_reload_flags_mid_run_reships_under_fresh_id(self, monkeypatch):
        """``reload_flags`` retires resident plans; replay recovers.

        After the reload the captured plan must be re-registered under a
        *new* plan id (ids are never reused) and the run must stay
        bit-identical to an uninterrupted inline run.
        """
        state_base, checksum_base = self._baseline(monkeypatch, 6)
        context, app = self._start_app(monkeypatch, grid_points_per_gpu=12)
        try:
            app.run(3)
            generation = procpool.resident_generation()
            config.reload_flags()
            assert procpool.resident_generation() > generation
            app.run(3)
            assert app.checksum() == checksum_base
            for name, value in vars(app).items():
                if isinstance(value, cn_ndarray):
                    assert np.array_equal(value.to_numpy(), state_base[name]), name
        finally:
            set_context(None)
        shutdown_process_pool()

    @pytest.mark.parametrize(
        "app_name,kwargs",
        [
            ("cg", dict(grid_points_per_gpu=12)),
            # Width-3 levels: the frame that meets the dead pool carries
            # three steps, each of which must re-run inline.
            ("torchswe-manual", dict(points_per_gpu=16)),
        ],
        ids=["cg", "torchswe-manual"],
    )
    def test_killed_worker_degrades_then_reships(self, app_name, kwargs, monkeypatch):
        """A dead worker must not wedge or corrupt resident replay.

        The level frame that hits the broken pipe is one ``worker_lost``
        (none when the pool was seen dead before the send), its steps
        run inline, the pool singleton is rebuilt, and the
        plan re-ships to the fresh workers — with buffers and
        per-iteration simulated seconds still bit-identical to inline
        replay.
        """
        ctx_base, state_base, checksum_base = _run_app(
            app_name, 1, 1, monkeypatch, 6, **kwargs
        )
        context, app = self._start_app(monkeypatch, app_name, **kwargs)
        try:
            app.run(3)
            pool = procpool.process_pool()
            assert any(shipped for shipped in pool._plans_shipped)
            for process in pool._processes:
                process.terminate()
                process.join(timeout=5.0)
            app.run(3)
            assert pool.closed
            fresh = procpool.process_pool()
            assert fresh is not pool
            assert any(shipped for shipped in fresh._plans_shipped)
            assert context.profiler.declines["worker_lost"] <= 1
            assert app.checksum() == checksum_base
            for name, value in vars(app).items():
                if isinstance(value, cn_ndarray):
                    assert np.array_equal(value.to_numpy(), state_base[name]), name
            assert (
                context.profiler.iteration_seconds()
                == ctx_base.profiler.iteration_seconds()
            )
        finally:
            set_context(None)
        shutdown_process_pool()

    def test_descriptor_swap_mid_run_stays_identical(self, monkeypatch):
        """Arena blocks moving between epochs must never be served stale.

        Allocating an unrelated field mid-run perturbs the arena's
        first-fit layout, so the app's next epoch binds its slots at
        *different* offsets than the templates were shipped with.  Every
        level frame must deliver the new addresses to the workers (this
        exact scenario produced silent zeros before frames carried
        descriptors).
        """
        from repro.ir.store import StoreManager

        state_base, checksum_base = self._baseline(monkeypatch, 6)
        context, app = self._start_app(monkeypatch, grid_points_per_gpu=12)
        try:
            app.run(3)
            # Pin a wedge block in the arena so freed blocks stop
            # recycling to their old offsets.
            wedge_store = StoreManager().create_store((64,), name="wedge")
            wedge = context.legion.regions.field(wedge_store)
            assert wedge.shm_descriptor is not None
            app.run(3)
            assert app.checksum() == checksum_base
            for name, value in vars(app).items():
                if isinstance(value, cn_ndarray):
                    assert np.array_equal(value.to_numpy(), state_base[name]), name
        finally:
            set_context(None)
        shutdown_process_pool()
