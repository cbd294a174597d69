"""Element-wise chunk batching (eager and replay paths).

PR-4's whole-domain batching collapsed a purely element-wise replay
launch to a single rank, which intra-launch point dispatch could then
not split.  The recorder now *marks* such launches instead
(``CompiledStep.elementwise``) and both replay and the eager path
execute one merged closure call per rank chunk — one per epoch at
dispatch width 1 (the PR-4 behaviour), several concurrent calls when
point dispatch is on — and the same soundness argument makes the eager
path batch too.  These tests pin the counters and the bit-identity of
every combination against the unbatched baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.apps.base import build_application
from repro.experiments.harness import scaled_machine
from repro.frontend.cunumeric.array import ndarray as cn_ndarray
from repro.frontend.legate.context import RuntimeContext, set_context


@pytest.fixture(autouse=True)
def _reload_flags_after():
    yield
    config.reload_flags()


pytestmark = pytest.mark.usefixtures("force_dispatch")


def _run_bs(
    monkeypatch, *, trace, point_workers, batching=True, iterations=6, hotpath="1"
):
    if not batching:
        # Suppress both batching sites — the eager detector and the
        # recorder's elementwise verdict — for this run only (a plain
        # monkeypatch.setattr would leak into the test's later runs).
        import repro.runtime.executor as executor_module
        import repro.runtime.trace as trace_module

        with monkeypatch.context() as scoped:
            scoped.setattr(
                executor_module.TaskExecutor,
                "_elementwise_launch",
                lambda self, kernel, prepared, num_points: False,
            )
            scoped.setattr(
                trace_module.TraceRecorder,
                "_elementwise_bindings",
                staticmethod(lambda bindings, num_points, reductions: False),
            )
            return _run_bs(
                monkeypatch,
                trace=trace,
                point_workers=point_workers,
                batching=True,
                iterations=iterations,
                hotpath=hotpath,
            )
    monkeypatch.setenv("REPRO_HOTPATH_CACHE", hotpath)
    monkeypatch.setenv("REPRO_TRACE", "1" if trace else "0")
    monkeypatch.setenv("REPRO_POINT_WORKERS", str(point_workers))
    monkeypatch.setenv("REPRO_WORKERS", "1")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "differential")
    config.reload_flags()
    context = RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))
    set_context(context)
    try:
        app = build_application("black-scholes", context=context, elements_per_gpu=128)
        app.run(iterations)
        checksum = app.checksum()
        state = {
            name: value.to_numpy()
            for name, value in vars(app).items()
            if isinstance(value, cn_ndarray)
        }
        sim = context.legion.simulated_seconds
    finally:
        set_context(None)
    return context, state, checksum, sim


class TestEagerBatching:
    def test_eager_launches_batch_and_match_unbatched(self, monkeypatch):
        ctx_plain, state_plain, checksum_plain, sim_plain = _run_bs(
            monkeypatch, trace=False, point_workers=1, batching=False
        )
        ctx, state, checksum, sim = _run_bs(
            monkeypatch, trace=False, point_workers=1, batching=True
        )
        assert ctx_plain.profiler.batched_launches == 0
        assert ctx.profiler.batched_launches > 0
        # Width 1: exactly one merged call per batched launch.
        assert ctx.profiler.batched_calls == ctx.profiler.batched_launches
        assert checksum == checksum_plain
        assert sim == sim_plain
        for name in state_plain:
            assert np.array_equal(state[name], state_plain[name]), name

    def test_eager_batching_ignores_point_workers(self, monkeypatch):
        _ctx_plain, state_plain, checksum_plain, sim_plain = _run_bs(
            monkeypatch, trace=False, point_workers=1, batching=False
        )
        ctx, state, checksum, sim = _run_bs(
            monkeypatch, trace=False, point_workers=4, batching=True
        )
        assert ctx.profiler.batched_launches > 0
        # Eager launches are one chunk in the parent at any point width:
        # one merged call per batched launch.
        assert ctx.profiler.batched_calls == ctx.profiler.batched_launches
        assert ctx.profiler.point_launches == 0
        assert checksum == checksum_plain
        assert sim == sim_plain
        for name in state_plain:
            assert np.array_equal(state[name], state_plain[name]), name

    def test_baseline_mode_does_not_batch(self, monkeypatch):
        """``REPRO_HOTPATH_CACHE=0`` (the seed baseline) stays per-rank."""
        ctx, _state, checksum, _sim = _run_bs(
            monkeypatch, trace=False, point_workers=1, batching=True, hotpath="0"
        )
        assert ctx.profiler.batched_launches == 0
        assert np.isfinite(checksum)


class TestReplayBatching:
    def test_replay_batches_and_point_dispatch_splits(self, monkeypatch):
        _ctx_plain, state_plain, checksum_plain, sim_plain = _run_bs(
            monkeypatch, trace=True, point_workers=1, batching=False
        )
        ctx_serial, state_serial, checksum_serial, sim_serial = _run_bs(
            monkeypatch, trace=True, point_workers=1, batching=True
        )
        ctx_split, state_split, checksum_split, sim_split = _run_bs(
            monkeypatch, trace=True, point_workers=4, batching=True
        )
        assert ctx_serial.profiler.trace_hits > 0
        assert ctx_serial.profiler.batched_launches > 0
        assert ctx_split.profiler.trace_hits > 0
        # The composition PR-4 precluded: batched launches now split.
        assert ctx_split.profiler.point_launches > 0
        assert ctx_split.profiler.batched_calls > ctx_split.profiler.batched_launches
        for checksum, sim, state in (
            (checksum_serial, sim_serial, state_serial),
            (checksum_split, sim_split, state_split),
        ):
            assert checksum == checksum_plain
            assert sim == sim_plain
            for name in state_plain:
                assert np.array_equal(state[name], state_plain[name]), name

    def test_recorder_marks_elementwise_steps(self, monkeypatch):
        from repro.runtime.trace import CompiledStep

        ctx, _state, _checksum, _sim = _run_bs(
            monkeypatch, trace=True, point_workers=1, batching=True
        )
        plans = list(ctx.diffuse.trace.cache.values())
        assert plans
        compiled = [
            step
            for plan in plans
            for step in plan.steps
            if isinstance(step, CompiledStep)
        ]
        assert compiled
        elementwise = [step for step in compiled if step.elementwise]
        assert elementwise
        # Elementwise steps keep their real rank count (they used to be
        # collapsed to a single whole-domain rank).
        assert all(step.num_points > 1 for step in elementwise)
        assert all(
            len(table) == step.num_points
            for step in elementwise
            for _name, _slot, _red, table in step.buffer_bindings
        )
