"""The one simulated-time model: every launch is charged when it runs.

Each launch adds its modelled seconds (kernel + communication + launch
overhead) to the runtime's simulated clock and to the current
iteration the moment it executes, eager or replayed; analysis and
compile charges add to both the same way.  Independent launches — the
two mat-vecs of a ``two-matvec`` epoch, a dependence level of width 2 —
therefore cost the sum of their times, host accesses charge nothing,
and an iteration's seconds are exactly the charges made while it was
current.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.apps.base import build_application
from repro.experiments.harness import scaled_machine
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.ir.partition import Replication, natural_tiling
from repro.ir.privilege import Privilege, ReductionOp
from repro.ir.task import IndexTask, StoreArg
from repro.runtime.machine import MachineConfig
from repro.runtime.profiler import Profiler
from repro.runtime.runtime import LegionRuntime


@pytest.fixture(autouse=True)
def _reload_flags_after():
    yield
    config.reload_flags()


# ----------------------------------------------------------------------
# The runtime: launches charge at submission, host accesses are free.
# ----------------------------------------------------------------------
def _multiply(launch, a, b, out):
    part = natural_tiling(a.shape, launch)
    return IndexTask("multiply", launch, [
        StoreArg(a, part, Privilege.READ),
        StoreArg(b, part, Privilege.READ),
        StoreArg(out, part, Privilege.WRITE),
    ])


def _sum(launch, data, result):
    return IndexTask("sum_reduce", launch, [
        StoreArg(data, natural_tiling(data.shape, launch), Privilege.READ),
        StoreArg(result, Replication(), Privilege.REDUCE, ReductionOp.ADD),
    ])


#: The runtime's host-side accesses, each applied to an array and a scalar.
HOST_ACCESSES = {
    "read_scalar": lambda runtime, array, scalar: runtime.read_scalar(scalar),
    "write_scalar": lambda runtime, array, scalar: runtime.write_scalar(scalar, 2.0),
    "attach_array": lambda runtime, array, scalar: runtime.attach_array(array, np.ones(16)),
    "read_array": lambda runtime, array, scalar: runtime.read_array(array),
    "fill": lambda runtime, array, scalar: runtime.fill(array, 3.0),
}


class TestRuntimeCharges:
    def _runtime(self, store_manager, launch4):
        runtime = LegionRuntime(MachineConfig(num_gpus=4))
        a, b, c, d = (store_manager.create_store((16,)) for _ in range(4))
        runtime.attach_array(a, np.arange(16, dtype=np.float64))
        runtime.attach_array(b, np.full(16, 5.0))
        runtime.profiler.begin_iteration()
        return runtime, (a, b, c, d)

    @pytest.mark.parametrize("access", list(HOST_ACCESSES))
    def test_host_access_charges_nothing(self, access, store_manager, launch4):
        runtime, (a, b, c, _d) = self._runtime(store_manager, launch4)
        scalar = store_manager.create_scalar_store()
        runtime.submit(_multiply(launch4, a, b, c))
        runtime.submit(_sum(launch4, c, scalar))
        iteration = runtime.profiler.iterations[-1]
        simulated, seconds = runtime.simulated_seconds, iteration.seconds
        records = len(runtime.profiler.records)

        HOST_ACCESSES[access](runtime, c, scalar)
        assert runtime.simulated_seconds == simulated
        assert iteration.seconds == seconds
        assert len(runtime.profiler.records) == records

        # The next launch is charged on top, at once and in full.
        charged = runtime.submit(_multiply(launch4, a, c, b))
        assert charged > 0.0
        assert runtime.simulated_seconds == simulated + charged
        assert iteration.seconds == seconds + charged

    def test_independent_launches_charge_the_sum(self, store_manager, launch4):
        """No hazard between the two launches, and still no discount."""
        runtime, (a, b, c, d) = self._runtime(store_manager, launch4)
        first = runtime.submit(_multiply(launch4, a, a, c))
        assert runtime.simulated_seconds == first
        second = runtime.submit(_multiply(launch4, b, b, d))
        assert runtime.simulated_seconds == first + second
        assert runtime.profiler.iterations[-1].seconds == first + second
        assert [r.total_seconds for r in runtime.profiler.records] == [first, second]


def test_record_task_accumulates_into_the_current_iteration():
    profiler = Profiler()
    task = dict(
        constituents=1, kernel_seconds=0.002, communication_seconds=0.001,
        overhead_seconds=0.001, launches=1, fused=False,
    )
    # Outside an iteration a task is recorded but belongs to none.
    setup = profiler.record_task("setup", **task)
    assert setup.iteration is None
    profiler.begin_iteration()
    first = profiler.record_task("a", **task)
    second = profiler.record_task("b", replayed=True, **task)
    iteration = profiler.iterations[0]
    assert (first.iteration, second.iteration) == (0, 0)
    assert iteration.index_tasks == 2
    assert iteration.seconds == first.total_seconds + second.total_seconds
    assert profiler.iteration_seconds() == [iteration.seconds]


# ----------------------------------------------------------------------
# Applications: an iteration's seconds are the charges made during it.
# ----------------------------------------------------------------------
APPS = [
    ("cg", dict(grid_points_per_gpu=12)),
    ("jacobi", dict(rows_per_gpu=32)),
    ("black-scholes", dict(elements_per_gpu=128)),
    ("two-matvec", dict(rows_per_gpu=24)),
]
ITERATIONS = 6


def _context(monkeypatch, trace, workers=2):
    monkeypatch.setenv("REPRO_TRACE", trace)
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "codegen")
    config.reload_flags()
    context = RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))
    set_context(context)
    return context


def _run_intervals(context, app_name, kwargs):
    """Run the app one iteration at a time; per iteration, the charges seen.

    Returns ``(simulated, analysis, compile)`` deltas over the span during
    which each iteration was the profiler's current one.
    """
    app = build_application(app_name, context=context, **kwargs)
    profiler, legion = context.profiler, context.legion
    deltas = []
    for _ in range(ITERATIONS):
        before = (legion.simulated_seconds, profiler.analysis_seconds, profiler.compile_seconds)
        app.run(1)
        after = (legion.simulated_seconds, profiler.analysis_seconds, profiler.compile_seconds)
        deltas.append(tuple(end - start for start, end in zip(before, after)))
    return deltas


@pytest.mark.parametrize("trace", ["0", "1"], ids=["eager", "replay"])
@pytest.mark.parametrize("app_name,kwargs", APPS, ids=[a[0] for a in APPS])
def test_iteration_seconds_are_the_charges_made_during_it(app_name, kwargs, trace, monkeypatch):
    context = _context(monkeypatch, trace)
    try:
        deltas = _run_intervals(context, app_name, kwargs)
        profiler = context.profiler
        assert len(profiler.iterations) == ITERATIONS
        for iteration, (simulated, analysis, compile_) in zip(profiler.iterations, deltas):
            tasks = sum(
                r.total_seconds for r in profiler.records if r.iteration == iteration.index
            )
            assert iteration.index_tasks > 0
            # Only the summation order differs between the running clock
            # and the per-iteration totals.
            assert iteration.seconds == pytest.approx(simulated, rel=1e-12)
            assert iteration.seconds == pytest.approx(tasks + analysis + compile_, rel=1e-12)
        if trace == "1":
            assert profiler.trace_hits > 0
            assert any(r.replayed for r in profiler.records)
    finally:
        set_context(None)


def test_a_replayed_level_of_width_two_charges_both_steps(monkeypatch, force_dispatch):
    """The two mat-vecs of a replayed epoch share a dependence level and
    run concurrently on the pool, yet the iteration pays for both."""
    context = _context(monkeypatch, "1", workers=4)
    try:
        deltas = _run_intervals(context, "two-matvec", dict(rows_per_gpu=24))
        profiler = context.profiler
        assert profiler.plan_width_max == 2
        assert profiler.plan_dispatched_steps > 0
        replayed = [
            iteration for iteration in profiler.iterations
            if any(r.replayed and r.iteration == iteration.index for r in profiler.records)
        ]
        assert replayed
        for iteration in replayed:
            matvecs = [
                r.total_seconds for r in profiler.records
                if r.iteration == iteration.index and r.name == "gemv"
            ]
            assert len(matvecs) == 2
            simulated = deltas[iteration.index][0]
            assert simulated >= sum(matvecs) > max(matvecs)
            assert iteration.seconds == pytest.approx(simulated, rel=1e-12)
    finally:
        set_context(None)
