"""The cold path: the super-kernel gate and uninitialised field allocation.

Two mechanisms keep a program that runs only a few times from paying for
machinery it never amortises, and both must be invisible to every
observable:

* **The gate** (``superkernel.lower_when_earned``): a captured plan is
  lowered to super-kernels at its first replay while fewer than ``N``
  speculative lowerings are outstanding, and at its ``B``-th replay
  otherwise.  Tested with ``N``/``B`` shrunk so a handful of small
  programs walk through every transition.
* **Allocation** (``RegionManager.field``): a field whose allocating
  launch defines every element before anything loads one skips the
  zero-fill.  Tested under the poisoned-allocation lever of
  ``conftest.py`` — uninitialised storage arrives as NaN bytes — against
  runs where every field is zero-filled: the harness applications,
  generated churn-style programs, and the cases that must *stay*
  zero-filled.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.frontend.cunumeric as cn
from repro import config
from repro.apps.base import build_application
from repro.experiments.harness import scaled_machine
from repro.frontend.cunumeric.array import ndarray as cn_ndarray
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.kernel import codegen
from repro.runtime import procpool
from repro.runtime import superkernel as superkernel_module
from repro.runtime.region import RegionManager
from repro.runtime.superkernel import SuperKernelStep

# The program generator of the ``stream-churn`` benchmark workload: one
# listing interpreter for the frontend under test and the NumPy oracle.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))
from e2ebench import churn  # noqa: E402


@pytest.fixture(autouse=True)
def _reload_flags_after():
    yield
    config.reload_flags()


#: Substrate name -> the flags that select it: inline, plan-level
#: threads, and plan-level threads with rank chunks in worker processes.
#: Every test here pins the hot-path caches on: the seed path (a CI leg
#: runs the whole suite under ``REPRO_HOTPATH_CACHE=0``) never skips a
#: fill, and has its own test.
SUBSTRATES = {
    name: dict(REPRO_HOTPATH_CACHE=1, REPRO_WORKERS=workers, REPRO_POINT_WORKERS=points)
    for name, workers, points in (("inline", 1, 1), ("thread", 4, 1), ("process", 4, 4))
}


# ----------------------------------------------------------------------
# The gate.
# ----------------------------------------------------------------------
def _chain(length: int, x) -> float:
    """A program whose one epoch captures as a plan with a fusible unit.

    ``length`` multiply-adds ending in a read-back: chains of different
    lengths fuse into different kernels, hence different plans.
    """
    y = x
    for _ in range(length):
        y = y * 1.5 + 0.25
    return float(y.sum())


class _GateSession:
    """One context running :func:`_chain` programs, with the plans exposed."""

    def __init__(self) -> None:
        self.context = RuntimeContext(num_gpus=4, fusion=True)
        set_context(self.context)
        self.x = cn.array(np.linspace(0.5, 2.0, 64))
        self.scheduler = self.context.legion.plan_scheduler
        self._plans = {}

    def run(self, length: int, iterations: int = 1):
        """Run one program ``iterations`` times; returns (results, seconds)."""
        known = set(map(id, self.context.diffuse.trace.cache.values()))
        results, seconds = [], []
        for _ in range(iterations):
            before = self.context.simulated_seconds
            self.context.begin_iteration()
            results.append(_chain(length, self.x))
            seconds.append(self.context.simulated_seconds - before)
        for plan in self.context.diffuse.trace.cache.values():
            if id(plan) not in known:
                self._plans[length] = plan
        return results, seconds

    def plan(self, length: int):
        return self._plans[length]

    def capture(self, length: int) -> None:
        """Run a program until its plan is captured: no replay yet.

        The first run is the captured miss, unless the adaptive fusion
        window grew under it; then the second is.
        """
        while length not in self._plans:
            self.run(length)
        assert self.plan(length).replays == 0


@pytest.fixture
def gate(monkeypatch, flags):
    """A gate session with ``N`` = 2 slots and break-even at ``B`` = 3."""
    monkeypatch.setattr(superkernel_module, "SPECULATIVE_LOWERINGS", 2)
    monkeypatch.setattr(superkernel_module, "BREAK_EVEN_REPLAYS", 3)
    flags(REPRO_TRACE=1, **SUBSTRATES["inline"])
    yield _GateSession()
    set_context(None)


def _lowered(plan) -> bool:
    return isinstance(plan.superkernel, type(plan))


class TestSuperkernelGate:
    def test_lowers_at_first_replay_while_a_slot_is_free(self, gate):
        gate.capture(2)
        assert gate.plan(2).superkernel is None
        gate.run(2)
        plan = gate.plan(2)
        assert plan.replays == 1 and _lowered(plan)
        assert plan.speculative is gate.scheduler
        assert gate.scheduler.speculating == 1
        assert gate.context.profiler.snapshot()["decline_plan_not_hot"] == 0

    def test_without_a_slot_a_plan_lowers_at_exactly_its_break_even_replay(self, gate):
        for length in (2, 3):  # two plans that never reach B take both slots
            gate.capture(length)
            gate.run(length)
            assert _lowered(gate.plan(length))
        assert gate.scheduler.speculating == 2

        gate.capture(4)
        profiler = gate.context.profiler
        fusions = profiler.superkernel_fusions
        results, seconds = gate.run(4, 2)  # replays 1 and 2: un-lowered
        plan = gate.plan(4)
        assert plan.replays == 2 and plan.superkernel is None
        assert profiler.snapshot()["decline_plan_not_hot"] == 2
        assert profiler.superkernel_fusions == fusions

        more_results, more_seconds = gate.run(4, 3)  # replay 3 = B lowers it
        assert _lowered(plan) and plan.speculative is None
        assert profiler.superkernel_fusions == fusions + 1
        assert profiler.snapshot()["decline_plan_not_hot"] == 2
        assert gate.scheduler.speculating == 2  # bought at break-even: no slot
        # Bit-identical before and after the lowering.
        assert len(set(results + more_results)) == 1
        assert len(set(seconds + more_seconds)) == 1

    def test_reaching_break_even_returns_the_slot(self, gate):
        gate.capture(2)
        gate.run(2, 2)  # replays 1 and 2
        plan = gate.plan(2)
        assert plan.speculative is gate.scheduler and gate.scheduler.speculating == 1
        gate.run(2)  # replay 3 = B
        assert plan.speculative is None and gate.scheduler.speculating == 0
        assert _lowered(plan)

    def test_plans_with_nothing_to_fuse_take_no_slot(self, gate):
        # One element-wise launch: a single merged call already.
        for _ in range(4):
            (gate.x * 3.0 + 1.0).to_numpy()
        assert gate.context.profiler.trace_hits == 3
        assert gate.scheduler.speculating == 0
        assert gate.context.profiler.snapshot()["decline_plan_not_hot"] == 0

    def test_reload_flags_returns_the_slots_of_retired_lowerings(self, gate):
        for length in (2, 3):
            gate.capture(length)
            gate.run(length)
        assert gate.scheduler.speculating == 2
        config.reload_flags()
        assert gate.scheduler.speculating == 0
        assert all(gate.plan(n).superkernel is None for n in (2, 3))
        assert all(gate.plan(n).speculative is None for n in (2, 3))
        gate.run(2)  # lowers again, speculatively: replay 2 < B
        assert _lowered(gate.plan(2)) and gate.scheduler.speculating == 1

    def test_late_lowering_is_verified_under_the_differential_backend(
        self, gate, flags, monkeypatch
    ):
        flags(REPRO_KERNEL_BACKEND="differential")
        verified = []
        run_verify = superkernel_module._run_verify
        monkeypatch.setattr(
            superkernel_module,
            "_run_verify",
            lambda step, *args: verified.append(step) or run_verify(step, *args),
        )
        for length in (2, 3):
            gate.capture(length)
            gate.run(length)
        spent = len(verified)
        gate.capture(4)
        gate.run(4, 2)
        assert len(verified) == spent  # un-lowered replays: nothing to verify
        gate.run(4, 2)  # lowered at replay 3, replayed fused at 3 and 4
        units = [s for s in gate.plan(4).superkernel.steps if isinstance(s, SuperKernelStep)]
        assert units and all(unit.verify for unit in units)
        assert verified[spent:] == units * 2

    def test_late_lowering_leaves_one_resident_registration(
        self, monkeypatch, flags, force_dispatch, shm_entries
    ):
        monkeypatch.setattr(superkernel_module, "SPECULATIVE_LOWERINGS", 0)
        monkeypatch.setattr(superkernel_module, "BREAK_EVEN_REPLAYS", 3)
        flags(REPRO_TRACE=1, **SUBSTRATES["process"])
        # Collect earlier tests' garbage first: an arena it still holds
        # would otherwise unlink whenever the collector runs mid-test.
        gc.collect()
        shm_before = shm_entries()
        session = _GateSession()
        try:
            session.capture(3)
            results, _ = session.run(3, 2)
            plan = session.plan(3)
            assert plan.superkernel is None and plan.resident is not None
            assert plan.resident.steps  # the un-lowered plan replayed resident
            assert session.context.profiler.point_process_chunks > 0
            more, _ = session.run(3, 2)
            assert _lowered(plan)
            registered = [p for p in (plan, plan.superkernel) if p.resident is not None]
            assert registered == [plan.superkernel]
            assert len(set(results + more)) == 1
        finally:
            set_context(None)
            session.context.legion.regions.close_arena()
            procpool.shutdown_process_pool()
        assert shm_entries() == shm_before


# ----------------------------------------------------------------------
# Uninitialised allocation, under the poison lever.
# ----------------------------------------------------------------------
#: (kernel backend, REPRO_TRACE, substrate) corners: both backends, trace
#: on and off and all three substrates, without the full cube per program.
POISON_CORNERS = [
    ("codegen", 1, "inline"),
    ("codegen", 0, "inline"),
    ("differential", 1, "thread"),
    ("differential", 0, "thread"),
    ("codegen", 1, "process"),
    ("differential", 1, "process"),
]

#: The nine applications of the wall-clock harness at its smoke sizes.
HARNESS_APPS = [
    ("cg", 4, dict(grid_points_per_gpu=24)),
    ("jacobi", 4, dict(rows_per_gpu=64)),
    ("black-scholes", 4, dict(elements_per_gpu=512)),
    ("two-matvec", 4, dict(rows_per_gpu=32)),
    ("gmg", 4, dict(grid_points_per_gpu=12)),
    ("bicgstab", 4, dict(grid_points_per_gpu=24)),
    ("cfd", 4, dict(points_per_gpu=24, pressure_iterations=2)),
    ("torchswe", 4, dict(points_per_gpu=24)),
    ("torchswe-manual", 4, dict(points_per_gpu=64)),
]


def _run_app(app_name, num_gpus, kwargs, iterations=4):
    """(array state, checksum, per-iteration seconds, total seconds, profiler)."""
    context = RuntimeContext(
        num_gpus=num_gpus, fusion=True, machine=scaled_machine(num_gpus, 1e-4)
    )
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
    return (
        state, checksum, context.profiler.iteration_seconds(),
        context.legion.simulated_seconds, context.profiler,
    )


def _reference(flags, trace, run):
    """``run()`` with every field zero-filled, on the plainest configuration.

    Codegen, inline; ``REPRO_TRACE`` as in the run it stands for (a
    deferred epoch meets a differently grown fusion window in warm-up,
    so warm-up seconds differ between trace on and off).
    """
    flags(REPRO_KERNEL_BACKEND="codegen", REPRO_TRACE=trace, **SUBSTRATES["inline"])
    with pytest.MonkeyPatch.context() as patch:
        field = RegionManager.field
        patch.setattr(
            RegionManager, "field", lambda self, store, uninitialised=False: field(self, store)
        )
        return run()


@pytest.mark.parametrize("app_name, num_gpus, kwargs", HARNESS_APPS, ids=[a[0] for a in HARNESS_APPS])
def test_harness_apps_are_bit_identical_under_poison(
    app_name, num_gpus, kwargs, flags, force_dispatch, poison_fields
):
    references = {}
    for backend, trace, substrate in POISON_CORNERS:
        if trace not in references:
            references[trace] = _reference(
                flags, trace, lambda: _run_app(app_name, num_gpus, kwargs)
            )
            assert references[trace][-1].fields_uninitialised == 0
        state_ref, checksum_ref, iterations_ref, seconds_ref, _ = references[trace]
        label = f"{app_name} {backend} trace={trace} {substrate}"
        flags(REPRO_KERNEL_BACKEND=backend, REPRO_TRACE=trace, **SUBSTRATES[substrate])
        state, checksum, iterations, seconds, profiler = _run_app(app_name, num_gpus, kwargs)
        assert profiler.fields_uninitialised > 0, label
        assert checksum == checksum_ref, label
        assert set(state) == set(state_ref), label
        for name, expected in state_ref.items():
            assert np.array_equal(state[name], expected, equal_nan=True), (label, name)
        assert iterations == iterations_ref, label
        assert seconds == seconds_ref, label


#: Generated churn-style programs: chains, ``where``, shifted slices,
#: in-place updates, mid-chain reductions (``e2ebench/churn.py``).
CHURN_PROGRAMS = 24
CHURN_RANKS, CHURN_ELEMENTS = 4, 4 * 40
CHURN_ITERATIONS = 4  # a captured miss (two when the window grew under the first), then replays


def _run_churn(inputs, programs):
    """(results per program and iteration, seconds per program, profiler)."""
    context = RuntimeContext(num_gpus=CHURN_RANKS, fusion=True)
    set_context(context)
    try:
        arrays = [cn.array(data) for data in inputs]
        results, seconds = [], []
        for program in programs:
            before = context.simulated_seconds
            row = []
            for _ in range(CHURN_ITERATIONS):
                context.begin_iteration()
                row.append(churn.evaluate(cn, program, arrays))
                context.flush()
            results.append(row)
            seconds.append(context.simulated_seconds - before)
    finally:
        set_context(None)
    return results, seconds, context.profiler


@pytest.fixture(scope="module")
def churn_corpus():
    inputs, programs = churn.generate_session(7, CHURN_ELEMENTS, CHURN_PROGRAMS)
    oracle = [churn.evaluate(np, program, inputs) for program in programs]
    return inputs, programs, oracle


#: Every corner at the shipped block size (40 elements per rank are one
#: block), and the inline ones again at 8 elements per block (five): the
#: block loop is a property of the closure, not of the substrate.
CHURN_CASES = [(corner, codegen.BLOCK) for corner in POISON_CORNERS] + [
    (corner, 8) for corner in POISON_CORNERS if corner[2] == "inline"
]


@pytest.mark.parametrize(
    "corner, block",
    CHURN_CASES,
    ids=["-".join(map(str, corner + (f"block{block}",))) for corner, block in CHURN_CASES],
)
def test_generated_programs_are_bit_identical_under_poison(
    corner, block, churn_corpus, monkeypatch, flags, force_dispatch, poison_fields
):
    backend, trace, substrate = corner
    inputs, programs, oracle = churn_corpus
    monkeypatch.setattr(codegen, "BLOCK", block)
    codegen.clear_function_cache()
    results_ref, seconds_ref, _ = _reference(flags, trace, lambda: _run_churn(inputs, programs))
    flags(REPRO_KERNEL_BACKEND=backend, REPRO_TRACE=trace, **SUBSTRATES[substrate])
    results, seconds, profiler = _run_churn(inputs, programs)
    codegen.clear_function_cache()
    assert profiler.fields_uninitialised > profiler.fields_zero_filled > 0
    assert results == results_ref
    assert seconds == seconds_ref
    for row, want in zip(results, oracle):
        assert len(set(row)) == 1
        assert row[0] == pytest.approx(want, rel=1e-9)


class TestFieldsThatStayZeroFilled:
    """What the rule must decline, by counter and by value (poison armed)."""

    @pytest.fixture
    def context(self, flags, poison_fields):
        flags(REPRO_KERNEL_BACKEND="codegen", REPRO_TRACE=1, **SUBSTRATES["inline"])
        context = RuntimeContext(num_gpus=4, fusion=True)
        set_context(context)
        yield context
        set_context(None)

    @staticmethod
    def _allocations(context, body):
        """(uninitialised, zero-filled) allocations ``body()`` caused."""
        profiler = context.profiler
        before = profiler.fields_uninitialised, profiler.fields_zero_filled
        body()
        context.flush()
        return (
            profiler.fields_uninitialised - before[0],
            profiler.fields_zero_filled - before[1],
        )

    def test_covering_write_is_uninitialised(self, context):
        """The positive control: the lever poisons, the kernel overwrites."""
        x = cn.array(np.arange(16.0))
        out = []
        assert self._allocations(context, lambda: out.append(x * 2.0)) == (1, 0)
        assert np.array_equal(out[0].to_numpy(), 2.0 * np.arange(16.0))

    def test_non_covering_slice_write_then_whole_read(self, context):
        x = cn.array(np.arange(1.0, 17.0))
        y = cn.empty(16)

        def body():
            y[1:] = x[:-1]

        assert self._allocations(context, body) == (0, 1)
        assert np.array_equal(y.to_numpy(), np.concatenate(([0.0], np.arange(1.0, 16.0))))

    def test_store_first_touched_by_a_reader(self, context):
        fresh = cn.empty(16)
        out = []
        # ``fresh`` is read first (zero-filled); the sum is defined whole.
        assert self._allocations(context, lambda: out.append(fresh + 1.0)) == (1, 1)
        assert np.array_equal(out[0].to_numpy(), np.ones(16))

    def test_read_modify_write_of_a_fresh_store(self, context):
        fresh = cn.empty(16)

        def body():
            nonlocal fresh
            fresh += 1.0

        assert self._allocations(context, body) == (0, 1)
        assert np.array_equal(fresh.to_numpy(), np.ones(16))

    def test_store_first_touched_by_an_opaque_operator(self, context):
        matrix = cn.array(np.arange(64.0).reshape(8, 8))
        vector = cn.array(np.ones(8))
        out = []
        uninitialised, zero_filled = self._allocations(
            context, lambda: out.append(cn.linalg.matvec(matrix, vector))
        )
        assert (uninitialised, zero_filled) == (0, 1)
        assert np.array_equal(out[0].to_numpy(), np.arange(64.0).reshape(8, 8).sum(axis=1))

    def test_rank0_reduction_target(self, context):
        x = cn.array(np.arange(16.0))
        out = []
        assert self._allocations(context, lambda: out.append(x.sum())) == (0, 1)
        assert float(out[0]) == 120.0

    def test_second_view_of_the_store_in_one_launch(self, context):
        """``y[:] = y[::-1]``-style launches bind two views of one store."""
        y = cn.empty(16)

        def body():
            y[:8] = y[8:]

        assert self._allocations(context, body) == (0, 1)
        assert np.array_equal(y.to_numpy(), np.zeros(16))

    def test_seed_path_never_skips_the_fill(self, flags, poison_fields):
        flags(REPRO_HOTPATH_CACHE=0, REPRO_TRACE=0)
        context = RuntimeContext(num_gpus=4, fusion=True)
        set_context(context)
        try:
            assert np.array_equal((cn.array(np.arange(8.0)) + 1.0).to_numpy(), np.arange(1.0, 9.0))
        finally:
            set_context(None)
        assert context.profiler.fields_uninitialised == 0
        assert context.profiler.fields_zero_filled > 0


# ----------------------------------------------------------------------
# Every decline says why.
# ----------------------------------------------------------------------
def test_counters_tell_a_churning_session_from_a_hot_one(churn_corpus, flags):
    flags(REPRO_KERNEL_BACKEND="codegen", REPRO_TRACE=1, **SUBSTRATES["inline"])
    inputs, programs, _oracle = churn_corpus
    _results, _seconds, profiler = _run_churn(inputs, programs)
    snapshot = profiler.snapshot()
    assert snapshot["fields_uninitialised"] > 0
    assert snapshot["decline_plan_not_hot"] > 0

    *_rest, profiler = _run_app("cg", 4, dict(grid_points_per_gpu=24), iterations=10)
    snapshot = profiler.snapshot()
    assert snapshot["fields_uninitialised"] > 0
    assert snapshot["decline_plan_not_hot"] == 0
    assert snapshot["superkernel_calls"] > 0
