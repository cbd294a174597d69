"""An epoch is captured the first time it runs.

The first occurrence of an epoch runs as its own plan and pays the
miss-rate analysis and the compile time its window rounds charged, and
the plan it keeps records, per window round, the charge a memoization
hit on that window makes: what the second occurrence, fed through the
rounds, would pay.  For four harness apps and a generated
``stream-churn`` program these tests pin that

* no epoch misses twice, so an epoch replays from its second run;
* buffers and the simulated seconds of every iteration, the cold first
  one included, equal the untraced run and the seed path;
* a plan's analysis charges are the memoization-hit charge of each of
  its window rounds, in order, also when the rounds missed;
* an epoch that grew the adaptive window past its fingerprint is not
  captured, and every other missed epoch is;
* torchswe-manual's first epoch, entered from host-initialised fields,
  is never replayed for the next one.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

import repro.apps  # noqa: F401 - registers the applications
import repro.frontend.cunumeric as cn
from repro.apps.base import build_application
from repro.experiments.harness import scaled_machine
from repro.frontend.cunumeric.array import ndarray as cn_ndarray
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.fusion.engine import DiffuseRuntime
from repro.runtime.trace import AnalysisCharge, TraceController, TraceRecorder

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))
from e2ebench import churn  # noqa: E402


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


def _churn(context, iterations):
    """Two generated programs, each run ``iterations`` times."""
    inputs, programs = churn.generate_session(5, 4 * 64, 2)
    arrays = [cn.array(data) for data in inputs]
    values = []
    for program in programs:
        for _ in range(iterations):
            context.begin_iteration()
            values.append(churn.evaluate(cn, program, arrays))
            context.flush()
    return {"values": np.asarray(values, dtype=np.float64)}


#: program -> (runner, iterations).
PROGRAMS = {
    "cg": (_app("cg", grid_points_per_gpu=16), 5),
    "jacobi": (_app("jacobi", rows_per_gpu=48), 5),
    "black-scholes": (_app("black-scholes", elements_per_gpu=256), 5),
    "torchswe-manual": (_app("torchswe-manual", points_per_gpu=16), 5),
    "churn": (_churn, 3),
}

#: Programs whose first run grows the adaptive window past its epoch's
#: fingerprint.
GROWS_THE_WINDOW = ("black-scholes", "churn")


class _Spy:
    """What each missed epoch did, and the window rounds behind each plan."""

    def __init__(self, monkeypatch) -> None:
        #: Per missed epoch: (window fingerprint unchanged, plans captured).
        self.misses = []
        #: Per captured plan: (plan, [(analysed tasks, memoization hit)]).
        self.plans = []
        self._rounds = []
        boundary = TraceController.boundary
        charge = DiffuseRuntime._charge_analysis
        build = TraceRecorder.build_plan
        spy = self

        def spied_boundary(controller):
            tasks, size = controller.pending, controller.engine.window.size
            # Round fences drain the window: the fingerprint saturates at
            # the longest fence-free run.
            run = controller.longest_run
            profiler = controller.engine.runtime.profiler
            hits, captured = profiler.trace_hits, controller.captured_plans
            spy._rounds = []
            boundary(controller)
            if tasks and profiler.trace_hits == hits:
                grown = controller.engine.window.size
                spy.misses.append(
                    (min(size, run) == min(grown, run), controller.captured_plans - captured)
                )

        def spied_charge(engine, analyzed_tasks, replay):
            spy._rounds.append((analyzed_tasks, replay))
            charge(engine, analyzed_tasks, replay)

        def spied_build(recorder, plan, stats_deltas):
            kept = build(recorder, plan, stats_deltas)
            spy.plans.append((kept, spy._rounds))
            return kept

        monkeypatch.setattr(TraceController, "boundary", spied_boundary)
        monkeypatch.setattr(DiffuseRuntime, "_charge_analysis", spied_charge)
        monkeypatch.setattr(TraceRecorder, "build_plan", spied_build)


def _run(flags, monkeypatch, program, trace="1", hotpath="1"):
    """Run ``program``; returns (context, state, per-iteration seconds, spy)."""
    flags(REPRO_TRACE=trace, REPRO_HOTPATH_CACHE=hotpath)
    runner, iterations = PROGRAMS[program]
    spy = _Spy(monkeypatch)
    context = RuntimeContext(num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4))
    set_context(context)
    try:
        state = runner(context, iterations)
    finally:
        set_context(None)
    return context, state, context.profiler.iteration_seconds(), spy


@pytest.mark.parametrize("program", list(PROGRAMS))
class TestFirstRunCapture:
    def test_no_epoch_misses_twice(self, flags, monkeypatch, program):
        context, _state, _seconds, spy = _run(flags, monkeypatch, program)
        profiler = context.profiler
        assert set(context.diffuse.trace.misses.values()) == {1}
        assert profiler.first_replay_run == 2
        assert profiler.trace_hits > 0
        assert profiler.snapshot()["plans_captured_cold"] > 0

    def test_buffers_and_seconds_match_untraced_and_seed_path(
        self, flags, monkeypatch, program
    ):
        _ctx, state, seconds, _spy = _run(flags, monkeypatch, program)
        for trace, hotpath in (("0", "1"), ("0", "0")):
            _ctx, other_state, other_seconds, _spy = _run(
                flags, monkeypatch, program, trace, hotpath
            )
            assert set(state) == set(other_state)
            for name, value in other_state.items():
                assert state[name].tobytes() == value.tobytes(), name
            assert seconds == other_seconds

    def test_plans_charge_what_a_memoization_hit_charges(self, flags, monkeypatch, program):
        context, _state, _seconds, spy = _run(flags, monkeypatch, program)
        rate = context.diffuse.config.replay_seconds_per_task
        cold = [rounds for _plan, rounds in spy.plans if not all(hit for _n, hit in rounds)]
        assert len(cold) == context.profiler.plans_captured_cold > 0
        for plan, rounds in spy.plans:
            charges = [step.seconds for step in plan.steps if isinstance(step, AnalysisCharge)]
            assert charges == [rate * tasks for tasks, _hit in rounds]

    def test_an_epoch_that_grew_the_window_is_not_captured(
        self, flags, monkeypatch, program
    ):
        _context, _state, _seconds, spy = _run(flags, monkeypatch, program)
        assert spy.misses
        for kept, captured in spy.misses:
            assert captured == int(kept)
        assert ((False, 0) in spy.misses) == (program in GROWS_THE_WINDOW)


def test_torchswe_manual_first_epoch_is_never_served_to_the_next(flags, monkeypatch):
    """Its first epoch enters from host-initialised fields: a key of its
    own, captured and never replayed; the second epoch misses, is
    captured, and replays from the third on."""
    context, _state, _seconds, spy = _run(flags, monkeypatch, "torchswe-manual")
    assert spy.misses == [(True, 1), (True, 1)]
    (first, _rounds), (steady, _rounds) = spy.plans
    assert first.replays == 0
    assert steady.replays == context.profiler.trace_hits == PROGRAMS["torchswe-manual"][1] - 2
    assert context.profiler.snapshot()["plans_never_replayed"] == 1
