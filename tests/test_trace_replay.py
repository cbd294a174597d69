"""Trace capture/replay correctness and the deferred task stream.

The acceptance bar for the trace subsystem: with the differential kernel
backend, running each harness application with ``REPRO_TRACE=1`` must
produce *bitwise-identical* application state and *identical* simulated
seconds for every replayed iteration compared to ``REPRO_TRACE=0``, and
the profiler must report trace hits for every iterative app.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.apps.base import build_application
from repro.experiments.harness import scaled_machine
from repro.frontend.cunumeric.array import ndarray as cn_ndarray
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.fusion.engine import DiffuseRuntime, FusionConfig
from repro.ir.domain import Domain, Rect
from repro.ir.partition import Tiling, natural_tiling
from repro.ir.privilege import Privilege
from repro.ir.store import StoreManager
from repro.ir.task import DeferredTask, IndexTask, StoreArg
from repro.runtime.machine import MachineConfig
from repro.runtime.runtime import LegionRuntime

def _submit(engine, task):
    """Submit a hand-built index task the way a frontend submits a launch."""
    engine.submit(DeferredTask.of(task))


@pytest.fixture(autouse=True)
def _reload_flags_after():
    yield
    config.reload_flags()


def _run_app(app_name: str, trace: str, monkeypatch, iterations: int, **app_kwargs):
    """Run an application end to end; returns (context, state arrays, checksum)."""
    monkeypatch.setenv("REPRO_TRACE", trace)
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "differential")
    config.reload_flags()
    context = RuntimeContext(
        num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4)
    )
    set_context(context)
    try:
        app = build_application(app_name, context=context, **app_kwargs)
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


class TestTraceReplayDifferential:
    """Satellite: replayed epochs are bit-identical and time-identical."""

    APPS = [
        ("cg", dict(grid_points_per_gpu=16), 8),
        ("jacobi", dict(rows_per_gpu=48), 8),
        ("black-scholes", dict(elements_per_gpu=256), 10),
    ]

    @pytest.mark.parametrize("app_name,kwargs,iterations", APPS, ids=[a[0] for a in APPS])
    def test_replay_bitwise_identical(self, app_name, kwargs, iterations, monkeypatch):
        ctx_off, state_off, checksum_off = _run_app(
            app_name, "0", monkeypatch, iterations, **kwargs
        )
        ctx_on, state_on, checksum_on = _run_app(
            app_name, "1", monkeypatch, iterations, **kwargs
        )

        # The trace mode actually replayed epochs (and the differential
        # executor checked every replayed kernel invocation bit-for-bit).
        assert ctx_off.profiler.trace_hits == 0
        assert ctx_on.profiler.trace_hits > 0
        assert any(r.replayed for r in ctx_on.profiler.records)

        # Bitwise-identical application state and checksums.
        assert checksum_on == checksum_off
        assert set(state_on) == set(state_off)
        for name in state_off:
            assert np.array_equal(state_on[name], state_off[name]), name

        # Identical simulated seconds for every replayed iteration.
        first_replayed = min(
            r.iteration for r in ctx_on.profiler.records if r.replayed
        )
        seconds_off = ctx_off.profiler.iteration_seconds()
        seconds_on = ctx_on.profiler.iteration_seconds()
        assert len(seconds_off) == len(seconds_on) == iterations
        assert seconds_on[first_replayed:] == seconds_off[first_replayed:]

    @pytest.mark.parametrize("app_name,kwargs,iterations", APPS, ids=[a[0] for a in APPS])
    def test_replay_total_simulated_seconds_match_steady_state(
        self, app_name, kwargs, iterations, monkeypatch
    ):
        """Replayed iterations repeat the steady-state cost exactly."""
        ctx_on, _, _ = _run_app(app_name, "1", monkeypatch, iterations, **kwargs)
        records = ctx_on.profiler.records
        replayed_iters = sorted({r.iteration for r in records if r.replayed})
        assert replayed_iters, "no replayed iterations"
        seconds = ctx_on.profiler.iteration_seconds()
        # Every fully-replayed iteration costs exactly the same.
        fully_replayed = [
            i
            for i in replayed_iters
            if all(r.replayed for r in records if r.iteration == i)
        ]
        assert len(fully_replayed) >= 2
        assert len({seconds[i] for i in fully_replayed}) == 1


class TestTraceController:
    """Unit-level behaviour of the deferred stream and plan cache."""

    def _context(self):
        context = RuntimeContext(num_gpus=4, fusion=True)
        set_context(context)
        return context

    def test_trace_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        config.reload_flags()
        engine = DiffuseRuntime(runtime=LegionRuntime(MachineConfig(num_gpus=2)))
        assert engine.trace is not None and not engine.trace.capture

    def test_trace_requires_fusion_and_memoization(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        config.reload_flags()
        runtime = LegionRuntime(MachineConfig(num_gpus=2))
        assert DiffuseRuntime(runtime=runtime).trace.capture
        assert (
            DiffuseRuntime(
                runtime=LegionRuntime(MachineConfig(num_gpus=2)),
                config=FusionConfig(enable_fusion=False),
            ).trace
            is None
        )
        assert not (
            DiffuseRuntime(
                runtime=LegionRuntime(MachineConfig(num_gpus=2)),
                config=FusionConfig(enable_memoization=False),
            ).trace.capture
        )

    def _chain_epoch(self, manager, launch, inputs, scalar):
        """An epoch of two chained element-wise tasks with a scalar arg."""
        a, b = inputs
        t = manager.create_store((16,), name="t")
        out = manager.create_store((16,), name="out")
        # The application holds a handle to the result (like a frontend
        # ndarray would); the intermediate ``t`` is a true temporary.
        out.add_application_reference()
        part = natural_tiling((16,), launch)
        tasks = [
            IndexTask(
                "multiply_scalar",
                launch,
                [
                    StoreArg(a, part, Privilege.READ),
                    StoreArg(t, part, Privilege.WRITE),
                ],
                scalar_args=(scalar,),
            ),
            IndexTask(
                "add",
                launch,
                [
                    StoreArg(t, part, Privilege.READ),
                    StoreArg(b, part, Privilege.READ),
                    StoreArg(out, part, Privilege.WRITE),
                ],
            ),
        ]
        return tasks, out

    def test_scalars_rebound_on_replay(self, monkeypatch):
        """Replayed epochs pick up the current iteration's scalar values."""
        monkeypatch.setenv("REPRO_TRACE", "1")
        config.reload_flags()
        manager = StoreManager()
        launch = Domain((4,))
        runtime = LegionRuntime(MachineConfig(num_gpus=4))
        engine = DiffuseRuntime(runtime=runtime)
        assert engine.trace is not None

        a_data = np.arange(16, dtype=np.float64)
        b_data = np.ones(16)
        a = manager.create_store((16,), name="a")
        b = manager.create_store((16,), name="b")
        runtime.attach_array(a, a_data)
        runtime.attach_array(b, b_data)

        outs = []
        scalars = [2.0, 3.0, 5.0, 7.0]
        for scalar in scalars:
            tasks, out = self._chain_epoch(manager, launch, (a, b), scalar)
            for task in tasks:
                _submit(engine, task)
            engine.flush_window()
            outs.append((scalar, out))

        profiler = runtime.profiler
        assert profiler.trace_hits >= 2  # epochs 3+ replay the captured plan
        for scalar, out in outs:
            np.testing.assert_array_equal(
                runtime.read_array(out), a_data * scalar + b_data
            )

    def test_changed_entry_coherence_misses(self, monkeypatch):
        """A different entry layout must not replay a stale plan."""
        monkeypatch.setenv("REPRO_TRACE", "1")
        config.reload_flags()
        manager = StoreManager()
        launch = Domain((4,))
        runtime = LegionRuntime(MachineConfig(num_gpus=4))
        engine = DiffuseRuntime(runtime=runtime)

        a = manager.create_store((16,), name="a")
        b = manager.create_store((16,), name="b")
        runtime.attach_array(a, np.arange(16, dtype=np.float64))
        runtime.attach_array(b, np.ones(16))

        for _ in range(4):
            tasks, _ = self._chain_epoch(manager, launch, (a, b), 2.0)
            for task in tasks:
                _submit(engine, task)
            engine.flush_window()
        hits = runtime.profiler.trace_hits
        assert hits >= 1

        # Host write invalidates a's layout: the next epoch enters with a
        # different coherence state and must be re-recorded, not replayed.
        runtime.attach_array(a, np.arange(16, dtype=np.float64) * 10.0)
        misses_before = runtime.profiler.trace_misses
        tasks, out = self._chain_epoch(manager, launch, (a, b), 2.0)
        for task in tasks:
            _submit(engine, task)
        engine.flush_window()
        # The stream is isomorphic, but attach_array resets the
        # coherence state, which is part of the trace key; whether this
        # particular transition changes the key depends on the prior
        # layout — the correctness requirement is just that the result
        # is right.
        np.testing.assert_array_equal(
            runtime.read_array(out), np.arange(16) * 10.0 * 2.0 + 1.0
        )
        assert runtime.profiler.trace_misses >= misses_before

    def test_pending_stream_references_keep_stores_live(self, monkeypatch):
        """Buffered tasks hold liveness references on their stores."""
        monkeypatch.setenv("REPRO_TRACE", "1")
        config.reload_flags()
        manager = StoreManager()
        launch = Domain((4,))
        engine = DiffuseRuntime(runtime=LegionRuntime(MachineConfig(num_gpus=4)))
        a = manager.create_store((16,), name="a")
        out = manager.create_store((16,), name="out")
        part = natural_tiling((16,), launch)
        task = IndexTask(
            "copy",
            launch,
            [StoreArg(a, part, Privilege.READ), StoreArg(out, part, Privilege.WRITE)],
        )
        assert not a.has_live_application_references
        _submit(engine, task)
        assert a.has_live_application_references  # pending stream ref
        engine.flush_window()
        assert not a.has_live_application_references

    def test_epoch_limit_forces_boundary(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        config.reload_flags()
        import repro.runtime.trace as trace_mod

        monkeypatch.setattr(trace_mod, "EPOCH_TASK_LIMIT", 4)
        manager = StoreManager()
        launch = Domain((4,))
        runtime = LegionRuntime(MachineConfig(num_gpus=4))
        engine = DiffuseRuntime(runtime=runtime)
        a = manager.create_store((16,), name="a")
        runtime.attach_array(a, np.ones(16))
        part = natural_tiling((16,), launch)
        for _ in range(5):
            out = manager.create_store((16,), name="o")
            _submit(engine, 
                IndexTask(
                    "copy",
                    launch,
                    [
                        StoreArg(a, part, Privilege.READ),
                        StoreArg(out, part, Privilege.WRITE),
                    ],
                )
            )
        # The 4-task limit forced one mid-stream boundary.
        assert engine.trace.pending == 1
        assert runtime.profiler.total_index_tasks >= 1
        engine.flush_window()
        assert engine.trace.pending == 0


class TestWindowSizeFingerprint:
    """Regression: plans captured while the adaptive window was still
    growing must be re-captured once it has grown, instead of replaying
    the stale (smaller-window, more-launches) plan forever."""

    def _submit_chain(self, engine, manager, launch, part, src, length, scalar):
        tasks = []
        current = src
        for index in range(length):
            nxt = manager.create_store((16,), name=f"chain{index}")
            tasks.append(
                IndexTask(
                    "multiply_scalar",
                    launch,
                    [
                        StoreArg(current, part, Privilege.READ),
                        StoreArg(nxt, part, Privilege.WRITE),
                    ],
                    scalar_args=(scalar,),
                )
            )
            current = nxt
        current.add_application_reference()
        for task in tasks:
            _submit(engine, task)
        engine.flush_window()
        return current

    def _run(self, trace, monkeypatch, epochs=14):
        monkeypatch.setenv("REPRO_TRACE", trace)
        config.reload_flags()
        manager = StoreManager()
        launch = Domain((4,))
        part = natural_tiling((16,), launch)
        runtime = LegionRuntime(MachineConfig(num_gpus=4))
        engine = DiffuseRuntime(
            runtime=runtime,
            config=FusionConfig(initial_window_size=4, max_window_size=64),
        )
        src = manager.create_store((16,), name="src")
        src.add_application_reference()
        runtime.attach_array(src, np.ones(16))

        long_epoch_launches = []
        last = None
        for _ in range(epochs):
            runtime.profiler.begin_iteration()
            # A short fusible epoch grows the window on memoization hits...
            self._submit_chain(engine, manager, launch, part, src, 4, 1.01)
            # ...so the long fusible chain can be captured mid-growth.
            before = runtime.profiler.total_index_tasks
            last = self._submit_chain(engine, manager, launch, part, src, 20, 1.02)
            long_epoch_launches.append(runtime.profiler.total_index_tasks - before)
        return engine, runtime, long_epoch_launches, runtime.read_array(last)

    def test_long_chain_recaptures_after_window_growth(self, monkeypatch):
        engine, runtime, launches, data = self._run("1", monkeypatch)
        # Early epochs run (and may be captured) with a window still too
        # small for the whole chain; once the window has grown, the
        # fingerprinted key forces a re-capture of the optimal plan.
        assert launches[0] > 1
        assert launches[-1] == 1
        assert runtime.profiler.trace_hits > 0
        # At least two distinct plans were captured for the same stream.
        assert engine.trace.captured_plans >= 2

        # Steady state matches the eager pipeline's launch count and bits.
        _, _, eager_launches, eager_data = self._run("0", monkeypatch)
        assert launches[-1] == eager_launches[-1]
        np.testing.assert_array_equal(data, eager_data)


class TestFusionConfigCopied:
    """Regression: RuntimeContext must not mutate the caller's config."""

    def test_caller_config_not_mutated(self):
        shared = FusionConfig(enable_fusion=True)
        context = RuntimeContext(num_gpus=2, fusion=False, fusion_config=shared)
        assert shared.enable_fusion is True
        assert context.diffuse.config.enable_fusion is False

    def test_contexts_do_not_alias_config(self):
        shared = FusionConfig()
        fused = RuntimeContext(num_gpus=2, fusion=True, fusion_config=shared)
        unfused = RuntimeContext(num_gpus=2, fusion=False, fusion_config=shared)
        assert fused.diffuse.config.enable_fusion is True
        assert unfused.diffuse.config.enable_fusion is False
        assert fused.diffuse.config is not unfused.diffuse.config
        # And the second context's construction did not flip the first's.
        fused.diffuse.config.initial_window_size = 99
        assert shared.initial_window_size != 99


class TestProfilerTraceCounters:
    def test_counters_and_reset(self):
        from repro.runtime.profiler import Profiler

        profiler = Profiler()
        assert profiler.trace_hit_rate == 0.0
        profiler.record_trace_miss()
        profiler.record_trace_hit(5)
        profiler.record_trace_hit(7)
        assert profiler.trace_hits == 2
        assert profiler.trace_misses == 1
        assert profiler.trace_replayed_tasks == 12
        assert profiler.trace_hit_rate == pytest.approx(2 / 3)
        profiler.reset()
        assert profiler.trace_hits == 0
        assert profiler.trace_misses == 0
        assert profiler.trace_replayed_tasks == 0

    def test_records_carry_replayed_flag(self):
        from repro.runtime.profiler import Profiler

        profiler = Profiler()
        record = profiler.record_task(
            name="t",
            constituents=1,
            kernel_seconds=1.0,
            communication_seconds=0.0,
            overhead_seconds=0.0,
            launches=1,
            fused=False,
            replayed=True,
        )
        assert record.replayed is True
        assert profiler.records[0].replayed is True


class TestScalarPatternFlips:
    """Satellite: count re-records forced by scalar-pattern flips."""

    def test_flip_on_known_structure_is_counted(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_WORKERS", "1")
        monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "codegen")
        config.reload_flags()
        context = RuntimeContext(
            num_gpus=2, fusion=True, machine=scaled_machine(2, 1e-4)
        )
        set_context(context)
        try:
            import repro.frontend.cunumeric as cn

            x = cn.array(np.linspace(1.0, 2.0, 64), name="flip_x")

            def epoch(a, b):
                return (x * a + b).to_numpy()

            expected = lambda a, b: np.linspace(1.0, 2.0, 64) * a + b

            for _ in range(3):
                np.testing.assert_array_equal(epoch(2.0, 3.0), expected(2.0, 3.0))
            profiler = context.profiler
            assert profiler.scalar_pattern_flips == 0

            # ``b`` collides with ``a`` for one epoch: same stream
            # structure, different scalar equality pattern -> a miss
            # that is a flip, not a new stream.
            np.testing.assert_array_equal(epoch(2.0, 2.0), expected(2.0, 2.0))
            assert profiler.scalar_pattern_flips == 1

            # Back to the distinct-valued pattern: the originally
            # captured plan replays (values rebind), no new flip.
            hits_before = profiler.trace_hits
            np.testing.assert_array_equal(epoch(2.0, 5.0), expected(2.0, 5.0))
            assert profiler.scalar_pattern_flips == 1
            assert profiler.trace_hits == hits_before + 1
        finally:
            set_context(None)

    def test_distinct_structures_do_not_count_as_flips(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "codegen")
        config.reload_flags()
        context = RuntimeContext(
            num_gpus=2, fusion=True, machine=scaled_machine(2, 1e-4)
        )
        set_context(context)
        try:
            import repro.frontend.cunumeric as cn

            x = cn.array(np.linspace(0.5, 1.5, 64), name="nflip_x")
            (x * 2.0 + 3.0).to_numpy()          # structure A
            ((x + 1.0) * 4.0 - 2.0).to_numpy()  # structure B: new stream
            assert context.profiler.scalar_pattern_flips == 0
        finally:
            set_context(None)

    def test_counter_resets(self):
        from repro.runtime.profiler import Profiler

        profiler = Profiler()
        profiler.record_scalar_pattern_flip()
        assert profiler.scalar_pattern_flips == 1
        profiler.reset()
        assert profiler.scalar_pattern_flips == 0


class TestEpochKeyAdversarial:
    """The epoch key is built as tasks arrive; what may change after a
    submit — liveness, entry coherence, the scalar equality pattern — is
    still sampled at the boundary.

    Each case runs one engine-level program (a three-task chain
    ``out = (a * s1) * s2 + b`` per iteration, every created store held
    through an application handle the way a frontend array holds it)
    under ``REPRO_TRACE=1`` and ``REPRO_TRACE=0`` and asserts the trace
    counters exactly, plus bit-identical buffers and per-iteration
    simulated seconds against the untraced run.  An epoch is captured
    the first time it runs, so each perturbed epoch is a miss and a
    fresh capture, never a replay of the steady plan.
    """

    ITERATIONS = 7
    #: The iteration each case perturbs.
    ODD = 4

    def _drive(self, trace, monkeypatch, perturb, config_kwargs=None):
        monkeypatch.setenv("REPRO_TRACE", trace)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "differential")
        config.reload_flags()
        manager = StoreManager()
        launch = Domain((4,))
        runtime = LegionRuntime(MachineConfig(num_gpus=4))
        engine = DiffuseRuntime(runtime=runtime, config=FusionConfig(**(config_kwargs or {})))
        a = manager.create_store((16,), name="a")
        b = manager.create_store((16,), name="b")
        for store, data in ((a, np.arange(16.0)), (b, np.linspace(1.0, 2.0, 16))):
            store.add_application_reference()
            runtime.attach_array(store, data)
        natural = natural_tiling((16,), launch)

        def held(name):
            store = manager.create_store((16,), name=name)
            store.add_application_reference()
            return store

        outs = []
        for iteration in range(self.ITERATIONS):
            runtime.profiler.begin_iteration()
            odd = iteration == self.ODD
            s1, s2 = 1.5 + iteration, 0.25
            if odd and perturb == "flip":
                s2 = s1
            part = natural
            if odd and perturb == "partition":
                # The same tiles through a distinct (bounded) partition.
                part = Tiling.create((4,), bounds=Rect((0,), (16,)))
            t, u, out = held("t"), held("u"), held("out")
            _submit(engine, IndexTask(
                "multiply_scalar", launch,
                [StoreArg(a, part, Privilege.READ), StoreArg(t, part, Privilege.WRITE)],
                scalar_args=(s1,),
            ))
            if odd and perturb == "attach":
                # A host write to ``a`` while a buffered task reads it
                # forces a boundary, traced or not.
                engine.notify_host_write(a)
                assert engine.trace.pending == 0
                runtime.attach_array(a, np.arange(16.0) * 3.0)
            _submit(engine, IndexTask(
                "multiply_scalar", launch,
                [StoreArg(t, part, Privilege.READ), StoreArg(u, part, Privilege.WRITE)],
                scalar_args=(s2,),
            ))
            t.remove_application_reference()
            _submit(engine, IndexTask(
                "add", launch,
                [
                    StoreArg(u, part, Privilege.READ),
                    StoreArg(b, part, Privilege.READ),
                    StoreArg(out, part, Privilege.WRITE),
                ],
            ))
            u.remove_application_reference()
            if odd and perturb == "drop":
                # The application drops its result after submitting the
                # task that computes it: dead at the boundary.
                out.remove_application_reference()
            else:
                outs.append(out)
            engine.flush_window()

        profiler = runtime.profiler
        counts = dict(
            hits=profiler.trace_hits,
            misses=profiler.trace_misses,
            captures=engine.trace.captured_plans,
            flips=profiler.scalar_pattern_flips,
        )
        buffers = [runtime.read_array(store) for store in [a, b] + outs]
        return counts, buffers, profiler.iteration_seconds()

    def _check(self, monkeypatch, perturb, expected, config_kwargs=None):
        counts, buffers, seconds = self._drive("1", monkeypatch, perturb, config_kwargs)
        eager_counts, eager_buffers, eager_seconds = self._drive(
            "0", monkeypatch, perturb, config_kwargs
        )
        assert counts == expected
        assert eager_counts == dict(hits=0, misses=0, captures=0, flips=0)
        assert len(buffers) == len(eager_buffers)
        for traced, eager in zip(buffers, eager_buffers):
            assert traced.tobytes() == eager.tobytes()
        assert seconds == eager_seconds
        return counts

    def test_steady_chain(self, monkeypatch):
        """The baseline every case perturbs: one capture, then replays."""
        self._check(monkeypatch, None, dict(hits=6, misses=1, captures=1, flips=0))

    def test_handle_dropped_after_submit_misses(self, monkeypatch):
        """Liveness is sampled at the boundary, not when the task arrived."""
        self._check(monkeypatch, "drop", dict(hits=5, misses=2, captures=2, flips=0))

    def test_same_structure_over_another_partition_misses(self, monkeypatch):
        self._check(monkeypatch, "partition", dict(hits=5, misses=2, captures=2, flips=0))

    def test_epoch_split_by_the_task_limit(self, monkeypatch):
        """A two-task limit splits every three-task iteration in two
        epochs; a two-task window gives the untraced run the same rounds."""
        import repro.runtime.trace as trace_mod

        monkeypatch.setattr(trace_mod, "EPOCH_TASK_LIMIT", 2)
        self._check(
            monkeypatch, None, dict(hits=12, misses=2, captures=2, flips=0),
            config_kwargs=dict(initial_window_size=2, max_window_size=2),
        )

    def test_attach_mid_epoch_forces_a_boundary(self, monkeypatch):
        self._check(monkeypatch, "attach", dict(hits=5, misses=3, captures=3, flips=0))

    def test_scalar_equality_flip_is_counted(self, monkeypatch):
        self._check(monkeypatch, "flip", dict(hits=5, misses=2, captures=2, flips=1))
