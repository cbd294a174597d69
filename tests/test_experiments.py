"""Tests for the experiment harness and the shapes of the paper's results.

These use tiny problem sizes so the whole functional simulation runs in
seconds; the assertions check the *qualitative* claims of the paper
(speedup directions, task-count reductions, break-even behaviour), not
absolute numbers.
"""

import pytest

from repro.experiments import (
    ExperimentScale,
    default_scale_for,
    run_application_experiment,
    run_petsc_experiment,
    scaled_machine,
)
from repro.experiments.figures import (
    figure9_task_counts,
    figure13_compile_time,
    format_figure9,
    format_figure13,
)
from repro.experiments.weak_scaling import (
    format_series_table,
    geo_mean,
    run_weak_scaling,
)

TINY = ExperimentScale({"elements_per_gpu": 256}, 1e-6, 2, 2)
TINY_KRYLOV = ExperimentScale({"grid_points_per_gpu": 8}, 1e-6, 3, 2)


class TestScaledMachine:
    def test_scaling_preserves_ratios(self):
        base = scaled_machine(4, 1.0)
        scaled = scaled_machine(4, 1e-3)
        assert scaled.gpu_memory_bandwidth == pytest.approx(base.gpu_memory_bandwidth * 1e-3)
        assert scaled.gpu_peak_flops / scaled.gpu_memory_bandwidth == pytest.approx(
            base.gpu_peak_flops / base.gpu_memory_bandwidth
        )
        assert scaled.task_launch_overhead == base.task_launch_overhead

    def test_default_scales_exist_for_all_apps(self):
        for app in ("black-scholes", "jacobi", "cg", "bicgstab", "gmg", "cfd", "torchswe"):
            assert default_scale_for(app).iterations >= 1


class TestRunners:
    def test_application_run_result_fields(self):
        result = run_application_experiment("black-scholes", num_gpus=2, fusion=True, scale=TINY)
        assert result.app == "black-scholes"
        assert result.configuration == "fused"
        assert result.throughput > 0
        assert result.tasks_per_iteration > result.launched_tasks_per_iteration
        assert result.window_size >= 5
        assert result.warmup_seconds > 0

    def test_fused_and_unfused_checksums_agree(self):
        fused = run_application_experiment("cg", num_gpus=2, fusion=True, scale=TINY_KRYLOV)
        unfused = run_application_experiment("cg", num_gpus=2, fusion=False, scale=TINY_KRYLOV)
        assert fused.checksum == pytest.approx(unfused.checksum, rel=1e-9)

    def test_the_last_timed_cg_iteration_launches_as_many_tasks_as_the_others(
        self, monkeypatch
    ):
        """The figures are read before the checksum, whose launch and
        analysis charge the profiler adds to the last timed iteration."""
        from repro.experiments import harness

        contexts = []
        set_context = harness.set_context

        def recording(context):
            if context is not None:
                contexts.append(context)
            set_context(context)

        monkeypatch.setattr(harness, "set_context", recording)
        scale = ExperimentScale({"grid_points_per_gpu": 8}, 1e-6, 4, 2)
        result = run_application_experiment("cg", num_gpus=4, scale=scale)
        (context,) = contexts
        first = context.profiler.iterations[result.warmup_iterations].index_tasks
        assert result.launched_tasks_per_iteration == first
        timed = result.counters["total_index_tasks"] - result.warmup_counters["total_index_tasks"]
        assert timed == first * result.iterations

    def test_petsc_runner(self):
        result = run_petsc_experiment("cg", num_gpus=2, grid_points_per_gpu=8,
                                      iterations=3, bandwidth_scale=1e-6)
        assert result.configuration == "petsc"
        assert result.throughput > 0
        with pytest.raises(ValueError):
            run_petsc_experiment("gmres", num_gpus=1)


class TestPaperShapes:
    def test_black_scholes_fusion_wins_big(self):
        """Figure 10a: the fully-fusible micro-benchmark speeds up a lot."""
        scale = ExperimentScale({"elements_per_gpu": 2048}, 1e-6, 2, 2)
        fused = run_application_experiment("black-scholes", num_gpus=2, fusion=True, scale=scale)
        unfused = run_application_experiment("black-scholes", num_gpus=2, fusion=False, scale=scale)
        assert fused.throughput > 2.0 * unfused.throughput
        assert fused.launched_tasks_per_iteration < 0.2 * unfused.launched_tasks_per_iteration

    def test_jacobi_fusion_roughly_neutral(self):
        """Figure 10b: no significant impact when there is nothing to fuse."""
        scale = ExperimentScale({"rows_per_gpu": 128}, 2e-5, 3, 2)
        fused = run_application_experiment("jacobi", num_gpus=2, fusion=True, scale=scale)
        unfused = run_application_experiment("jacobi", num_gpus=2, fusion=False, scale=scale)
        ratio = fused.throughput / unfused.throughput
        assert 0.85 < ratio < 1.6

    def test_cg_fused_beats_unfused(self):
        """Figure 11a: Diffuse accelerates the naturally-written CG."""
        fused = run_application_experiment("cg", num_gpus=2, fusion=True, scale=TINY_KRYLOV)
        unfused = run_application_experiment("cg", num_gpus=2, fusion=False, scale=TINY_KRYLOV)
        assert fused.throughput > unfused.throughput

    def test_figure9_table_shape(self):
        rows = figure9_task_counts(num_gpus=1, apps=("black-scholes", "cg"), iterations=2)
        assert len(rows) == 2
        for row in rows:
            assert row.fused_tasks_per_iteration <= row.tasks_per_iteration
            assert row.window_size >= 5
        text = format_figure9(rows)
        assert "black-scholes" in text and "Window" in text

    def test_weak_scaling_series(self):
        series = run_weak_scaling(
            "black-scholes",
            gpu_counts=(1, 2),
            scale=ExperimentScale({"elements_per_gpu": 512}, 1e-6, 2, 2),
        )
        assert set(series) == {"Fused", "Unfused"}
        assert series["Fused"].gpu_counts == [1, 2]
        speedups = series["Fused"].speedup_over(series["Unfused"])
        assert all(s > 1.0 for s in speedups)
        table = format_series_table(series, "Black-Scholes")
        assert "GPUs" in table and "Fused" in table

    def test_figure13_breakeven(self):
        rows = figure13_compile_time(num_gpus=2, apps=("black-scholes",))
        row = rows[0]
        # Compilation makes the fused warm-up slower than the standard one...
        assert row.compiled_seconds > row.standard_seconds
        # ...and the overhead is amortised after a finite number of iterations.
        assert row.breakeven_iterations is not None
        assert row.breakeven_iterations > 0
        assert "Breakeven" in format_figure13(rows)


class TestGeoMean:
    def test_geo_mean(self):
        assert geo_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geo_mean([]) == 0.0
        assert geo_mean([1.0]) == 1.0
