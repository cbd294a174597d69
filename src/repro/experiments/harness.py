"""Single-experiment driver: run one application under one configuration.

The simulator executes the real computation on NumPy, so problem sizes
must stay far below the paper's (which used up to 128 A100s).  To keep the
*shape* of the results — bandwidth-bound kernels a few milliseconds long,
task launch overheads of a fraction of a millisecond — the machine model's
bandwidth and peak flops are scaled down by the same factor as the problem
size.  Ratios, and therefore speedups and scaling trends, are preserved;
absolute iteration rates are not meaningful and EXPERIMENTS.md records
both.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence

from repro.apps.base import build_application
from repro.baselines.petsc import KSP, PetscMachineModel, Vec, poisson_2d_aij
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.fusion.engine import FusionConfig
from repro.runtime.machine import MachineConfig


# ----------------------------------------------------------------------
# Machine scaling.
# ----------------------------------------------------------------------
def scaled_machine(num_gpus: int, bandwidth_scale: float = 1e-3) -> MachineConfig:
    """An A100-like machine with bandwidth/compute scaled down.

    ``bandwidth_scale`` shrinks per-GPU memory bandwidth, peak flops and
    the interconnect bandwidths by the same factor, so a problem that is
    ``bandwidth_scale`` times smaller than the paper's produces kernel
    durations and communication/computation ratios in the same regime.
    """
    base = MachineConfig(num_gpus=num_gpus)
    return replace(
        base,
        gpu_memory_bandwidth=base.gpu_memory_bandwidth * bandwidth_scale,
        gpu_peak_flops=base.gpu_peak_flops * bandwidth_scale,
        nvlink_bandwidth=base.nvlink_bandwidth * bandwidth_scale,
        infiniband_bandwidth=base.infiniband_bandwidth * bandwidth_scale,
    )


@dataclass(frozen=True)
class ExperimentScale:
    """Problem size and machine scaling used for one application."""

    app_kwargs: Dict[str, float]
    bandwidth_scale: float
    iterations: int
    warmup_iterations: int


#: Default experiment scales per application.  Sizes are chosen so that the
#: full functional simulation of the largest configuration stays tractable
#: on a laptop while kernel durations stay in the paper's regime.
_DEFAULT_SCALES: Dict[str, ExperimentScale] = {
    "black-scholes": ExperimentScale({"elements_per_gpu": 16384}, 4e-5, 3, 3),
    "jacobi": ExperimentScale({"rows_per_gpu": 256}, 5e-5, 3, 2),
    "cg": ExperimentScale({"grid_points_per_gpu": 48}, 1e-5, 4, 2),
    "cg-manual": ExperimentScale({"grid_points_per_gpu": 48}, 1e-5, 4, 2),
    "bicgstab": ExperimentScale({"grid_points_per_gpu": 48}, 1e-5, 4, 2),
    "gmg": ExperimentScale({"grid_points_per_gpu": 48}, 1e-5, 3, 2),
    "cfd": ExperimentScale({"points_per_gpu": 48}, 1e-5, 3, 3),
    "two-matvec": ExperimentScale({"rows_per_gpu": 32}, 5e-5, 3, 2),
    "torchswe": ExperimentScale({"points_per_gpu": 48}, 1e-5, 3, 3),
    "torchswe-manual": ExperimentScale({"points_per_gpu": 48}, 1e-5, 3, 3),
}


def default_scale_for(app_name: str) -> ExperimentScale:
    """The default experiment scale of an application."""
    return _DEFAULT_SCALES[app_name]


# ----------------------------------------------------------------------
# Result record.
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """Metrics of one application run under one configuration."""

    app: str
    configuration: str
    num_gpus: int
    iterations: int
    warmup_iterations: int
    #: Iterations per simulated second, excluding warm-up iterations.
    throughput: float
    #: Average original library tasks per iteration (Figure 9 column 2).
    tasks_per_iteration: float
    #: Average launched index tasks per iteration (Figure 9 column 3).
    launched_tasks_per_iteration: float
    #: Average kernel time per launched task, in milliseconds (Figure 9).
    avg_task_length_ms: float
    #: Final task-window size chosen by the adaptive policy (Figure 9).
    window_size: int
    #: Simulated seconds of the warm-up iterations (Figure 13).
    warmup_seconds: float
    #: JIT compilation seconds charged during the run (Figure 13).
    compile_seconds: float
    #: Scalar application checksum, for cross-configuration validation.
    checksum: float
    #: ``Profiler.snapshot()`` at the end of the run — every runtime
    #: counter and derived rate — and the same snapshot taken after the
    #: warm-up iterations (empty for runs without a profiler).
    counters: Dict[str, object] = field(default_factory=dict)
    warmup_counters: Dict[str, object] = field(default_factory=dict)

    def steady_per_epoch(self, *names: str) -> float:
        """Growth of the summed counters ``names`` over the measured
        iterations, per epoch replayed in them.

        What one more steady epoch costs: the warm-up's one-time traffic
        (kernel specs, resident-plan ships, capture) is excluded.
        """
        epochs = self.counters["trace_hits"] - self.warmup_counters["trace_hits"]
        growth = sum(self.counters[n] - self.warmup_counters[n] for n in names)
        return growth / epochs if epochs else 0.0


# ----------------------------------------------------------------------
# Application runner.
# ----------------------------------------------------------------------
def run_application_experiment(
    app_name: str,
    num_gpus: int = 1,
    fusion: bool = True,
    configuration: Optional[str] = None,
    iterations: Optional[int] = None,
    warmup_iterations: Optional[int] = None,
    scale: Optional[ExperimentScale] = None,
    fusion_config: Optional[FusionConfig] = None,
    app_kwargs: Optional[Dict] = None,
) -> RunResult:
    """Run one application and collect the paper's metrics."""
    scale = scale or default_scale_for(app_name)
    iterations = iterations if iterations is not None else scale.iterations
    warmup = warmup_iterations if warmup_iterations is not None else scale.warmup_iterations
    context = RuntimeContext(
        num_gpus=num_gpus,
        fusion=fusion,
        machine=scaled_machine(num_gpus, scale.bandwidth_scale),
        fusion_config=fusion_config,
    )
    set_context(context)
    try:
        kwargs = dict(scale.app_kwargs)
        if app_kwargs:
            kwargs.update(app_kwargs)
        application = build_application(app_name, context=context, **kwargs)
        # Warm-up iterations: includes all JIT compilation and analysis.
        application.run(warmup)
        warmup_seconds = sum(context.profiler.iteration_seconds()[:warmup])
        warmup_counters = context.profiler.snapshot()
        # Measured iterations.  The figures are read before the checksum,
        # whose launch the profiler adds to the last timed iteration.
        application.run(iterations)
        profiler = context.profiler
        result = RunResult(
            app=app_name,
            configuration=configuration or ("fused" if fusion else "unfused"),
            num_gpus=num_gpus,
            iterations=iterations,
            warmup_iterations=warmup,
            throughput=profiler.throughput(skip_warmup=warmup),
            tasks_per_iteration=profiler.tasks_per_iteration(warmup, fused_view=False),
            launched_tasks_per_iteration=profiler.tasks_per_iteration(warmup, fused_view=True),
            avg_task_length_ms=profiler.average_task_length_seconds(skip_warmup=warmup) * 1e3,
            window_size=context.diffuse.window.size,
            warmup_seconds=warmup_seconds,
            compile_seconds=profiler.compile_seconds,
            checksum=0.0,
            counters=profiler.snapshot(),
            warmup_counters=warmup_counters,
        )
        result.checksum = application.checksum()
    finally:
        set_context(None)
    return result


# ----------------------------------------------------------------------
# PETSc baseline runner (CG / BiCGSTAB only).
# ----------------------------------------------------------------------
def run_petsc_experiment(
    solver: str,
    num_gpus: int = 1,
    grid_points_per_gpu: int = 48,
    iterations: int = 4,
    bandwidth_scale: float = 1e-5,
) -> RunResult:
    """Run the PETSc-like baseline for the Krylov solver benchmarks."""
    import numpy as np

    machine = scaled_machine(num_gpus, bandwidth_scale)
    model = PetscMachineModel(machine=machine)
    grid = int(np.ceil(np.sqrt(float(grid_points_per_gpu) ** 2 * num_gpus)))
    matrix = poisson_2d_aij(grid, model)
    rows = matrix.shape[0]
    rhs = Vec.create(rows, model, 1.0)
    x0 = Vec.create(rows, model)
    ksp = KSP(matrix, model)
    if solver == "cg":
        result = ksp.cg(rhs, x0, iterations)
    elif solver == "bicgstab":
        result = ksp.bicgstab(rhs, x0, iterations)
    else:
        raise ValueError(f"unknown PETSc solver '{solver}'")
    performed = max(1, result.iterations)
    throughput = performed / result.seconds if result.seconds > 0 else 0.0
    return RunResult(
        app=solver,
        configuration="petsc",
        num_gpus=num_gpus,
        iterations=performed,
        warmup_iterations=0,
        throughput=throughput,
        tasks_per_iteration=0.0,
        launched_tasks_per_iteration=0.0,
        avg_task_length_ms=0.0,
        window_size=0,
        warmup_seconds=0.0,
        compile_seconds=0.0,
        checksum=float(result.solution.data.sum()),
    )
