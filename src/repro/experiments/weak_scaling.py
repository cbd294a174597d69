"""Weak-scaling sweeps over GPU counts (Figures 10, 11 and 12)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.harness import (
    ExperimentScale,
    RunResult,
    default_scale_for,
    run_application_experiment,
    run_petsc_experiment,
)
from repro.fusion.engine import FusionConfig

#: GPU counts used by every weak-scaling figure in the paper.
PAPER_GPU_COUNTS: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128)

#: Smaller sweep used by the default benchmark configuration so the full
#: functional simulation stays fast; pass ``gpu_counts=PAPER_GPU_COUNTS``
#: to reproduce the full x-axis.
DEFAULT_GPU_COUNTS: Sequence[int] = (1, 2, 4, 8)


@dataclass
class WeakScalingSeries:
    """One line of a weak-scaling figure."""

    label: str
    gpu_counts: List[int] = field(default_factory=list)
    throughputs: List[float] = field(default_factory=list)
    results: List[RunResult] = field(default_factory=list)

    def add(self, result: RunResult) -> None:
        """Append one GPU-count data point."""
        self.gpu_counts.append(result.num_gpus)
        self.throughputs.append(result.throughput)
        self.results.append(result)

    def throughput_at(self, num_gpus: int) -> float:
        """Throughput at a specific GPU count."""
        return self.throughputs[self.gpu_counts.index(num_gpus)]

    def speedup_over(self, other: "WeakScalingSeries") -> List[float]:
        """Per-GPU-count speedup of this series over another."""
        return [
            mine / theirs if theirs > 0 else float("inf")
            for mine, theirs in zip(self.throughputs, other.throughputs)
        ]


def run_weak_scaling(
    app_name: str,
    configurations: Optional[Dict[str, Dict]] = None,
    gpu_counts: Sequence[int] = DEFAULT_GPU_COUNTS,
    scale: Optional[ExperimentScale] = None,
    iterations: Optional[int] = None,
) -> Dict[str, WeakScalingSeries]:
    """Run an application's weak-scaling study.

    ``configurations`` maps series labels to keyword overrides for
    :func:`run_application_experiment` (or ``{"petsc": ...}`` entries
    handled by the PETSc runner).  The default is the paper's
    Fused-vs-Unfused comparison.
    """
    if configurations is None:
        configurations = {
            "Fused": {"fusion": True},
            "Unfused": {"fusion": False},
        }
    scale = scale or default_scale_for(app_name)
    series: Dict[str, WeakScalingSeries] = {
        label: WeakScalingSeries(label=label) for label in configurations
    }
    for num_gpus in gpu_counts:
        for label, overrides in configurations.items():
            overrides = dict(overrides)
            if overrides.pop("petsc", False):
                result = run_petsc_experiment(
                    solver=overrides.pop("solver", app_name),
                    num_gpus=num_gpus,
                    grid_points_per_gpu=int(
                        scale.app_kwargs.get("grid_points_per_gpu", 48)
                    ),
                    iterations=iterations or scale.iterations,
                    bandwidth_scale=scale.bandwidth_scale,
                )
            else:
                run_app = overrides.pop("app_name", app_name)
                result = run_application_experiment(
                    run_app,
                    num_gpus=num_gpus,
                    configuration=label,
                    scale=scale,
                    iterations=iterations,
                    **overrides,
                )
            series[label].add(result)
    return series


def format_series_table(series: Dict[str, WeakScalingSeries], title: str) -> str:
    """Render a weak-scaling study as an aligned text table."""
    labels = list(series)
    gpu_counts = series[labels[0]].gpu_counts
    header = f"{'GPUs':>6} " + " ".join(f"{label:>16}" for label in labels)
    lines = [title, header, "-" * len(header)]
    for index, gpus in enumerate(gpu_counts):
        row = f"{gpus:>6} " + " ".join(
            f"{series[label].throughputs[index]:>16.3f}" for label in labels
        )
        lines.append(row)
    return "\n".join(lines)


def geo_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    product = 1.0
    for value in filtered:
        product *= value
    return product ** (1.0 / len(filtered))
