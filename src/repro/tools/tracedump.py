"""Export a Perfetto-loadable Chrome trace of one application run.

Runs one application end to end with the telemetry flight recorder
forced on (``REPRO_TELEMETRY=1``) and writes the merged span timeline —
parent scheduling threads and worker processes side by side — as Chrome
trace-event JSON, loadable at https://ui.perfetto.dev or
``chrome://tracing``.  The profiler's structured metrics snapshot
(:meth:`repro.runtime.profiler.Profiler.snapshot`) rides along in the
trace's ``otherData`` block, and can additionally be written to its own
JSON file with ``--metrics-output``.

Usage::

    PYTHONPATH=src python -m repro.tools.tracedump --app cg --smoke \
        --output TRACE_cg.json
    PYTHONPATH=src python -m repro.tools.tracedump --app cg --summary

``--summary`` answers "where did a replayed epoch go" as a table instead
of a Perfetto session: count, total and self time per span kind per
replayed epoch (:func:`telemetry.span_summary`), then how many
super-kernel sections run once over a merged span and why the others
keep a rank loop, then the index tasks the run built, then the run of
its epoch at which the first replay happened and the plans captured
cold or never replayed, then the futures resolved at launch, the round
fences and the replayed epochs per iteration, then the point-dispatch
pool (the scheduling thread
and its worker processes) with the level frames and worker chunks of a
replayed epoch — or, in one process, the rank chunks a replayed epoch
split across the plan threads — then what the kernel JIT compiled in
this process; no trace file is written unless ``--output`` names one.

By default the run uses the full replay stack with rank chunks in
worker processes (trace capture, plan scheduler, ``--point-workers 4``),
so the exported timeline shows the epoch replay spans of the parent next
to the chunk-execution spans of every pool worker.  ``--point-workers 1``
keeps the run in one process.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Dict, List

import repro.apps  # noqa: F401 - registers the applications
from repro import config
from repro.apps.base import registered_applications
from repro.experiments.harness import run_application_experiment
from repro.kernel.codegen import CodegenCounters, codegen_stats
from repro.runtime import procpool, telemetry
from repro.runtime.profiler import RANKED_REASONS

#: Per-app problem-size overrides at trace scale: big enough that every
#: subsystem (capture, replay, point dispatch, wire protocol) appears in
#: the timeline, small enough that the export stays a quick local run.
#: Apps without an entry run at their ``default_scale_for`` size.
_TRACE_KWARGS: Dict[str, Dict[str, int]] = {
    "cg": {"grid_points_per_gpu": 24},
    "jacobi": {"rows_per_gpu": 96},
    "black-scholes": {"elements_per_gpu": 65536},
    "two-matvec": {"rows_per_gpu": 48},
    "bicgstab": {"grid_points_per_gpu": 24},
}

_SMOKE_KWARGS: Dict[str, Dict[str, int]] = {
    "cg": {"grid_points_per_gpu": 16},
    "jacobi": {"rows_per_gpu": 48},
    "black-scholes": {"elements_per_gpu": 512},
    "two-matvec": {"rows_per_gpu": 32},
    "bicgstab": {"grid_points_per_gpu": 16},
}

#: Environment the traced run executes under (beyond the CLI-controlled
#: worker counts): the full codegen + trace-replay stack, with the
#: flight recorder armed.
_TRACE_ENV = {
    "REPRO_TELEMETRY": "1",
    "REPRO_KERNEL_BACKEND": "codegen",
    "REPRO_HOTPATH_CACHE": "1",
    "REPRO_TRACE": "1",
}


def format_summary(epochs: int, table: Dict[str, List[float]]) -> str:
    """The ``--summary`` table: one row per span kind, per replayed epoch."""
    lines = [
        f"{epochs} replayed epochs; per epoch:",
        f"{'span kind':<22}{'count':>10}{'total ms':>12}{'self ms':>12}",
    ]
    per = max(1, epochs)
    for kind, (count, total, self_seconds) in sorted(
        table.items(), key=lambda item: -item[1][2]
    ):
        lines.append(
            f"{kind:<22}{count / per:>10.2f}{total * 1e3 / per:>12.4f}"
            f"{self_seconds * 1e3 / per:>12.4f}"
        )
    return "\n".join(lines)


def format_sections(counters: Dict[str, object]) -> str:
    """One line: super-kernel sections by emitted shape, ranked ones by reason."""
    shapes = ", ".join(
        f"{counters[f'superkernel_sections_{shape}']} {shape}"
        for shape in ("merged", "stacked", "ranked")
    )
    reasons = ", ".join(
        f"{reason} {counters[f'ranked_{reason}']}"
        for reason in RANKED_REASONS
        if counters[f"ranked_{reason}"]
    )
    return f"super-kernel sections: {shapes}" + (f" ({reasons})" if reasons else "")


def format_stacking(counters: Dict[str, object]) -> str:
    """One line: launches that reduced in one call per chunk (stacked,
    eager and replayed, super-kernel sections included), and reducing
    launches that ran rank by rank, by reason."""
    reasons = {
        reason: counters[f"per_rank_reducing_{reason}"]
        for reason in RANKED_REASONS
        if counters[f"per_rank_reducing_{reason}"]
    }
    detail = ", ".join(f"{reason} {count}" for reason, count in reasons.items())
    return (
        f"stacked launches: {counters['stacked_launches']} "
        f"({counters['stacked_calls']} calls); "
        f"per-rank reducing launches: {sum(reasons.values())}"
        + (f" ({detail})" if detail else "")
    )


def format_materialised(counters: Dict[str, object]) -> str:
    """One line: index tasks built from deferred records, in replayed
    epochs (each one a task the replay built to throw away), in missed
    epochs, and on the untraced path."""
    replayed = counters["tasks_materialised_replay"]
    return (
        f"tasks materialised: {replayed} in {counters['trace_hits']} replayed epochs "
        f"({replayed / max(1, counters['trace_hits']):.2f} per epoch); "
        f"{counters['tasks_materialised_miss']} in {counters['trace_misses']} missed "
        f"epochs; {counters['tasks_materialised_eager']} eager"
    )


def format_capture(counters: Dict[str, object]) -> str:
    """One line: the run of its epoch at which the first replay happened,
    plans captured from a run that missed memoization, and plans never
    replayed."""
    first = counters["first_replay_run"]
    return (
        f"first replay: run {first} of its epoch; " if first else "first replay: none; "
    ) + (
        f"{counters['plans_captured_cold']} plans captured cold, "
        f"{counters['plans_never_replayed']} never replayed"
    )


def format_futures(counters: Dict[str, object]) -> str:
    """One line: futures resolved at launch and round fences placed per
    iteration, and the epochs of an iteration that replayed every epoch
    (one when nothing inside it reads a value on the host)."""
    iterations = max(1, counters["iterations"])
    return (
        f"futures: {counters['future_scalars'] / iterations:.2f} resolved at launch, "
        f"{counters['round_fences'] / iterations:.2f} round fences per iteration; "
        f"{counters['epochs_per_replayed_iteration']:.2f} epochs per replayed iteration"
    )


def format_dispatch(counters: Dict[str, object], slots: int) -> str:
    """One line: the pool's slots and placement, frames and worker chunks
    per epoch, and how often a round trip preempted the sending thread;
    without worker processes, the rank chunks a replayed epoch ran across
    the plan threads and the largest block they planned at.

    A frame's size is the mean over every message the run wrote to a
    pipe (plan ships included).
    """
    epochs = max(1, counters["trace_hits"])
    if slots <= 1:
        return (
            f"point dispatch: inline (one process); "
            f"{counters['point_thread_chunks'] / epochs:.2f} thread chunks per replayed "
            f"epoch (blocks of {counters['point_thread_block']})"
        )
    frame_bytes = counters["wire_bytes"] / max(1, counters["wire_requests"])
    workers = slots - 1
    return (
        f"point dispatch: {slots} slots (the scheduling thread and {workers} worker "
        f"process{'es' if workers != 1 else ''}); "
        f"{counters['point_placement'] or 'no level shipped'}; per replayed epoch "
        f"{counters['wire_requests'] / epochs:.2f} frames of {frame_bytes:.0f} bytes, "
        f"{counters['point_process_chunks'] / epochs:.2f} of "
        f"{counters['point_chunks'] / epochs:.2f} rank chunks in workers; slot 0 "
        f"preempted {counters['slot0_preemptions'] / max(1, counters['wire_round_trips']):.2f} "
        "times per round trip"
    )


def format_jit(stats: CodegenCounters) -> str:
    """One line: generated kernels compiled, their lines, ``compile()`` time."""
    compiled = stats.source_compilations
    return (
        f"kernel JIT: {compiled} kernels compiled, "
        f"{stats.source_lines / max(1, compiled):.1f} generated lines per kernel, "
        f"{stats.compile_seconds * 1e3:.2f} ms in compile()"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--app",
        default="cg",
        choices=registered_applications(),
        help="application to trace (default: cg)",
    )
    parser.add_argument("--num-gpus", type=int, default=8)
    parser.add_argument("--iterations", type=int, default=12)
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help=(
            "plan-scheduler thread count (REPRO_WORKERS): steps of wide levels, or "
            "a chain level's big compiled step split into rank chunks"
        ),
    )
    parser.add_argument(
        "--point-workers",
        type=int,
        default=4,
        help=(
            "point-dispatch width (REPRO_POINT_WORKERS): the scheduling thread "
            "and N-1 worker processes; 1 = one process"
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the run for CI (fewer iterations, smaller problem)",
    )
    parser.add_argument(
        "--summary",
        action="store_true",
        help="print count/total/self time per span kind per replayed epoch",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="trace JSON path (default: TRACE_<app>.json in the cwd; none with --summary)",
    )
    parser.add_argument(
        "--metrics-output",
        default=None,
        help="optionally also write the profiler snapshot to this path",
    )
    args = parser.parse_args()

    if args.smoke:
        args.num_gpus = min(args.num_gpus, 4)
        args.iterations = min(args.iterations, 6)
    app_kwargs = (_SMOKE_KWARGS if args.smoke else _TRACE_KWARGS).get(args.app)
    output = args.output or (None if args.summary else f"TRACE_{args.app}.json")

    os.environ.update(_TRACE_ENV)
    os.environ["REPRO_WORKERS"] = str(args.workers)
    os.environ["REPRO_POINT_WORKERS"] = str(args.point_workers)
    config.reload_flags()

    # The reload re-armed the ring; the export covers exactly this run.
    result = run_application_experiment(
        args.app,
        num_gpus=args.num_gpus,
        iterations=args.iterations,
        warmup_iterations=args.warmup,
        app_kwargs=app_kwargs,
    )
    snapshot = dict(
        result.counters, checksum=result.checksum, app=args.app, num_gpus=args.num_gpus
    )

    if args.summary:
        print(format_summary(*telemetry.span_summary()))
        print(format_sections(snapshot))
        print(format_stacking(snapshot))
        print(format_materialised(snapshot))
        print(format_capture(snapshot))
        print(format_futures(snapshot))
        slots = procpool.pool_size() if args.point_workers > 1 else 1
        print(format_dispatch(snapshot, slots))
        print(format_jit(codegen_stats()))
    if output:
        trace = telemetry.export_chrome_trace()
        trace["otherData"]["profiler"] = snapshot
        with open(output, "w") as handle:
            json.dump(trace, handle)
            handle.write("\n")
        events = trace["traceEvents"]
        pids = {event["pid"] for event in events if event.get("ph") != "M"}
        print(
            f"wrote {output}: {len(events)} trace events from "
            f"{len(pids)} process(es), dropped {trace['otherData']['dropped_events']}"
        )
    if args.metrics_output:
        with open(args.metrics_output, "w") as handle:
            json.dump(snapshot, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.metrics_output}")

    # Deterministic teardown (the atexit hooks would cover it anyway).
    from repro.runtime.pool import shutdown_shared_pool

    procpool.shutdown_process_pool()
    shutdown_shared_pool()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
