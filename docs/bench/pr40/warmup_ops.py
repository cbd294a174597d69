"""Where ``cg-manyrank``'s warm-up goes: wall time of its first ops.

Runs the workload's sessions in one process the way
``benchmarks/e2e`` does — the generated-kernel cache cleared, a fresh
64-rank context, CG at ``grid_points_per_gpu=4`` — and times setup and
each of the first ``--ops`` iterations separately, with the default
flags.  Prints the median milliseconds of each over ``--sessions``
sessions, and the profiler's stacked and per-rank reducing launches of
one session.  Run it with each tree on ``PYTHONPATH`` to compare two
trees.

Usage::

    PYTHONPATH=src python docs/bench/pr40/warmup_ops.py [--sessions 9] [--ops 3]
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time

import repro.apps  # noqa: F401 - registers the applications
from repro.apps.base import build_application
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.kernel.codegen import clear_function_cache


def session(ops: int):
    clear_function_cache()
    gc.collect()
    start = time.perf_counter()
    context = RuntimeContext(num_gpus=64, fusion=True)
    set_context(context)
    app = build_application("cg", context=context, grid_points_per_gpu=4)
    times = [time.perf_counter() - start]
    for _ in range(ops):
        start = time.perf_counter()
        app.run(1)
        times.append(time.perf_counter() - start)
    snapshot = context.profiler.snapshot()
    set_context(None)
    return times, snapshot


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=9)
    parser.add_argument("--ops", type=int, default=3)
    args = parser.parse_args()
    samples = []
    for _ in range(args.sessions):
        times, snapshot = session(args.ops)
        samples.append(times)
    labels = ["setup"] + [f"op {index + 1}" for index in range(args.ops)]
    for column, label in enumerate(labels):
        values = [times[column] * 1e3 for times in samples]
        print(f"{label:>6}: median {statistics.median(values):.3f} ms "
              f"(min {min(values):.3f}, max {max(values):.3f})")
    reducing = {
        key[len("per_rank_reducing_"):]: count
        for key, count in snapshot.items()
        if key.startswith("per_rank_reducing_") and count
    }
    print(f"stacked launches: {snapshot.get('stacked_launches', 'n/a')}; "
          f"per-rank reducing launches: {reducing or 'none'}")


if __name__ == "__main__":
    main()
