"""What one epoch boundary costs on the ``cg-manyrank`` shape.

Times the same 64-rank SpMV + AXPY pair (``ap = A p`` over the Poisson
matrix of ``cg`` at ``grid_points_per_gpu=4``, then ``y = x + 0.5 * ap``)
run as one epoch (one flush after the pair) and as two (a flush after
each launch), in one process with the default flags, both modes replayed
from captured plans.  Rounds alternate the two modes; the script prints
the median microseconds per pair of each and their difference, the cost
of one boundary.

Usage::

    PYTHONPATH=src python docs/bench/pr39/epoch_boundary.py [--rounds 15] [--pairs 400]
"""

from __future__ import annotations

import argparse
import statistics
import time

import repro.frontend.cunumeric as cn
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.frontend.sparse import poisson_2d


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--pairs", type=int, default=400)
    args = parser.parse_args()

    context = RuntimeContext(num_gpus=64, fusion=True)
    set_context(context)
    matrix = poisson_2d(32)  # 1,024 rows: 64 ranks of 16
    x = cn.ones(matrix.nrows, name="x")
    p = cn.ones(matrix.nrows, name="p") * 0.5
    context.flush()

    def one_epoch():
        ap = matrix.dot(p)
        _y = x + 0.5 * ap
        context.flush()

    def two_epochs():
        ap = matrix.dot(p)
        context.flush()
        _y = x + 0.5 * ap
        context.flush()

    modes = {"one epoch": one_epoch, "two epochs": two_epochs}
    for run in modes.values():
        for _ in range(50):
            run()
    hits = context.profiler.trace_hits
    samples = {name: [] for name in modes}
    for round_index in range(args.rounds):
        order = list(modes) if round_index % 2 == 0 else list(reversed(modes))
        for name in order:
            run = modes[name]
            start = time.perf_counter()
            for _ in range(args.pairs):
                run()
            samples[name].append((time.perf_counter() - start) / args.pairs * 1e6)
    profiler = context.profiler
    replays = profiler.trace_hits - hits
    expected = args.rounds * args.pairs * 3  # one + two epochs per round
    set_context(None)

    medians = {name: statistics.median(values) for name, values in samples.items()}
    for name, median in medians.items():
        print(f"{name:>10}: {median:8.1f} us per pair (median of {args.rounds} rounds)")
    print(f"one boundary: {medians['two epochs'] - medians['one epoch']:.1f} us")
    print(f"replayed epochs {replays} of {expected}; trace misses {profiler.trace_misses}")


if __name__ == "__main__":
    main()
