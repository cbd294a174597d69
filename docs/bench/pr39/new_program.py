#!/usr/bin/env python3
"""Wall time of each of the first iterations of a new program.

    PYTHONPATH=TREE/src python3 docs/bench/pr39/new_program.py [--sessions 3]

Runs the ``stream-churn`` generator's programs (``e2ebench/churn.py``,
4 ranks x 16,384 elements, seed 0) one after another in one context per
session, each for six iterations with a flush after each, and prints the
median milliseconds of iteration 1, 2, ... over every program of every
session, with the trace hits and misses of each iteration.  Point
``PYTHONPATH`` at the tree to measure; the generator is read from this
checkout's ``benchmarks/e2e``.  Run two trees alternately to compare.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[3] / "benchmarks" / "e2e"))

from e2ebench import churn  # noqa: E402

import repro.frontend.cunumeric as cn  # noqa: E402
from repro.frontend.legate.context import RuntimeContext, set_context  # noqa: E402

PROGRAMS = 39
ITERATIONS = 6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=3)
    sessions = parser.parse_args().sessions
    times = [[] for _ in range(ITERATIONS)]
    hits = [0] * ITERATIONS
    misses = [0] * ITERATIONS
    for session in range(sessions):
        inputs, programs = churn.generate_session(session, 4 * 16384, PROGRAMS)
        context = RuntimeContext(num_gpus=4, fusion=True)
        set_context(context)
        arrays = [cn.array(data) for data in inputs]
        context.flush()
        profiler = context.profiler
        for program in programs:
            for iteration in range(ITERATIONS):
                before = profiler.trace_hits, profiler.trace_misses
                start = time.perf_counter()
                churn.evaluate(cn, program, arrays)
                context.flush()
                times[iteration].append((time.perf_counter() - start) * 1e3)
                hits[iteration] += profiler.trace_hits - before[0]
                misses[iteration] += profiler.trace_misses - before[1]
        set_context(None)
    runs = sessions * PROGRAMS
    print("iteration  median_ms  hits/program  misses/program")
    for iteration in range(ITERATIONS):
        print(
            f"{iteration + 1:9d}  {statistics.median(times[iteration]):9.2f}  "
            f"{hits[iteration] / runs:12.2f}  {misses[iteration] / runs:14.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
