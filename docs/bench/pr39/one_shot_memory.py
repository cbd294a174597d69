#!/usr/bin/env python3
"""Heap a captured one-shot epoch retains.

    PYTHONPATH=src python3 docs/bench/pr39/one_shot_memory.py

Runs each of the ``stream-churn`` generator's 39 programs once (seed 0,
4 ranks x 16,384 elements) in one context, so every epoch that is
captured is captured from its cold run and never replayed, then drops
the plans (trace cache and the profiler's capture list) and reports, by
``tracemalloc``, the heap that dropping them freed, per plan.  Kernels
stay in the compiler's caches either way, so this is what the plans
alone hold: steps, rect-table references, footprints, exit states.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[3] / "benchmarks" / "e2e"))

from e2ebench import churn  # noqa: E402

import repro.frontend.cunumeric as cn  # noqa: E402
from repro.frontend.legate.context import RuntimeContext, set_context  # noqa: E402


def main() -> int:
    inputs, programs = churn.generate_session(0, 4 * 16384, 39)
    context = RuntimeContext(num_gpus=4, fusion=True)
    set_context(context)
    arrays = [cn.array(data) for data in inputs]
    context.flush()
    tracemalloc.start()
    for program in programs:
        churn.evaluate(cn, program, arrays)
        context.flush()
    trace, profiler = context.diffuse.trace, context.profiler
    plans = len(trace.cache)
    never = profiler.snapshot()["plans_never_replayed"]
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]
    trace.cache.clear()
    profiler.captured_plans.clear()
    gc.collect()
    freed = held - tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    set_context(None)
    print(f"{plans} plans captured, {never} never replayed")
    print(f"dropping them frees {freed / 1024:.1f} KiB: {freed / max(1, plans) / 1024:.2f} KiB per plan")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
