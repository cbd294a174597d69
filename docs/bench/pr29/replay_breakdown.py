"""Where a steady replayed CG op goes: component timing with perf_counter.

Runs the naturally-written CG at 64 ranks of 16 rows (the
``cg-manyrank`` workload's program, shipped defaults) and reports, per
steady op, the inclusive wall time of the trace and replay components
that exist in the tree it runs against.  A component missing from a tree
(a deleted function) prints as ``-``, so one script times both sides of
a change:

    PYTHONPATH=<tree>/src python3 docs/bench/pr29/replay_breakdown.py

Each round builds a fresh application, warms it up, times ``--ops``
steady ops with no wrapper installed (``op``), then the same number with
the wrappers installed (the components; nested components are included
in their callers, and every wrapper costs its own call overhead, the same
on both sides).  Medians over ``--rounds`` rounds are printed in
microseconds per op, with each component's calls per op.  A last,
untimed session counts the ``ReductionPartial`` objects a steady op
constructs, through the generated kernels' namespace.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import time

import repro.kernel.codegen as codegen
from repro.apps.base import build_application
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.kernel.lowering import ReductionPartial

#: (module, class or None, attribute, label).  Functions called through
#: a module global are patched in the calling module.
COMPONENTS = (
    ("repro.runtime.trace", "TraceController", "add", "TraceController.add"),
    ("repro.runtime.trace", "TraceController", "boundary", "TraceController.boundary"),
    ("repro.runtime.trace", None, "canonicalize_stream", "  canonicalize_stream"),
    ("repro.runtime.trace", "TraceController", "_reclaim_dead_fields", "  _reclaim_dead_fields"),
    ("repro.runtime.scheduler", "PlanScheduler", "execute", "  PlanScheduler.execute"),
    ("repro.runtime.scheduler", None, "_plan_dispatch", "    _plan_dispatch"),
    ("repro.runtime.scheduler", "PlanScheduler", "_step_work", "    _step_work"),
    ("repro.runtime.executor", "TaskExecutor", "launch", "    TaskExecutor.launch"),
    ("repro.runtime.scheduler", None, "run_superkernel_ranks", "      run_superkernel_ranks"),
    ("repro.runtime.executor", "TaskExecutor", "fold", "      TaskExecutor.fold"),
    ("repro.runtime.executor", "TaskExecutor", "apply_reduction_partials", "    apply_reduction_partials"),
    ("repro.runtime.scheduler", "PlanScheduler", "_account", "    _account"),
    ("repro.runtime.scheduler", None, "_apply_plan_epilogue", "    _apply_plan_epilogue"),
)


def _install(totals):
    undo = []
    for module_name, class_name, attribute, label in COMPONENTS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = getattr(owner, attribute, None)
        if original is None:
            continue
        totals.setdefault(label, [0.0, 0])

        def timed(*args, _fn=original, _slot=totals[label], **kwargs):
            start = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                _slot[0] += time.perf_counter() - start
                _slot[1] += 1

        setattr(owner, attribute, timed)
        undo.append((owner, attribute, original))
    return undo


def _app(context):
    return build_application("cg", context=context, grid_points_per_gpu=4)


def _round(ops: int, warmup: int):
    """One fresh application: unwrapped op times, then the components."""
    context = RuntimeContext(num_gpus=64)
    set_context(context)
    try:
        app = _app(context)
        app.run(warmup)
        samples = []
        for _ in range(ops):
            start = time.perf_counter()
            app.run(1)
            samples.append(time.perf_counter() - start)
        totals = {}
        undo = _install(totals)
        try:
            app.run(ops)
        finally:
            for owner, attribute, original in reversed(undo):
                setattr(owner, attribute, original)
        checksum = app.checksum()
    finally:
        set_context(None)
    per_op = {
        label: (seconds * 1e6 / ops, calls / ops)
        for label, (seconds, calls) in totals.items()
    }
    return statistics.median(samples) * 1e6, per_op, checksum


def _partials_per_op(ops: int, warmup: int) -> float:
    """``ReductionPartial`` objects a steady op constructs (own session:
    the counting class slows every construction, so it times nothing)."""
    constructed = [0]

    class Counted(ReductionPartial):
        def __init__(self, *args, **kwargs):
            constructed[0] += 1
            super().__init__(*args, **kwargs)

    codegen._KERNEL_ENV["ReductionPartial"] = Counted
    codegen.clear_function_cache()
    context = RuntimeContext(num_gpus=64)
    set_context(context)
    try:
        app = _app(context)
        app.run(warmup)
        constructed[0] = 0
        app.run(ops)
    finally:
        set_context(None)
        codegen._KERNEL_ENV["ReductionPartial"] = ReductionPartial
        codegen.clear_function_cache()
    return constructed[0] / ops


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=1000)
    parser.add_argument("--warmup", type=int, default=20)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    rounds = [_round(args.ops, args.warmup) for _ in range(args.rounds)]
    print(f"cg, 64 ranks x 16 rows, {args.ops} steady ops x {args.rounds} rounds "
          "(medians over rounds, us per op)")
    print(f"{'op (no wrappers)':34s} {statistics.median(r[0] for r in rounds):9.1f}")
    for _module, _class, _attribute, label in COMPONENTS:
        values = [r[1][label] for r in rounds if label in r[1]]
        if not values:
            print(f"{label:34s} {'-':>9s}")
            continue
        micros = statistics.median(v[0] for v in values)
        calls = statistics.median(v[1] for v in values)
        print(f"{label:34s} {micros:9.1f}   {calls:5.1f} calls/op")
    print(f"{'ReductionPartial per op':34s} {_partials_per_op(args.ops, args.warmup):9.1f}")
    print(f"checksum {rounds[0][2]!r}")


if __name__ == "__main__":
    main()
