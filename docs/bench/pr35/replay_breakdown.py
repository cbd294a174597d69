"""Where a steady CG op goes: frontend and replay components, perf_counter.

Runs the naturally-written CG at 64 ranks of 16 rows (the
``cg-manyrank`` workload's program, shipped defaults) and reports, per
steady op, the inclusive wall time of the frontend, trace and replay
components that exist in the tree it runs against.  A component missing
from a tree (a function the tree does not have) prints as ``-``, so one
script times both sides of a change:

    PYTHONPATH=<tree>/src python3 docs/bench/pr35/replay_breakdown.py

Each round builds a fresh application, warms it up, times ``--ops``
steady ops with no wrapper installed (``op``), then the same number with
the wrappers installed (the components; nested components are included
in their callers, and every wrapper costs its own call overhead, the same
on both sides).  Medians over ``--rounds`` rounds are printed in
microseconds per op, with each component's calls per op.  A last,
untimed session counts what a steady op constructs and what it leaves
behind: index tasks, store arguments, ``natural_partition`` calls and
stores built, and the growth of the store registry and the coherence
table.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import time

from repro.apps.base import build_application
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.ir.store import StoreManager
from repro.ir.task import IndexTask, StoreArg

#: (module, class or None, attribute, label).  Functions called through
#: a module global are patched in the calling module.
COMPONENTS = (
    ("repro.frontend.cunumeric.array", "ndarray", "_binary", "ndarray._binary"),
    ("repro.frontend.cunumeric.array", "ndarray", "dot", "ndarray.dot"),
    ("repro.frontend.sparse.csr", "csr_matrix", "dot", "csr_matrix.dot"),
    ("repro.frontend.cunumeric.array", "ndarray", "_fresh_like", "  ndarray._fresh_like"),
    ("repro.ir.store", "StoreManager", "create_store", "    StoreManager.create_store"),
    ("repro.frontend.legate.context", "RuntimeContext", "natural_partition", "  natural_partition"),
    ("repro.frontend.legate.context", "RuntimeContext", "skeleton", "  RuntimeContext.skeleton"),
    ("repro.frontend.legate.context", "RuntimeContext", "submit", "  RuntimeContext.submit"),
    ("repro.fusion.engine", "DiffuseRuntime", "submit", "    DiffuseRuntime.submit"),
    ("repro.runtime.trace", "TraceController", "add", "      TraceController.add"),
    ("repro.runtime.trace", "TraceController", "boundary", "TraceController.boundary"),
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


def _objects_per_op(ops: int, warmup: int) -> dict:
    """What a steady op constructs and leaves registered (own session:
    the counting wrappers slow every call, so it times nothing)."""
    counts = {"IndexTask": 0, "StoreArg": 0, "natural_partition": 0, "stores built": 0}
    targets = (
        (IndexTask, "__init__", "IndexTask"),
        (StoreArg, "__init__", "StoreArg"),
        (RuntimeContext, "natural_partition", "natural_partition"),
        (StoreManager, "create_store", "stores built"),
    )
    undo = []
    for owner, attribute, label in targets:
        original = getattr(owner, attribute)

        def counted(*args, _fn=original, _label=label, **kwargs):
            counts[_label] += 1
            return _fn(*args, **kwargs)

        setattr(owner, attribute, counted)
        undo.append((owner, attribute, original))
    context = RuntimeContext(num_gpus=64)
    set_context(context)
    try:
        app = _app(context)
        app.run(warmup)
        for label in counts:
            counts[label] = 0
        registered = len(context.stores), len(context.legion.coherence._states)
        app.run(ops)
        counts["registered stores (growth)"] = len(context.stores) - registered[0]
        counts["coherence states (growth)"] = (
            len(context.legion.coherence._states) - registered[1]
        )
    finally:
        set_context(None)
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
    return {label: count / ops for label, count in counts.items()}


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
    for label, per_op in _objects_per_op(args.ops, args.warmup).items():
        print(f"{label + ' per op':34s} {per_op:9.2f}")
    print(f"checksum {rounds[0][2]!r}")


if __name__ == "__main__":
    main()
