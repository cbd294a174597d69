#!/usr/bin/env python3
"""Eager point dispatch before and after: one program, two trees.

    python3 docs/bench/pr27/eager_trade.py BASE_TREE NEW_TREE [--sessions N]

Times ``black-scholes`` at 65,536 elements per rank on 4 ranks under
``REPRO_TRACE=0 REPRO_POINT_WORKERS=4`` (every launch eager; every other
``REPRO_*`` variable stripped): 3 warm-up ops, then 50 timed ops, one op
being one iteration.  Each session is a fresh interpreter importing the
tree's ``src``; the two trees alternate session by session, the side
going first swapped every round.  Prints every session's median op time
and, per tree, the median of those medians with the lowest and highest
in brackets; fails unless both trees produce the same checksum.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WARMUP_OPS = 3
TIMED_OPS = 50


def session() -> dict:
    """One timed run in this interpreter (flags already in the environment)."""
    import repro.apps  # noqa: F401 - registers the applications
    from repro.apps.base import build_application
    from repro.frontend.legate.context import RuntimeContext, set_context

    context = RuntimeContext(num_gpus=4, fusion=True)
    set_context(context)
    try:
        app = build_application("black-scholes", context=context, elements_per_gpu=65536)
        app.run(WARMUP_OPS)
        times = []
        for _ in range(TIMED_OPS):
            start = time.perf_counter()
            app.run(1)
            times.append(time.perf_counter() - start)
        checksum = app.checksum()
    finally:
        set_context(None)
    return {"op_ms": statistics.median(times) * 1e3, "checksum": float(checksum).hex()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*")
    parser.add_argument("--sessions", type=int, default=8)
    parser.add_argument("--session", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.session:
        print(json.dumps(session()))
        return 0
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(REPRO_TRACE="0", REPRO_POINT_WORKERS="4")
    results = {tree: [] for tree in args.trees}
    checksums = set()
    for round_index in range(args.sessions):
        order = args.trees if round_index % 2 == 0 else list(reversed(args.trees))
        for tree in order:
            flags = dict(env, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
            report = json.loads(subprocess.run(
                [sys.executable, __file__, "--session"],
                env=flags, check=True, capture_output=True, text=True,
            ).stdout.strip().splitlines()[-1])
            results[tree].append(report["op_ms"])
            checksums.add(report["checksum"])
            print(f"round {round_index} {tree}: {report['op_ms']:.2f} ms", flush=True)
    for tree, values in results.items():
        print(f"{tree}: median {statistics.median(values):.2f} ms "
              f"[{min(values):.2f}, {max(values):.2f}] over {len(values)} sessions")
    print(f"checksums: {sorted(checksums)}")
    return 0 if len(checksums) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
