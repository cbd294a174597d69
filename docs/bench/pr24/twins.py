#!/usr/bin/env python3
"""The twins ROADMAP item 2's verdict lacks: one program, every substrate.

    python3 docs/bench/pr24/twins.py [--base-src DIR] [--sessions N] [--ops K]

Times the ``swe-wide-process`` workload's program — ``torchswe-manual``,
4 ranks x 64 points per rank, 3 warm-up ops, then ``K`` timed ops (one
op = one iteration) — under each way the runtime can run it:

* ``inline``          ``REPRO_WORKERS=1``: every level on one thread;
* ``thread-default``  no variable set: the shipped default, wide levels
                      fanned out over the plan-level thread pool;
* ``thread-point2``   ``REPRO_POINT_WORKERS=2``: rank chunks on threads;
* ``process``         the workload's own flags
                      (``REPRO_DISPATCH_BACKEND=process``,
                      ``REPRO_POINT_WORKERS=2``), on this tree and, with
                      ``--base-src``, on the parent commit's ``src/``.

Every session is a fresh interpreter with every other ``REPRO_*``
variable stripped; the configurations are taken round-robin, so host
drift lands on all of them alike.  Reported per configuration: the
lowest, median and highest of the sessions' median op times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
WARMUP_OPS = 3

CONFIGS = {
    "inline": {"REPRO_WORKERS": "1"},
    "thread-default": {},
    "thread-point2": {"REPRO_POINT_WORKERS": "2"},
    "process": {"REPRO_DISPATCH_BACKEND": "process", "REPRO_POINT_WORKERS": "2"},
}


def session(ops: int) -> None:
    """One session in this interpreter: prints its median op time in ms."""
    from repro.apps.base import build_application
    from repro.frontend.legate.context import RuntimeContext, set_context

    context = RuntimeContext(num_gpus=4, fusion=True)
    set_context(context)
    try:
        app = build_application("torchswe-manual", context=context, points_per_gpu=64)
        app.run(WARMUP_OPS)
        times = []
        for _ in range(ops):
            start = time.perf_counter()
            app.run(1)
            times.append(time.perf_counter() - start)
        checksum = app.checksum()
    finally:
        set_context(None)
    print(json.dumps({"op_ms": statistics.median(times) * 1e3, "checksum": checksum}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base-src", help="src/ of the parent commit (adds the 'before' process row)")
    parser.add_argument("--sessions", type=int, default=5)
    parser.add_argument("--ops", type=int, default=200)
    parser.add_argument("--session", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.session:
        session(args.ops)
        return 0

    here = str(ROOT / "src")
    rows = [(name, here, flags) for name, flags in CONFIGS.items()]
    if args.base_src:
        rows.insert(3, ("process (parent)", args.base_src, CONFIGS["process"]))
    results = {name: [] for name, _src, _flags in rows}
    checksums = set()
    for _ in range(args.sessions):
        for name, src, flags in rows:
            env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
            env.update(flags, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, __file__, "--session", "--ops", str(args.ops)],
                env=env, check=True, capture_output=True, text=True,
            ).stdout
            report = json.loads(out.strip().splitlines()[-1])
            results[name].append(report["op_ms"])
            checksums.add(report["checksum"])
    print(f"torchswe-manual, 4 ranks x 64 points, {args.sessions} sessions x {args.ops} ops; op_ms")
    print(f"{'configuration':<18} {'low':>7} {'median':>7} {'high':>7}")
    for name, times in results.items():
        print(f"{name:<18} {min(times):7.2f} {statistics.median(times):7.2f} {max(times):7.2f}")
    print(f"checksums agree: {len(checksums) == 1}")
    return 0 if len(checksums) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
