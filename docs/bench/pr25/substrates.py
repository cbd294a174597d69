#!/usr/bin/env python3
"""Every substrate on programs on both sides of its break-even.

    python3 docs/bench/pr25/substrates.py [--sessions N] [--program LABEL ...]

Times each program below — 4 ranks, default machine, 3 warm-up ops, then
the program's fixed number of timed ops (one op = one iteration, about a
second's worth inline) — under each way the runtime can run it:

* ``inline``         ``REPRO_WORKERS=1``: every level on one thread;
* ``thread-default`` no variable set: the shipped default, wide levels
                     fanned out over the plan-level thread pool;
* ``point-threads``  ``REPRO_POINT_WORKERS=2``: rank chunks on threads;
* ``processes``      ``REPRO_DISPATCH_BACKEND=process``,
                     ``REPRO_POINT_WORKERS=2``: rank chunks in worker
                     processes over shared memory, plans resident.

Every session is a fresh interpreter with every other ``REPRO_*``
variable stripped; programs and configurations are taken round-robin,
so host drift lands on all of them alike.  Reported per program and
configuration: the median of the sessions' median op times, with the
lowest and highest in brackets.  The run fails unless every
configuration of a program produced the same checksum.
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
NUM_GPUS = 4
WARMUP_OPS = 3

#: label -> (application, arguments, timed ops).  The first two are the
#: programs of the ``bs-bigtile`` and ``swe-wide-process`` workloads; the
#: next two grow the tiles of a wide level; the last three run at the
#: harness's default size.
PROGRAMS = {
    "black-scholes@65536": ("black-scholes", {"elements_per_gpu": 65536}, 100),
    "torchswe-manual@64": ("torchswe-manual", {"points_per_gpu": 64}, 500),
    "torchswe-manual@512": ("torchswe-manual", {"points_per_gpu": 512}, 15),
    "two-matvec@1024": ("two-matvec", {"rows_per_gpu": 1024}, 200),
    "gmg@48": ("gmg", {"grid_points_per_gpu": 48}, 200),
    "cfd@48": ("cfd", {"points_per_gpu": 48}, 200),
    "torchswe@48": ("torchswe", {"points_per_gpu": 48}, 400),
}

CONFIGS = {
    "inline": {"REPRO_WORKERS": "1"},
    "thread-default": {},
    "point-threads": {"REPRO_POINT_WORKERS": "2"},
    "processes": {"REPRO_DISPATCH_BACKEND": "process", "REPRO_POINT_WORKERS": "2"},
}


def session(label: str) -> None:
    """One session in this interpreter: prints its median op time in ms."""
    from repro.apps.base import build_application
    from repro.frontend.legate.context import RuntimeContext, set_context

    app_name, kwargs, ops = PROGRAMS[label]
    context = RuntimeContext(num_gpus=NUM_GPUS, fusion=True)
    set_context(context)
    try:
        app = build_application(app_name, context=context, **kwargs)
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
    parser.add_argument("--sessions", type=int, default=3)
    parser.add_argument("--program", action="append", choices=sorted(PROGRAMS))
    parser.add_argument("--session", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.session:
        session(args.session)
        return 0

    programs = args.program or list(PROGRAMS)
    results = {(p, c): [] for p in programs for c in CONFIGS}
    checksums = {p: set() for p in programs}
    for _ in range(args.sessions):
        for program in programs:
            for name, flags in CONFIGS.items():
                env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
                env.update(flags, PYTHONPATH=str(ROOT / "src"))
                out = subprocess.run(
                    [sys.executable, __file__, "--session", program],
                    env=env, check=True, capture_output=True, text=True,
                ).stdout
                report = json.loads(out.strip().splitlines()[-1])
                results[program, name].append(report["op_ms"])
                checksums[program].add(report["checksum"])

    print(f"{NUM_GPUS} ranks, {args.sessions} sessions; median op_ms (lowest-highest session)")
    print(f"{'program':<22}" + "".join(f"{name:>22}" for name in CONFIGS))
    for program in programs:
        cells = []
        for name in CONFIGS:
            times = results[program, name]
            cells.append(
                f"{statistics.median(times):.3g} ({min(times):.3g}-{max(times):.3g})"
            )
        print(f"{program:<22}" + "".join(f"{cell:>22}" for cell in cells))
    agree = all(len(values) == 1 for values in checksums.values())
    print(f"checksums agree across configurations: {agree}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
