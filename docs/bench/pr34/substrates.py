#!/usr/bin/env python3
"""Every substrate on programs on both sides of its break-even, on two trees.

    python3 docs/bench/pr34/substrates.py --tree base=PATH --tree new=PATH \\
        [--sessions N] [--program LABEL ...]

``docs/bench/pr25/substrates.py`` with the five configurations of ROADMAP
item 2 and a CPU figure.  Times each program below — 4 ranks, default
machine, 3 warm-up ops, then the program's fixed number of timed ops —
under each way the runtime can run it:

* ``inline``          ``REPRO_WORKERS=1``: every level on one thread;
* ``default``         no variable set: wide levels fanned out over the
                      plan-level thread pool;
* ``procs-2``         ``REPRO_WORKERS=1 REPRO_POINT_WORKERS=2``: the
                      scheduling thread and one worker process;
* ``procs-2+threads`` ``REPRO_POINT_WORKERS=2``: the same, plan threads
                      left at their default;
* ``procs-4``         ``REPRO_WORKERS=1 REPRO_POINT_WORKERS=4``.

Every session is a fresh interpreter whose ``PYTHONPATH`` is the tree's
``src`` and whose every other ``REPRO_*`` variable is stripped.  Within
one round the trees are interleaved inside each cell (the tree going
first alternates by round), so host drift lands on both alike.  Each
session reports its median op time and ``cpu/wall``: the CPU seconds of
the whole process and of its worker processes (``/proc/<pid>/stat``)
over the timed ops, divided by their wall-clock seconds — about 1 when
one core works, up to the slot count when every slot runs in parallel.
Reported per tree, program and configuration: the median of the
sessions' median op times with the lowest and highest in brackets, and
the median ``cpu/wall``.  The run fails unless every session of a
program, on every tree and configuration, produced the same checksum.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import time

NUM_GPUS = 4
WARMUP_OPS = 3

#: label -> (application, arguments, timed ops), as in PR 25's script.
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
    "default": {},
    "procs-2": {"REPRO_WORKERS": "1", "REPRO_POINT_WORKERS": "2"},
    "procs-2+threads": {"REPRO_POINT_WORKERS": "2"},
    "procs-4": {"REPRO_WORKERS": "1", "REPRO_POINT_WORKERS": "4"},
}


def cpu_seconds() -> float:
    """CPU seconds of this process and of its live worker processes."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = time.process_time()
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def session(label: str) -> None:
    """One session in this interpreter: prints its median op time and cpu/wall."""
    from repro.apps.base import build_application
    from repro.frontend.legate.context import RuntimeContext, set_context

    app_name, kwargs, ops = PROGRAMS[label]
    context = RuntimeContext(num_gpus=NUM_GPUS, fusion=True)
    set_context(context)
    try:
        app = build_application(app_name, context=context, **kwargs)
        app.run(WARMUP_OPS)
        times = []
        cpu_before, wall_before = cpu_seconds(), time.perf_counter()
        for _ in range(ops):
            start = time.perf_counter()
            app.run(1)
            times.append(time.perf_counter() - start)
        cpu = cpu_seconds() - cpu_before
        wall = time.perf_counter() - wall_before
        checksum = app.checksum()
    finally:
        set_context(None)
    report = {"op_ms": statistics.median(times) * 1e3, "cpu_wall": cpu / wall, "checksum": checksum}
    print(json.dumps(report))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], help="LABEL=PATH of a checkout")
    parser.add_argument("--sessions", type=int, default=3)
    parser.add_argument("--program", action="append", choices=sorted(PROGRAMS))
    parser.add_argument("--session", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.session:
        session(args.session)
        return 0

    trees = dict(tree.split("=", 1) for tree in args.tree) or {"tree": os.getcwd()}
    programs = args.program or list(PROGRAMS)
    results = {(t, p, c): [] for t in trees for p in programs for c in CONFIGS}
    checksums = {p: set() for p in programs}
    for round_ in range(args.sessions):
        order = list(trees) if round_ % 2 == 0 else list(trees)[::-1]
        for program in programs:
            for name, flags in CONFIGS.items():
                for tree in order:
                    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
                    env.update(flags, PYTHONPATH=os.path.join(trees[tree], "src"))
                    out = subprocess.run(
                        [sys.executable, os.path.abspath(__file__), "--session", program],
                        env=env, check=True, capture_output=True, text=True,
                    ).stdout
                    report = json.loads(out.strip().splitlines()[-1])
                    results[tree, program, name].append(report)
                    checksums[program].add(report["checksum"])

    print(
        f"{NUM_GPUS} ranks, {args.sessions} sessions; median op_ms "
        "(lowest-highest session) [median cpu/wall]"
    )
    for tree in trees:
        print(f"\n{tree}: {trees[tree]}")
        print(f"{'program':<22}" + "".join(f"{name:>28}" for name in CONFIGS))
        for program in programs:
            cells = []
            for name in CONFIGS:
                times = [report["op_ms"] for report in results[tree, program, name]]
                ratio = statistics.median(
                    report["cpu_wall"] for report in results[tree, program, name]
                )
                cells.append(
                    f"{statistics.median(times):.3g} ({min(times):.3g}-{max(times):.3g})"
                    f" [{ratio:.2f}]"
                )
            print(f"{program:<22}" + "".join(f"{cell:>28}" for cell in cells))
    agree = all(len(values) == 1 for values in checksums.values())
    print(f"\nchecksums agree across trees and configurations: {agree}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
