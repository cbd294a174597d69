#!/usr/bin/env python3
"""Where the sending thread and its worker run, in one process.

    PYTHONPATH=PATH/src python3 docs/bench/pr34/probe.py [OPS] [--variant V]

Runs the ``swe-wide-process`` shape (``torchswe-manual``, 4 ranks, 64
points per rank, ``REPRO_POINT_WORKERS=2``) for 3 warm-up ops and then
OPS timed ops (default 1500), and prints one JSON line:

* ``op_ms`` / ``mean_ms`` / ``p10`` / ``p90`` / ``p99`` — op times;
* ``ratio`` — CPU seconds of this process and its worker over wall
  seconds (about 1: one core busy; up to 2: both slots in parallel);
* ``invol`` / ``mig`` — involuntary context switches and migrations of
  the sending thread per op, ``winvol`` / ``wmig`` the worker's
  (``/proc/<pid>/task/<tid>/sched``);
* ``send_med_us`` / ``send_mean_us`` — ``ProcessWorkerPool._send`` of a
  level frame.

``--variant`` alters a tree with placement: ``worker-only`` pins the
worker but never confines the sending thread; ``swap`` pins the worker
to the lowest allowed CPU and leaves slot 0 the rest.
"""

import argparse
import json
import multiprocessing
import os
import statistics
import threading
import time

os.environ.setdefault("REPRO_POINT_WORKERS", "2")

from repro.apps.base import build_application  # noqa: E402
from repro.frontend.legate.context import RuntimeContext, set_context  # noqa: E402
from repro.runtime import procpool  # noqa: E402


def sched(path: str) -> dict:
    wanted = ("se.nr_migrations", "nr_involuntary_switches")
    fields = (line.split(":", 1) for line in open(path) if ":" in line)
    return {key.strip(): float(value) for key, value in fields if key.strip() in wanted}


def cpu_seconds() -> float:
    ticks = os.sysconf("SC_CLK_TCK")
    total = time.process_time()
    for child in multiprocessing.active_children():
        fields = open(f"/proc/{child.pid}/stat").read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def apply_variant(variant: str) -> None:
    pool = procpool.ProcessWorkerPool
    if variant == "worker-only":
        pool._confine_sender = lambda self: None
    elif variant == "swap":
        def place(self):
            allowed = sorted(os.sched_getaffinity(0))
            cpus = allowed[: self.size - 1]
            for process, cpu in zip(self._processes, cpus):
                os.sched_setaffinity(process.pid, {cpu})
            self._sender_cpus = set(allowed) - set(cpus)
            self.placement = "swapped"

        pool._place = place


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ops", nargs="?", type=int, default=1500)
    parser.add_argument("--variant", choices=("worker-only", "swap"))
    args = parser.parse_args()
    if args.variant:
        apply_variant(args.variant)
    sends = []
    send = procpool.ProcessWorkerPool._send

    def timed_send(self, worker, message):
        start = time.perf_counter()
        send(self, worker, message)
        if message[0] == "r":
            sends.append(time.perf_counter() - start)

    procpool.ProcessWorkerPool._send = timed_send
    context = RuntimeContext(num_gpus=4, fusion=True)
    set_context(context)
    try:
        app = build_application("torchswe-manual", context=context, points_per_gpu=64)
        app.run(3)
        sender = f"/proc/{os.getpid()}/task/{threading.get_native_id()}/sched"
        workers = [f"/proc/{child.pid}/sched" for child in multiprocessing.active_children()]
        before, workers_before = sched(sender), [sched(path) for path in workers]
        del sends[:]
        cpu, wall = cpu_seconds(), time.perf_counter()
        times = []
        for _ in range(args.ops):
            start = time.perf_counter()
            app.run(1)
            times.append(time.perf_counter() - start)
        wall, cpu = time.perf_counter() - wall, cpu_seconds() - cpu
        after, workers_after = sched(sender), [sched(path) for path in workers]
    finally:
        set_context(None)
        procpool.shutdown_process_pool()

    def per_op(a, b, key):
        return round((b[key] - a[key]) / args.ops, 3)

    quantiles = statistics.quantiles(times, n=100)
    report = {
        "op_ms": statistics.median(times) * 1e3,
        "mean_ms": wall / args.ops * 1e3,
        "p10": quantiles[9] * 1e3,
        "p90": quantiles[89] * 1e3,
        "p99": quantiles[98] * 1e3,
        "ratio": cpu / wall,
        "send_med_us": statistics.median(sends) * 1e6,
        "send_mean_us": statistics.mean(sends) * 1e6,
    }
    report = {key: round(value, 3) for key, value in report.items()}
    report["invol"] = per_op(before, after, "nr_involuntary_switches")
    report["mig"] = per_op(before, after, "se.nr_migrations")
    report["winvol"] = [
        per_op(a, b, "nr_involuntary_switches") for a, b in zip(workers_before, workers_after)
    ]
    report["wmig"] = [per_op(a, b, "se.nr_migrations") for a, b in zip(workers_before, workers_after)]
    print(json.dumps(report))


if __name__ == "__main__":
    main()
