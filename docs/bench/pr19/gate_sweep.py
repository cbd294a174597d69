#!/usr/bin/env python3
"""The ``N``/``B`` sweep behind the super-kernel gate's two constants.

    python3 docs/bench/pr19/gate_sweep.py [--rounds R]

Runs benchmark sessions of ``stream-churn`` and ``cg-manyrank`` in one
process with ``superkernel.SPECULATIVE_LOWERINGS`` (``N``) and
``superkernel.BREAK_EVEN_REPLAYS`` (``B``) patched to each setting in
turn, the settings taken round-robin so host drift lands on all of them
alike.  Per setting, medians over the sessions of: the per-session
median op time, the warm-up time, plans lowered and the time that took
(``maybe_lower_plan``), and the time of one replay without it
(``PlanScheduler.execute`` minus the lowering, per trace hit).  The
break-even ``B`` is the cost to lower one plan divided by what a replay
of a lowered plan saves: the first row (``N`` unbounded, ``B`` = 1: the
parent's behaviour, every plan lowered at its first replay) against the
last (never lowered).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from e2ebench import workloads  # noqa: E402
from repro.runtime import superkernel  # noqa: E402
from repro.runtime.scheduler import PlanScheduler  # noqa: E402

NEVER = 10**9
#: (N, B); the first is the parent's behaviour, the last never lowers.
SETTINGS = [
    (NEVER, 1), (0, 2), (0, 4), (0, 6), (0, 8), (0, 12),
    (2, 6), (4, 6), (8, 6), (4, 4), (4, 8), (0, NEVER),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    rounds = parser.parse_args().rounds

    clock = time.perf_counter
    totals = {"lower_s": 0.0, "lowered": 0, "replay_s": 0.0}
    lower, execute = superkernel.maybe_lower_plan, PlanScheduler.execute

    def timed_lower(plan, tasks, profiler=None):
        fresh = plan.superkernel is None
        start = clock()
        try:
            lowered = lower(plan, tasks, profiler)
        finally:
            totals["lower_s"] += clock() - start
        totals["lowered"] += fresh and lowered is not None
        return lowered

    def timed_execute(self, *args):
        start = clock()
        try:
            return execute(self, *args)
        finally:
            totals["replay_s"] += clock() - start

    superkernel.maybe_lower_plan = timed_lower
    PlanScheduler.execute = timed_execute

    for name in ("stream-churn", "cg-manyrank"):
        workload = workloads.BY_NAME[name]
        samples = {setting: [] for setting in SETTINGS}
        with workloads.scoped_flags(dict(workload.env)):
            prepared = workload.prepare(0)
            workloads.run_session(workload, prepared)
            for _ in range(rounds):
                for setting in SETTINGS:
                    superkernel.SPECULATIVE_LOWERINGS, superkernel.BREAK_EVEN_REPLAYS = setting
                    totals.update(lower_s=0.0, lowered=0, replay_s=0.0)
                    session = workloads.run_session(workload, prepared)
                    assert not session.error and not session.failed, session.error
                    replays = session.counters["trace_hits"]
                    samples[setting].append(
                        (
                            statistics.median(session.op_s) * 1e3,
                            session.warmup_s * 1e3,
                            totals["lowered"],
                            totals["lower_s"] * 1e3,
                            (totals["replay_s"] - totals["lower_s"]) / replays * 1e3,
                            session.counters["decline_plan_not_hot"],
                        )
                    )
        print(f"\n{name}: medians of {rounds} sessions per setting")
        print("     N      B   op_ms  warmup_ms  plans_lowered  lower_ms  replay_ms  not_hot_replays")
        for setting, rows in samples.items():
            slots, break_even = ("inf" if value == NEVER else value for value in setting)
            op, warm, lowered, lowering, replay, declined = (
                statistics.median(column) for column in zip(*rows)
            )
            print(
                f"{slots:>6} {break_even:>6}  {op:6.3f}  {warm:9.2f}  {lowered:13.0f}  "
                f"{lowering:8.2f}  {replay:9.4f}  {declined:15.0f}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
