#!/usr/bin/env python3
"""``sim.fusion_speedup`` of the ``stream-churn`` corpus against iterations per program.

    python3 docs/bench/pr19/fig13_curve.py [--seed N]

The benchmark runs every generated program for three iterations, where
fusion *loses* in simulated time (``sim.fusion_speedup`` 0.064): the
modelled JIT seconds of a program's kernels are charged once and three
iterations of saved launches do not repay them.  The paper's Figure 13
is the same trade against the iteration count; this script drives the
benchmark's own generator and session runner — the first eight steady
ops, exactly the ops ``sim.fusion_speedup`` is computed over — with the
iteration count as the only variable, so the committed value is one
point on a curve.  Simulated seconds are deterministic: one run each.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from e2ebench import runner, workloads  # noqa: E402

ITERATIONS = (1, 3, 10, 100)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args().seed
    workload = workloads.BY_NAME["stream-churn"]
    print("iterations  unfused_s  fused_s  compile_s  sim.fusion_speedup  break-even")
    with workloads.scoped_flags(dict(workload.env)):
        prepared = workload.prepare(seed)
        for iterations in ITERATIONS:
            workloads.ChurnTarget.ITERATIONS = iterations
            unfused = workloads.run_session(
                workload, prepared, fusion=False, steady_ops=runner.UNFUSED_OPS
            )
            fused = workloads.run_session(workload, prepared, steady_ops=runner.UNFUSED_OPS)
            assert not (unfused.error or unfused.failed or fused.error or fused.failed)
            compile_s = fused.counters["compile_seconds"] - fused.counters_warm["compile_seconds"]
            unfused_s, fused_s = sum(unfused.sim_op_s), sum(fused.sim_op_s)
            # Iterations at which the launches saved per iteration repay
            # the compile seconds (Figure 13's x-intercept), from this row.
            saved_per_iteration = (unfused_s - (fused_s - compile_s)) / iterations
            print(
                f"{iterations:10d}  {unfused_s:9.4f}  {fused_s:7.4f}  {compile_s:9.4f}  "
                f"{unfused_s / fused_s:18.4f}  {compile_s / saved_per_iteration:10.0f}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
