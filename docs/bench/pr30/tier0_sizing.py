#!/usr/bin/env python3
"""Sizing run for ROADMAP item 3: the interpreter as tier 0 on ``stream-churn``.

    python3 docs/bench/pr30/tier0_sizing.py [--rounds R] [--break-even N]

Runs benchmark sessions of ``stream-churn`` in one process, alternating
two sides each round (the side going first swaps every round): the
shipped codegen backend, and *tier 0*, where ``JITCompiler.compile``
lowers every kernel to an executor that runs the KIR interpreter until
the kernel has processed ``N`` element-operations (elements of a loop's
index buffer times the loop's statements, summed over calls), then
generates and compiles its source and runs the compiled closure from
then on.  Nothing under ``src/`` changes: the tier-0 executor lives in
this script and is patched in for its side's sessions only.  Each
session starts with a cold closure cache (``run_session`` clears it).

Per side, over the steady ops of every session: time in ``lower`` (the
source generation and compile the default backend does eagerly), time
in kernel bodies (compiled; tier 0 also interpreted, and the late
compiles on its break-even call), and the mean and median op time.  The
sides' checksums must agree and no op may fail.
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
from repro.kernel import codegen, compiler  # noqa: E402
from repro.kernel.kir import Loop  # noqa: E402
from repro.kernel.lowering import InterpreterExecutor, KernelExecutor  # noqa: E402

clock = time.perf_counter
#: Accumulated seconds of the current session's steady ops.
TOTALS = dict.fromkeys(("lower", "compiled", "interpreted", "late_compile"), 0.0)
STEADY = [False]


def _add(key: str, seconds: float) -> None:
    if STEADY[0]:
        TOTALS[key] += seconds


class Tier0Executor(KernelExecutor):
    """Interpret until ``break_even`` element-operations, then compile."""

    backend = "codegen"
    freshly_compiled = False
    break_even = 4_000_000

    def __init__(self, function, binding) -> None:
        super().__init__(function, binding)
        self.interpreter = InterpreterExecutor(function, binding)
        self.loops = [
            (loop.index_buffer, len(loop.body))
            for loop in function.body
            if isinstance(loop, Loop)
        ]
        self.seen = 0
        self.compiled = None

    def __call__(self, buffers, scalars):
        if self.compiled is not None:
            return self.compiled(buffers, scalars)  # timed as "compiled"
        if self.seen >= self.break_even:
            start = clock()
            self.compiled = codegen.CodegenExecutor(self.function, self.binding)
            _add("late_compile", clock() - start)
            return self(buffers, scalars)
        sizes = {name: array.size for name, array in buffers.items() if array is not None}
        widest = max(sizes.values(), default=1)
        self.seen += sum(sizes.get(index, widest) * statements for index, statements in self.loops)
        start = clock()
        try:
            return self.interpreter(buffers, scalars)
        finally:
            _add("interpreted", clock() - start)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--break-even", type=float, default=4e6)
    args = parser.parse_args()
    Tier0Executor.break_even = int(args.break_even)

    lower, call = compiler.lower, codegen.CodegenExecutor.__call__

    def timed_lower(function, binding, backend=None):
        start = clock()
        try:
            if tier0[0] and (backend or "codegen") == "codegen":
                return Tier0Executor(function, binding)
            return lower(function, binding, backend)
        finally:
            _add("lower", clock() - start)

    def timed_call(self, buffers, scalars):
        start = clock()
        try:
            return call(self, buffers, scalars)
        finally:
            _add("compiled", clock() - start)

    tier0 = [False]
    compiler.lower = timed_lower
    codegen.CodegenExecutor.__call__ = timed_call

    workload = workloads.BY_NAME["stream-churn"]
    samples = {"codegen": [], "tier0": []}
    with workloads.scoped_flags(dict(workload.env)):
        prepared = workload.prepare(0)
        workloads.run_session(workload, prepared)  # warm the interpreter
        for round_index in range(args.rounds):
            order = ["codegen", "tier0"] if round_index % 2 == 0 else ["tier0", "codegen"]
            for side in order:
                tier0[0] = side == "tier0"
                TOTALS.update(dict.fromkeys(TOTALS, 0.0))
                session = workloads.run_session(
                    workload, prepared,
                    on_op=lambda index: STEADY.__setitem__(0, index is not None),
                )
                assert not session.error and not session.failed, session.error
                samples[side].append((session, dict(TOTALS)))

    checksums = {side: {session.checksum for session, _ in rows} for side, rows in samples.items()}
    assert len(checksums["codegen"] | checksums["tier0"]) == 1, checksums
    print(
        f"stream-churn, seed 0: {args.rounds} sessions per side, alternating; "
        f"tier-0 break-even {Tier0Executor.break_even:,} element-operations"
    )
    print("side      lower  compiled  interpreted  late_compile  op_mean  op_median  (ms per steady op)")
    for side, rows in samples.items():
        ops = [op for session, _ in rows for op in session.op_s]
        per_op = {key: sum(totals[key] for _, totals in rows) * 1e3 / len(ops) for key in TOTALS}
        print(
            f"{side:<8} {per_op['lower']:6.2f}  {per_op['compiled']:8.2f}  "
            f"{per_op['interpreted']:11.2f}  {per_op['late_compile']:12.2f}  "
            f"{statistics.fmean(ops) * 1e3:7.2f}  {statistics.median(ops) * 1e3:9.2f}"
        )
    print(f"checksum {checksums['codegen'].pop()!r} on both sides")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
