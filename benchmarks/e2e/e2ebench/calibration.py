"""Host-speed calibration: how slow is this machine right now?

The shared two-core hosts this benchmark runs on switch between speed
states that last from a fraction of a second to minutes: the same code
— CPU time included — runs at 0.77x, 1.0x or 1.3x of its usual time
(measured on ``cg-manyrank``: per-session medians of 0.77 / 1.00 / 1.30
ms, the calibration kernels below moving in step).  No estimator over
the samples of a 24 s run can remove a state that holds for the whole
run, so every session is bracketed by a few milliseconds of fixed work
that touches none of the code under test, and the session's timings are
divided by how much slower than its reference that work ran.  Timings
are thereby reported in *reference-speed* seconds: what the run would
have taken with the host in its usual state.

Three kernels, because the workloads are bound by different things: a
pure-Python loop (interpreter speed), small NumPy calls over
cache-resident arrays (ufunc dispatch and L2 bandwidth) and large NumPy
calls with a transcendental (memory and floating point).  The slowdown
is the mean of the three ratios; on 200 s of back-to-back sessions per
workload it cut the spread of 24 s medians from 3-4 % (range 8-21 %) to
1-3 % (range 3-8 %).
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds each kernel takes on the reference host in its usual state.
REFERENCE_S = (1.67e-3, 3.67e-3, 2.32e-3)

_SMALL_A = np.random.default_rng(0).uniform(0.5, 2.0, 65536)
_SMALL_B = _SMALL_A.copy()
_BIG_A = np.random.default_rng(1).uniform(0.5, 2.0, 262144)
_BIG_B = _BIG_A.copy()


def _python_kernel() -> float:
    start = time.perf_counter()
    table = {}
    total = 0
    for index in range(20000):
        table[index & 255] = (index, total)
        total += len(table)
    return time.perf_counter() - start


def _small_kernel() -> float:
    start = time.perf_counter()
    for _ in range(40):
        np.add(_SMALL_A, _SMALL_B, out=_SMALL_B)
        np.sqrt(_SMALL_B, out=_SMALL_B)
        np.multiply(_SMALL_B, 0.5, out=_SMALL_B)
    return time.perf_counter() - start


def _big_kernel() -> float:
    start = time.perf_counter()
    for _ in range(4):
        np.multiply(_BIG_A, 0.5, out=_BIG_B)
        np.exp(_BIG_B, out=_BIG_B)
        np.add(_BIG_A, _BIG_B, out=_BIG_B)
    return time.perf_counter() - start


_KERNELS = (_python_kernel, _small_kernel, _big_kernel)


def slowdown() -> float:
    """Current time of the calibration work over its reference time.

    Each kernel runs twice and its faster time counts, so a one-off
    preemption during calibration does not read as a slow host.
    """
    ratios = [
        min(kernel(), kernel()) / reference
        for kernel, reference in zip(_KERNELS, REFERENCE_S)
    ]
    return sum(ratios) / len(ratios)
