#!/usr/bin/env python
"""Wall-clock performance harness: seed interpreter vs codegen vs trace.

Unlike the ``benchmarks/test_*`` suite — which reproduces the paper's
*simulated* figures — this harness measures the reproduction's own
**real wall-clock** execution speed, establishing the perf trajectory of
the repository.  It runs CG, Jacobi, Black-Scholes, two-mat-vec, GMG,
BiCGSTAB, CFD and TorchSWE (natural and manually-vectorised)
end-to-end (fusion enabled) under these configurations:

``baseline``
    ``REPRO_KERNEL_BACKEND=interpreter`` + ``REPRO_HOTPATH_CACHE=0`` +
    ``REPRO_TRACE=0``: the seed execution path — tree-walking kernel
    interpretation, no submit→fuse→execute caching, eager submission.

``codegen``
    ``REPRO_KERNEL_BACKEND=codegen`` + ``REPRO_HOTPATH_CACHE=1`` +
    ``REPRO_TRACE=0``: the PR-1 path — kernels compiled once to NumPy
    closures, sub-store rect/view caching, partition interning and
    memoized canonical signatures, but every task still resolved through
    the full pipeline every iteration.

``trace``
    ``codegen`` plus ``REPRO_TRACE=1`` with ``REPRO_WORKERS=1`` and
    ``REPRO_NORMALIZE=0``: the PR-2 path — repeated epochs bypass window
    buffering, fusion analysis, memoization lookups and per-task
    coherence recomputation and replay a captured execution plan, step
    by step with the PR-2 kernel shapes.

``scheduler``
    ``trace`` plus the PR-3 plan scheduler: ``REPRO_WORKERS=4`` executes
    each captured plan through its dependence partition (independent
    steps overlap on the worker pool) and ``REPRO_NORMALIZE=1`` enables
    the algebraic-normalisation/CSE improvements (bit-exact erf/negation
    rewrites, value-deduplicated scalar parameters) that ship with it.

``point``
    ``scheduler`` plus intra-launch point dispatch:
    ``REPRO_POINT_WORKERS=4`` partitions the per-rank point tasks of
    each multi-rank launch into contiguous chunks executed across the
    shared worker pool (the PR-4 tentpole) — the first mode whose
    speedup comes from filling the machine *inside* a single launch.

``process``
    ``point`` plus ``REPRO_DISPATCH_BACKEND=process``: rank chunks of
    compiled launches execute on a persistent pool of worker processes
    over zero-copy shared-memory region fields (the PR-5 tentpole),
    removing the GIL ceiling that bounds the thread substrate on
    interpreter-heavy and small-tile kernels.

``superkernel``
    ``scheduler`` plus ``REPRO_SUPERKERNEL=1``: captured plans are
    lowered to epoch super-kernels once replayed (the PR-6 tentpole) —
    producer→consumer compiled steps splice into one generated function
    and independent same-shape steps merge horizontally, so a steady
    replay epoch runs a handful of fused closure calls instead of one
    per step per rank.  Every legacy mode pins ``REPRO_SUPERKERNEL=0``
    (the flag defaults to on) so they keep measuring their own layer.

``resident``
    ``process`` plus ``REPRO_RESIDENT_PLANS=1``: captured plans are
    shipped to the worker processes once (kernel specs, step geometry,
    shared-memory descriptors) and every subsequent replay dispatch
    sends only ``(plan id, epoch scalars, rank ranges)`` — the PR-7
    tentpole, which removes the per-epoch serialization of chunk
    requests from the process substrate's steady state.  Every legacy
    mode pins ``REPRO_RESIDENT_PLANS=0`` (the flag defaults to on under
    the process backend) so ``process`` keeps measuring the per-chunk
    protocol.

The ``scheduler`` mode is additionally timed against ``trace`` on a
kernel-dominated gate configuration (Black-Scholes with a large batch,
where the deduplicated transcendentals dominate); full mode enforces a
>= 1.2x scheduler-over-trace speedup there.  The ``point`` mode has its
own gate: a multi-rank, kernel-dominated Jacobi configuration (the
opaque GEMV dominates and its 8 rank tiles parallelise across the
pool), where full mode enforces a >= 1.3x point-over-scheduler speedup
— on hosts with at least two CPUs.  The ``process`` mode's gate is an
interpreter-heavy small-tile Black-Scholes configuration where thread
dispatch is GIL-bound: the worker-process substrate must beat it by
>= 1.3x, again enforced on multi-core hosts only.  Dispatch is machine
parallelism, so on a single-core host the dispatch-gate measurements
are recorded (and checksum equality still enforced) but the speedup
thresholds are reported as not enforceable.  The ``superkernel`` mode
has its own gate: a steady-epoch CG configuration at high rank count,
where per-step closure dispatch dominates replay — full mode enforces a
>= 1.2x superkernel-over-scheduler paired speedup there (no core
requirement: the win is single-thread overhead elimination), plus a
>= 3x drop in compiled-closure calls per replay epoch on the CG sweep,
asserted on the deterministic profiler counters.  The ``resident`` mode
has a two-part gate on a steady-epoch, many-rank CG configuration:
``wire_bytes_per_epoch`` must drop >= 10x vs the per-chunk protocol —
the counters size the actual pickled pipe payloads, so this is
deterministic and enforced regardless of core count — and the paired
resident-over-chunked wall-clock speedup must reach >= 1.2x on hosts
with at least two CPUs (``host_cpus`` is recorded either way).
The opaque-chunk gate (PR-8) compares per-rank vs chunk-level opaque
operator execution on the two-mat-vec GEMV app at 8 ranks — the two
legs differ only in ``REPRO_OPAQUE_CHUNKS`` — and enforces a >= 4x
drop in opaque operator calls per steady epoch on the deterministic
profiler counters (full mode, regardless of core count).
The wide-dispatch gate (PR-9) runs torchswe-manual — whose three
independent opaque update operators form width-3 dependence levels —
on the full stack under both dispatch substrates: the thread leg's
nested-dispatch guard forces every step of a wide level onto serial
thread chunks, the process leg ships all in-flight steps' chunks to
the worker-process pool concurrently.  ``plan_width_max >= 2``, a
width>=2 entry in the level-width histogram and nonzero
process-substrate chunk counts are deterministic and enforced in every
mode; the >= 1.2x paired process-over-thread wall-clock threshold is
enforced on multi-core hosts in full mode.  The sweep itself also
fails if a promoted wide app records ``plan_width_max < 2`` in
scheduler mode (the silent-width blind spot).
``--gates-only`` runs just the gate measurements at full scale (the CI
gate job).

Before timing, a differential pass (``REPRO_KERNEL_BACKEND=differential``
with tracing, the scheduler, point dispatch AND the process dispatch
backend enabled, so replayed, scheduled and process-chunked epochs are
all checked) runs every application once with both backends on every
kernel invocation and aborts on any bitwise divergence; checksum
equality between all timed runs is asserted as well.  Trace hit counts, hit rates, plan-scheduler
statistics (DAG width, worker utilisation), point-dispatch statistics
(width, chunk counts, utilisation) and scalar-pattern-flip counts are
recorded, and every iterative app must report >0 trace hits.
A mode's speedup column is a statement about its layer, so the
``point``, ``process`` and ``resident`` speedups are ``null`` (console:
"not engaged"), with ``point_engaged`` / ``process_engaged`` /
``resident_engaged`` false beside them, for an app on which the layer
never ran — no dispatched point chunks, no point or opaque chunks on
the worker processes, no resident process chunks.
Results are written to ``BENCH_wallclock.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf_wallclock.py [--smoke] [--output PATH]

``--smoke`` shrinks repeats/iterations for CI (``make bench``); the
speedup gates are only enforced in full mode, divergence and missing
trace hits fail both modes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro import config
from repro.experiments.harness import (
    ExperimentScale,
    default_scale_for,
    run_application_experiment,
)

#: Per-application measurement configurations.  Problem sizes sit in the
#: paper's operating regime — many small point tasks, where launch and
#: analysis overheads (the thing this harness measures) dominate.
APP_CONFIGS = {
    "cg": dict(num_gpus=8, iterations=64, warmup=2, app_kwargs={"grid_points_per_gpu": 24}),
    "jacobi": dict(num_gpus=8, iterations=48, warmup=2, app_kwargs={"rows_per_gpu": 96}),
    "black-scholes": dict(num_gpus=8, iterations=120, warmup=3, app_kwargs={"elements_per_gpu": 512}),
    # Width-2 dependence DAG: two independent mat-vec recurrences per
    # epoch, so the sweep exercises wide plan levels (plan_width_max > 1)
    # and the super-kernel pass's opaque-step fallback (GEMV stays
    # opaque) on every mode.
    "two-matvec": dict(num_gpus=8, iterations=48, warmup=2, app_kwargs={"rows_per_gpu": 48}),
    # Interleaves fusible smoother chains with three distinct opaque
    # operator families (SpMV, restriction, prolongation), so the sweep —
    # and in particular the differential pass with chunked opaque
    # execution on the process backend — covers every registered chunk
    # implementation end to end.  No perf gate yet: the V-cycle's task
    # mix is too varied for a stable paired ratio at smoke scale.
    "gmg": dict(num_gpus=8, iterations=12, warmup=2, app_kwargs={"grid_points_per_gpu": 16}),
    # Promoted first-class perf citizens (PR-9): the three remaining
    # paper apps.  BiCGSTAB is a two-SpMV Krylov chain; CFD interleaves
    # one opaque stencil with a long fusible pressure/velocity stream;
    # torchswe-manual's three independent opaque update operators give
    # the sweep its genuinely *wide* (width-3) dependence levels — the
    # regime the wide-dispatch gate below measures.
    "bicgstab": dict(num_gpus=8, iterations=24, warmup=2, app_kwargs={"grid_points_per_gpu": 24}),
    "cfd": dict(num_gpus=4, iterations=12, warmup=2, app_kwargs={"points_per_gpu": 48, "pressure_iterations": 4}),
    "torchswe": dict(num_gpus=4, iterations=12, warmup=2, app_kwargs={"points_per_gpu": 48}),
    "torchswe-manual": dict(num_gpus=4, iterations=12, warmup=2, app_kwargs={"points_per_gpu": 64}),
}

SMOKE_CONFIGS = {
    "cg": dict(num_gpus=4, iterations=10, warmup=2, app_kwargs={"grid_points_per_gpu": 24}),
    "jacobi": dict(num_gpus=4, iterations=8, warmup=2, app_kwargs={"rows_per_gpu": 64}),
    "black-scholes": dict(num_gpus=4, iterations=10, warmup=2, app_kwargs={"elements_per_gpu": 512}),
    "two-matvec": dict(num_gpus=4, iterations=8, warmup=2, app_kwargs={"rows_per_gpu": 32}),
    "gmg": dict(num_gpus=4, iterations=4, warmup=2, app_kwargs={"grid_points_per_gpu": 12}),
    "bicgstab": dict(num_gpus=4, iterations=6, warmup=2, app_kwargs={"grid_points_per_gpu": 24}),
    "cfd": dict(num_gpus=4, iterations=4, warmup=2, app_kwargs={"points_per_gpu": 24, "pressure_iterations": 2}),
    "torchswe": dict(num_gpus=4, iterations=4, warmup=2, app_kwargs={"points_per_gpu": 24}),
    # The smoke size keeps the interior exactly at the dispatch-volume
    # floor (64^2 * 4 ranks -> a 128^2 interior = 16384 elements), so
    # the wide levels still *dispatch* — and therefore still exercise
    # the process substrate — in CI.
    "torchswe-manual": dict(num_gpus=4, iterations=4, warmup=2, app_kwargs={"points_per_gpu": 64}),
}

#: Promoted wide-plan apps whose scheduler-mode run must record
#: width >= 2 dependence levels (``plan_width_max``): the wide-dispatch
#: machinery only engages on such levels, so a width-1 record means the
#: config silently stopped exercising it.  Deterministic (the captured
#: schedule's shape), so this is enforced in smoke and full mode alike.
WIDTH_REQUIRED_APPS = ("torchswe-manual",)

MODES = {
    "baseline": {
        "REPRO_KERNEL_BACKEND": "interpreter",
        "REPRO_HOTPATH_CACHE": "0",
        "REPRO_TRACE": "0",
        "REPRO_WORKERS": "1",
        "REPRO_POINT_WORKERS": "1",
        "REPRO_NORMALIZE": "0",
        "REPRO_DISPATCH_BACKEND": "thread",
        "REPRO_SUPERKERNEL": "0",
        "REPRO_RESIDENT_PLANS": "0",
        "REPRO_OPAQUE_CHUNKS": "0",
    },
    "codegen": {
        "REPRO_KERNEL_BACKEND": "codegen",
        "REPRO_HOTPATH_CACHE": "1",
        "REPRO_TRACE": "0",
        "REPRO_WORKERS": "1",
        "REPRO_POINT_WORKERS": "1",
        "REPRO_NORMALIZE": "0",
        "REPRO_DISPATCH_BACKEND": "thread",
        "REPRO_SUPERKERNEL": "0",
        "REPRO_RESIDENT_PLANS": "0",
        "REPRO_OPAQUE_CHUNKS": "0",
    },
    "trace": {
        "REPRO_KERNEL_BACKEND": "codegen",
        "REPRO_HOTPATH_CACHE": "1",
        "REPRO_TRACE": "1",
        "REPRO_WORKERS": "1",
        "REPRO_POINT_WORKERS": "1",
        "REPRO_NORMALIZE": "0",
        "REPRO_DISPATCH_BACKEND": "thread",
        "REPRO_SUPERKERNEL": "0",
        "REPRO_RESIDENT_PLANS": "0",
        "REPRO_OPAQUE_CHUNKS": "0",
    },
    "scheduler": {
        "REPRO_KERNEL_BACKEND": "codegen",
        "REPRO_HOTPATH_CACHE": "1",
        "REPRO_TRACE": "1",
        "REPRO_WORKERS": "4",
        "REPRO_POINT_WORKERS": "1",
        "REPRO_NORMALIZE": "1",
        "REPRO_DISPATCH_BACKEND": "thread",
        "REPRO_SUPERKERNEL": "0",
        "REPRO_RESIDENT_PLANS": "0",
        "REPRO_OPAQUE_CHUNKS": "0",
    },
    # The PR-6 tentpole: identical to ``scheduler`` except that captured
    # plans are lowered to epoch super-kernels, so the paired gate below
    # isolates exactly the fused-closure effect.
    "superkernel": {
        "REPRO_KERNEL_BACKEND": "codegen",
        "REPRO_HOTPATH_CACHE": "1",
        "REPRO_TRACE": "1",
        "REPRO_WORKERS": "4",
        "REPRO_POINT_WORKERS": "1",
        "REPRO_NORMALIZE": "1",
        "REPRO_DISPATCH_BACKEND": "thread",
        "REPRO_SUPERKERNEL": "1",
        "REPRO_RESIDENT_PLANS": "0",
        "REPRO_OPAQUE_CHUNKS": "0",
    },
    "point": {
        "REPRO_KERNEL_BACKEND": "codegen",
        "REPRO_HOTPATH_CACHE": "1",
        "REPRO_TRACE": "1",
        "REPRO_WORKERS": "4",
        "REPRO_POINT_WORKERS": "4",
        "REPRO_NORMALIZE": "1",
        "REPRO_DISPATCH_BACKEND": "thread",
        "REPRO_SUPERKERNEL": "0",
        "REPRO_RESIDENT_PLANS": "0",
        "REPRO_OPAQUE_CHUNKS": "0",
    },
    "process": {
        "REPRO_KERNEL_BACKEND": "codegen",
        "REPRO_HOTPATH_CACHE": "1",
        "REPRO_TRACE": "1",
        "REPRO_WORKERS": "4",
        "REPRO_POINT_WORKERS": "4",
        "REPRO_NORMALIZE": "1",
        "REPRO_DISPATCH_BACKEND": "process",
        "REPRO_SUPERKERNEL": "0",
        "REPRO_RESIDENT_PLANS": "0",
        "REPRO_OPAQUE_CHUNKS": "0",
    },
    # The PR-7 tentpole: identical to ``process`` except that captured
    # plans live in the worker processes, so the paired gate below
    # isolates exactly the plan-residency effect.
    "resident": {
        "REPRO_KERNEL_BACKEND": "codegen",
        "REPRO_HOTPATH_CACHE": "1",
        "REPRO_TRACE": "1",
        "REPRO_WORKERS": "4",
        "REPRO_POINT_WORKERS": "4",
        "REPRO_NORMALIZE": "1",
        "REPRO_DISPATCH_BACKEND": "process",
        "REPRO_SUPERKERNEL": "0",
        "REPRO_RESIDENT_PLANS": "1",
        "REPRO_OPAQUE_CHUNKS": "0",
    },
    # The resident gate's two legs: the process substrate at a wider
    # point-dispatch fan-out (many chunks per step, so the per-chunk
    # protocol re-serializes many requests per epoch), chunked vs
    # plan-resident.
    "process-wide": {
        "REPRO_KERNEL_BACKEND": "codegen",
        "REPRO_HOTPATH_CACHE": "1",
        "REPRO_TRACE": "1",
        "REPRO_WORKERS": "4",
        "REPRO_POINT_WORKERS": "16",
        "REPRO_NORMALIZE": "1",
        "REPRO_DISPATCH_BACKEND": "process",
        "REPRO_SUPERKERNEL": "0",
        "REPRO_RESIDENT_PLANS": "0",
        "REPRO_OPAQUE_CHUNKS": "0",
    },
    "resident-wide": {
        "REPRO_KERNEL_BACKEND": "codegen",
        "REPRO_HOTPATH_CACHE": "1",
        "REPRO_TRACE": "1",
        "REPRO_WORKERS": "4",
        "REPRO_POINT_WORKERS": "16",
        "REPRO_NORMALIZE": "1",
        "REPRO_DISPATCH_BACKEND": "process",
        "REPRO_SUPERKERNEL": "0",
        "REPRO_RESIDENT_PLANS": "1",
        "REPRO_OPAQUE_CHUNKS": "0",
    },
    # The wide-dispatch gate's two legs (PR-9): the full stack — trace,
    # scheduler, point dispatch, resident plans, opaque chunks — on the
    # two dispatch substrates.  Only ``REPRO_DISPATCH_BACKEND`` differs
    # (resident plans and the wide-level guard lift are no-ops under the
    # thread backend), so the paired ratio isolates what shipping the
    # chunks of width>1 levels to the worker-process pool buys over the
    # serial thread chunks the nested-dispatch guard forces.
    "wide-thread": {
        "REPRO_KERNEL_BACKEND": "codegen",
        "REPRO_HOTPATH_CACHE": "1",
        "REPRO_TRACE": "1",
        "REPRO_WORKERS": "4",
        "REPRO_POINT_WORKERS": "4",
        "REPRO_NORMALIZE": "1",
        "REPRO_DISPATCH_BACKEND": "thread",
        "REPRO_SUPERKERNEL": "0",
        "REPRO_RESIDENT_PLANS": "1",
        "REPRO_OPAQUE_CHUNKS": "1",
    },
    "wide-process": {
        "REPRO_KERNEL_BACKEND": "codegen",
        "REPRO_HOTPATH_CACHE": "1",
        "REPRO_TRACE": "1",
        "REPRO_WORKERS": "4",
        "REPRO_POINT_WORKERS": "4",
        "REPRO_NORMALIZE": "1",
        "REPRO_DISPATCH_BACKEND": "process",
        "REPRO_SUPERKERNEL": "0",
        "REPRO_RESIDENT_PLANS": "1",
        "REPRO_OPAQUE_CHUNKS": "1",
    },
    # The process gate compares the two dispatch substrates on an
    # interpreter-heavy, small-tile configuration: the tree-walking
    # kernel backend holds the GIL between its many small NumPy calls,
    # so thread point dispatch cannot scale there while worker processes
    # can (the PR-5 tentpole's target regime).
    "point-gil": {
        "REPRO_KERNEL_BACKEND": "interpreter",
        "REPRO_HOTPATH_CACHE": "1",
        "REPRO_TRACE": "1",
        "REPRO_WORKERS": "4",
        "REPRO_POINT_WORKERS": "4",
        "REPRO_NORMALIZE": "1",
        "REPRO_DISPATCH_BACKEND": "thread",
        "REPRO_SUPERKERNEL": "0",
        "REPRO_RESIDENT_PLANS": "0",
        "REPRO_OPAQUE_CHUNKS": "0",
    },
    "process-gil": {
        "REPRO_KERNEL_BACKEND": "interpreter",
        "REPRO_HOTPATH_CACHE": "1",
        "REPRO_TRACE": "1",
        "REPRO_WORKERS": "4",
        "REPRO_POINT_WORKERS": "4",
        "REPRO_NORMALIZE": "1",
        "REPRO_DISPATCH_BACKEND": "process",
        "REPRO_SUPERKERNEL": "0",
        "REPRO_RESIDENT_PLANS": "0",
        "REPRO_OPAQUE_CHUNKS": "0",
    },
    "differential": {
        "REPRO_KERNEL_BACKEND": "differential",
        "REPRO_HOTPATH_CACHE": "1",
        "REPRO_TRACE": "1",
        "REPRO_WORKERS": "4",
        "REPRO_POINT_WORKERS": "4",
        "REPRO_NORMALIZE": "1",
        # The differential pass certifies the *process* substrate too:
        # every replayed, scheduled and process-chunked epoch is checked
        # kernel by kernel, so ``make bench`` smoke fails on any process
        # backend divergence.
        "REPRO_DISPATCH_BACKEND": "process",
        # Super-kernels run in verify mode under the differential
        # backend: every fused call is checked bitwise against its
        # constituent steps, so the pass certifies the PR-6 lowering too.
        "REPRO_SUPERKERNEL": "1",
        # Resident replay runs under the differential executor as well:
        # every chunk a worker serves from a resident template is
        # cross-checked bitwise, so ``make bench`` smoke fails on any
        # resident-path divergence.
        "REPRO_RESIDENT_PLANS": "1",
        # Chunked opaque execution rides the same pass: every merged
        # chunk-level operator call is checked bitwise against the seed
        # kernels, so the PR-8 chunk implementations are certified on
        # every app too.  Every legacy mode pins the flag off (it
        # defaults to on) so each keeps measuring its own layer.
        "REPRO_OPAQUE_CHUNKS": "1",
    },
    # The opaque gate's two legs: serial single-chunk replay (one chunk
    # spans the whole launch at point width 1), per-rank vs chunk-level
    # opaque execution.  Everything else is pinned identical, so the
    # deterministic opaque-call counters isolate exactly the PR-8
    # call-collapsing effect.
    "opaque-off": {
        "REPRO_KERNEL_BACKEND": "codegen",
        "REPRO_HOTPATH_CACHE": "1",
        "REPRO_TRACE": "1",
        "REPRO_WORKERS": "1",
        "REPRO_POINT_WORKERS": "1",
        "REPRO_NORMALIZE": "1",
        "REPRO_DISPATCH_BACKEND": "thread",
        "REPRO_SUPERKERNEL": "0",
        "REPRO_RESIDENT_PLANS": "0",
        "REPRO_OPAQUE_CHUNKS": "0",
    },
    "opaque-chunks": {
        "REPRO_KERNEL_BACKEND": "codegen",
        "REPRO_HOTPATH_CACHE": "1",
        "REPRO_TRACE": "1",
        "REPRO_WORKERS": "1",
        "REPRO_POINT_WORKERS": "1",
        "REPRO_NORMALIZE": "1",
        "REPRO_DISPATCH_BACKEND": "thread",
        "REPRO_SUPERKERNEL": "0",
        "REPRO_RESIDENT_PLANS": "0",
        "REPRO_OPAQUE_CHUNKS": "1",
    },
}

#: Acceptance thresholds on the trace-mode end-to-end speedup over the
#: seed baseline (full mode only).
SPEEDUP_THRESHOLDS = {"cg": 3.0, "black-scholes": 2.5}

#: Scheduler gate: a kernel-dominated configuration where the plan
#: scheduler's dispatch path plus the normalisation satellite must beat
#: the PR-2 trace path end to end (full mode only).
SCHEDULER_GATE_APP = "black-scholes"
SCHEDULER_GATE_CONFIG = dict(
    num_gpus=8, iterations=24, warmup=3, app_kwargs={"elements_per_gpu": 16384}
)
SCHEDULER_GATE_SMOKE_CONFIG = dict(
    num_gpus=4, iterations=6, warmup=2, app_kwargs={"elements_per_gpu": 4096}
)
SCHEDULER_SPEEDUP_THRESHOLD = 1.2

#: Point-dispatch gate: a multi-rank, kernel-dominated configuration —
#: Jacobi's opaque GEMV dominates wall-clock and its per-rank tiles are
#: large NumPy matvecs that release the GIL, so chunking the 8 ranks
#: across 4 pool workers must beat the PR-3 scheduler path end to end.
POINT_GATE_APP = "jacobi"
POINT_GATE_CONFIG = dict(
    num_gpus=8, iterations=16, warmup=2, app_kwargs={"rows_per_gpu": 768}
)
POINT_GATE_SMOKE_CONFIG = dict(
    num_gpus=4, iterations=4, warmup=2, app_kwargs={"rows_per_gpu": 192}
)
POINT_SPEEDUP_THRESHOLD = 1.3

#: Process-dispatch gate: an interpreter-heavy small-tile configuration —
#: Black-Scholes under the tree-walking kernel backend, whose many small
#: NumPy calls hold the GIL, so thread point dispatch is GIL-bound and
#: the worker-process substrate must beat it end to end on multi-core
#: hosts.  Enforced only there, like the point gate.
PROCESS_GATE_APP = "black-scholes"
PROCESS_GATE_CONFIG = dict(
    num_gpus=8, iterations=20, warmup=2, app_kwargs={"elements_per_gpu": 4096}
)
PROCESS_GATE_SMOKE_CONFIG = dict(
    num_gpus=4, iterations=5, warmup=2, app_kwargs={"elements_per_gpu": 4096}
)
PROCESS_SPEEDUP_THRESHOLD = 1.3

#: Super-kernel gate: a steady-epoch CG configuration at high rank count
#: with tiny tiles — per-step closure dispatch (per-rank view binding,
#: partial folding, per-step accounting) dominates replay wall-clock
#: there, which is exactly the overhead the PR-6 fused units eliminate.
#: Unlike the dispatch gates this is a single-thread effect, so the
#: threshold is enforced regardless of core count (full mode only).
SUPERKERNEL_GATE_APP = "cg"
SUPERKERNEL_GATE_CONFIG = dict(
    num_gpus=64, iterations=96, warmup=2, app_kwargs={"grid_points_per_gpu": 4}
)
SUPERKERNEL_GATE_SMOKE_CONFIG = dict(
    num_gpus=8, iterations=10, warmup=2, app_kwargs={"grid_points_per_gpu": 6}
)
SUPERKERNEL_SPEEDUP_THRESHOLD = 1.2

#: Resident-plan gate: a steady-epoch CG replay at high rank count with
#: a wide point-dispatch fan-out — every epoch the per-chunk protocol
#: re-pickles one request per chunk per step (names, descriptors,
#: scalar dicts, rank bounds) while plan-resident replay references the
#: worker-held templates by id.  Two thresholds: the wire-traffic drop
#: is measured on the deterministic payload-size counters (enforced in
#: full mode regardless of core count) and the paired wall-clock
#: speedup needs real cores (enforced on multi-core hosts, like the
#: other dispatch gates).
RESIDENT_GATE_APP = "cg"
#: The wire comparison uses the *steady* per-epoch counters (measured
#: iterations only), and the warm-up is long enough that the one-time
#: spec/geometry/plan ships *and* the descriptor-interning ramp (the
#: arena's recycled-offset set is fully sighted after a few epochs)
#: both land inside it.
RESIDENT_GATE_CONFIG = dict(
    num_gpus=64, iterations=96, warmup=24, app_kwargs={"grid_points_per_gpu": 24}
)
RESIDENT_GATE_SMOKE_CONFIG = dict(
    num_gpus=16, iterations=10, warmup=6, app_kwargs={"grid_points_per_gpu": 32}
)
RESIDENT_SPEEDUP_THRESHOLD = 1.2
RESIDENT_WIRE_DROP_THRESHOLD = 10.0

#: Closure-call drop the super-kernel pass must deliver on the CG sweep
#: configuration: compiled-closure calls per steady replay epoch with the
#: pass off vs on, asserted on the deterministic profiler counters (full
#: mode; the smoke configuration's 4-GPU plans sit exactly at 3x).
SUPERKERNEL_CLOSURE_DROP_THRESHOLD = 3.0

#: Opaque-chunk gate: the two-mat-vec app at 8 ranks runs two opaque
#: GEMV launches per epoch — 16 per-rank operator calls with chunking
#: off, 2 chunk-level calls with it on (point width 1, so each launch
#: collapses to a single merged-row-block GEMV): an 8x drop, asserted
#: on the deterministic opaque-call counters.  Like the super-kernel
#: closure gate this is independent of machine load, so the threshold
#: is enforced in full mode regardless of core count.
OPAQUE_GATE_APP = "two-matvec"
OPAQUE_GATE_CONFIG = dict(
    num_gpus=8, iterations=16, warmup=2, app_kwargs={"rows_per_gpu": 48}
)
OPAQUE_GATE_SMOKE_CONFIG = dict(
    num_gpus=8, iterations=4, warmup=2, app_kwargs={"rows_per_gpu": 32}
)
OPAQUE_CALL_DROP_THRESHOLD = 4.0

#: Wide-dispatch gate (PR-9): torchswe-manual's three independent
#: opaque Lax-Friedrichs updates form a width-3 dependence level whose
#: steps each carry a dispatchable rank fan-out.  Under the thread
#: backend the nested-dispatch guard forces every such step onto serial
#: thread chunks; under the process backend the lifted guard ships the
#: chunks of all in-flight steps to the worker-process pool
#: concurrently over the multiplexed pipe protocol.  The two legs
#: differ only in ``REPRO_DISPATCH_BACKEND``, so the paired ratio
#: isolates exactly that.  Width and process-chunk usage are
#: deterministic counters (enforced everywhere, smoke included); the
#: wall-clock threshold needs real cores (multi-core hosts, full mode).
WIDE_GATE_APP = "torchswe-manual"
WIDE_GATE_CONFIG = dict(
    num_gpus=4, iterations=12, warmup=2, app_kwargs={"points_per_gpu": 96}
)
WIDE_GATE_SMOKE_CONFIG = dict(
    num_gpus=4, iterations=4, warmup=2, app_kwargs={"points_per_gpu": 64}
)
WIDE_SPEEDUP_THRESHOLD = 1.2


def _host_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _set_mode(mode: str) -> None:
    for key, value in MODES[mode].items():
        os.environ[key] = value
    config.reload_flags()


def _run_once(app: str, spec: dict):
    """One end-to-end run; returns (wall seconds, RunResult)."""
    base_scale = default_scale_for(app)
    scale = ExperimentScale(
        app_kwargs=dict(base_scale.app_kwargs, **spec["app_kwargs"]),
        bandwidth_scale=base_scale.bandwidth_scale,
        iterations=spec["iterations"],
        warmup_iterations=spec["warmup"],
    )
    start = time.perf_counter()
    result = run_application_experiment(
        app, num_gpus=spec["num_gpus"], fusion=True, scale=scale
    )
    elapsed = time.perf_counter() - start
    return elapsed, result


def _measure(app: str, spec: dict, mode: str, repeats: int):
    """Median wall seconds (and the last RunResult) of ``repeats`` runs."""
    _set_mode(mode)
    _run_once(app, spec)  # warm the process (imports, codegen cache, numpy)
    times: List[float] = []
    result = None
    for _ in range(repeats):
        elapsed, result = _run_once(app, spec)
        times.append(elapsed)
    return statistics.median(times), result


def _engaged_speedup(engaged: bool, baseline_seconds: float, seconds: float) -> Optional[float]:
    """``baseline / seconds``, or ``None`` when the mode's layer never ran."""
    if not engaged:
        return None
    return baseline_seconds / seconds if seconds > 0 else float("inf")


def _rounded(speedup: Optional[float]) -> Optional[float]:
    return None if speedup is None else round(speedup, 3)


def _speedup_text(speedup: Optional[float]) -> str:
    return "not engaged" if speedup is None else f"{speedup:.2f}x"


def _measure_pair(app: str, spec: dict, mode_a: str, mode_b: str, repeats: int):
    """Paired comparison of two modes: interleaved runs, per-pair ratios.

    The gate measurements compare two configurations of the *same*
    workload, and a full harness run takes many minutes on a shared
    host — two legs measured back-to-back-but-minutes-apart can land in
    different machine-load regimes, which dominates the ~1.2–1.3×
    effects the gates assert.  Alternating the legs and taking the
    median of the per-pair ``a/b`` ratios cancels that slow drift
    (each ratio compares runs executed adjacently); the per-leg median
    times are still reported for the record.
    """
    _set_mode(mode_a)
    _run_once(app, spec)  # warm both modes before timing anything
    _set_mode(mode_b)
    _run_once(app, spec)
    times_a: List[float] = []
    times_b: List[float] = []
    ratios: List[float] = []
    result_a = result_b = None
    for _ in range(repeats):
        _set_mode(mode_a)
        elapsed_a, result_a = _run_once(app, spec)
        _set_mode(mode_b)
        elapsed_b, result_b = _run_once(app, spec)
        times_a.append(elapsed_a)
        times_b.append(elapsed_b)
        ratios.append(elapsed_a / elapsed_b if elapsed_b > 0 else float("inf"))
    return (
        statistics.median(times_a),
        result_a,
        statistics.median(times_b),
        result_b,
        statistics.median(ratios),
    )


#: The run every ``--trace-out`` export uses: a short steady-replay CG
#: configuration, big enough that capture, replay, scheduling, point
#: dispatch and (on the process modes) the wire protocol all appear in
#: the exported timeline.
TRACE_EXPORT_CONFIG = dict(
    num_gpus=8, iterations=12, warmup=2, app_kwargs={"grid_points_per_gpu": 24}
)
TRACE_EXPORT_SMOKE_CONFIG = dict(
    num_gpus=4, iterations=6, warmup=2, app_kwargs={"grid_points_per_gpu": 16}
)


def _export_traces(trace_dir: str, smoke: bool) -> List[str]:
    """One Perfetto-loadable Chrome trace per mode in ``trace_dir``.

    Each mode's environment is applied as in the timed sweeps, with the
    telemetry flight recorder armed on top; the ring is reset between
    modes so every file covers exactly one CG run.
    """
    from repro.runtime import telemetry

    os.makedirs(trace_dir, exist_ok=True)
    spec = TRACE_EXPORT_SMOKE_CONFIG if smoke else TRACE_EXPORT_CONFIG
    written: List[str] = []
    for mode in MODES:
        _set_mode(mode)
        os.environ["REPRO_TELEMETRY"] = "1"
        config.reload_flags()
        telemetry.reset()
        _run_once("cg", spec)
        path = os.path.join(trace_dir, f"{mode}.trace.json")
        trace = telemetry.write_chrome_trace(path)
        written.append(path)
        print(
            f"[trace] wrote {path} ({len(trace['traceEvents'])} events)",
            flush=True,
        )
    os.environ["REPRO_TELEMETRY"] = "0"
    config.reload_flags()
    return written


def run_harness(
    smoke: bool,
    output: str,
    apps: Optional[List[str]] = None,
    gates_only: bool = False,
    trace_out: Optional[str] = None,
) -> int:
    configs = SMOKE_CONFIGS if smoke else APP_CONFIGS
    if apps:
        configs = {app: configs[app] for app in apps}
    if gates_only:
        # CI gate mode: skip the per-app sweeps, run the gate
        # measurements at full scale and enforce their thresholds where
        # the host allows (multi-core for the dispatch gates).
        configs = {}
    repeats = 1 if smoke else 3
    # The gates assert ~1.2–1.3× effects whose per-pair measurements
    # spread widely on shared hosts; a larger paired sample concentrates
    # the median near the true effect (each extra pair costs well under
    # a second at the gate configurations).
    gate_repeats = 1 if smoke else 7
    report: Dict[str, dict] = {}
    failures: List[str] = []

    for app, spec in configs.items():
        print(f"[{app}] differential check (trace replay included) ...", flush=True)
        _set_mode("differential")
        diff_spec = dict(spec, iterations=min(spec["iterations"], 8))
        try:
            _, diff_result = _run_once(app, diff_spec)
        except Exception as error:  # noqa: BLE001 - report and fail
            failures.append(f"{app}: differential check failed: {error}")
            print(f"[{app}] DIVERGENCE: {error}", flush=True)
            continue
        if diff_result.trace_hits == 0:
            failures.append(f"{app}: differential run replayed no trace epochs")

        print(f"[{app}] timing baseline (seed interpreter) ...", flush=True)
        baseline_seconds, baseline = _measure(app, spec, "baseline", repeats)
        print(f"[{app}] timing codegen backend (trace off) ...", flush=True)
        codegen_seconds, codegen = _measure(app, spec, "codegen", repeats)
        print(f"[{app}] timing trace replay (PR-2 serial path) ...", flush=True)
        trace_seconds, trace = _measure(app, spec, "trace", repeats)
        print(f"[{app}] timing plan scheduler ...", flush=True)
        scheduler_seconds, scheduler = _measure(app, spec, "scheduler", repeats)
        print(f"[{app}] timing epoch super-kernels ...", flush=True)
        superkernel_seconds, superkernel = _measure(app, spec, "superkernel", repeats)
        print(f"[{app}] timing point dispatch ...", flush=True)
        point_seconds, point = _measure(app, spec, "point", repeats)
        print(f"[{app}] timing process dispatch ...", flush=True)
        process_seconds, process = _measure(app, spec, "process", repeats)
        print(f"[{app}] timing plan-resident process replay ...", flush=True)
        resident_seconds, resident = _measure(app, spec, "resident", repeats)

        if baseline.checksum != resident.checksum:
            failures.append(
                f"{app}: checksum mismatch (baseline {baseline.checksum!r} "
                f"vs resident {resident.checksum!r})"
            )
        if baseline.checksum != process.checksum:
            failures.append(
                f"{app}: checksum mismatch (baseline {baseline.checksum!r} "
                f"vs process {process.checksum!r})"
            )
        if baseline.checksum != point.checksum:
            failures.append(
                f"{app}: checksum mismatch (baseline {baseline.checksum!r} "
                f"vs point {point.checksum!r})"
            )
        if baseline.checksum != codegen.checksum:
            failures.append(
                f"{app}: checksum mismatch (baseline {baseline.checksum!r} "
                f"vs codegen {codegen.checksum!r})"
            )
        if baseline.checksum != trace.checksum:
            failures.append(
                f"{app}: checksum mismatch (baseline {baseline.checksum!r} "
                f"vs trace {trace.checksum!r})"
            )
        if baseline.checksum != scheduler.checksum:
            failures.append(
                f"{app}: checksum mismatch (baseline {baseline.checksum!r} "
                f"vs scheduler {scheduler.checksum!r})"
            )
        if baseline.checksum != superkernel.checksum:
            failures.append(
                f"{app}: checksum mismatch (baseline {baseline.checksum!r} "
                f"vs superkernel {superkernel.checksum!r})"
            )
        if trace.trace_hits == 0:
            failures.append(f"{app}: trace mode reported zero trace hits")
        if scheduler.trace_hits == 0:
            failures.append(f"{app}: scheduler mode reported zero trace hits")
        if scheduler.plan_replays == 0:
            failures.append(f"{app}: scheduler mode never used the plan scheduler")
        if superkernel.trace_hits == 0:
            failures.append(f"{app}: superkernel mode reported zero trace hits")
        if app == "cg":
            if superkernel.superkernel_fusions == 0:
                failures.append("cg: superkernel mode built no fused units")
            closure_drop = (
                scheduler.closure_calls_per_epoch
                / superkernel.closure_calls_per_epoch
                if superkernel.closure_calls_per_epoch > 0
                else float("inf")
            )
            if not smoke and closure_drop < SUPERKERNEL_CLOSURE_DROP_THRESHOLD:
                failures.append(
                    f"cg: closure calls per epoch dropped only "
                    f"{closure_drop:.2f}x ({scheduler.closure_calls_per_epoch:.2f} "
                    f"-> {superkernel.closure_calls_per_epoch:.2f}), below the "
                    f"{SUPERKERNEL_CLOSURE_DROP_THRESHOLD}x acceptance threshold"
                )
        if app == "two-matvec" and superkernel.plan_width_max < 2:
            failures.append(
                "two-matvec: captured plans never reached width 2 (the wide "
                "dependence levels the app exists to exercise)"
            )
        if app in WIDTH_REQUIRED_APPS and scheduler.plan_width_max < 2:
            failures.append(
                f"{app}: promoted wide app recorded plan_width_max "
                f"{scheduler.plan_width_max} < 2 — the wide-dispatch "
                "machinery was silently unexercised"
            )

        speedup = baseline_seconds / trace_seconds if trace_seconds > 0 else float("inf")
        codegen_speedup = (
            baseline_seconds / codegen_seconds if codegen_seconds > 0 else float("inf")
        )
        scheduler_speedup = (
            baseline_seconds / scheduler_seconds if scheduler_seconds > 0 else float("inf")
        )
        superkernel_speedup = (
            baseline_seconds / superkernel_seconds
            if superkernel_seconds > 0
            else float("inf")
        )
        # A speedup is only a statement about a layer that ran: a mode
        # whose layer never engaged is the mode below it timed again.
        point_speedup = _engaged_speedup(
            point.point_chunks > 0, baseline_seconds, point_seconds
        )
        process_speedup = _engaged_speedup(
            process.point_process_chunks > 0 or process.opaque_process_chunks > 0,
            baseline_seconds,
            process_seconds,
        )
        resident_speedup = _engaged_speedup(
            resident.point_process_chunks > 0, baseline_seconds, resident_seconds
        )
        all_checksums_equal = (
            baseline.checksum
            == codegen.checksum
            == trace.checksum
            == scheduler.checksum
            == superkernel.checksum
            == point.checksum
            == process.checksum
            == resident.checksum
        )
        report[app] = {
            "config": {
                "num_gpus": spec["num_gpus"],
                "iterations": spec["iterations"],
                "warmup_iterations": spec["warmup"],
                **spec["app_kwargs"],
            },
            "baseline_seconds": round(baseline_seconds, 6),
            "codegen_seconds": round(codegen_seconds, 6),
            "trace_seconds": round(trace_seconds, 6),
            "scheduler_seconds": round(scheduler_seconds, 6),
            "superkernel_seconds": round(superkernel_seconds, 6),
            "point_seconds": round(point_seconds, 6),
            "process_seconds": round(process_seconds, 6),
            "resident_seconds": round(resident_seconds, 6),
            "codegen_speedup": round(codegen_speedup, 3),
            "speedup": round(speedup, 3),
            "scheduler_speedup": round(scheduler_speedup, 3),
            "superkernel_speedup": round(superkernel_speedup, 3),
            "point_speedup": _rounded(point_speedup),
            "point_engaged": point_speedup is not None,
            "process_speedup": _rounded(process_speedup),
            "process_engaged": process_speedup is not None,
            "resident_speedup": _rounded(resident_speedup),
            "resident_engaged": resident_speedup is not None,
            "process_vs_point": round(
                point_seconds / process_seconds if process_seconds > 0 else float("inf"),
                3,
            ),
            "resident_vs_process": round(
                process_seconds / resident_seconds
                if resident_seconds > 0
                else float("inf"),
                3,
            ),
            "trace_vs_codegen": round(
                codegen_seconds / trace_seconds if trace_seconds > 0 else float("inf"), 3
            ),
            "scheduler_vs_trace": round(
                trace_seconds / scheduler_seconds if scheduler_seconds > 0 else float("inf"),
                3,
            ),
            "point_vs_scheduler": round(
                scheduler_seconds / point_seconds if point_seconds > 0 else float("inf"),
                3,
            ),
            "superkernel_vs_scheduler": round(
                scheduler_seconds / superkernel_seconds
                if superkernel_seconds > 0
                else float("inf"),
                3,
            ),
            "trace_hits": trace.trace_hits,
            "trace_misses": trace.trace_misses,
            "trace_hit_rate": round(trace.trace_hit_rate, 4),
            "trace_replayed_tasks": trace.trace_replayed_tasks,
            "scalar_pattern_flips": trace.scalar_pattern_flips,
            "plan_replays": scheduler.plan_replays,
            "plan_width_max": scheduler.plan_width_max,
            "plan_average_width": round(scheduler.plan_average_width, 3),
            # Level-width histogram of the scheduler-mode run (level step
            # count -> levels replayed at that width): the silent-width
            # blind spot this records is what WIDTH_REQUIRED_APPS gates.
            "plan_level_widths": {
                str(width): count
                for width, count in sorted(scheduler.plan_level_widths.items())
            },
            "worker_utilization": round(scheduler.worker_utilization, 4),
            "point_dispatch_width": point.point_dispatch_width,
            "point_launches": point.point_launches,
            "point_chunks": point.point_chunks,
            "point_width_max": point.point_width_max,
            "point_chunks_per_launch": round(point.point_chunks_per_launch, 3),
            "point_utilization": round(point.point_utilization, 4),
            "process_launches": process.point_launches,
            "process_chunks": process.point_process_chunks,
            "process_thread_fallback_chunks": process.point_thread_chunks,
            "resident_chunks": resident.point_process_chunks,
            # Wire traffic both protocols actually put on the worker
            # pipes (sizes of the pickled payloads, deterministic).
            "process_wire_bytes_per_epoch": round(process.wire_bytes_per_epoch, 1),
            "resident_wire_bytes_per_epoch": round(resident.wire_bytes_per_epoch, 1),
            "process_wire_requests_per_epoch": round(
                process.wire_requests_per_epoch, 3
            ),
            "resident_wire_requests_per_epoch": round(
                resident.wire_requests_per_epoch, 3
            ),
            "batched_launches": point.batched_launches,
            "batched_calls": point.batched_calls,
            "superkernel_fusions": superkernel.superkernel_fusions,
            "superkernel_fused_steps": superkernel.superkernel_fused_steps,
            "superkernel_calls": superkernel.superkernel_calls,
            "scheduler_closure_calls_per_epoch": round(
                scheduler.closure_calls_per_epoch, 3
            ),
            "superkernel_closure_calls_per_epoch": round(
                superkernel.closure_calls_per_epoch, 3
            ),
            "checksum": trace.checksum,
            "checksums_equal": all_checksums_equal,
            "differential_check": "passed",
            # Opaque-operator counters from the differential run (chunked
            # opaque execution on the process backend): deterministic, and
            # nonzero only for apps that launch opaque tasks.
            "opaque_rank_calls": diff_result.opaque_rank_calls,
            "opaque_chunk_calls": diff_result.opaque_chunk_calls,
            "opaque_process_chunks": diff_result.opaque_process_chunks,
            "opaque_calls_per_epoch": round(
                diff_result.steady_opaque_calls_per_epoch, 3
            ),
        }
        print(
            f"[{app}] baseline {baseline_seconds:.4f}s  codegen "
            f"{codegen_seconds:.4f}s ({codegen_speedup:.2f}x)  trace "
            f"{trace_seconds:.4f}s ({speedup:.2f}x, hit rate "
            f"{trace.trace_hit_rate:.2f})  scheduler "
            f"{scheduler_seconds:.4f}s ({scheduler_speedup:.2f}x)  "
            f"superkernel {superkernel_seconds:.4f}s "
            f"({superkernel_speedup:.2f}x, {superkernel.superkernel_fusions} "
            f"fusions, closures/epoch "
            f"{scheduler.closure_calls_per_epoch:.2f}->"
            f"{superkernel.closure_calls_per_epoch:.2f})  point "
            f"{point_seconds:.4f}s ({_speedup_text(point_speedup)})  process "
            f"{process_seconds:.4f}s ({_speedup_text(process_speedup)})  resident "
            f"{resident_seconds:.4f}s ({_speedup_text(resident_speedup)}, "
            f"wire/epoch {process.wire_bytes_per_epoch:.0f}->"
            f"{resident.wire_bytes_per_epoch:.0f}B)",
            flush=True,
        )

    # ------------------------------------------------------------------
    # Scheduler gate: PR-3 vs the PR-2 trace path on a kernel-dominated
    # configuration (where the scheduler's dispatch + the normalisation
    # satellite carry the win).
    # ------------------------------------------------------------------
    gate_spec = SCHEDULER_GATE_SMOKE_CONFIG if smoke else SCHEDULER_GATE_CONFIG
    gate_report = None
    if apps is None or SCHEDULER_GATE_APP in (apps or []):
        app = SCHEDULER_GATE_APP
        print(f"[scheduler-gate] timing {app} {gate_spec['app_kwargs']} ...", flush=True)
        (
            gate_trace_seconds,
            gate_trace,
            gate_sched_seconds,
            gate_sched,
            gate_speedup,
        ) = _measure_pair(app, gate_spec, "trace", "scheduler", gate_repeats)
        if gate_trace.checksum != gate_sched.checksum:
            failures.append(
                f"scheduler-gate: checksum mismatch (trace {gate_trace.checksum!r} "
                f"vs scheduler {gate_sched.checksum!r})"
            )
        gate_report = {
            "app": app,
            "config": {
                "num_gpus": gate_spec["num_gpus"],
                "iterations": gate_spec["iterations"],
                "warmup_iterations": gate_spec["warmup"],
                **gate_spec["app_kwargs"],
            },
            "trace_seconds": round(gate_trace_seconds, 6),
            "scheduler_seconds": round(gate_sched_seconds, 6),
            "scheduler_vs_trace": round(gate_speedup, 3),
            "threshold": SCHEDULER_SPEEDUP_THRESHOLD,
            "checksums_equal": gate_trace.checksum == gate_sched.checksum,
        }
        print(
            f"[scheduler-gate] trace {gate_trace_seconds:.4f}s  scheduler "
            f"{gate_sched_seconds:.4f}s ({gate_speedup:.2f}x)",
            flush=True,
        )
        if not smoke and gate_speedup < SCHEDULER_SPEEDUP_THRESHOLD:
            failures.append(
                f"scheduler-gate: {gate_speedup:.3f}x below the "
                f"{SCHEDULER_SPEEDUP_THRESHOLD}x acceptance threshold"
            )

    # ------------------------------------------------------------------
    # Point-dispatch gate: PR-4 intra-launch point parallelism vs the
    # PR-3 scheduler path on a multi-rank kernel-dominated configuration.
    # The speedup comes from running rank chunks on multiple CPUs, so
    # the threshold is only enforceable on multi-core hosts; checksum
    # equality (and the differential pass above) is enforced everywhere.
    # ------------------------------------------------------------------
    point_gate_spec = POINT_GATE_SMOKE_CONFIG if smoke else POINT_GATE_CONFIG
    point_gate_report = None
    host_cpus = _host_cpus()
    if apps is None or POINT_GATE_APP in (apps or []):
        app = POINT_GATE_APP
        print(
            f"[point-gate] timing {app} {point_gate_spec['app_kwargs']} ...",
            flush=True,
        )
        (
            gate_sched_seconds,
            gate_sched,
            gate_point_seconds,
            gate_point,
            point_gate_speedup,
        ) = _measure_pair(app, point_gate_spec, "scheduler", "point", gate_repeats)
        if gate_sched.checksum != gate_point.checksum:
            failures.append(
                f"point-gate: checksum mismatch (scheduler {gate_sched.checksum!r} "
                f"vs point {gate_point.checksum!r})"
            )
        if gate_point.point_launches == 0:
            failures.append("point-gate: point mode never dispatched rank chunks")
        enforced = not smoke and host_cpus >= 2
        point_gate_report = {
            "app": app,
            "config": {
                "num_gpus": point_gate_spec["num_gpus"],
                "iterations": point_gate_spec["iterations"],
                "warmup_iterations": point_gate_spec["warmup"],
                **point_gate_spec["app_kwargs"],
            },
            "scheduler_seconds": round(gate_sched_seconds, 6),
            "point_seconds": round(gate_point_seconds, 6),
            "point_vs_scheduler": round(point_gate_speedup, 3),
            "threshold": POINT_SPEEDUP_THRESHOLD,
            "host_cpus": host_cpus,
            "enforced": enforced,
            "point_launches": gate_point.point_launches,
            "point_chunks": gate_point.point_chunks,
            "point_width_max": gate_point.point_width_max,
            "point_utilization": round(gate_point.point_utilization, 4),
            "checksums_equal": gate_sched.checksum == gate_point.checksum,
        }
        print(
            f"[point-gate] scheduler {gate_sched_seconds:.4f}s  point "
            f"{gate_point_seconds:.4f}s ({point_gate_speedup:.2f}x, "
            f"host cpus {host_cpus}, "
            f"{'enforced' if enforced else 'not enforced'})",
            flush=True,
        )
        if enforced and point_gate_speedup < POINT_SPEEDUP_THRESHOLD:
            failures.append(
                f"point-gate: {point_gate_speedup:.3f}x below the "
                f"{POINT_SPEEDUP_THRESHOLD}x acceptance threshold"
            )
        elif not smoke and not enforced:
            print(
                "[point-gate] single-core host: threshold recorded but not "
                "enforceable (intra-launch dispatch is thread parallelism)",
                flush=True,
            )

    # ------------------------------------------------------------------
    # Process-dispatch gate: the PR-5 worker-process substrate vs thread
    # point dispatch on an interpreter-heavy small-tile configuration.
    # Thread dispatch is GIL-bound there (the tree-walking backend holds
    # the GIL between its many small NumPy calls), so the speedup needs
    # real cores; the threshold is enforced on multi-core hosts only,
    # checksum equality and substrate usage everywhere.
    # ------------------------------------------------------------------
    process_gate_spec = PROCESS_GATE_SMOKE_CONFIG if smoke else PROCESS_GATE_CONFIG
    process_gate_report = None
    if apps is None or PROCESS_GATE_APP in (apps or []):
        app = PROCESS_GATE_APP
        print(
            f"[process-gate] timing {app} {process_gate_spec['app_kwargs']} "
            "(interpreter-heavy, small tiles) ...",
            flush=True,
        )
        (
            gate_thread_seconds,
            gate_thread,
            gate_process_seconds,
            gate_process,
            process_gate_speedup,
        ) = _measure_pair(app, process_gate_spec, "point-gil", "process-gil", gate_repeats)
        if gate_thread.checksum != gate_process.checksum:
            failures.append(
                f"process-gate: checksum mismatch (thread {gate_thread.checksum!r} "
                f"vs process {gate_process.checksum!r})"
            )
        if gate_process.point_process_chunks == 0:
            failures.append(
                "process-gate: process mode never dispatched chunks to the "
                "worker-process pool"
            )
        enforced = not smoke and host_cpus >= 2
        process_gate_report = {
            "app": app,
            "config": {
                "num_gpus": process_gate_spec["num_gpus"],
                "iterations": process_gate_spec["iterations"],
                "warmup_iterations": process_gate_spec["warmup"],
                **process_gate_spec["app_kwargs"],
            },
            "thread_seconds": round(gate_thread_seconds, 6),
            "process_seconds": round(gate_process_seconds, 6),
            "process_vs_thread": round(process_gate_speedup, 3),
            "threshold": PROCESS_SPEEDUP_THRESHOLD,
            "host_cpus": host_cpus,
            "enforced": enforced,
            "process_chunks": gate_process.point_process_chunks,
            "thread_fallback_chunks": gate_process.point_thread_chunks,
            "checksums_equal": gate_thread.checksum == gate_process.checksum,
        }
        print(
            f"[process-gate] thread {gate_thread_seconds:.4f}s  process "
            f"{gate_process_seconds:.4f}s ({process_gate_speedup:.2f}x, "
            f"host cpus {host_cpus}, "
            f"{'enforced' if enforced else 'not enforced'})",
            flush=True,
        )
        if enforced and process_gate_speedup < PROCESS_SPEEDUP_THRESHOLD:
            failures.append(
                f"process-gate: {process_gate_speedup:.3f}x below the "
                f"{PROCESS_SPEEDUP_THRESHOLD}x acceptance threshold"
            )
        elif not smoke and not enforced:
            print(
                "[process-gate] single-core host: threshold recorded but not "
                "enforceable (process dispatch needs real cores)",
                flush=True,
            )

    # ------------------------------------------------------------------
    # Super-kernel gate: the PR-6 fused replay path vs the PR-3
    # scheduler path on a steady-epoch, overhead-dominated CG
    # configuration (many tiny ranks).  The two modes differ only in
    # ``REPRO_SUPERKERNEL``, so the paired ratio isolates the fused
    # units; the win is single-thread overhead elimination, so the
    # threshold is enforced in full mode regardless of core count.
    # ------------------------------------------------------------------
    superkernel_gate_spec = (
        SUPERKERNEL_GATE_SMOKE_CONFIG if smoke else SUPERKERNEL_GATE_CONFIG
    )
    superkernel_gate_report = None
    if apps is None or SUPERKERNEL_GATE_APP in (apps or []):
        app = SUPERKERNEL_GATE_APP
        print(
            f"[superkernel-gate] timing {app} "
            f"{superkernel_gate_spec['app_kwargs']} (steady replay epochs, "
            f"{superkernel_gate_spec['num_gpus']} ranks) ...",
            flush=True,
        )
        (
            gate_sched_seconds,
            gate_sched,
            gate_super_seconds,
            gate_super,
            superkernel_gate_speedup,
        ) = _measure_pair(
            app, superkernel_gate_spec, "scheduler", "superkernel", gate_repeats
        )
        if gate_sched.checksum != gate_super.checksum:
            failures.append(
                f"superkernel-gate: checksum mismatch (scheduler "
                f"{gate_sched.checksum!r} vs superkernel {gate_super.checksum!r})"
            )
        if gate_super.superkernel_fusions == 0:
            failures.append("superkernel-gate: no fused units were built")
        superkernel_gate_report = {
            "app": app,
            "config": {
                "num_gpus": superkernel_gate_spec["num_gpus"],
                "iterations": superkernel_gate_spec["iterations"],
                "warmup_iterations": superkernel_gate_spec["warmup"],
                **superkernel_gate_spec["app_kwargs"],
            },
            "scheduler_seconds": round(gate_sched_seconds, 6),
            "superkernel_seconds": round(gate_super_seconds, 6),
            "superkernel_vs_scheduler": round(superkernel_gate_speedup, 3),
            "threshold": SUPERKERNEL_SPEEDUP_THRESHOLD,
            "superkernel_fusions": gate_super.superkernel_fusions,
            "superkernel_fused_steps": gate_super.superkernel_fused_steps,
            "superkernel_calls": gate_super.superkernel_calls,
            "scheduler_closure_calls_per_epoch": round(
                gate_sched.closure_calls_per_epoch, 3
            ),
            "superkernel_closure_calls_per_epoch": round(
                gate_super.closure_calls_per_epoch, 3
            ),
            "checksums_equal": gate_sched.checksum == gate_super.checksum,
        }
        print(
            f"[superkernel-gate] scheduler {gate_sched_seconds:.4f}s  "
            f"superkernel {gate_super_seconds:.4f}s "
            f"({superkernel_gate_speedup:.2f}x, closures/epoch "
            f"{gate_sched.closure_calls_per_epoch:.2f}->"
            f"{gate_super.closure_calls_per_epoch:.2f})",
            flush=True,
        )
        if not smoke and superkernel_gate_speedup < SUPERKERNEL_SPEEDUP_THRESHOLD:
            failures.append(
                f"superkernel-gate: {superkernel_gate_speedup:.3f}x below the "
                f"{SUPERKERNEL_SPEEDUP_THRESHOLD}x acceptance threshold"
            )

    # ------------------------------------------------------------------
    # Resident-plan gate: the PR-7 plan-resident protocol vs the PR-5
    # per-chunk protocol on the same process substrate — the two legs
    # differ only in ``REPRO_RESIDENT_PLANS``.  The wire-traffic drop is
    # asserted on the deterministic payload-size counters (any host);
    # the wall-clock speedup needs real cores, so its threshold follows
    # the dispatch-gate rule (multi-core hosts only).
    # ------------------------------------------------------------------
    resident_gate_spec = RESIDENT_GATE_SMOKE_CONFIG if smoke else RESIDENT_GATE_CONFIG
    resident_gate_report = None
    if apps is None or RESIDENT_GATE_APP in (apps or []):
        app = RESIDENT_GATE_APP
        print(
            f"[resident-gate] timing {app} {resident_gate_spec['app_kwargs']} "
            f"(steady replay epochs, {resident_gate_spec['num_gpus']} ranks, "
            "wide point fan-out) ...",
            flush=True,
        )
        (
            gate_chunked_seconds,
            gate_chunked,
            gate_resident_seconds,
            gate_resident,
            resident_gate_speedup,
        ) = _measure_pair(
            app, resident_gate_spec, "process-wide", "resident-wide", gate_repeats
        )
        if gate_chunked.checksum != gate_resident.checksum:
            failures.append(
                f"resident-gate: checksum mismatch (chunked "
                f"{gate_chunked.checksum!r} vs resident {gate_resident.checksum!r})"
            )
        if gate_resident.point_process_chunks == 0:
            failures.append(
                "resident-gate: resident mode never dispatched chunks to the "
                "worker-process pool"
            )
        wire_drop = (
            gate_chunked.steady_wire_bytes_per_epoch
            / gate_resident.steady_wire_bytes_per_epoch
            if gate_resident.steady_wire_bytes_per_epoch > 0
            else float("inf")
        )
        enforced = not smoke and host_cpus >= 2
        resident_gate_report = {
            "app": app,
            "config": {
                "num_gpus": resident_gate_spec["num_gpus"],
                "iterations": resident_gate_spec["iterations"],
                "warmup_iterations": resident_gate_spec["warmup"],
                **resident_gate_spec["app_kwargs"],
            },
            "chunked_seconds": round(gate_chunked_seconds, 6),
            "resident_seconds": round(gate_resident_seconds, 6),
            "resident_vs_chunked": round(resident_gate_speedup, 3),
            "threshold": RESIDENT_SPEEDUP_THRESHOLD,
            "host_cpus": host_cpus,
            "enforced": enforced,
            "chunked_wire_bytes_per_epoch": round(
                gate_chunked.steady_wire_bytes_per_epoch, 1
            ),
            "resident_wire_bytes_per_epoch": round(
                gate_resident.steady_wire_bytes_per_epoch, 1
            ),
            "chunked_wire_requests_per_epoch": round(
                gate_chunked.steady_wire_requests_per_epoch, 3
            ),
            "resident_wire_requests_per_epoch": round(
                gate_resident.steady_wire_requests_per_epoch, 3
            ),
            "wire_bytes_drop": round(wire_drop, 3),
            "wire_drop_threshold": RESIDENT_WIRE_DROP_THRESHOLD,
            "resident_chunks": gate_resident.point_process_chunks,
            "checksums_equal": gate_chunked.checksum == gate_resident.checksum,
        }
        print(
            f"[resident-gate] chunked {gate_chunked_seconds:.4f}s  resident "
            f"{gate_resident_seconds:.4f}s ({resident_gate_speedup:.2f}x, "
            f"steady wire/epoch {gate_chunked.steady_wire_bytes_per_epoch:.0f}->"
            f"{gate_resident.steady_wire_bytes_per_epoch:.0f}B = {wire_drop:.1f}x drop, "
            f"host cpus {host_cpus}, "
            f"{'enforced' if enforced else 'not enforced'})",
            flush=True,
        )
        if not smoke and wire_drop < RESIDENT_WIRE_DROP_THRESHOLD:
            failures.append(
                f"resident-gate: steady wire bytes per epoch dropped only "
                f"{wire_drop:.2f}x "
                f"({gate_chunked.steady_wire_bytes_per_epoch:.0f}B "
                f"-> {gate_resident.steady_wire_bytes_per_epoch:.0f}B), below "
                f"the {RESIDENT_WIRE_DROP_THRESHOLD}x acceptance threshold"
            )
        if enforced and resident_gate_speedup < RESIDENT_SPEEDUP_THRESHOLD:
            failures.append(
                f"resident-gate: {resident_gate_speedup:.3f}x below the "
                f"{RESIDENT_SPEEDUP_THRESHOLD}x acceptance threshold"
            )
        elif not smoke and not enforced:
            print(
                "[resident-gate] single-core host: wall-clock threshold "
                "recorded but not enforceable (the wire-drop threshold was "
                "still enforced)",
                flush=True,
            )

    # ------------------------------------------------------------------
    # Opaque-chunk gate: the PR-8 chunk-level operator calls vs the
    # per-rank path on the two-GEMV app — the two legs differ only in
    # ``REPRO_OPAQUE_CHUNKS``.  The call-count drop is asserted on the
    # deterministic opaque-call counters, so like the super-kernel
    # closure gate it is enforced in full mode regardless of core count.
    # ------------------------------------------------------------------
    opaque_gate_spec = OPAQUE_GATE_SMOKE_CONFIG if smoke else OPAQUE_GATE_CONFIG
    opaque_gate_report = None
    if apps is None or OPAQUE_GATE_APP in (apps or []):
        app = OPAQUE_GATE_APP
        print(
            f"[opaque-gate] timing {app} {opaque_gate_spec['app_kwargs']} "
            f"({opaque_gate_spec['num_gpus']} ranks, per-rank vs chunked "
            "opaque calls) ...",
            flush=True,
        )
        (
            gate_perrank_seconds,
            gate_perrank,
            gate_chunked_seconds,
            gate_chunked,
            opaque_gate_speedup,
        ) = _measure_pair(
            app, opaque_gate_spec, "opaque-off", "opaque-chunks", gate_repeats
        )
        if gate_perrank.checksum != gate_chunked.checksum:
            failures.append(
                f"opaque-gate: checksum mismatch (per-rank "
                f"{gate_perrank.checksum!r} vs chunked {gate_chunked.checksum!r})"
            )
        if gate_chunked.opaque_chunk_calls == 0:
            failures.append(
                "opaque-gate: chunked mode never executed a chunk-level "
                "opaque operator call"
            )
        if gate_perrank.opaque_chunk_calls != 0:
            failures.append(
                "opaque-gate: per-rank mode executed chunk-level calls "
                "despite REPRO_OPAQUE_CHUNKS=0"
            )
        opaque_call_drop = (
            gate_perrank.steady_opaque_calls_per_epoch
            / gate_chunked.steady_opaque_calls_per_epoch
            if gate_chunked.steady_opaque_calls_per_epoch > 0
            else float("inf")
        )
        opaque_gate_report = {
            "app": app,
            "config": {
                "num_gpus": opaque_gate_spec["num_gpus"],
                "iterations": opaque_gate_spec["iterations"],
                "warmup_iterations": opaque_gate_spec["warmup"],
                **opaque_gate_spec["app_kwargs"],
            },
            "per_rank_seconds": round(gate_perrank_seconds, 6),
            "chunked_seconds": round(gate_chunked_seconds, 6),
            "chunked_vs_per_rank": round(opaque_gate_speedup, 3),
            "per_rank_opaque_calls_per_epoch": round(
                gate_perrank.steady_opaque_calls_per_epoch, 3
            ),
            "chunked_opaque_calls_per_epoch": round(
                gate_chunked.steady_opaque_calls_per_epoch, 3
            ),
            "opaque_call_drop": round(opaque_call_drop, 3),
            "threshold": OPAQUE_CALL_DROP_THRESHOLD,
            "per_rank_opaque_rank_calls": gate_perrank.opaque_rank_calls,
            "chunked_opaque_chunk_calls": gate_chunked.opaque_chunk_calls,
            "checksums_equal": gate_perrank.checksum == gate_chunked.checksum,
        }
        print(
            f"[opaque-gate] per-rank {gate_perrank_seconds:.4f}s  chunked "
            f"{gate_chunked_seconds:.4f}s ({opaque_gate_speedup:.2f}x, opaque "
            f"calls/epoch {gate_perrank.steady_opaque_calls_per_epoch:.2f}->"
            f"{gate_chunked.steady_opaque_calls_per_epoch:.2f} = "
            f"{opaque_call_drop:.1f}x drop)",
            flush=True,
        )
        if not smoke and opaque_call_drop < OPAQUE_CALL_DROP_THRESHOLD:
            failures.append(
                f"opaque-gate: opaque calls per epoch dropped only "
                f"{opaque_call_drop:.2f}x "
                f"({gate_perrank.steady_opaque_calls_per_epoch:.2f} "
                f"-> {gate_chunked.steady_opaque_calls_per_epoch:.2f}), below "
                f"the {OPAQUE_CALL_DROP_THRESHOLD}x acceptance threshold"
            )

    # ------------------------------------------------------------------
    # Wide-dispatch gate: the PR-9 wide-level process routing vs the
    # serial thread chunks the nested-dispatch guard forces — the two
    # legs differ only in ``REPRO_DISPATCH_BACKEND`` on the full stack
    # (resident plans + opaque chunks on).  Width and process-substrate
    # usage are deterministic counters, enforced in smoke and full mode
    # alike; the paired wall-clock threshold follows the dispatch-gate
    # rule (multi-core hosts, full mode).
    # ------------------------------------------------------------------
    wide_gate_spec = WIDE_GATE_SMOKE_CONFIG if smoke else WIDE_GATE_CONFIG
    wide_gate_report = None
    if apps is None or WIDE_GATE_APP in (apps or []):
        app = WIDE_GATE_APP
        print(
            f"[wide-gate] timing {app} {wide_gate_spec['app_kwargs']} "
            "(width-3 opaque levels, thread chunks vs process pool) ...",
            flush=True,
        )
        (
            gate_thread_seconds,
            gate_thread,
            gate_wide_seconds,
            gate_wide,
            wide_gate_speedup,
        ) = _measure_pair(app, wide_gate_spec, "wide-thread", "wide-process", gate_repeats)
        if gate_thread.checksum != gate_wide.checksum:
            failures.append(
                f"wide-gate: checksum mismatch (thread {gate_thread.checksum!r} "
                f"vs process {gate_wide.checksum!r})"
            )
        if gate_wide.plan_width_max < 2:
            failures.append(
                f"wide-gate: plan_width_max {gate_wide.plan_width_max} < 2 — "
                "the promoted config captured no wide dependence levels"
            )
        wide_levels = sum(
            count
            for width, count in gate_wide.plan_level_widths.items()
            if width >= 2
        )
        if wide_levels == 0:
            failures.append(
                "wide-gate: the level-width histogram recorded no width>=2 "
                "levels (silent-width blind spot)"
            )
        if gate_wide.opaque_process_chunks == 0:
            failures.append(
                "wide-gate: the process leg never shipped opaque chunks of "
                "the wide levels to the worker-process pool"
            )
        if gate_wide.point_process_chunks == 0:
            failures.append(
                "wide-gate: the process leg recorded zero process-substrate "
                "point chunks"
            )
        enforced = not smoke and host_cpus >= 2
        wide_gate_report = {
            "app": app,
            "config": {
                "num_gpus": wide_gate_spec["num_gpus"],
                "iterations": wide_gate_spec["iterations"],
                "warmup_iterations": wide_gate_spec["warmup"],
                **wide_gate_spec["app_kwargs"],
            },
            "thread_seconds": round(gate_thread_seconds, 6),
            "process_seconds": round(gate_wide_seconds, 6),
            "process_vs_thread": round(wide_gate_speedup, 3),
            "threshold": WIDE_SPEEDUP_THRESHOLD,
            "host_cpus": host_cpus,
            "enforced": enforced,
            "plan_width_max": gate_wide.plan_width_max,
            "plan_level_widths": {
                str(width): count
                for width, count in sorted(gate_wide.plan_level_widths.items())
            },
            "wide_levels_replayed": wide_levels,
            "process_chunks": gate_wide.point_process_chunks,
            "thread_fallback_chunks": gate_wide.point_thread_chunks,
            "opaque_process_chunks": gate_wide.opaque_process_chunks,
            "checksums_equal": gate_thread.checksum == gate_wide.checksum,
        }
        print(
            f"[wide-gate] thread {gate_thread_seconds:.4f}s  process "
            f"{gate_wide_seconds:.4f}s ({wide_gate_speedup:.2f}x, width "
            f"{gate_wide.plan_width_max}, {wide_levels} wide levels, "
            f"{gate_wide.opaque_process_chunks} opaque process chunks, "
            f"host cpus {host_cpus}, "
            f"{'enforced' if enforced else 'not enforced'})",
            flush=True,
        )
        if enforced and wide_gate_speedup < WIDE_SPEEDUP_THRESHOLD:
            failures.append(
                f"wide-gate: {wide_gate_speedup:.3f}x below the "
                f"{WIDE_SPEEDUP_THRESHOLD}x acceptance threshold"
            )
        elif not smoke and not enforced:
            print(
                "[wide-gate] single-core host: wall-clock threshold recorded "
                "but not enforceable (the width and process-chunk checks "
                "were still enforced)",
                flush=True,
            )

    if not smoke:
        for app, threshold in SPEEDUP_THRESHOLDS.items():
            if app in report and report[app]["speedup"] < threshold:
                failures.append(
                    f"{app}: trace speedup {report[app]['speedup']}x below the "
                    f"{threshold}x acceptance threshold"
                )

    trace_files: List[str] = []
    if trace_out:
        trace_files = _export_traces(trace_out, smoke)

    payload = {
        "benchmark": (
            "wall-clock: seed interpreter vs codegen JIT vs trace replay "
            "vs plan scheduler vs epoch super-kernels vs point dispatch "
            "vs process dispatch vs plan-resident replay"
        ),
        "mode": "gates-only" if gates_only else ("smoke" if smoke else "full"),
        "repeats_per_mode": repeats,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "host_cpus": host_cpus,
        "apps": report,
        "scheduler_gate": gate_report,
        "point_gate": point_gate_report,
        "process_gate": process_gate_report,
        "superkernel_gate": superkernel_gate_report,
        "resident_gate": resident_gate_report,
        "opaque_gate": opaque_gate_report,
        "wide_gate": wide_gate_report,
        "trace_files": trace_files,
        "failures": failures,
    }
    with open(output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sweep for CI: fewer repeats/iterations, no speedup gates",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_wallclock.json"),
        help="path of the JSON report (default: repo root BENCH_wallclock.json)",
    )
    parser.add_argument(
        "--apps",
        nargs="*",
        choices=sorted(APP_CONFIGS),
        help="subset of applications to run",
    )
    parser.add_argument(
        "--gates-only",
        action="store_true",
        help=(
            "run only the scheduler/point/process gate measurements at full "
            "scale (the CI gate job); dispatch-gate thresholds are enforced "
            "on multi-core hosts"
        ),
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help=(
            "additionally export one Perfetto-loadable Chrome trace per "
            "mode (a short CG run with REPRO_TELEMETRY=1) into DIR"
        ),
    )
    args = parser.parse_args()
    return run_harness(
        smoke=args.smoke and not args.gates_only,
        output=os.path.abspath(args.output),
        apps=args.apps,
        gates_only=args.gates_only,
        trace_out=args.trace_out,
    )


if __name__ == "__main__":
    raise SystemExit(main())
