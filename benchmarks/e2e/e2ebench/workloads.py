"""The four workloads and the session runner.

A workload is a sequence of identical *sessions*.  One session is:
``clear_function_cache()``, **set-up** (build the ``RuntimeContext`` and
the program's inputs), **warm-up** (the first ``W`` ops: window analysis,
fusion, memoization, JIT, plan capture, super-kernel lowering, pool
spawn, resident-plan ship), ``K`` **steady ops** each timed on its own,
the result check, and pool shutdown.  ``W`` and ``K`` are fixed per
workload, so a session always does the same work; how many sessions a
run holds is set by its time budget (``--seconds``) or ``--sessions``.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro.apps  # noqa: F401 - registers the applications
import repro.frontend.cunumeric as cn
from repro import config
from repro.apps.base import build_application
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.kernel.codegen import clear_function_cache, codegen_stats
from repro.runtime.pool import shutdown_shared_pool
from repro.runtime.procpool import shutdown_process_pool

from e2ebench import churn

#: Relative tolerance of every cross-host result comparison.
RTOL = 1e-9


# ----------------------------------------------------------------------
# What a session drives: an application or a list of generated programs.
# ----------------------------------------------------------------------
class AppTarget:
    """One of the paper's applications; an op is one iteration."""

    def __init__(self, context: RuntimeContext, app: str, kwargs: Dict) -> None:
        self.app = build_application(app, context=context, **kwargs)

    def op(self, index: int) -> bool:
        self.app.run(1)
        return True

    def checksum(self) -> float:
        return self.app.checksum()


class ChurnTarget:
    """Generated programs; an op runs one program for three iterations.

    The first iteration is a cold trace miss (analysis + JIT), the
    second a steady miss that is captured, the third a replay — so the
    eager front half, plan capture and one replay are all inside the op.
    The op fails when its result disagrees with the NumPy oracle.
    """

    ITERATIONS = 3

    def __init__(self, context: RuntimeContext, prepared: "ChurnInputs") -> None:
        self.context = context
        self.programs = prepared.programs
        self.oracle = prepared.oracle
        self.arrays = [cn.array(data) for data in prepared.inputs]
        self.total = 0.0

    def op(self, index: int) -> bool:
        program = self.programs[index]
        result = 0.0
        for _ in range(self.ITERATIONS):
            self.context.begin_iteration()
            result = churn.evaluate(cn, program, self.arrays)
            self.context.flush()
        self.total += result
        want = self.oracle[index]
        return abs(result - want) <= RTOL * abs(want)

    def checksum(self) -> float:
        return self.total


@dataclass
class AppInputs:
    """What the seed makes for an application workload."""

    seed: int
    #: The app's own NumPy reference result, when the workload asks for
    #: one (seeds without a committed reference still get checked).
    reference: Optional[float] = None


@dataclass
class ChurnInputs:
    """What the seed makes for ``stream-churn``: data, listings, oracle."""

    inputs: List[np.ndarray]
    programs: List[churn.Program]
    oracle: List[float]


# ----------------------------------------------------------------------
# Workload definitions.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One benchmark workload (names are fixed; later issues cite them)."""

    name: str
    why: str
    num_gpus: int
    warmup_ops: int
    steady_ops: int
    #: ``REPRO_*`` variables this workload names; all others are unset.
    env: Dict[str, str] = field(default_factory=dict)
    #: (counter, comparison, value) — the layer the workload exists for
    #: must have run, or the workload fails as "not engaged".
    guards: Tuple[Tuple[str, str, int], ...] = ()
    #: Application name and arguments (``None`` for ``stream-churn``).
    app: Optional[str] = None
    app_kwargs: Dict[str, int] = field(default_factory=dict)
    #: Whether ``--seed`` changes the workload's inputs and result.
    seeded: bool = False
    #: Elements per rank of the generated arrays (``stream-churn``).
    elements_per_rank: int = 0
    #: When non-zero, the app's ``reference_checksum()`` (plain NumPy) is
    #: computed once per run and every session must agree with it to
    #: this relative tolerance.
    reference_rtol: float = 0.0

    @property
    def ops(self) -> int:
        return self.warmup_ops + self.steady_ops

    def quick(self) -> "Workload":
        """A sub-second variant for the self-check test: same layers, tiny sizes."""
        return replace(
            self,
            steady_ops=min(self.steady_ops, 6),
            app_kwargs={name: min(value, 1024) for name, value in self.app_kwargs.items()},
            elements_per_rank=min(self.elements_per_rank, 256),
        )

    def prepare(self, seed: int):
        """Everything made from the seed, once per run."""
        if self.app is not None:
            inputs = AppInputs(seed)
            if self.reference_rtol:
                scratch = RuntimeContext(num_gpus=self.num_gpus)
                set_context(scratch)
                try:
                    inputs.reference = self.build(scratch, inputs).app.reference_checksum()
                finally:
                    set_context(None)
            return inputs
        size = self.num_gpus * self.elements_per_rank
        inputs, programs = churn.generate_session(seed, size, self.ops)
        oracle = [churn.evaluate(np, program, inputs) for program in programs]
        return ChurnInputs(inputs, programs, oracle)

    def build(self, context: RuntimeContext, prepared):
        if self.app is None:
            return ChurnTarget(context, prepared)
        kwargs = dict(self.app_kwargs)
        if self.seeded:
            kwargs["seed"] = prepared.seed
        return AppTarget(context, self.app, kwargs)


_NO_PROCESS = (("point_process_chunks", "==", 0), ("opaque_process_chunks", "==", 0))

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="bs-bigtile",
        why=(
            "One 39-task fusible chain replayed as one batched closure over 2 MiB "
            "arrays: time is the generated kernel body, runtime layers idle."
        ),
        num_gpus=4,
        warmup_ops=3,
        steady_ops=40,
        app="black-scholes",
        app_kwargs={"elements_per_gpu": 65536},
        seeded=True,
        # The kernel's erf is a 1.5e-7 approximation of math.erf.
        reference_rtol=1e-5,
        guards=(("trace_hits", ">", 0), ("batched_launches", ">", 0)) + _NO_PROCESS,
    ),
    Workload(
        name="cg-manyrank",
        why=(
            "64 ranks of 16 rows: tiny tiles, so an op is runtime overhead - trace "
            "replay, scheduler, super-kernel rank loops, SpMV chunk, coherence."
        ),
        num_gpus=64,
        warmup_ops=3,
        steady_ops=200,
        app="cg",
        app_kwargs={"grid_points_per_gpu": 4},
        guards=(("trace_hits", ">", 0), ("superkernel_calls", ">", 0)) + _NO_PROCESS,
    ),
    Workload(
        name="stream-churn",
        why=(
            "Every op is a new generated program run three times: window analysis, "
            "fusion, memoization, passes and codegen run cold (paper Figure 13)."
        ),
        num_gpus=4,
        warmup_ops=1,
        steady_ops=50,
        elements_per_rank=16384,
        seeded=True,
        guards=(("trace_misses", ">", 0), ("source_compilations", ">", 0)) + _NO_PROCESS,
    ),
    Workload(
        name="swe-wide-process",
        why=(
            "Width-3 opaque levels over the worker-process pool: the only workload "
            "where procpool, shm, resident plans and the pipe protocol engage."
        ),
        num_gpus=4,
        warmup_ops=3,
        steady_ops=200,
        app="torchswe-manual",
        app_kwargs={"points_per_gpu": 64},
        env={"REPRO_DISPATCH_BACKEND": "process", "REPRO_POINT_WORKERS": "2"},
        guards=(
            ("trace_hits", ">", 0),
            ("point_process_chunks", ">", 0),
            ("opaque_process_chunks", ">", 0),
        ),
    ),
)

BY_NAME: Dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}

#: The configuration reference results are generated under: the seed
#: execution path, so a reference never comes from the code under test.
REFERENCE_ENV = {
    "REPRO_KERNEL_BACKEND": "interpreter",
    "REPRO_TRACE": "0",
    "REPRO_HOTPATH_CACHE": "0",
    "REPRO_DISPATCH_BACKEND": "thread",
}


# ----------------------------------------------------------------------
# Flag scoping.
# ----------------------------------------------------------------------
@contextlib.contextmanager
def scoped_flags(env: Dict[str, str]) -> Iterator[None]:
    """Run with exactly ``env`` as the ``REPRO_*`` environment.

    Every other ``REPRO_*`` variable is unset for the duration (users get
    the shipped defaults), the memoized flags are reloaded on entry and
    exit, and the previous environment comes back whatever happens.
    """
    saved = {name: value for name, value in os.environ.items() if name.startswith("REPRO_")}
    for name in saved:
        del os.environ[name]
    os.environ.update(env)
    config.reload_flags()
    try:
        yield
    finally:
        for name in list(os.environ):
            if name.startswith("REPRO_"):
                del os.environ[name]
        os.environ.update(saved)
        config.reload_flags()


def resolved_flags() -> Dict[str, object]:
    """The flag values the run actually executed under (recorded per run)."""
    return {
        "kernel_backend": config.default_backend(),
        "hotpath_cache": config.hotpath_cache_enabled(),
        "trace": config.trace_enabled(),
        "workers": config.worker_count(),
        "point_workers": config.point_worker_count(),
        "dispatch_backend": config.dispatch_backend(),
        "superkernel": config.superkernel_enabled(),
        "resident_plans": config.resident_plans_enabled(),
        "opaque_chunks": config.opaque_chunks_enabled(),
        "normalize": config.normalize_enabled(),
        "telemetry": config.telemetry_enabled(),
    }


# ----------------------------------------------------------------------
# CPU time of the session's processes.
# ----------------------------------------------------------------------
def _process_cpu_seconds(pid: int) -> float:
    """On-CPU seconds of another process (``schedstat``, else ``stat``)."""
    try:
        with open(f"/proc/{pid}/schedstat") as handle:
            return int(handle.read().split()[0]) * 1e-9
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


def cpu_seconds() -> float:
    """CPU of this process plus its live pool workers."""
    workers = sum(
        _process_cpu_seconds(child.pid)
        for child in multiprocessing.active_children()
        if child.pid
    )
    return time.process_time() + workers


# ----------------------------------------------------------------------
# Counter read-outs (all public; nothing here reaches into a layer).
# ----------------------------------------------------------------------
def read_counters(context: RuntimeContext) -> Dict[str, float]:
    """Every count the benchmark reads, as one flat dict."""
    counters: Dict[str, float] = {
        name: value
        for name, value in context.profiler.snapshot().items()
        if isinstance(value, (int, float))
    }
    engine = context.diffuse
    counters["submitted_tasks"] = engine.stats.submitted_tasks
    counters["forwarded_tasks"] = engine.stats.forwarded_tasks
    counters["fused_tasks"] = engine.stats.fused_tasks
    counters["memo_hits"] = engine.cache.hits
    counters["memo_misses"] = engine.cache.misses
    counters["kernel_compilations"] = engine.compiler.stats.compilations
    counters["kernel_cache_hits"] = engine.compiler.stats.cache_hits
    counters["captured_plans"] = engine.trace.captured_plans if engine.trace else 0
    # A launch is opaque when no kernel generator exists for its task.
    compilable = engine.registry.has
    counters["opaque_launches"] = sum(
        1
        for record in context.profiler.records
        if not record.fused and not compilable(record.name)
    )
    codegen = codegen_stats()
    counters["source_compilations"] = codegen.source_compilations
    counters["source_cache_hits"] = codegen.source_cache_hits
    return counters


_COMPARE: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda a, b: a > b,
    "==": lambda a, b: a == b,
}


def failed_guards(workload: Workload, counters: Dict[str, float]) -> List[str]:
    """The engagement guards ``counters`` violates, as readable strings."""
    return [
        f"{name} {relation} {value} (got {counters.get(name, 0)})"
        for name, relation, value in workload.guards
        if not _COMPARE[relation](counters.get(name, 0), value)
    ]


# ----------------------------------------------------------------------
# One session.
# ----------------------------------------------------------------------
@dataclass
class SessionResult:
    """What one session measured."""

    setup_s: float = 0.0
    warmup_s: float = 0.0
    steady_s: float = 0.0
    cpu_s: float = 0.0
    #: Wall time of each steady op, in seconds.
    op_s: List[float] = field(default_factory=list)
    #: Simulated seconds of each steady op.
    sim_op_s: List[float] = field(default_factory=list)
    checksum: float = 0.0
    attempted: int = 0
    failed: int = 0
    error: str = ""
    #: Counters at the end of the session, and at the start of its
    #: steady phase.
    counters: Dict[str, float] = field(default_factory=dict)
    counters_warm: Dict[str, float] = field(default_factory=dict)
    #: Region/arena state at session end.
    region: Dict[str, float] = field(default_factory=dict)
    #: (start, end) of each steady op on the ``perf_counter`` clock.
    op_windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Host slowdown while the session ran (``calibration.slowdown``);
    #: reported timings are divided by it.
    slowdown: float = 1.0


def run_session(
    workload: Workload,
    prepared,
    fusion: bool = True,
    steady_ops: Optional[int] = None,
    on_op: Optional[Callable[[Optional[int]], None]] = None,
) -> SessionResult:
    """Run one session; never raises for a failure of the program under test.

    ``on_op`` is told the index of the steady op about to start (``None``
    once the steady phase is over), which is how the span recorder learns
    which op a span belongs to.
    """
    steady = workload.steady_ops if steady_ops is None else steady_ops
    warmup = workload.warmup_ops
    result = SessionResult(attempted=warmup + steady)
    done = 0
    clear_function_cache()
    gc.collect()
    clock = time.perf_counter
    try:
        start = clock()
        context = RuntimeContext(num_gpus=workload.num_gpus, fusion=fusion)
        set_context(context)
        target = workload.build(context, prepared)
        result.setup_s = clock() - start

        start = clock()
        for index in range(warmup):
            result.failed += not target.op(index)
            done += 1
        result.warmup_s = clock() - start

        result.counters_warm = read_counters(context)
        cpu_start = cpu_seconds()
        steady_start = clock()
        for index in range(steady):
            if on_op is not None:
                on_op(index)
            sim_before = context.simulated_seconds
            begin = clock()
            ok = target.op(warmup + index)
            end = clock()
            result.op_s.append(end - begin)
            result.op_windows.append((begin, end))
            result.sim_op_s.append(context.simulated_seconds - sim_before)
            result.failed += not ok
            done += 1
        result.steady_s = clock() - steady_start
        result.cpu_s = cpu_seconds() - cpu_start
        if on_op is not None:
            on_op(None)
        # Read before the checksum launches its own reduction tasks, so
        # the deltas cover exactly the steady ops.
        result.counters = read_counters(context)

        result.checksum = target.checksum()
        regions = context.legion.regions
        arena = regions.arena
        result.region = {
            "allocated_bytes": regions.allocated_bytes,
            "allocated_fields": regions.allocated_fields,
            "segments": arena.segment_count if arena is not None else 0,
        }
    except Exception as error:  # noqa: BLE001 - boundary: the run must report
        result.error = f"{type(error).__name__}: {error}"
        traceback.print_exc()
        result.failed += result.attempted - done
    finally:
        if on_op is not None:
            on_op(None)
        set_context(None)
        shutdown_process_pool()
        shutdown_shared_pool()
        context = target = None  # noqa: F841 - drop the arena before collecting
        gc.collect()
    return result


def session_problems(
    workload: Workload, prepared, sessions: Sequence[SessionResult]
) -> List[str]:
    """Why the run's sessions are not acceptable (empty when they are)."""
    problems: List[str] = []
    reference = getattr(prepared, "reference", None)
    for index, session in enumerate(sessions):
        if session.error:
            problems.append(f"session {index}: {session.error}")
        elif session.failed:
            problems.append(f"session {index}: {session.failed} ops disagree with the oracle")
        for guard in failed_guards(workload, session.counters) if not session.error else ():
            problems.append(f"session {index}: not engaged: {guard}")
    checksums = {session.checksum for session in sessions if not session.error}
    if len(checksums) > 1:
        problems.append(f"sessions disagree on the checksum: {sorted(checksums)}")
    for checksum in checksums if reference is not None else ():
        if abs(checksum - reference) > workload.reference_rtol * abs(reference):
            problems.append(f"checksum {checksum!r} is not the NumPy result {reference!r}")
    return problems
