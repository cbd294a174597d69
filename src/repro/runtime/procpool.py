"""Persistent worker-process pool for the rank chunks of replayed plans.

With ``REPRO_POINT_WORKERS`` > 1 the plan scheduler replays a captured
:class:`ExecutionPlan` with the rank chunks of every step whose work can
ship (compiled and super-kernel steps, opaque operators with a chunk
implementation) in this pool, out of reach of the parent's interpreter
lock.  Eager launches never reach the pool: they run as one chunk in
the parent.

Protocol
--------
Each worker owns one duplex pipe and serves messages strictly in FIFO
order.  There is one work message, the **level frame** (below); the
other two messages are bookkeeping that needs no reply (a plan ship) or
belongs to telemetry.  A level is one synchronous round trip, made
under the pool's lock: the caller sends each engaged worker its frame,
runs its own share of the level (below) and the level's local steps,
then reads each worker's reply straight off its pipe, in worker order.
One caller owns every pipe for the whole call, so the next message on
a pipe is the reply to the frame just sent.  Every frame carries a
per-pool **frame number** that its reply echoes; a reply to any other
frame breaks the pool like a dead worker.  A frame is self-contained:
what a worker does with it depends only on the frame and the plans it
was shipped, never on earlier frames.

Workers never receive array data: a frame names **block descriptors**
into the shared-memory arena, and workers build zero-copy NumPy views of
the same physical pages the parent's region fields live in, so output
tiles are written in place.  Replies hold per-rank reduction partials
(and, for opaque steps, per-rank modelled seconds); the parent folds
them at the launch join exactly like the inline rank loop, so buffers
and simulated time are bit-identical to inline execution for every
``REPRO_WORKERS`` × ``REPRO_POINT_WORKERS`` combination.  Exceptions
(including ``BackendDivergenceError`` from a differential worker) are
pickled back and re-raised in the parent with the worker traceback.

Plan-resident replay
--------------------
The pool has :func:`pool_size` **slots**: slot 0 is the thread that
calls :meth:`ProcessWorkerPool.run_resident_chunks` (the plan
scheduler's), and slot ``s`` ≥ 1 is worker process ``s − 1``, so an
N-way pool spawns N − 1 processes and the process that issues a level
computes a share of it instead of sleeping on the replies.

The parent registers a whole plan with the pool once — a
:class:`ResidentPlan` maps schedule-step indices to
:class:`ResidentStep` templates, each holding the spec of what to run,
the full rank-indexed rect table of every row and the step's chunk
plan — and ships it to each worker at most once, keyed by a
parent-assigned plan id.  Chunk i of a resident step always lands on
slot ``i % size`` (:meth:`ProcessWorkerPool.slot`), so each worker's
rank ranges are baked into its copy of the plan at ship time and never
travel again.  A compiled step's :class:`KernelSpec` (the KIR function,
a stripped parameter binding and the backend name) builds its executor
through the normal :func:`repro.kernel.lowering.lower` entry point, so
isomorphic kernels compile once per worker in the process-local
source-keyed cache; a :class:`SuperKernelSpec` (generated body, driver
plan and calling convention) rebuilds the ``SuperKernel`` through the
same cache.  An :class:`OpaqueSpec` names the operator and its defining
module, and the worker resolves the implementation from its *own*
registry (:func:`repro.runtime.opaque.resolve_opaque_impl`; ``fork``
workers inherit the parent's populated registry, ``spawn`` workers
import the module first).  Every plan ship carries its rect tables
whole, and the worker turns each into the parent's ``(Rect, volume)``
table shape once, when it registers the plan.

The unit a replay ships is the plan **level**, not the step
(:meth:`ProcessWorkerPool.run_resident_chunks`, called once per level by
``PlanScheduler``): the scheduling thread prepares every step of the
level, and each engaged worker receives *one* frame ``("r", frame number,
plan id, entries)`` whose entries ``(step index, scalar values,
descriptors)`` list the level's shipped steps that worker has chunks
of, in recorded order.  The worker runs the entries back to back over
its baked rank ranges and answers with one reply holding each entry's
chunk results; while the workers compute, the calling thread runs slot
0's chunks of the shipped steps and the level's remaining steps
(single-rank launches, operators with nothing a worker could resolve).
A width-3 level therefore costs one send and one reply per worker where
per-step messages cost three of each — the launch being merged (Li et
al., "Automatic Horizontal Fusion for GPU Kernels") is a pipe round
trip — and a width-1 level is simply a one-entry frame.  Frontends
bind fresh stores (hence fresh arena blocks) per epoch, so templates
hold no field address; every entry carries the step's current
descriptors instead, each non-reduction one a plain ``(segment, offset,
shape, dtype)`` tuple (``None`` for a reduction), so a frame pickles to
builtins only.
Each ``[start, stop)`` range runs through the parent's own runner for
the step's kind (``executor.compiled_ranks``,
``superkernel.call_superkernel``, ``executor.opaque_chunk``) over rows
whose fields are the attached blocks, so results are bit-identical.
An entry that raises ends its frame: the worker replies with that error
and skips the entries behind it, and the pool stays usable.  Only
``config.reload_flags()`` bumps
:func:`resident_generation`, which retires every parent-side
:class:`ResidentPlan` built under an older generation (attaching data
or freeing fields changes no template); a dead or hung worker tears
the pool down, the lost workers' chunks of the frame's steps run inline
in the parent (slot 0's already ran), and the next frame's
:func:`process_pool` builds a fresh pool, to which the plan re-ships.

The pool also meters its own wire traffic: every message is pickled
once (``ForkingPickler``, exactly what ``Connection.send`` does), its
byte length added to the call's :attr:`ProcessWorkerPool.traffic`, and
the payload sent with ``send_bytes`` — so the profiler's
``wire_bytes_per_epoch`` figures measure real serialized sizes with no
double pickling.  With telemetry armed, the call's third figure is the
calling thread's involuntary context switches over the round trip.

Placement
---------
Each slot gets its own CPU.  Worker process ``s`` (slot ``s``) is
pinned to the ``s``-th CPU from the top of the parent's allowed set
(``os.sched_getaffinity(0)`` when the pool is built), and only while a
level is in flight the thread that sends it is limited to the CPUs
left over; its previous mask comes back in a ``finally`` once the last
reply is read.  Both sides must be placed: the pipe write that sends a
frame wakes the worker on the sender's CPU, where it preempts the
sender until its whole share has run, and pinning the worker alone (or
waking it through an ``eventfd`` instead of the pipe) leaves the pair
on one core.  Placement is declined — the pool runs unplaced and
:attr:`ProcessWorkerPool.placement` says why — when the pool has more
slots than allowed CPUs, or when ``os.sched_setaffinity`` is missing or
raises.  Nothing a kernel computes depends on it.

Lifetime
--------
The pool is a lazy process-wide singleton of :func:`pool_size` slots
(one fewer worker process).  ``config.reload_flags()`` retires it when
that size changes or point dispatch is switched off, and an ``atexit``
hook (plus the test suite's session fixture) shuts the workers down so
runs never leak child processes; the hook then closes the
shared-memory arenas and reaps the resource tracker
(:func:`~repro.runtime.shm.shutdown_shared_memory`).
Workers are started with the ``fork`` method where available (they
inherit the warm codegen cache); ``spawn`` elsewhere.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
import resource
import threading
import time
import traceback
from dataclasses import dataclass, replace
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from repro import config
from repro.ir.domain import Rect
from repro.runtime import telemetry
from repro.runtime.shm import attach_view, close_attachments, shutdown_shared_memory

#: How long a level waits for its replies before it declares the pool
#: hung: the workers are killed and :class:`ProcessPoolBrokenError` sends
#: the level's steps inline.  Far above any chunk this
#: runtime ships (milliseconds to seconds), so only a stuck worker —
#: stopped, deadlocked, swapped out — ever meets it.
REPLY_DEADLINE_SECONDS = 60.0


@dataclass(frozen=True)
class KernelSpec:
    """Everything a worker needs to rebuild a launch's executor."""

    function: object  # kernel.kir.Function
    binding: object  # kernel.passes.compose.KernelBinding (stripped)
    backend: str


@dataclass(frozen=True)
class SuperKernelSpec:
    """Shippable form of an epoch super-kernel (``runtime/superkernel``).

    Fused units carry a generated body rather than a single KIR function;
    workers compile it through the same process-local source-keyed cache
    the codegen backend uses, so isomorphic fused units compile once per
    worker, and run it with the same driver under ``plan``.
    ``binding_plan`` is the kernel's per-buffer calling convention
    (``SuperKernel.binding_plan``).
    """

    source: str
    plan: object  # kernel.codegen.KernelPlan
    name: str
    binding_plan: tuple


@dataclass(frozen=True)
class OpaqueSpec:
    """Shippable form of an opaque operator with a chunk implementation.

    Workers resolve the operator from their own registry (importing
    ``module`` first under ``spawn`` start methods).  Opaque costs may be
    data-dependent, so the worker models per-rank seconds itself from
    the embedded machine model.
    """

    op: str
    module: Optional[str]
    machine: object


#: One chunk's result, in a worker's reply or from an inline run:
#: per-rank reduction partials (a dict, or ``None``) and per-rank
#: modelled seconds (empty when the caller charges captured seconds
#: instead).  Super-kernel chunks return one dict of per-target float64
#: *arrays* of per-rank partials; ``TaskExecutor.fold`` takes both shapes.
ChunkResult = Tuple[list, Sequence[float]]


@dataclass
class ResidentStep:
    """Worker-resident form of one shippable plan step.

    Shipped inside a resident-plan message and cached worker-side; run
    messages reference it by ``(plan id, step index)`` and carry only the
    epoch's scalar values and per-buffer descriptors.  The template
    holds no field address: frontends bind fresh stores (hence fresh
    arena blocks) to a slot on every epoch, so every run message carries
    the step's *current* descriptors.  Replayed compiled steps charge the
    seconds captured at record time, so no cost model travels.
    """

    #: What to run: a :class:`KernelSpec`, :class:`SuperKernelSpec` or
    #: :class:`OpaqueSpec`.
    spec: object
    #: ``(key, is_reduction, rects)`` per row, in the order of the
    #: runner's rows: the *full* rank-indexed wire rect list, which the
    #: worker turns into the runners' ``(Rect, volume)`` table once, at
    #: registration.
    buffers: Tuple[Tuple[object, bool, list], ...]
    #: The step's rank-chunk plan.  On the parent template this is the
    #: *full* chunk list (the executor degrades when a dispatch's chunks
    #: disagree); on worker w's shipped copy it holds only the chunks of
    #: its slot (``i % size == w + 1``), in chunk-index order, so run
    #: messages carry no geometry at all.
    chunks: Tuple[Tuple[int, int], ...]
    #: Compiled steps: scalar parameter names in the order run messages
    #: pack values (opaque steps take the values positionally).
    scalar_names: Tuple[str, ...] = ()
    #: Compiled steps: the calling convention (``pool.Verdict``) — a
    #: merged step is one closure call per chunk, stacked at its tile
    #: when it reduces.
    verdict: Optional[tuple] = None
    #: Compiled steps: names the built executor in worker-side caches.
    kernel_id: int = 0


@dataclass
class ResidentPlan:
    """Parent-side handle of one plan registered for resident replay.

    Built once per captured plan (cached on the plan object by the
    scheduler) and shipped to each worker at most once; retired when
    :func:`resident_generation` moves past :attr:`generation`.
    """

    plan_id: int
    #: :func:`resident_generation` value the templates were built under.
    generation: int
    #: Schedule-step index -> template (shippable compiled steps and
    #: shippable chunked opaque steps).
    steps: Dict[int, ResidentStep]


class ProcessPoolBrokenError(RuntimeError):
    """The pool's transport failed (a worker died or hung mid-level).

    Distinct from errors a worker *reports* (those re-raise with their
    own type, e.g. ``BackendDivergenceError``): a broken transport means
    the frame's fate is unknown, the pool is torn down, and the caller
    runs the level's steps inline — the next frame rebuilds a fresh
    pool through :func:`process_pool`.
    """


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------
def _register_resident_plan(message: tuple) -> Tuple[int, Dict[int, ResidentStep]]:
    """Install one shipped plan's templates.

    Each wire rect list becomes the runners' ``(Rect, volume)`` table
    here, once.
    """
    _tag, plan_id, steps = message
    for template in steps.values():
        template.buffers = tuple(
            (key, is_reduction, [(rect, rect.volume) for rect in (Rect(*wire) for wire in rects)])
            for key, is_reduction, rects in template.buffers
        )
    return plan_id, steps


def _execute_frame(
    message: tuple,
    plans: Dict[int, Dict[int, ResidentStep]],
    executors: Dict[int, object],
) -> List[List[ChunkResult]]:
    """Run one level frame: the worker's share of one plan level.

    The entries execute back to back, one ``worker.resident`` span and
    one per-chunk result list each, in frame order.
    """
    _tag, _frame, plan_id, entries = message
    plan = plans.get(plan_id)
    if plan is None:
        raise RuntimeError(f"worker holds no resident plan {plan_id}")
    results = []
    traced = telemetry.enabled()
    for step_index, values, descriptors in entries:
        label = f"plan={plan_id} step={step_index}" if traced else ""
        with telemetry.span("worker.resident", label):
            results.append(
                _execute_resident(plan[step_index], values, descriptors, executors)
            )
    return results


def _resident_executor(template: ResidentStep, executors: Dict[int, object]):
    """A compiled template's kernel, built from its spec on first use.

    A super-kernel spec builds a ``SuperKernel`` (what the super-kernel
    runner calls), a kernel spec the executor ``lower`` returns.  Cached
    under the template's kernel id; a build that raises caches nothing,
    so the next frame naming the step simply retries it.
    """
    executor = executors.get(template.kernel_id)
    if executor is None:
        spec = template.spec
        if isinstance(spec, SuperKernelSpec):
            from repro.runtime.superkernel import SuperKernel

            executor = SuperKernel(spec.source, spec.plan, spec.name, spec.binding_plan)
        else:
            from repro.kernel.lowering import lower

            executor = lower(spec.function, spec.binding, spec.backend)
        executors[template.kernel_id] = executor
    return executor


class _AttachedField:
    """A shared-memory block attached in a worker, as the runners read a field."""

    __slots__ = ("data",)

    def __init__(self, descriptor: tuple) -> None:
        self.data = attach_view(descriptor)

    def view(self, rect: Rect) -> np.ndarray:
        return self.data[rect.slices()]


def _execute_resident(
    template: ResidentStep, values: tuple, descriptors: list, executors: Dict[int, object]
) -> List[ChunkResult]:
    """Run one resident-plan step over the worker's baked rank ranges.

    A frame entry carries no geometry, names or ranges: the worker
    builds the step's rows from its registered tables and the entry's
    ``descriptors`` (``None`` for reductions, the others attached), and
    hands each baked ``[start, stop)`` range to the
    parent's own runner for the step's kind —
    ``executor.compiled_ranks``, ``superkernel.call_superkernel`` or
    ``executor.opaque_chunk`` — so results are bit-identical.
    """
    from repro.runtime.executor import compiled_ranks, opaque_chunk
    from repro.runtime.superkernel import call_superkernel

    rows = [
        (key, None if descriptor is None else _AttachedField(descriptor), is_reduction, table)
        for (key, is_reduction, table), descriptor in zip(template.buffers, descriptors)
    ]
    spec = template.spec
    if isinstance(spec, OpaqueSpec):
        from repro.runtime.opaque import resolve_opaque_impl

        impl = resolve_opaque_impl(spec.op, spec.module)
        if impl.chunk is None:
            raise RuntimeError(f"opaque operator '{spec.op}' has no chunk implementation")
        return [
            opaque_chunk(impl, rows, values, spec.machine, start, stop)
            for start, stop in template.chunks
        ]
    kernel = _resident_executor(template, executors)
    scalars = dict(zip(template.scalar_names, values))
    if isinstance(spec, SuperKernelSpec):
        return [
            call_superkernel(kernel, rows, scalars, start, stop)
            for start, stop in template.chunks
        ]
    return [
        (compiled_ranks(kernel, rows, scalars, start, stop, template.verdict), ())
        for start, stop in template.chunks
    ]


def _worker_main(connection) -> None:
    """Message loop of one worker process (module-level for ``spawn``)."""
    executors: Dict[int, object] = {}
    #: Parent-assigned plan id -> resident step templates.
    plans: Dict[int, Dict[int, ResidentStep]] = {}
    try:
        while True:
            try:
                message = connection.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            if message[0] == "plan":
                # Fire-and-forget registration (pure bookkeeping): a
                # failure here surfaces as a normal error reply on the
                # first frame referencing the missing plan.
                try:
                    plan_id, steps = _register_resident_plan(message)
                    plans[plan_id] = steps
                except Exception:  # pragma: no cover - malformed ship
                    pass
                continue
            if message[0] == "telemetry":
                # Recorder install: the spawn handshake (wants a reply
                # carrying this worker's clock and pid so the parent can
                # align timelines) or a fire-and-forget reset after a
                # flag reload.  Forked children inherit the parent's
                # recorder object, so both variants replace it outright.
                _tag, wants_reply, armed, capacity = message
                telemetry.install_worker_recorder(armed, capacity)
                if wants_reply:
                    connection.send(
                        ("telemetry", time.perf_counter(), os.getpid())
                    )
                continue
            # The one work message: a level frame ``("r", frame number,
            # plan id, entries)``; the reply echoes the frame number.
            frame = message[1]
            try:
                reply = _execute_frame(message, plans, executors)
                spans = telemetry.drain_events()
                if spans is None:
                    connection.send(("ok", frame, reply))
                else:
                    # Piggyback the drained spans as a 4th element; the
                    # parent ingests and strips them on receipt.
                    connection.send(("ok", frame, reply, spans))
            except BaseException as error:  # noqa: BLE001 - shipped to parent
                try:
                    connection.send(("err", frame, error, traceback.format_exc()))
                except Exception:
                    # Unpicklable exception: degrade to a plain repr.
                    connection.send(
                        ("err", frame, RuntimeError(repr(error)), traceback.format_exc())
                    )
    finally:
        close_attachments()
        connection.close()


# ----------------------------------------------------------------------
# Parent side.
# ----------------------------------------------------------------------
class ProcessWorkerPool:
    """A fixed-size pool of kernel-executing worker processes.

    ``size`` counts slots: the calling thread (slot 0) and ``size − 1``
    worker processes (slots 1 and up).
    """

    def __init__(self, size: int) -> None:
        self.size = max(1, size)
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._connections = []
        self._processes = []
        #: Resident-plan ids each worker holds the templates of.
        self._plans_shipped: List[set] = []
        #: Held for a whole round trip and by every other send: one
        #: caller at a time owns every pipe, so the shipped-plan sets
        #: change in exactly the order the workers receive messages,
        #: and each reply read belongs to the frame just sent.
        #: Reentrant, because a failing round trip shuts the pool down
        #: under it and ``TaskExecutor.run_resident_level`` holds it
        #: across the call and its read of :attr:`traffic`.
        self.lock = threading.RLock()
        #: ``[bytes, messages, involuntary context switches]`` of the
        #: last round trip: what it wrote to the pipes, measured on the
        #: sent payloads, and how often the calling thread was preempted
        #: meanwhile (counted only with telemetry armed).
        self.traffic = [0, 0, 0]
        #: Number of the last level frame sent (its replies echo it).
        self._frame = 0
        self.closed = False
        for _ in range(self.size - 1):
            parent_end, worker_end = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main, args=(worker_end,), daemon=True
            )
            process.start()
            worker_end.close()
            self._connections.append(parent_end)
            self._processes.append(process)
            self._plans_shipped.append(set())
        #: Where the slots run: ``"slot 0 on CPUs {…}, worker 1 on CPU
        #: …"``, or ``"unplaced: <reason>"`` (module docstring,
        #: *Placement*).
        self.placement = ""
        #: Slot 0's CPUs while a level is in flight (``None`` unplaced).
        self._sender_cpus: Optional[set] = None
        self._place()
        #: Telemetry snapshot the workers were armed under (the reload
        #: hook retires a pool whose snapshot went stale), plus the
        #: per-worker pids and clock offsets from the spawn handshake.
        self._telemetry_state = telemetry.worker_state()
        self._worker_pids: List[int] = [
            process.pid or 0 for process in self._processes
        ]
        self._telemetry_offsets: List[float] = [0.0] * len(self._processes)
        armed, capacity = self._telemetry_state
        if armed:
            # The midpoint of the parent's send/receive clock bracket
            # estimates the worker's offset; the sends bypass the wire
            # meter, so telemetry leaves the profiler's wire counters
            # untouched.
            for worker, connection in enumerate(self._connections):
                clock_before = time.perf_counter()
                connection.send(("telemetry", True, armed, capacity))
                try:
                    _tag, worker_clock, worker_pid = connection.recv()
                except (EOFError, OSError):  # pragma: no cover - dead worker
                    continue
                clock_after = time.perf_counter()
                self._telemetry_offsets[worker] = (
                    (clock_before + clock_after) / 2.0 - worker_clock
                )
                self._worker_pids[worker] = worker_pid

    # ------------------------------------------------------------------
    # Placement.
    # ------------------------------------------------------------------
    def _place(self) -> None:
        """Pin each worker to its CPU, counted from the top of the allowed set."""
        if not hasattr(os, "sched_setaffinity"):
            self.placement = "unplaced: no sched_setaffinity on this platform"
            return
        allowed = sorted(os.sched_getaffinity(0))
        if self.size > len(allowed):
            self.placement = f"unplaced: {self.size} slots > {len(allowed)} CPUs"
            return
        cpus = allowed[::-1][: self.size - 1]
        try:
            for process, cpu in zip(self._processes, cpus):
                os.sched_setaffinity(process.pid, {cpu})
        except OSError as error:
            self._unplace(f"sched_setaffinity raised {error!r}")
            return
        self._sender_cpus = set(allowed) - set(cpus)
        sender = ", ".join(map(str, sorted(self._sender_cpus)))
        self.placement = ", ".join(
            [f"slot 0 on CPUs {{{sender}}}"]
            + [f"worker {slot} on CPU {cpu}" for slot, cpu in enumerate(cpus, 1)]
        )

    def _unplace(self, reason: str) -> None:
        """Decline placement: every worker back on the calling thread's CPUs."""
        allowed = os.sched_getaffinity(0)
        for process in self._processes:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(process.pid, allowed)
        self._sender_cpus = None
        self.placement = f"unplaced: {reason}"

    def _confine_sender(self) -> Optional[set]:
        """Limit the calling thread to slot 0's CPUs; returns the mask to restore."""
        if self._sender_cpus is None:
            return None
        previous = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, self._sender_cpus)
        except OSError as error:
            self._unplace(f"sched_setaffinity raised {error!r}")
            return None
        return previous

    # ------------------------------------------------------------------
    # The round trip's plumbing (callers hold :attr:`lock`).
    # ------------------------------------------------------------------
    def _send(self, worker: int, message) -> None:
        """Pickle, meter and write one message to a worker.

        ``Connection.send(obj)`` is ``send_bytes(ForkingPickler.dumps
        (obj))``; doing the two halves explicitly makes the measured
        byte count the exact serialized payload with no double pickling.
        """
        payload = ForkingPickler.dumps(message)
        self.traffic[0] += len(payload)
        self.traffic[1] += 1
        if telemetry.enabled():
            telemetry.instant(
                "wire.send", f"worker={worker} bytes={len(payload)}"
            )
        self._connections[worker].send_bytes(payload)

    def _receive(self, worker: int, frame: int, deadline: float) -> tuple:
        """Read ``worker``'s reply to ``frame`` straight off its pipe.

        A closed pipe (the worker died) or a reply to another frame
        breaks the pool, and so does no reply by ``deadline``: the
        workers are killed rather than waited for (a stopped process
        ignores everything but ``SIGKILL``), so a hung worker cannot
        hang the parent.  Telemetry events piggybacked on an ``ok``
        reply are merged into the parent-side trace here, clock-shifted
        by the worker's handshake offset, and stripped.
        """
        connection = self._connections[worker]
        try:
            if not connection.poll(max(0.0, deadline - time.monotonic())):
                for process in self._processes:
                    process.kill()
                self._break(
                    "process-pool worker sent no reply within "
                    f"{REPLY_DEADLINE_SECONDS:g} s (hung worker killed)"
                )
            reply = connection.recv()
        except (EOFError, OSError) as failure:
            self._break(f"process-pool worker died mid-level: {failure!r}", failure)
        if reply[1] != frame:
            self._break(f"process-pool worker answered frame {reply[1]}, not {frame}")
        if telemetry.enabled():
            telemetry.instant("wire.recv", f"worker={worker}")
            if reply[0] == "ok" and len(reply) == 4:
                telemetry.ingest_worker_events(
                    self._worker_pids[worker],
                    worker,
                    self._telemetry_offsets[worker],
                    reply[3],
                )
                reply = reply[:3]
        return reply

    def _break(self, reason: str, cause: Optional[BaseException] = None) -> NoReturn:
        """Tear the broken pool down and raise :class:`ProcessPoolBrokenError`."""
        self.shutdown()
        raise ProcessPoolBrokenError(reason) from cause

    @staticmethod
    def _unwrap(replies: Sequence[tuple]) -> list:
        """Extract payloads, re-raising the first worker error in order."""
        for reply in replies:
            if reply[0] == "err":
                _tag, _frame, error, worker_traceback = reply
                message = (
                    f"{error} (in process-pool worker)\n"
                    f"--- worker traceback ---\n{worker_traceback}"
                )
                try:
                    raised = type(error)(message)
                except Exception:  # pragma: no cover - exotic ctor
                    raised = RuntimeError(message)
                raise raised from error
        return [reply[2] for reply in replies]

    def reset_worker_telemetry(self) -> None:
        """Clear every worker's recorder (fire-and-forget, unmetered).

        Sent by the reload hook when the pool survives a flag reload
        with telemetry still armed: pending worker events recorded
        under the old configuration must not leak into the next trace.
        """
        armed, capacity = self._telemetry_state
        with self.lock:
            for connection in self._connections:
                try:
                    connection.send(("telemetry", False, armed, capacity))
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass

    # Kept only for benchmarks/e2e/e2ebench/spans.py, which wraps these two
    # names in every traced pass; nothing calls them.
    run_chunks = None
    run_opaque_chunks = None

    # ------------------------------------------------------------------
    def slot(self, position: int) -> int:
        """The slot chunk ``position`` of a resident step runs on.

        Slot 0 is the calling thread, slot ``s`` ≥ 1 worker ``s − 1``.
        """
        return position % self.size

    def _plan_ship_message(self, plan: ResidentPlan, worker: int) -> tuple:
        """Build one worker's copy of a resident-plan ship message.

        Each step's chunk plan is cut down to the chunks of this worker's
        slot (``worker + 1``), so run messages never carry rank ranges.
        """
        steps = {
            index: replace(
                template,
                chunks=tuple(
                    chunk
                    for position, chunk in enumerate(template.chunks)
                    if self.slot(position) == worker + 1
                ),
            )
            for index, template in plan.steps.items()
        }
        return ("plan", plan.plan_id, steps)

    def run_resident_chunks(
        self,
        plan: ResidentPlan,
        entries: Sequence[tuple],
        meanwhile: Optional[Callable[[], None]] = None,
    ) -> List[ChunkResult]:
        """Execute the workers' share of one plan level, one frame each.

        ``entries`` lists ``(step index, scalar values, descriptors,
        chunks)`` per shipped step of the level, in recorded order.
        Chunk i of a step always runs on slot ``i % size``
        (:meth:`slot`) — the fixed mapping the plan-ship message baked
        each worker's rank ranges under — so each engaged worker
        receives *one* run message listing the entries it has chunks of
        (plus, the first time it sees this plan id, the plan-ship
        message), executes them back to back and returns one reply.
        ``meanwhile`` runs on the calling thread between the last send
        and the wait for the replies: slot 0's chunks of the entries,
        then the level's steps that stay in this process.  The replies
        are awaited even when it raises, so no worker is still writing
        when the error surfaces.  Returns the chunk results of slots 1
        and up as one flat list in (entry, chunk) order — the positions
        ``i`` with ``slot(i) != 0``, reassembled by the same mapping, so
        the caller interleaves slot 0's results back into chunk and
        therefore rank order.

        An entry's ``descriptors`` is the step's *current* per-buffer
        field-address tuple (``None`` entries for reductions): frontends
        rebind fresh stores per epoch, so it travels in every frame.

        Plan shipping and the reads all happen under :attr:`lock`, held
        for the whole round trip: each worker's next message is the
        reply to this call's frame (checked by its frame number).
        :attr:`traffic` holds what this call wrote, on success and on
        failure alike.  A worker error forgets nothing: the resident
        template holds its spec, so a failed executor build simply
        retries on the next frame.  While any worker is engaged, a
        placed pool keeps the calling thread off the workers' CPUs
        (module docstring, *Placement*) and restores its mask after the
        last reply, whether the call returns or raises.
        """
        with self.lock:
            self.traffic = [0, 0, 0]
            if self.closed:
                raise ProcessPoolBrokenError("process pool is closed")
            self._frame += 1
            frame = self._frame
            engaged = min(self.size, max(len(entry[3]) for entry in entries)) - 1
            switches = _involuntary_switches() if telemetry.enabled() else None
            previous = self._confine_sender() if engaged else None
            try:
                try:
                    for worker in range(engaged):
                        if plan.plan_id not in self._plans_shipped[worker]:
                            self._send(worker, self._plan_ship_message(plan, worker))
                            self._plans_shipped[worker].add(plan.plan_id)
                        own = tuple(entry[:3] for entry in entries if len(entry[3]) > worker + 1)
                        self._send(worker, ("r", frame, plan.plan_id, own))
                except (EOFError, OSError) as failure:
                    self._break(f"process-pool worker died mid-level: {failure!r}", failure)
                try:
                    if meanwhile is not None:
                        meanwhile()
                finally:
                    deadline = time.monotonic() + REPLY_DEADLINE_SECONDS
                    replies = [self._receive(worker, frame, deadline) for worker in range(engaged)]
            finally:
                if previous is not None:
                    os.sched_setaffinity(0, previous)
                if switches is not None:
                    self.traffic[2] = _involuntary_switches() - switches
        per_worker = [iter(reply) for reply in self._unwrap(replies)]
        results: List[ChunkResult] = []
        for _step_index, _values, _descriptors, chunks in entries:
            # Slot s's chunk results of this entry (slot 0's are the caller's).
            by_slot = [None] + [next(reply) for reply in per_worker[:len(chunks) - 1]]
            results.extend(
                by_slot[self.slot(position)][position // self.size]
                for position in range(len(chunks))
                if self.slot(position)
            )
        return results

    def shutdown(self) -> None:
        """Stop every worker (idempotent; waits out a round trip in flight)."""
        with self.lock:
            if self.closed:
                return
            self.closed = True
            for connection in self._connections:
                try:
                    connection.send(None)
                except (BrokenPipeError, OSError):
                    pass
            for process in self._processes:
                process.join(timeout=2.0)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.kill()
                    process.join(timeout=1.0)
            for connection in self._connections:
                try:
                    connection.close()
                except OSError:  # pragma: no cover
                    pass
            self._connections = []
            self._processes = []
            self._plans_shipped = []


def _involuntary_switches() -> int:
    """The calling thread's involuntary context switches so far (0 if unknown)."""
    if not hasattr(resource, "RUSAGE_THREAD"):
        return 0
    return resource.getrusage(resource.RUSAGE_THREAD).ru_nivcsw


# ----------------------------------------------------------------------
# The singleton.
# ----------------------------------------------------------------------
_POOL: Optional[ProcessWorkerPool] = None
_POOL_LOCK = threading.Lock()
_KERNEL_IDS_LOCK = threading.Lock()
_NEXT_KERNEL_ID = 0
_RESIDENT_LOCK = threading.Lock()
_NEXT_PLAN_ID = 0
_RESIDENT_GENERATION = 0


def next_resident_plan_id() -> int:
    """A fresh process-lifetime id for one resident plan (never reused)."""
    global _NEXT_PLAN_ID
    with _RESIDENT_LOCK:
        _NEXT_PLAN_ID += 1
        return _NEXT_PLAN_ID


def resident_generation() -> int:
    """The current resident-plan validity generation.

    It moves only on ``config.reload_flags()``: templates hold no field
    address, so nothing a program does between flag reloads — attaching
    data, freeing fields — can make a shipped plan stale.
    """
    return _RESIDENT_GENERATION


def retire_resident_plan(plan) -> None:
    """Drop one plan's cached resident registration (if any)."""
    if getattr(plan, "resident", None) is not None:
        plan.resident = None


def pool_size() -> int:
    """Slots of the process pool: ``REPRO_POINT_WORKERS``.

    Slots, not processes: the scheduling thread is slot 0, so the pool
    spawns one worker process fewer.  A step is cut into at most
    ``REPRO_POINT_WORKERS`` chunks and chunk ``p`` runs on slot ``p``,
    so a larger pool would hold workers no chunk reaches.
    """
    return config.point_worker_count()


def process_pool() -> ProcessWorkerPool:
    """The process-wide worker-process pool of :func:`pool_size` workers."""
    global _POOL
    size = pool_size()
    with _POOL_LOCK:
        if _POOL is None or _POOL.size != size or _POOL.closed:
            if _POOL is not None:
                _POOL.shutdown()
            _POOL = ProcessWorkerPool(size)
        return _POOL


def shutdown_process_pool() -> None:
    """Retire the pool singleton (flag reloads, atexit, test teardown)."""
    global _POOL
    with _POOL_LOCK:
        pool = _POOL
        _POOL = None
    if pool is not None:
        pool.shutdown()


def _reload_process_pool() -> None:
    """Config-reload hook: retire the pool when it no longer fits.

    A pool sized from stale flag values must not serve the next launch;
    shutting down (rather than letting :func:`process_pool` resize
    lazily) also reaps the worker processes promptly when
    ``REPRO_POINT_WORKERS`` drops back to 1.  Every reload also retires
    the resident plans (a generation bump): a flag flip can change
    chunking, plan lowering or backing storage, so templates built under
    the old flags must not be replayed.  Plans carrying an older
    generation are rebuilt under a fresh plan id on their next replay
    and re-shipped; ids are never reused, so a worker still holding the
    old templates can never serve them again.
    """
    global _RESIDENT_GENERATION
    with _RESIDENT_LOCK:
        _RESIDENT_GENERATION += 1
    with _POOL_LOCK:
        pool = _POOL
    if pool is None:
        return
    if (
        config.point_worker_count() <= 1
        or pool.size != pool_size()
        or pool._telemetry_state != telemetry.worker_state()
    ):
        # A stale telemetry snapshot retires the pool too: workers were
        # armed (or not) by the spawn handshake, so a flag flip needs a
        # fresh pool to re-handshake under the new state.
        shutdown_process_pool()
    elif pool._telemetry_state[0]:
        pool.reset_worker_telemetry()


def kernel_spec_id(kernel) -> int:
    """A stable process-lifetime id for a compiled kernel.

    Attached to the :class:`~repro.kernel.compiler.CompiledKernel` when
    its first resident template is built; identifies its executor in worker-side caches (ids
    are never reused, unlike ``id()``).
    """
    existing = getattr(kernel, "_proc_kernel_id", None)
    if existing is not None:
        return existing
    global _NEXT_KERNEL_ID
    with _KERNEL_IDS_LOCK:
        _NEXT_KERNEL_ID += 1
        assigned = _NEXT_KERNEL_ID
    kernel._proc_kernel_id = assigned
    return assigned


def spec_for(kernel) -> KernelSpec:
    """Build the shippable spec of a compiled kernel (cached on it).

    The binding is stripped to the two parameter maps the executors
    consult — the full binding drags stores and partitions along, none
    of which a worker touches.
    """
    existing = getattr(kernel, "_proc_kernel_spec", None)
    if existing is not None:
        return existing
    if getattr(kernel, "is_superkernel", False):
        spec = SuperKernelSpec(kernel.source, kernel.plan, kernel.name, kernel.binding_plan)
        kernel._proc_kernel_spec = spec
        return spec
    from repro.kernel.passes.compose import KernelBinding

    binding = kernel.binding
    stripped = KernelBinding(
        buffer_args=dict(binding.buffer_args),
        scalar_args=dict(binding.scalar_args),
    )
    stripped.buffer_order = binding.buffer_order
    stripped.scalar_order = binding.scalar_order
    spec = KernelSpec(
        function=kernel.function,
        binding=stripped,
        backend=kernel.executor.backend,
    )
    kernel._proc_kernel_spec = spec
    return spec


def _shutdown_at_exit() -> None:
    """Interpreter exit: the workers first, then shared memory."""
    shutdown_process_pool()
    shutdown_shared_memory()


config.register_reload_callback(_reload_process_pool)
atexit.register(_shutdown_at_exit)
