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
belongs to telemetry.  Every frame carries a parent-assigned **request
id** and every reply echoes it back: a per-worker reader thread funnels
all replies into one completion map keyed by request id, so a level
sends every frame before it waits for any reply.  Send-side state that
depends on FIFO order (the shipped table and plan sets and the
descriptor interning below) is mutated under a per-worker send lock
held across the state update and the ``send_bytes`` call, so the
per-worker send order matches the state both sides agreed on.

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
The parent registers a whole plan with the pool once — a
:class:`ResidentPlan` maps schedule-step indices to
:class:`ResidentStep` / :class:`OpaqueResidentStep` templates holding
the kernel spec (or operator name), the full rank-indexed rect table,
the step's chunk plan and the calling convention of every shippable
step — and ships it to each worker at most once, keyed by a
parent-assigned plan id.  Chunk i of a resident step always lands on
worker ``i % size``, so each worker's rank ranges are baked into its
copy of the plan at ship time and never travel again.  A compiled
template carries a **kernel spec** (the KIR function, a stripped
parameter binding and the backend name, or a super-kernel's generated
source); workers build its executor through the normal
:func:`repro.kernel.lowering.lower` entry point, so isomorphic kernels
compile once per worker in the process-local source-keyed cache.  An
opaque template names the operator and its defining module, and the
worker resolves the implementation from its *own* registry
(:func:`repro.runtime.opaque.resolve_opaque_impl`; ``fork`` workers
inherit the parent's populated registry, ``spawn`` workers import the
module first).  Rect tables are interned on both sides of the pipe
under stable parent-assigned table ids, so a geometry re-registered
under a fresh plan id crosses the pipe once per worker.

The unit a replay ships is the plan **level**, not the step
(:meth:`ProcessWorkerPool.run_resident_chunks`, called once per level by
``PlanScheduler``): the scheduling thread prepares every step of the
level, and each engaged worker receives *one* frame ``("r", request id,
plan id, entries)`` whose entries ``(step index, scalar values,
descriptor sync)`` list the level's shipped steps that worker has chunks
of, in recorded order.  The worker interns every entry's sync, runs the
entries back to back over its baked rank ranges, and answers with one
reply holding each entry's chunk results; while the workers compute,
the parent runs the level's remaining steps (single-rank launches,
operators with nothing a worker could resolve) itself.  A width-3 level
therefore costs one send and one reply per worker where per-step
messages cost three of each — the launch being merged (Li et al.,
"Automatic Horizontal Fusion for GPU Kernels") is a pipe round trip —
and a width-1 level is simply a one-entry frame.  Once every sync is
all-integer (the steady state) the frame travels in a fixed binary
layout (:func:`_pack_run_message`) a fraction the size of its pickled
form and byte-stable across Python versions.  Frontends bind fresh
stores (hence fresh arena blocks) per epoch, so field addresses
*cannot* be baked into the template; instead the sync interns
descriptors per worker — a :class:`~repro.runtime.shm.BlockDescriptor`
crosses the pipe once and is a small integer id ever after (arena
offsets cycle through a bounded set in steady replay, so the id table
saturates after a few epochs).  Workers slice the resident rect tables
to each ``[start, stop)`` range themselves and run each chunk exactly
as the parent's inline rank loop would, so results are bit-identical.
An entry that raises ends its frame: the
worker replies with that error and skips the entries behind it — their
descriptors were interned on receipt, so the id tables stay in step and
the pool stays usable.  Staleness is generation-based:
``RegionManager.attach`` (descriptor swaps), store releases and
``config.reload_flags()`` bump :func:`resident_generation`, which
retires every parent-side :class:`ResidentPlan` built under an older
generation; a dead or hung worker tears the pool down, every step of
the lost frame runs its chunks inline in the parent, and the next
frame's :func:`process_pool` builds a fresh pool, to which the plan
re-ships.

The pool also meters its own wire traffic: every message is pickled
once (``ForkingPickler``, exactly what ``Connection.send`` does) or
packed as a binary frame, its byte length added to
:attr:`ProcessWorkerPool.wire_bytes`, and the payload sent with
``send_bytes`` — so the profiler's ``wire_bytes_per_epoch`` figures
measure real serialized sizes with no double pickling.

Lifetime
--------
The pool is a lazy process-wide singleton of :func:`pool_size` workers.
``config.reload_flags()`` retires it when that size changes or point
dispatch is switched off, and an ``atexit`` hook (plus the test suite's
session fixture) shuts the workers down so runs never leak child
processes.
Workers are started with the ``fork`` method where available (they
inherit the warm codegen cache); ``spawn`` elsewhere.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import struct
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import config
from repro.runtime import telemetry
from repro.runtime.shm import BlockDescriptor, attach_view, close_attachments

#: Rank rectangle as shipped to workers: ``(lo, hi)`` integer tuples
#: (half-open), lean enough to pickle by the thousand.
WireRect = Tuple[Tuple[int, ...], Tuple[int, ...]]

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

    Fused units carry generated source rather than a single KIR function;
    workers compile it through the same process-local source-keyed cache
    the codegen backend uses, so isomorphic fused units compile once per
    worker.
    """

    source: str
    name: str


#: Reply payload of one chunk: per-rank reduction partials and per-rank
#: seconds (empty for compiled steps, whose seconds the parent charges).
ChunkResult = Tuple[List[Dict[str, object]], List[float]]


@dataclass
class ResidentStep:
    """Worker-resident form of one shippable compiled plan step.

    Shipped inside a resident-plan message and cached worker-side; run
    messages reference it by ``(plan id, step index)`` and carry only the
    epoch's scalar values and a per-buffer descriptor sync.  ``buffers``
    holds the *full* rank-indexed wire rect table of every argument (the
    worker slices ``[start, stop)`` ranges itself), interned by table id.
    Replay charges the seconds captured at record time, so no cost model
    travels.
    """

    kernel_id: int
    spec: object  # KernelSpec | SuperKernelSpec
    #: ``(name, is_reduction, descriptor or None, table id or None,
    #: full wire rect table or None when the worker interned it)``.
    #: The descriptors are placeholders only: frontends bind fresh
    #: stores (hence fresh arena blocks) to a slot on every epoch, so
    #: every run message carries the step's *current* addresses as a
    #: per-worker-interned sync (see :func:`_execute_frame`).
    buffers: Tuple[
        Tuple[str, bool, Optional[BlockDescriptor], Optional[int], Optional[List[WireRect]]],
        ...,
    ]
    #: Scalar parameter names in the order run messages pack values.
    scalar_names: Tuple[str, ...]
    #: Purely element-wise step: one merged closure call per chunk.
    elementwise: bool
    #: Super-kernel steps only: per-buffer calling convention aligned
    #: with ``buffers`` (``merged`` = one contiguous span view,
    #: ``ranked`` = the chunk's per-rank view list; reduction targets
    #: are ``None`` under both, and a merged section that reduces
    #: returns its per-rank partials like a ranked one).
    modes: Optional[Tuple[str, ...]]
    #: The step's rank-chunk plan.  On the parent template this is the
    #: *full* chunk list (the executor degrades when a dispatch's chunks
    #: disagree); on worker w's shipped copy it holds only the chunks
    #: assigned to w (``i % size == w``), in chunk-index order, so run
    #: messages carry no geometry at all.
    chunks: Tuple[Tuple[int, int], ...] = ()


@dataclass
class OpaqueResidentStep:
    """Worker-resident form of one shippable opaque plan step.

    The opaque analogue of :class:`ResidentStep`: instead of a kernel
    spec it names the operator, which workers resolve from their own
    registry (importing ``module`` first under ``spawn`` start methods).
    Run messages carry the epoch's positional scalar values and the
    descriptor sync.  Opaque costs may be data-dependent, so the worker
    models per-rank seconds itself from the embedded machine model.
    ``buffers`` has the :class:`ResidentStep` shape with the argument
    *index* in the name slot.
    """

    op: str
    module: Optional[str]
    machine: object
    #: ``(arg index, is_reduction, descriptor or None, table id or None,
    #: full wire rect table or None when the worker interned it)`` —
    #: descriptors are placeholders, synced per run like compiled steps.
    buffers: Tuple[
        Tuple[int, bool, Optional[BlockDescriptor], Optional[int], Optional[List[WireRect]]],
        ...,
    ]
    #: Chunk plan, cut per worker at ship time (see :class:`ResidentStep`).
    chunks: Tuple[Tuple[int, int], ...] = ()


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
    steps: Dict[int, object]  # ResidentStep | OpaqueResidentStep


class ProcessPoolBrokenError(RuntimeError):
    """The pool's transport failed (a worker died or hung mid-level).

    Distinct from errors a worker *reports* (those re-raise with their
    own type, e.g. ``BackendDivergenceError``): a broken transport means
    the frame's fate is unknown, the pool is torn down, and the caller
    runs the level's steps inline — the next frame rebuilds a fresh
    pool through :func:`process_pool`.
    """


def _view_of(base: np.ndarray, rect: WireRect) -> np.ndarray:
    lo, hi = rect
    return base[tuple(slice(l, h) for l, h in zip(lo, hi))]


#: First byte of a binary-framed resident run message.  Pickled payloads
#: begin with the pickle PROTO opcode (``0x80`` for every protocol the
#: pool can emit), so one leading byte cleanly separates the framings.
_RUN_FRAME_MAGIC = 0x01


def _pack_run_message(request_id: int, plan_id: int, entries: Sequence[tuple]) -> Optional[bytes]:
    """Binary frame of a steady-state resident run message.

    ``entries`` lists the ``(step index, scalar values, descriptor
    sync)`` of every step of one plan level the worker has chunks of.
    Once the per-worker descriptor interning saturates, every sync item
    is a small int (or ``None`` for reductions) and the whole message is
    a handful of scalars — packing it with :mod:`struct` instead of
    pickle roughly halves the bytes *and* makes the wire-gate counters
    byte-stable across Python versions (pickle framing is not).  Layout:
    magic u8, request id u32, plan id u32, entry count u8; per entry
    step index u16, value count u8 + f64 values, sync count u8 + i16
    items (``-1`` ⇒ ``None``).  Returns ``None`` when the message does
    not fit the frame (a first-sighting descriptor in a sync, a
    non-float scalar, an id beyond i16) — the caller falls back to the
    pickled tuple framing.
    """
    if len(entries) > 255:
        return None
    layout = ["<BIIB"]
    fields: list = [_RUN_FRAME_MAGIC, request_id, plan_id, len(entries)]
    for step_index, values, sync in entries:
        if len(values) > 255 or len(sync) > 255:
            return None
        for value in values:
            if type(value) is not float:
                return None
        items = []
        for item in sync:
            if item is None:
                items.append(-1)
            elif type(item) is int and item <= 0x7FFF:
                items.append(item)
            else:
                return None
        layout.append(f"HB{len(values)}dB{len(items)}h")
        fields += (step_index, len(values), *values, len(items), *items)
    try:
        return struct.pack("".join(layout), *fields)
    except struct.error:  # pragma: no cover - id beyond u32
        return None


def _unpack_run_message(data: bytes) -> tuple:
    """Decode a binary run frame back to the pickled-tuple shape."""
    request_id, plan_id, entry_count = struct.unpack_from("<IIB", data, 1)
    offset = 10
    entries = []
    for _ in range(entry_count):
        step_index, value_count = struct.unpack_from("<HB", data, offset)
        values = struct.unpack_from(f"<{value_count}d", data, offset + 3)
        offset += 3 + 8 * value_count
        (sync_count,) = struct.unpack_from("<B", data, offset)
        items = struct.unpack_from(f"<{sync_count}h", data, offset + 1)
        offset += 1 + 2 * sync_count
        sync = tuple(None if item == -1 else item for item in items)
        entries.append((step_index, values, sync))
    return ("r", request_id, plan_id, tuple(entries))


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------
def _register_resident_plan(
    message: tuple, tables: Dict[int, list]
) -> Tuple[int, Dict[int, ResidentStep]]:
    """Install one shipped plan's templates, interning their rect tables."""
    _tag, plan_id, steps = message
    for template in steps.values():
        buffers = []
        for name, is_reduction, descriptor, table_id, rects in template.buffers:
            if rects is None:
                rects = tables[table_id]
            elif table_id is not None:
                tables[table_id] = rects
            buffers.append((name, is_reduction, descriptor, table_id, rects))
        template.buffers = tuple(buffers)
    return plan_id, steps


def _execute_frame(
    message: tuple,
    plans: Dict[int, Dict[int, ResidentStep]],
    executors: Dict[int, object],
    descriptors: List[BlockDescriptor],
) -> List[List[ChunkResult]]:
    """Run one resident frame: the worker's share of one plan level.

    Every entry's ``sync`` tuple resolves that step's *current*
    per-buffer field addresses against this worker's descriptor intern
    list: ``None`` marks a reduction, an ``int`` an already-interned
    descriptor, and a full :class:`~repro.runtime.shm.BlockDescriptor` a
    first sighting, which the worker appends to the list — send order
    over a FIFO pipe keeps both sides' id assignment in lockstep.  The
    parent assigned those ids at send time, so *every* entry's sync is
    interned before the first entry runs: a step that raises skips the
    entries behind it, and must not leave the two id tables out of step.
    The entries then execute back to back, one ``worker.resident`` span
    and one per-chunk result list each, in frame order.
    """
    _tag, _request_id, plan_id, entries = message
    resolved = []
    for _step_index, _values, sync in entries:
        fields = []
        for item in sync:
            if item is None or type(item) is int:
                fields.append(None if item is None else descriptors[item])
            else:
                descriptors.append(item)
                fields.append(item)
        resolved.append(fields)
    plan = plans.get(plan_id)
    if plan is None:
        raise RuntimeError(f"worker holds no resident plan {plan_id}")
    results = []
    for (step_index, values, _sync), fields in zip(entries, resolved):
        with telemetry.span("worker.resident", f"plan={plan_id} step={step_index}"):
            results.append(
                _execute_resident(plan[step_index], values, fields, executors)
            )
    return results


def _resident_executor(template: ResidentStep, executors: Dict[int, object]):
    """A compiled template's executor, built from its spec on first use.

    Cached under the template's kernel id; a build that raises caches
    nothing, so the next frame naming the step simply retries it.
    """
    executor = executors.get(template.kernel_id)
    if executor is None:
        spec = template.spec
        if isinstance(spec, SuperKernelSpec):
            from repro.kernel.codegen import _compile_source

            executor, _fresh = _compile_source(spec.source, spec.name)
        else:
            from repro.kernel.lowering import lower

            executor = lower(spec.function, spec.binding, spec.backend)
        executors[template.kernel_id] = executor
    return executor


def _attach(descriptors: list) -> list:
    """Zero-copy views of the descriptors' blocks (``None`` stays ``None``)."""
    return [None if descriptor is None else attach_view(descriptor) for descriptor in descriptors]


def _span(table: List[WireRect], start: int, stop: int) -> WireRect:
    """The rect ranks ``[start, stop)`` of a contiguous table cover."""
    return table[start][0], table[stop - 1][1]


def _execute_resident(
    template, values: tuple, resolved: list, executors: Dict[int, object]
) -> List[ChunkResult]:
    """Run one resident-plan step over the worker's baked rank ranges.

    A frame entry carries no geometry, names or ranges — the worker
    iterates the chunk ranges baked into its copy of the template and
    slices the resident rect tables to each ``[start, stop)`` range,
    calling the kernel exactly as the parent's inline rank loop does
    (``executor.compiled_ranks``, ``superkernel.run_superkernel_ranks``,
    the opaque chunk path of ``TaskExecutor.opaque_work``), so results
    are bit-identical.  ``resolved`` holds the step's current per-buffer
    descriptors (``None`` for reductions), attached once the worker
    knows what to run.
    """
    keys = [entry[0] for entry in template.buffers]
    tables = [entry[4] for entry in template.buffers]
    results: List[ChunkResult] = []
    if isinstance(template, OpaqueResidentStep):
        from repro.runtime.opaque import resolve_opaque_impl

        impl = resolve_opaque_impl(template.op, template.module)
        if impl.chunk is None:
            raise RuntimeError(
                f"opaque operator '{template.op}' has no chunk implementation"
            )
        arrays = dict(zip(keys, _attach(resolved)))
        for start, stop in template.chunks:
            rects = {key: table[start:stop] for key, table in zip(keys, tables)}
            partials = impl.chunk.execute(arrays, rects, values)
            seconds = impl.chunk.cost_seconds(arrays, rects, values, template.machine)
            results.append((partials or (), seconds))
        return results
    executor = _resident_executor(template, executors)
    bases = _attach(resolved)
    scalars = dict(zip(template.scalar_names, values))
    for start, stop in template.chunks:
        if template.modes is not None:
            # Super-kernel chunk: one fused-closure call — merged buffers
            # get the chunk's contiguous span, ranked buffers its
            # per-rank view list.
            buffers = {}
            for key, base, table, mode in zip(keys, bases, tables, template.modes):
                if base is None:
                    buffers[key] = None
                elif mode == "ranked":
                    buffers[key] = [_view_of(base, rect) for rect in table[start:stop]]
                else:
                    buffers[key] = _view_of(base, _span(table, start, stop))
            results.append(([executor(buffers, scalars)], []))
        elif template.elementwise:
            # One merged closure call over the chunk's contiguous span.
            executor(
                {
                    key: None if base is None else _view_of(base, _span(table, start, stop))
                    for key, base, table in zip(keys, bases, tables)
                },
                scalars,
            )
            results.append(([None] * (stop - start), []))
        else:
            partials = [
                executor(
                    {
                        key: None if base is None else _view_of(base, table[rank])
                        for key, base, table in zip(keys, bases, tables)
                    },
                    scalars,
                )
                for rank in range(start, stop)
            ]
            results.append((partials, []))
    return results


def _worker_main(connection) -> None:
    """Message loop of one worker process (module-level for ``spawn``)."""
    executors: Dict[int, object] = {}
    #: Parent-assigned table id -> interned wire rect list.
    tables: Dict[int, list] = {}
    #: Parent-assigned plan id -> resident step templates.
    plans: Dict[int, Dict[int, ResidentStep]] = {}
    #: Descriptors interned from resident run messages, in arrival
    #: order — index i here is descriptor id i on the parent side.
    descriptors: List[BlockDescriptor] = []
    try:
        while True:
            try:
                data = connection.recv_bytes()
            except (EOFError, OSError):
                break
            # One leading byte picks the framing: steady resident run
            # messages arrive as fixed binary frames, everything else
            # (including the ``None`` shutdown sentinel) as pickle.
            if data[:1] == bytes((_RUN_FRAME_MAGIC,)):
                message = _unpack_run_message(data)
            else:
                message = pickle.loads(data)
            if message is None:
                break
            if message[0] == "plan":
                # Fire-and-forget registration (pure bookkeeping): a
                # failure here surfaces as a normal error reply on the
                # first frame referencing the missing plan.
                try:
                    plan_id, steps = _register_resident_plan(message, tables)
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
            # The one work message: a level frame ``("r", request id,
            # plan id, entries)``.
            request_id = message[1]
            try:
                reply = _execute_frame(message, plans, executors, descriptors)
                spans = telemetry.drain_events()
                if spans is None:
                    connection.send(("ok", request_id, reply))
                else:
                    # Piggyback the drained spans as a 4th element; the
                    # parent's reader strips them before the completion
                    # map, so waiters see the classic 3-tuple.
                    connection.send(("ok", request_id, reply, spans))
            except BaseException as error:  # noqa: BLE001 - shipped to parent
                try:
                    connection.send(
                        ("err", request_id, error, traceback.format_exc())
                    )
                except Exception:
                    # Unpicklable exception: degrade to a plain repr.
                    connection.send(
                        (
                            "err",
                            request_id,
                            RuntimeError(repr(error)),
                            traceback.format_exc(),
                        )
                    )
    finally:
        close_attachments()
        connection.close()


# ----------------------------------------------------------------------
# Parent side.
# ----------------------------------------------------------------------
class ProcessWorkerPool:
    """A fixed-size pool of kernel-executing worker processes."""

    def __init__(self, size: int) -> None:
        self.size = max(1, size)
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._connections = []
        self._processes = []
        #: Wire-table ids each worker has interned the rects of.
        self._tables_shipped: List[set] = []
        #: Resident-plan ids each worker holds the templates of.
        self._plans_shipped: List[set] = []
        #: Per-worker descriptor intern table for level frames:
        #: ``BlockDescriptor -> small id``, assigned densely in send
        #: order (the worker appends to an id-indexed list in arrival
        #: order; FIFO pipes keep the two in lockstep).  Steady replay
        #: cycles through a bounded set of arena offsets, so after a few
        #: epochs every sync entry is an ``int``.
        self._descriptor_ids: List[Dict[BlockDescriptor, int]] = []
        #: Traffic actually written to the pipes, measured on the sent
        #: payloads (``wire_requests`` counts messages).  The executor
        #: brackets each level with a thread-local call meter
        #: (:meth:`begin_call_meter`/:meth:`end_call_meter`) and reports
        #: the per-call figures to the profiler.
        self.wire_bytes = 0
        self.wire_requests = 0
        #: Guards teardown only; traffic serialises per worker pipe
        #: (the send locks below).
        self._lock = threading.Lock()
        self._meter_lock = threading.Lock()
        #: One lock per worker pipe, held across every (per-worker state
        #: mutation, ``send_bytes``) pair: the shipped table/plan sets and the descriptor interning assume the worker receives
        #: messages in exactly the order the parent mutated its
        #: bookkeeping, so state update and send must be atomic per pipe.
        self._send_locks: List[threading.Lock] = []
        #: Completion map: request id -> raw reply tuple.  Per-worker
        #: reader threads fill it; the dispatching thread waits on the
        #: condition until their ids resolve.  Also guards request-id
        #: allocation and the ``closed`` flag's broken-pool transitions.
        self._done = threading.Condition()
        self._completions: Dict[int, tuple] = {}
        self._next_request_id = 0
        self._local = threading.local()
        self._readers: List[threading.Thread] = []
        self.closed = False
        self._torn_down = False
        for _ in range(self.size):
            parent_end, worker_end = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main, args=(worker_end,), daemon=True
            )
            process.start()
            worker_end.close()
            self._connections.append(parent_end)
            self._processes.append(process)
            self._tables_shipped.append(set())
            self._plans_shipped.append(set())
            self._descriptor_ids.append({})
            self._send_locks.append(threading.Lock())
        #: Telemetry snapshot the workers were armed under (the reload
        #: hook retires a pool whose snapshot went stale), plus the
        #: per-worker pids and clock offsets from the spawn handshake.
        self._telemetry_state = telemetry.worker_state()
        self._worker_pids: List[int] = [
            process.pid or 0 for process in self._processes
        ]
        self._telemetry_offsets: List[float] = [0.0] * self.size
        armed, capacity = self._telemetry_state
        if armed:
            # Handshake before the readers start, so the replies can be
            # read directly off each pipe.  The midpoint of the parent's
            # send/receive clock bracket estimates the worker's offset;
            # the sends bypass the wire meter, so telemetry leaves the
            # profiler's wire counters untouched.
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
        # Readers start only after every fork: forking with reader
        # threads already running risks cloning a held lock into a child.
        for worker in range(self.size):
            reader = threading.Thread(
                target=self._drain_replies,
                args=(worker, self._connections[worker]),
                daemon=True,
                name=f"procpool-reader-{worker}",
            )
            reader.start()
            self._readers.append(reader)

    # ------------------------------------------------------------------
    # Reply plumbing: reader threads and the completion map.
    # ------------------------------------------------------------------
    def _drain_replies(self, worker: int, connection) -> None:
        """Funnel one worker's replies into the shared completion map.

        Runs for the pool's lifetime on a daemon thread.  Transport
        failure (EOF from a dead worker, a closed connection at
        teardown) ends the loop; outside an orderly shutdown it marks
        the pool broken and wakes every waiter so in-flight dispatches
        raise :class:`ProcessPoolBrokenError` instead of blocking.
        Telemetry spans piggybacked on an ``ok`` reply are merged into
        the parent-side trace here (clock-shifted by the worker's
        handshake offset) and stripped before the completion map.
        """
        while True:
            try:
                reply = connection.recv()
            except (EOFError, OSError):
                break
            except Exception:  # pragma: no cover - undecodable reply
                break
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
            with self._done:
                self._completions[reply[1]] = reply
                self._done.notify_all()
        with self._done:
            if not self._torn_down:
                self.closed = True
            self._done.notify_all()

    def _new_request_id(self) -> int:
        """A fresh pool-lifetime request id (u32-packable, never reused)."""
        with self._done:
            self._next_request_id += 1
            return self._next_request_id

    def _collect(self, request_ids: Sequence[int]) -> List[tuple]:
        """Wait until every id resolves; replies in ``request_ids`` order.

        Raises :class:`ProcessPoolBrokenError` (after dropping this
        call's entries) when the pool breaks with ids still outstanding
        — a reply whose request died with its worker will never come —
        or when :data:`REPLY_DEADLINE_SECONDS` pass without them: a hung
        worker is killed rather than waited for (a stopped process
        ignores everything but ``SIGKILL``), so it cannot hang the
        parent.
        """
        deadline = time.monotonic() + REPLY_DEADLINE_SECONDS
        with self._done:
            while True:
                if all(rid in self._completions for rid in request_ids):
                    return [self._completions.pop(rid) for rid in request_ids]
                remaining = deadline - time.monotonic()
                if self.closed or remaining <= 0.0:
                    for rid in request_ids:
                        self._completions.pop(rid, None)
                    if self.closed:
                        raise ProcessPoolBrokenError(
                            "process-pool worker died mid-level (transport closed)"
                        )
                    self.closed = True
                    for process in self._processes:
                        process.kill()
                    self._done.notify_all()
                    raise ProcessPoolBrokenError(
                        "process-pool worker sent no reply within "
                        f"{REPLY_DEADLINE_SECONDS:g} s (hung worker killed)"
                    )
                self._done.wait(remaining)

    def _transport_failed(self, failure: BaseException) -> None:
        """Send-side transport error: break the pool and raise."""
        with self._done:
            self.closed = True
            self._done.notify_all()
        self.shutdown()
        raise ProcessPoolBrokenError(
            f"process-pool worker died mid-level: {failure!r}"
        ) from failure

    @staticmethod
    def _unwrap(replies: Sequence[tuple]) -> list:
        """Extract payloads, re-raising the first worker error in order."""
        for reply in replies:
            if reply[0] == "err":
                _tag, _request_id, error, worker_traceback = reply
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

    # ------------------------------------------------------------------
    # Wire metering.
    # ------------------------------------------------------------------
    def _meter(self, nbytes: int) -> None:
        with self._meter_lock:
            self.wire_bytes += nbytes
            self.wire_requests += 1
        counters = getattr(self._local, "counters", None)
        if counters is not None:
            counters[0] += nbytes
            counters[1] += 1

    def begin_call_meter(self) -> None:
        """Start metering this thread's wire traffic (one level)."""
        self._local.counters = [0, 0]

    def end_call_meter(self) -> Tuple[int, int]:
        """Stop metering; returns this thread's ``(bytes, requests)``."""
        nbytes, requests = self._local.counters
        self._local.counters = None
        return nbytes, requests

    def _send(self, worker: int, message, payload: Optional[bytes] = None) -> None:
        """Pickle, meter and write one message to a worker.

        ``Connection.send(obj)`` is ``send_bytes(ForkingPickler.dumps
        (obj))``; doing the two halves explicitly makes the measured
        byte count the exact serialized payload with no double pickling.
        A pre-framed ``payload`` (the binary run frame) travels as is.
        Callers hold the worker's send lock.
        """
        if payload is None:
            payload = ForkingPickler.dumps(message)
        self._meter(len(payload))
        if telemetry.enabled():
            telemetry.instant(
                "wire.send", f"worker={worker} bytes={len(payload)}"
            )
        self._connections[worker].send_bytes(payload)

    def reset_worker_telemetry(self) -> None:
        """Clear every worker's recorder (fire-and-forget, unmetered).

        Sent by the reload hook when the pool survives a flag reload
        with telemetry still armed: pending worker events recorded
        under the old configuration must not leak into the next trace.
        """
        armed, capacity = self._telemetry_state
        for worker, connection in enumerate(self._connections):
            try:
                with self._send_locks[worker]:
                    connection.send(("telemetry", False, armed, capacity))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass

    def _filter_shipped_tables(self, worker: int, buffers: tuple) -> tuple:
        """Null out rect lists the worker already interned (by table id)."""
        shipped = self._tables_shipped[worker]
        filtered = []
        for entry in buffers:
            name, is_reduction, descriptor, table_id, rects = entry
            if table_id is not None:
                if table_id in shipped:
                    if rects is not None:
                        entry = (name, is_reduction, descriptor, table_id, None)
                else:
                    shipped.add(table_id)
            filtered.append(entry)
        return tuple(filtered)

    # Kept only for benchmarks/e2e/e2ebench/spans.py, which wraps these two
    # names in every traced pass; nothing calls them.
    run_chunks = None
    run_opaque_chunks = None

    # ------------------------------------------------------------------
    def _plan_ship_message(self, plan: ResidentPlan, worker: int) -> tuple:
        """Build one worker's copy of a resident-plan ship message.

        Rect tables the worker already interned (from earlier plan
        ships) travel as their id alone; fresh tables are
        carried once and marked shipped.  Each step's chunk plan is cut
        down to the chunks this worker owns (``i % size == worker``), so
        run messages never carry rank ranges.
        """
        steps: Dict[int, object] = {}
        for index, template in plan.steps.items():
            worker_chunks = tuple(
                chunk
                for position, chunk in enumerate(template.chunks)
                if position % self.size == worker
            )
            if isinstance(template, OpaqueResidentStep):
                steps[index] = OpaqueResidentStep(
                    op=template.op,
                    module=template.module,
                    machine=template.machine,
                    buffers=self._filter_shipped_tables(worker, template.buffers),
                    chunks=worker_chunks,
                )
            else:
                steps[index] = ResidentStep(
                    kernel_id=template.kernel_id,
                    spec=template.spec,
                    buffers=self._filter_shipped_tables(worker, template.buffers),
                    scalar_names=template.scalar_names,
                    elementwise=template.elementwise,
                    modes=template.modes,
                    chunks=worker_chunks,
                )
        return ("plan", plan.plan_id, steps)

    def run_resident_chunks(
        self,
        plan: ResidentPlan,
        entries: Sequence[tuple],
        meanwhile: Optional[Callable[[], None]] = None,
    ) -> List[ChunkResult]:
        """Execute one plan level's resident steps, one frame per worker.

        ``entries`` lists ``(step index, scalar values, descriptors,
        chunks)`` per shipped step of the level, in recorded order.
        Chunk i of a step always runs on worker ``i % size`` — the fixed
        mapping the plan-ship message baked each worker's rank ranges
        under — so each engaged worker receives *one* run message
        listing the entries it has chunks of (plus, the first time it
        sees this plan id, the plan-ship message), executes them back to
        back and returns one reply.  ``meanwhile`` runs on the calling
        thread between the last send and the wait for the replies (the
        level's steps that stay in this process); the replies are
        awaited even when it raises, so no worker is still writing when
        the error surfaces.  Returns the chunk results as one flat list
        in (entry, chunk) order — reassembled by the same mapping, so
        chunk and therefore rank order, as the parent's inline loop
        would produce them.

        An entry's ``descriptors`` is the step's *current* per-buffer
        field-address tuple (``None`` entries for reductions): frontends
        rebind fresh stores per epoch, so the sync always travels, but
        each item is interned per worker — a descriptor crosses the pipe
        once, then rides as a small int id.  Arena offsets cycle through
        a bounded set in steady replay, so the table saturates after a
        few epochs and the steady frame is a few dozen bytes per entry.

        Plan shipping and descriptor interning happen under the worker's
        send lock (their id assignment relies on per-pipe send order),
        and replies are matched by request id.  A worker error forgets
        nothing: the resident template holds its spec, so a failed
        executor build simply retries on the next frame.
        """
        if self.closed:
            raise ProcessPoolBrokenError("process pool is closed")
        engaged = min(self.size, max(len(entry[3]) for entry in entries))
        request_ids: List[int] = []
        try:
            for worker in range(engaged):
                with self._send_locks[worker]:
                    if plan.plan_id not in self._plans_shipped[worker]:
                        self._send(worker, self._plan_ship_message(plan, worker))
                        self._plans_shipped[worker].add(plan.plan_id)
                    ids = self._descriptor_ids[worker]
                    frame = []
                    for step_index, values, descriptors, chunks in entries:
                        if len(chunks) <= worker:
                            continue
                        sync = []
                        for descriptor in descriptors:
                            if descriptor is None:
                                sync.append(None)
                                continue
                            known = ids.get(descriptor)
                            if known is None:
                                # First sighting: travels whole, once.
                                ids[descriptor] = len(ids)
                                known = descriptor
                            sync.append(known)
                        frame.append((step_index, values, tuple(sync)))
                    request_id = self._new_request_id()
                    self._send(
                        worker,
                        ("r", request_id, plan.plan_id, tuple(frame)),
                        _pack_run_message(request_id, plan.plan_id, frame),
                    )
                request_ids.append(request_id)
        except (EOFError, BrokenPipeError, OSError) as transport_error:
            self._transport_failed(transport_error)
        try:
            if meanwhile is not None:
                meanwhile()
        finally:
            try:
                replies = self._collect(request_ids)
            except ProcessPoolBrokenError:
                self.shutdown()
                raise
        per_worker = [iter(reply) for reply in self._unwrap(replies)]
        results: List[ChunkResult] = []
        for _step_index, _values, _descriptors, chunks in entries:
            parts = [next(per_worker[worker]) for worker in range(min(self.size, len(chunks)))]
            results.extend(
                parts[position % self.size][position // self.size]
                for position in range(len(chunks))
            )
        return results

    def shutdown(self) -> None:
        """Stop every worker and reader thread (idempotent)."""
        with self._lock:
            if self._torn_down:
                return
            with self._done:
                # Waiters must not block on replies that will never
                # come; ``closed`` before the sentinels means any
                # dispatch racing the teardown raises broken.
                self._torn_down = True
                self.closed = True
                self._done.notify_all()
            for worker, connection in enumerate(self._connections):
                try:
                    with self._send_locks[worker]:
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
            for reader in self._readers:
                if reader is not threading.current_thread():
                    reader.join(timeout=1.0)
            self._readers = []
            self._connections = []
            self._processes = []
            self._tables_shipped = []
            self._plans_shipped = []
            self._descriptor_ids = []


# ----------------------------------------------------------------------
# The singleton.
# ----------------------------------------------------------------------
_POOL: Optional[ProcessWorkerPool] = None
_POOL_LOCK = threading.Lock()
_KERNEL_IDS_LOCK = threading.Lock()
_NEXT_KERNEL_ID = 0
_RESIDENT_LOCK = threading.Lock()
_NEXT_PLAN_ID = 0
_NEXT_TABLE_ID = 0
_RESIDENT_GENERATION = 0


def next_resident_plan_id() -> int:
    """A fresh process-lifetime id for one resident plan (never reused)."""
    global _NEXT_PLAN_ID
    with _RESIDENT_LOCK:
        _NEXT_PLAN_ID += 1
        return _NEXT_PLAN_ID


def next_wire_table_id() -> int:
    """A fresh process-lifetime id for one wire rect list (never reused)."""
    global _NEXT_TABLE_ID
    with _RESIDENT_LOCK:
        _NEXT_TABLE_ID += 1
        return _NEXT_TABLE_ID


def resident_generation() -> int:
    """The current resident-plan validity generation."""
    return _RESIDENT_GENERATION


def invalidate_resident_plans() -> None:
    """Retire every resident plan built so far (generation bump).

    Called whenever worker-held state could go stale: region-field
    descriptor swaps (``RegionManager.attach``), shared-memory releases
    whose blocks may be recycled, and ``config.reload_flags()``.  Plans
    carrying an older generation are rebuilt — with a fresh plan id —
    on their next replay and re-shipped; ids are never reused, so a
    worker still holding the old templates can never serve them again.
    """
    global _RESIDENT_GENERATION
    with _RESIDENT_LOCK:
        _RESIDENT_GENERATION += 1


def retire_resident_plan(plan) -> None:
    """Drop one plan's cached resident registration (if any)."""
    if getattr(plan, "resident", None) is not None:
        plan.resident = None


def pool_size() -> int:
    """Workers of the process pool: ``max(REPRO_WORKERS, REPRO_POINT_WORKERS)``.

    Wide plan levels split this many workers between their dispatched
    steps (``scheduler._plan_dispatch``).
    """
    return max(config.worker_count(), config.point_worker_count())


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
    the resident plans: a flag flip can change chunking, plan lowering or
    backing storage, so templates built under the old flags must not be
    replayed.
    """
    invalidate_resident_plans()
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
        spec = SuperKernelSpec(source=kernel.source, name=kernel.name)
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


config.register_reload_callback(_reload_process_pool)
atexit.register(shutdown_process_pool)
