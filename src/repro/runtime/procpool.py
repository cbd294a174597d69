"""Persistent worker-process pool for point-task rank chunks.

``REPRO_POINT_WORKERS`` > 1 routes the rank chunks of every launch
whose work can ship (compiled and super-kernel launches, opaque
operators with a chunk implementation) to this pool, out of reach of
the parent's interpreter lock; chunks the pool declines run inline in
the parent.

Protocol
--------
Each worker owns one duplex pipe and serves requests strictly in FIFO
order.  Every request carries a parent-assigned **request id** and every
reply echoes it back: a per-worker reader thread funnels all replies
into one scheduler-side completion map keyed by request id, so a
dispatch sends everything it has before it waits for anything, and any
number of dispatching threads can have requests in flight on the same
worker pipes (the steps of a wide plan level under the per-chunk
protocol; a launch the scheduling thread runs while a resident level
frame is out).  Send-side state that *does* depend on FIFO order (the
shipped kernel/table/plan sets and the descriptor interning below) is
mutated under a per-worker send lock held across the state update and
the ``send_bytes`` call, so the per-worker send order still matches the
state both sides agreed on.  There are two request shapes: one pickled
request per rank chunk (eager launches, whatever a resident plan
declines, and the steps of a frame that lost its pool), and one frame
per worker per *plan
level* (next section).  A :class:`ChunkRequest` carries everything
a chunk needs:

* a **kernel spec** — the KIR function, a stripped parameter binding and
  the backend name (``codegen``/``interpreter``/``differential``,
  whatever the parent's executor runs) — shipped at most once per
  worker and cached there under a parent-assigned id.  Workers build
  their executor through the normal :func:`repro.kernel.lowering.lower`
  entry point, so the codegen backend lands in the process-local
  source-keyed closure cache: two isomorphic kernels compile once per
  worker, exactly like the parent's cache.
* the **scalar arguments** of the launch,
* per-buffer **block descriptors** into the shared-memory arena plus the
  chunk's per-rank rectangles — workers build zero-copy NumPy views of
  the same physical pages the parent's region fields live in, so output
  tiles are written in place with no serialisation of array data,
* the ``[start, stop)`` **rank range**, the elementwise-batching flag,
  and (on the eager path) the kernel's cost descriptor and machine
  model so the worker returns the per-rank modelled seconds alongside
  the reduction partials.

Replies are matched by request id and reassembled in rank order; the
parent folds partials and per-GPU seconds at the launch join exactly
like the inline rank loop, so buffers and simulated time are
bit-identical to inline execution for every ``REPRO_WORKERS`` ×
``REPRO_POINT_WORKERS`` combination.
Exceptions (including ``BackendDivergenceError`` from a differential
worker) are pickled back and re-raised in the parent.

Geometry is interned on both sides of the pipe: every wire rect list
carries a stable parent-assigned table id, workers cache the list under
that id on receipt, and the parent ships ``None`` in place of a list a
worker already holds — identical rect tables cross the pipe once per
worker, not once per chunk.

Opaque launches with a chunk-level implementation ship as
:class:`OpaqueChunkRequest` instead: no kernel spec travels — the
request names a registered operator and its defining module, and the
worker resolves the implementation from its *own* registry
(:func:`repro.runtime.opaque.resolve_opaque_impl`; ``fork`` workers
inherit the parent's populated registry, ``spawn`` workers import the
module first).  The chunk executes over the same zero-copy
shared-memory views and returns per-rank partials and per-rank modelled
seconds like a compiled chunk with a cost model.

Plan-resident replay
--------------------
Replaying a captured :class:`ExecutionPlan` through per-chunk requests
would re-send the same descriptors, names and geometry every iteration.
The parent instead registers the whole plan with the pool once — a :class:`ResidentPlan` maps schedule-step indices to
:class:`ResidentStep` / :class:`OpaqueResidentStep` templates holding
the kernel spec (or operator name), the full rank-indexed rect table,
the step's chunk plan and the calling convention of every shippable
step — and ships it to each worker at most once, keyed by a
parent-assigned plan id.  Chunk i of a resident step always lands on
worker ``i % size``, so each worker's rank ranges are baked into its
copy of the plan at ship time and never travel again.

The unit a replay ships is the plan **level**, not the step
(:meth:`ProcessWorkerPool.run_resident_chunks`, called once per level by
``PlanScheduler``): the scheduling thread prepares every step of the
level, and each engaged worker receives *one* frame ``("r", request id,
plan id, entries)`` whose entries ``(step index, scalar values,
descriptor sync)`` list the level's shipped steps that worker has chunks
of, in recorded order.  The worker interns every entry's sync, runs the
entries back to back over its baked rank ranges, and answers with one
reply holding each entry's per-chunk results; while the workers compute,
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
to each ``[start, stop)`` range themselves and execute through the
same :func:`_execute_chunk` machinery as the per-chunk protocol, so
results are bit-identical.  An entry that raises ends its frame: the
worker replies with that error and skips the entries behind it — their
descriptors were interned on receipt, so the id tables stay in step and
the pool stays usable.  Staleness is generation-based:
``RegionManager.attach`` (descriptor swaps), store releases and
``config.reload_flags()`` bump :func:`resident_generation`, which
retires every parent-side :class:`ResidentPlan` built under an older
generation; a dead or hung worker tears the pool down, every step of
the lost frame degrades to the per-chunk protocol (which rebuilds a
fresh pool), and the next replay re-ships the plan to the fresh workers.

The pool also meters its own wire traffic: every request message is
pickled once (``ForkingPickler``, exactly what ``Connection.send``
does), its byte length added to :attr:`ProcessWorkerPool.wire_bytes`,
and the payload sent with ``send_bytes`` — so the profiler's
``wire_bytes_per_epoch`` figures measure real serialized sizes with no
double pickling.

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
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import config
from repro.runtime import telemetry
from repro.runtime.shm import BlockDescriptor, attach_view, close_attachments

#: Rank rectangle as shipped to workers: ``(lo, hi)`` integer tuples
#: (half-open), lean enough to pickle by the thousand.
WireRect = Tuple[Tuple[int, ...], Tuple[int, ...]]

#: How long a dispatch waits for its replies before it declares the pool
#: hung: the workers are killed and :class:`ProcessPoolBrokenError` sends
#: the launch down to the next rung.  Far above any chunk this
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


@dataclass
class ChunkRequest:
    """One rank chunk of one compiled launch."""

    kernel_id: int
    #: Filled in by the pool for the first request a worker sees.
    spec: Optional[object]  # KernelSpec | SuperKernelSpec
    scalars: Dict[str, float]
    #: ``(buffer name, is_reduction, descriptor or None, table id or
    #: None, chunk rects or None)``.  The table id names the rect list in
    #: the worker-side intern cache; the pool nulls the rects of tables a
    #: worker already holds, so identical geometry crosses the pipe once
    #: per worker.
    buffers: Tuple[
        Tuple[str, bool, Optional[BlockDescriptor], Optional[int], Optional[List[WireRect]]],
        ...,
    ]
    start: int
    stop: int
    #: Purely element-wise launch: one merged closure call per chunk.
    elementwise: bool = False
    #: Eager path only — workers model per-rank seconds from these; the
    #: replay path captures seconds at record time and ships ``None``.
    cost: Optional[object] = None
    machine: Optional[object] = None
    #: Super-kernel chunks only: per-buffer calling convention aligned
    #: with ``buffers`` (``merged`` = one contiguous span view,
    #: ``ranked`` = the chunk's per-rank view list; reduction targets
    #: are ``None`` under both, and a merged section that reduces
    #: returns its per-rank partials like a ranked one).
    modes: Optional[Tuple[str, ...]] = None
    #: Parent-assigned request id, echoed back in the reply so the
    #: completion map can match it to its waiter (filled in by the pool).
    req_id: int = 0


#: Reply payload: per-rank reduction partials and per-rank seconds
#: (empty seconds when no cost model was shipped).
ChunkResult = Tuple[List[Dict[str, object]], List[float]]


@dataclass
class OpaqueChunkRequest:
    """One rank chunk of one opaque launch.

    Opaque operators ship no kernel spec: the worker resolves ``op``
    from its own registry (:func:`repro.runtime.opaque
    .resolve_opaque_impl`), importing ``module`` first under ``spawn``
    start methods.  ``buffers`` follows the :class:`ChunkRequest` wire
    shape with the argument *index* in the name slot, so the table
    interning and shipped-table filters apply unchanged.  The machine
    model always rides along — opaque costs may be data-dependent, so
    workers model per-rank seconds themselves (even under resident
    replay, unlike compiled steps whose captured seconds are charged
    parent-side).
    """

    op: str
    module: Optional[str]
    #: The launch's positional ``scalar_args`` tuple.
    scalars: tuple
    buffers: Tuple[
        Tuple[int, bool, Optional[BlockDescriptor], Optional[int], Optional[List[WireRect]]],
        ...,
    ]
    start: int
    stop: int
    machine: Optional[object] = None
    #: Parent-assigned request id (see :class:`ChunkRequest`).
    req_id: int = 0


@dataclass
class ResidentStep:
    """Worker-resident form of one shippable compiled plan step.

    Shipped inside a resident-plan message and cached worker-side; run
    messages reference it by ``(plan id, step index)`` and carry only the
    epoch's scalar values and a per-buffer descriptor sync.  ``buffers``
    holds the *full* rank-indexed wire rect table of every argument (the
    worker slices ``[start, stop)`` ranges itself), interned by table id
    like per-chunk geometry.
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
    elementwise: bool
    #: Super-kernel steps: per-buffer calling convention (see
    #: :class:`ChunkRequest`).
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
    registry exactly like :class:`OpaqueChunkRequest`.  Run messages
    carry the epoch's positional scalar values and the descriptor sync;
    the worker rebuilds per-chunk requests from its baked rank ranges
    and models per-rank seconds itself from the embedded machine model.
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
    """The pool's transport failed (a worker died mid-chunk).

    Distinct from errors a worker *reports* (those re-raise with their
    own type, e.g. ``BackendDivergenceError``): a broken transport means
    the chunk's fate is unknown, the pool is torn down, and the caller
    should fall back to the next rung — the next launch rebuilds a fresh
    pool through :func:`process_pool`.
    """


def _view_of(base: np.ndarray, rect: WireRect) -> np.ndarray:
    lo, hi = rect
    return base[tuple(slice(l, h) for l, h in zip(lo, hi))]


def _rect_volume(rect: WireRect) -> int:
    lo, hi = rect
    volume = 1
    for l, h in zip(lo, hi):
        volume *= max(0, h - l)
    return volume


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
def _execute_chunk(
    request: ChunkRequest,
    executors: Dict[int, object],
) -> ChunkResult:
    """Run one chunk inside a worker process."""
    executor = executors.get(request.kernel_id)
    if executor is None:
        spec = request.spec
        if spec is None:
            raise RuntimeError(
                f"worker has no executor for kernel id {request.kernel_id} "
                "and the request carried no spec"
            )
        if isinstance(spec, SuperKernelSpec):
            from repro.kernel.codegen import _compile_source

            executor, _fresh = _compile_source(spec.source, spec.name)
        else:
            from repro.kernel.lowering import lower

            executor = lower(spec.function, spec.binding, spec.backend)
        executors[request.kernel_id] = executor

    bases: Dict[str, Optional[np.ndarray]] = {}
    for name, is_reduction, descriptor, _table_id, _rects in request.buffers:
        bases[name] = None if is_reduction else attach_view(descriptor)

    if request.modes is not None:
        # Super-kernel chunk: one fused-closure call over the chunk's
        # views — merged buffers get the contiguous span, ranked buffers
        # the per-rank view list (mirroring ``run_superkernel_ranks``).
        fused_buffers: Dict[str, object] = {}
        for (name, _is_reduction, _descriptor, _table_id, rects), mode in zip(
            request.buffers, request.modes
        ):
            base = bases[name]
            if base is None:
                fused_buffers[name] = None
            elif mode == "ranked":
                fused_buffers[name] = [_view_of(base, rect) for rect in rects]
            else:
                fused_buffers[name] = _view_of(base, (rects[0][0], rects[-1][1]))
        partials = executor(fused_buffers, request.scalars)
        return [partials], []

    partials_by_rank: List[Dict[str, object]] = []
    seconds_by_rank: List[float] = []
    cost = request.cost
    machine = request.machine
    seconds_memo: Dict[Tuple[int, ...], float] = {}
    buffers: Dict[str, Optional[np.ndarray]] = {}

    if request.elementwise:
        # One merged closure call over the chunk's contiguous span —
        # element-for-element identical to the per-rank loop (the launch
        # passed ``pool.contiguous_elementwise_tables`` before routing;
        # this is ``pool.merged_table_span`` in wire-rect form).
        for name, is_reduction, _descriptor, _table_id, rects in request.buffers:
            base = bases[name]
            merged = (rects[0][0], rects[-1][1])
            buffers[name] = None if base is None else _view_of(base, merged)
        executor(buffers, request.scalars)
        partials_by_rank = [{} for _ in range(request.stop - request.start)]
    else:
        for index in range(request.stop - request.start):
            for name, is_reduction, _descriptor, _table_id, rects in request.buffers:
                base = bases[name]
                buffers[name] = (
                    None if base is None else _view_of(base, rects[index])
                )
            partials_by_rank.append(executor(buffers, request.scalars))

    if cost is not None:
        for index in range(request.stop - request.start):
            volumes = tuple(
                _rect_volume(rects[index])
                for _name, _is_reduction, _descriptor, _table_id, rects in request.buffers
            )
            seconds = seconds_memo.get(volumes)
            if seconds is None:
                element_counts = {
                    entry[0]: volume
                    for entry, volume in zip(request.buffers, volumes)
                }
                seconds = cost.estimate_seconds(element_counts, machine)
                seconds_memo[volumes] = seconds
            seconds_by_rank.append(seconds)
    return partials_by_rank, seconds_by_rank


def _execute_opaque_chunk(request: OpaqueChunkRequest) -> ChunkResult:
    """Run one opaque rank chunk inside a worker process.

    Resolves the operator by name from the worker's own registry (the
    parent only ships operators registered at module import time, so
    ``spawn`` workers re-create the exact implementation by importing
    the defining module).  Cost runs after execute, matching the
    parent-side chunk path — sound because registered chunk cost
    functions never read chunk-written data.
    """
    from repro.runtime.opaque import resolve_opaque_impl

    impl = resolve_opaque_impl(request.op, request.module)
    if impl.chunk is None:
        raise RuntimeError(
            f"opaque operator '{request.op}' has no chunk implementation"
        )
    bases: Dict[int, Optional[np.ndarray]] = {}
    rects_map: Dict[int, List[WireRect]] = {}
    for index, is_reduction, descriptor, _table_id, rects in request.buffers:
        bases[index] = None if is_reduction else attach_view(descriptor)
        rects_map[index] = rects
    partials = impl.chunk.execute(bases, rects_map, request.scalars)
    if partials is None:
        partials = [None] * (request.stop - request.start)
    seconds = (
        impl.chunk.cost_seconds(bases, rects_map, request.scalars, request.machine)
        if request.machine is not None
        else []
    )
    return partials, seconds


def _intern_request_tables(request, tables: Dict[int, list]) -> None:
    """Resolve a per-chunk request's interned rect tables in place.

    Runs on receipt, *before* execution: a carried rect list is cached
    under its table id unconditionally, so the parent's per-worker
    shipped-table sets stay truthful even when the chunk itself errors.
    """
    resolved = []
    rewritten = False
    for entry in request.buffers:
        name, is_reduction, descriptor, table_id, rects = entry
        if table_id is not None:
            if rects is None:
                rects = tables[table_id]
                entry = (name, is_reduction, descriptor, table_id, rects)
                rewritten = True
            else:
                tables[table_id] = rects
        resolved.append(entry)
    if rewritten:
        request.buffers = tuple(resolved)


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


def _execute_resident(
    template, values: tuple, resolved: list, executors: Dict[int, object]
) -> List[ChunkResult]:
    """Run one resident-plan step over the worker's baked rank ranges.

    A frame entry carries no geometry, names or ranges — the worker
    iterates the chunk ranges baked into its copy of the template,
    slices the resident rect tables to each ``[start, stop)`` range and
    executes through the same :func:`_execute_chunk` path as the
    per-chunk protocol, so results are bit-identical.  ``resolved``
    holds the step's current per-buffer descriptors (``None`` for
    reductions).  Replay ships no cost model (captured seconds are
    charged parent-side in recorded order), so seconds come back empty.
    """
    if isinstance(template, OpaqueResidentStep):
        # Opaque step: rebuild per-chunk requests from the baked rank
        # ranges; the positional scalar tuple travels as the run values
        # and per-rank seconds are re-modelled worker-side.
        opaque_results: List[ChunkResult] = []
        for start, stop in template.chunks:
            buffers = tuple(
                (index, is_reduction, descriptor, None, rects[start:stop])
                for (index, is_reduction, _old, _table_id, rects), descriptor in zip(
                    template.buffers, resolved
                )
            )
            opaque_results.append(
                _execute_opaque_chunk(
                    OpaqueChunkRequest(
                        op=template.op,
                        module=template.module,
                        scalars=tuple(values),
                        buffers=buffers,
                        start=start,
                        stop=stop,
                        machine=template.machine,
                    )
                )
            )
        return opaque_results
    scalars = dict(zip(template.scalar_names, values))
    results: List[ChunkResult] = []
    for start, stop in template.chunks:
        buffers = tuple(
            (name, is_reduction, descriptor, None, rects[start:stop])
            for (name, is_reduction, _old, _table_id, rects), descriptor in zip(
                template.buffers, resolved
            )
        )
        request = ChunkRequest(
            kernel_id=template.kernel_id,
            spec=template.spec,
            scalars=scalars,
            buffers=buffers,
            start=start,
            stop=stop,
            elementwise=template.elementwise,
            modes=template.modes,
        )
        results.append(_execute_chunk(request, executors))
    return results


def _worker_main(connection) -> None:
    """Request loop of one worker process (module-level for ``spawn``)."""
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
            if type(message) is tuple and message[0] == "plan":
                # Fire-and-forget registration (pure bookkeeping): a
                # failure here surfaces as a normal error reply on the
                # first run message referencing the missing plan.
                try:
                    plan_id, steps = _register_resident_plan(message, tables)
                    plans[plan_id] = steps
                except Exception:  # pragma: no cover - malformed ship
                    pass
                continue
            if type(message) is tuple and message[0] == "telemetry":
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
            if type(message) is tuple:
                request_id = message[1]
            else:
                request_id = message.req_id
            try:
                if type(message) is tuple and message[0] == "r":
                    reply = _execute_frame(message, plans, executors, descriptors)
                elif isinstance(message, OpaqueChunkRequest):
                    _intern_request_tables(message, tables)
                    with telemetry.span(
                        "worker.opaque_chunk",
                        f"op={message.op} ranks=[{message.start}:{message.stop})",
                    ):
                        reply = _execute_opaque_chunk(message)
                else:
                    _intern_request_tables(message, tables)
                    with telemetry.span(
                        "worker.chunk",
                        f"kernel={message.kernel_id} "
                        f"ranks=[{message.start}:{message.stop})",
                    ):
                        reply = _execute_chunk(message, executors)
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
        #: Kernel ids each worker already holds an executor for.
        self._shipped: List[set] = []
        #: Wire-table ids each worker has interned the rects of.
        self._tables_shipped: List[set] = []
        #: Resident-plan ids each worker holds the templates of.
        self._plans_shipped: List[set] = []
        #: Per-worker descriptor intern table for resident run messages:
        #: ``BlockDescriptor -> small id``, assigned densely in send
        #: order (the worker appends to an id-indexed list in arrival
        #: order; FIFO pipes keep the two in lockstep).  Steady replay
        #: cycles through a bounded set of arena offsets, so after a few
        #: epochs every sync entry is an ``int``.
        self._descriptor_ids: List[Dict[BlockDescriptor, int]] = []
        #: Request traffic actually written to the pipes, measured on the
        #: pickled payloads (``wire_requests`` counts messages).  The
        #: executor brackets each dispatch with a thread-local call meter
        #: (:meth:`begin_call_meter`/:meth:`end_call_meter`) and reports
        #: the per-call figures to the profiler — concurrent dispatches
        #: would double-count under the old snapshot-delta scheme.
        self.wire_bytes = 0
        self.wire_requests = 0
        #: Guards teardown only; request traffic no longer serialises on
        #: a whole-cycle lock (see the per-worker send locks below).
        self._lock = threading.Lock()
        self._meter_lock = threading.Lock()
        self._assign_lock = threading.Lock()
        #: One lock per worker pipe, held across every (per-worker state
        #: mutation, ``send_bytes``) pair: the shipped kernel/table/plan
        #: sets and the descriptor interning assume the worker receives
        #: messages in exactly the order the parent mutated its
        #: bookkeeping, so state update and send must be atomic per pipe.
        self._send_locks: List[threading.Lock] = []
        #: Completion map: request id -> raw reply tuple.  Per-worker
        #: reader threads fill it; dispatching threads wait on the
        #: condition until their ids resolve.  Also guards request-id
        #: allocation and the ``closed`` flag's broken-pool transitions.
        self._done = threading.Condition()
        self._completions: Dict[int, tuple] = {}
        self._next_request_id = 0
        self._local = threading.local()
        self._readers: List[threading.Thread] = []
        self._next_worker = 0
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
            self._shipped.append(set())
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

    def _assign_worker(self) -> int:
        """Next round-robin worker index (thread-safe)."""
        with self._assign_lock:
            worker = self._next_worker
            self._next_worker = (worker + 1) % self.size
            return worker

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
                            "process-pool worker died mid-chunk (transport closed)"
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
            f"process-pool worker died mid-chunk: {failure!r}"
        ) from failure

    def _unwrap(
        self,
        replies: Sequence[tuple],
        kernel_id: Optional[int] = None,
        assignments: Sequence[int] = (),
    ) -> List[ChunkResult]:
        """Extract payloads, re-raising the first worker error in order."""
        for reply in replies:
            if reply[0] == "err":
                _tag, _request_id, error, worker_traceback = reply
                if kernel_id is not None:
                    # The failing worker's executor install may not have
                    # landed: forget the kernel on every assigned worker
                    # so the next dispatch re-ships the spec (harmless
                    # when the install did land — workers consult a spec
                    # only when they hold no executor for the id).
                    for assigned in set(assignments):
                        self._shipped[assigned].discard(kernel_id)
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
        """Start metering this thread's wire traffic (one dispatch).

        Meters nest: a dispatch made while a level frame is in flight
        (:meth:`run_resident_chunks`'s ``meanwhile``) counts its own
        traffic and hands the meter back to the frame's dispatch.
        """
        self._local.counters = [0, 0, getattr(self._local, "counters", None)]

    def end_call_meter(self) -> Tuple[int, int]:
        """Stop metering; returns this thread's ``(bytes, requests)``."""
        nbytes, requests, self._local.counters = self._local.counters
        return nbytes, requests

    def _send(self, worker: int, message, payload: Optional[bytes] = None) -> None:
        """Pickle, meter and write one request message to a worker.

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

    # ------------------------------------------------------------------
    def run_chunks(
        self,
        kernel_id: int,
        spec: KernelSpec,
        requests: Sequence[ChunkRequest],
    ) -> List[ChunkResult]:
        """Execute chunk requests across the workers, results in order.

        Requests are assigned round-robin, all sent before any reply is
        awaited (workers overlap), and replies are matched by request id
        and returned in request order so join-point folds see rank order
        exactly like the inline rank loop.  Concurrency-safe: any number
        of threads may dispatch simultaneously — sends serialise per
        worker pipe, replies resolve through the completion map.
        """
        if self.closed:
            raise ProcessPoolBrokenError("process pool is closed")
        assignments: List[int] = []
        request_ids: List[int] = []
        try:
            for request in requests:
                worker = self._assign_worker()
                with self._send_locks[worker]:
                    request.req_id = self._new_request_id()
                    request.spec = (
                        spec if kernel_id not in self._shipped[worker] else None
                    )
                    self._shipped[worker].add(kernel_id)
                    request.buffers = self._filter_shipped_tables(
                        worker, request.buffers
                    )
                    self._send(worker, request)
                assignments.append(worker)
                request_ids.append(request.req_id)
        except (EOFError, BrokenPipeError, OSError) as transport_error:
            # A worker died mid-chunk (OOM kill, segfault): the chunk's
            # fate is unknown.  Mark the pool dead so callers fall back
            # inline and the next launch rebuilds a fresh pool.
            self._transport_failed(transport_error)
        try:
            replies = self._collect(request_ids)
        except ProcessPoolBrokenError:
            self.shutdown()
            raise
        return self._unwrap(replies, kernel_id, assignments)

    # ------------------------------------------------------------------
    def run_opaque_chunks(
        self, requests: Sequence[OpaqueChunkRequest]
    ) -> List[ChunkResult]:
        """Execute opaque chunk requests across the workers, in order.

        Like :meth:`run_chunks`, but with no kernel spec to ship or
        forget — workers resolve the operator by name from their own
        registry, so a failed request leaves no half-installed executor
        state behind.
        """
        if self.closed:
            raise ProcessPoolBrokenError("process pool is closed")
        request_ids: List[int] = []
        try:
            for request in requests:
                worker = self._assign_worker()
                with self._send_locks[worker]:
                    request.req_id = self._new_request_id()
                    request.buffers = self._filter_shipped_tables(
                        worker, request.buffers
                    )
                    self._send(worker, request)
                request_ids.append(request.req_id)
        except (EOFError, BrokenPipeError, OSError) as transport_error:
            self._transport_failed(transport_error)
        try:
            replies = self._collect(request_ids)
        except ProcessPoolBrokenError:
            self.shutdown()
            raise
        return self._unwrap(replies)

    # ------------------------------------------------------------------
    def _plan_ship_message(self, plan: ResidentPlan, worker: int) -> tuple:
        """Build one worker's copy of a resident-plan ship message.

        Rect tables the worker already interned (from per-chunk requests
        or earlier plan ships) travel as their id alone; fresh tables are
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
        chunk and therefore rank order, bit-identical to the per-chunk
        protocol.

        An entry's ``descriptors`` is the step's *current* per-buffer
        field-address tuple (``None`` entries for reductions): frontends
        rebind fresh stores per epoch, so the sync always travels, but
        each item is interned per worker — a descriptor crosses the pipe
        once, then rides as a small int id.  Arena offsets cycle through
        a bounded set in steady replay, so the table saturates after a
        few epochs and the steady frame is a few dozen bytes per entry.

        Concurrency-safe like :meth:`run_chunks`: plan shipping and
        descriptor interning happen under the worker's send lock (their
        id assignment relies on per-pipe send order), and replies are
        matched by request id.  Unlike per-chunk kernel ships, a worker
        error forgets nothing: templates re-carry their spec on every
        run, so a failed executor install simply retries from the
        resident template next time.
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
            self._shipped = []
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

    Attached to the :class:`~repro.kernel.compiler.CompiledKernel` on
    first dispatch; identifies its executor in worker-side caches (ids
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
