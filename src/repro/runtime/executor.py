"""Functional execution of index tasks over region fields.

Every launch — eager or replayed, compiled or opaque — takes the same
four steps:

1. **Prepare** a :class:`ChunkWork`: the launch's rows ``(key, region
   field, is_reduction, per-rank rect table)``, a local runner over a
   contiguous rank range, and what a worker process would need to run
   the same range of a replayed step.  There are four kinds: compiled
   per-rank, compiled merged (one closure call per chunk, which
   ``pool.launch_verdict`` allows when the rect tables tile every buffer
   contiguously in rank order — a kernel that reduces then *stacks*,
   reducing by ``(ranks, tile)`` rows into per-rank partials), epoch
   super-kernel (built by the plan scheduler), and opaque (one library
   call per rank, or one per chunk when the operator registers a chunk
   implementation; see ``runtime/opaque.py``).  The
   runners — :func:`compiled_ranks`, ``superkernel.call_superkernel``
   and :func:`opaque_chunk` — are the ones a worker process calls on
   its share of a shipped step, over rows whose fields are the attached
   shared-memory blocks: one copy of every calling convention.
2. **Run the chunks**, per-chunk ``(partials_by_rank,
   seconds_by_rank)`` results in chunk order, on one of three rungs.  An
   eager launch runs in this process, as one chunk or split across the
   plan threads like a chain level's step.  A replayed step of a
   plan resident in the worker processes (``REPRO_POINT_WORKERS`` > 1)
   ships with its whole level as one frame per worker
   (:meth:`TaskExecutor.run_resident_level`); the calling thread runs
   slot 0's chunks meanwhile, and the scheduler hands each step its
   chunk results.  A step the frame declines — the reason recorded by
   ``Profiler.record_decline`` — runs its chunks inline, in rank order,
   on the calling thread, and so do the chunks of workers the frame
   lost.  Without worker processes, a big compiled step of a level that
   pools nothing — or a big eager launch — runs its chunks across the
   idle plan threads (:meth:`TaskExecutor._thread_chunks`), the calling
   thread taking chunk 0.
3. **Fold** reduction partials and per-GPU simulated seconds in recorded
   rank order (:meth:`TaskExecutor.fold`), so buffers and simulated time
   are bit-identical for every substrate and dispatch width.
4. **Account** the launch: the caller's job (``LegionRuntime`` for eager
   launches, ``PlanScheduler._account`` for replayed ones).

``REPRO_HOTPATH_CACHE=0`` is the seed path ``benchmarks/e2e``'s
``expected.json`` is generated through; it forks in one place,
:meth:`TaskExecutor._binder`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import wait
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro import config
from repro.config import hotpath_cache_enabled
from repro.ir.privilege import Privilege, ReductionOp, numpy_ufunc_for
from repro.ir.future import Future
from repro.ir.task import IndexTask, StoreArg
from repro.kernel import codegen
from repro.kernel.compiler import CompiledKernel
from repro.kernel.lowering import ReductionPartial
from repro.runtime import pool as pool_module
from repro.runtime import procpool, telemetry
from repro.runtime.machine import MachineConfig
from repro.runtime.opaque import OpaqueTaskImpl, default_opaque_registry
from repro.runtime.pool import (
    RectTable,
    Verdict,
    merged_table_span,
    point_chunks,
    thread_block,
    thread_split,
    worker_pool,
)
from repro.runtime.procpool import ChunkResult
from repro.runtime.profiler import Profiler
from repro.runtime.region import RegionManager

#: Minimum total elements a replayed step must touch before its point tasks
#: are dispatched to the worker processes; below this the chunk handoff costs
#: more than the tiles' compute.  Results are bit-identical either way,
#: so this is a pure performance knob — tests force it to 0 to exercise
#: the pool on tiny problems.
MIN_POINT_DISPATCH_VOLUME = 16384

#: Entries the opaque-binding LRU retains (distinct launch geometries).
OPAQUE_BINDING_MEMO_LIMIT = 1024

#: One reduction key's per-rank partials, in rank order: a float64
#: array (super-kernels) or a list of :class:`ReductionPartial`.
Partials = Union[np.ndarray, List[ReductionPartial]]

#: A prepared row: ``(key, region field, is_reduction, rect table)``.
#: The key is the kernel's buffer name, or the argument index of an
#: opaque launch; replayed reduction rows carry no field.
Row = Tuple[object, object, bool, list]


def span_slices(table, start: int, stop: int) -> tuple:
    """NumPy slices of the merged 1-D span of ranks ``[start, stop)``.

    Memoized per range on an interned :class:`RectTable`, so a replayed
    merged call binds each buffer with one basic slice of its field.
    """
    spans = getattr(table, "spans", None)
    span = None if spans is None else spans.get((start, stop))
    if span is None:
        span = merged_table_span(table, start, stop).slices()
        if spans is not None:
            spans[(start, stop)] = span
    return span


@dataclass
class ChunkWork:
    """One launch prepared for dispatch (see the module docstring)."""

    rows: Sequence[Row]
    num_points: int
    #: Ranks ``[start, stop)`` -> :data:`ChunkResult`.  Pure compute,
    #: safe on any thread: writes land in place through disjoint views,
    #: partials and seconds come back unapplied for the join-point fold.
    #: A compiled work's runner takes two more arguments for a chunk that
    #: runs beside others on the plan threads: its elements per block and
    #: its share of the executor's scratch reserve.
    run: Callable[..., ChunkResult]
    #: Reduction keys the fold keeps (``None`` keeps every key).
    wanted: Optional[object] = None
    #: What ships to a worker process: the compiled (or fused) kernel,
    #: or the opaque operator with a chunk implementation.  Neither
    #: means the work only runs in this process.
    kernel: Optional[object] = None
    impl: Optional[OpaqueTaskImpl] = None
    #: Scalars by name (compiled) or the positional tuple (opaque).
    scalars: object = None
    #: A compiled launch's calling convention (``pool.launch_verdict``);
    #: ``None`` for super-kernel and opaque works.
    verdict: Optional[Verdict] = None
    #: An eager launch (it models its own seconds), not a replayed step.
    eager: bool = False


class Shipped(NamedTuple):
    """One shipped step's chunks after its level's round trip."""

    #: Per chunk, in chunk order: the result the calling thread (slot 0)
    #: or a worker process produced, or ``None`` for a chunk that has
    #: yet to run (its worker was lost), which the launch runs inline.
    results: List[Optional[ChunkResult]]
    #: How many of ``results`` a worker process produced.
    process_chunks: int


def bind_views(rows: Sequence[Row], start: int, stop: int) -> List[dict]:
    """Per-rank buffer dicts of ranks ``[start, stop)`` over cached views."""
    return [
        {
            key: None if is_reduction else field.view(table[rank][0])
            for key, field, is_reduction, table in rows
        }
        for rank in range(start, stop)
    ]


def compiled_ranks(
    kernel_fn, rows: Sequence[Row], scalars, start: int, stop: int,
    verdict: Optional[Verdict] = None, bind=bind_views, block: Optional[int] = None,
    scratch: Optional[np.ndarray] = None,
) -> list:
    """Run ranks ``[start, stop)`` of a compiled launch; their partials.

    With a merged ``verdict`` (``pool.launch_verdict``) the range is one
    closure call over every buffer's contiguous span, reduction targets
    ``None``: an element-wise call returns no partials, a stacked one
    (``verdict.tile``) one dict of per-rank float64 arrays, the chunk's
    single entry.  Otherwise each rank is one call returning its dict of
    ``ReductionPartial``.  ``block`` is the elements per block the
    kernel plans its block loops at (``None``: ``codegen.BLOCK``; a
    thread chunk passes more), and ``scratch`` the buffer its registers
    are cut from (``None``: each call allocates its own).
    """
    if verdict is not None and verdict.merged and stop > start:
        partials = kernel_fn(
            {
                key: None if is_reduction else field.data[span_slices(table, start, stop)]
                for key, field, is_reduction, table in rows
            },
            scalars,
            block,
            scratch,
            verdict.tile,
        )
        return [partials]
    return [kernel_fn(buffers, scalars, block, scratch) for buffers in bind(rows, start, stop)]


def wire_rects(table, start: int, stop: int) -> list:
    """The ``(lo, hi)`` rect list of ranks ``[start, stop)``.

    The wire form the opaque chunk contract takes and resident templates
    ship.  An interned :class:`RectTable` memoizes it per range, so a
    replayed chunk hands its operator the same list object every epoch
    (the SpMV chunk-cost cache keys on that identity); other tables cut
    it per call.
    """
    cache = getattr(table, "wire", None)
    rects = None if cache is None else cache.get((start, stop))
    if rects is None:
        rects = [(rect.lo, rect.hi) for rect, _volume in table[start:stop]]
        if cache is not None:
            rects = cache.setdefault((start, stop), rects)
    return rects


def opaque_chunk(
    impl: OpaqueTaskImpl, rows: Sequence[Row], scalars: tuple, machine,
    start: int, stop: int,
) -> ChunkResult:
    """Run ranks ``[start, stop)`` of an opaque launch as one chunk call.

    The chunk contract (``runtime/opaque.py``): full base arrays, the
    ranks' wire rects and the scalar tuple.  The chunk cost runs after
    the execute — sound because registered chunk cost functions never
    read data the chunk wrote.
    """
    chunk = impl.chunk
    bases = {
        index: None if is_reduction else field.data
        for index, field, is_reduction, _table in rows
    }
    rects = {row[0]: wire_rects(row[3], start, stop) for row in rows}
    with telemetry.span(
        "opaque.chunk",
        f"op={impl.name} ranks=[{start}:{stop})" if telemetry.enabled() else "",
    ):
        partials = chunk.execute(bases, rects, scalars)
    return partials or (), chunk.cost_seconds(bases, rects, scalars, machine)


class TaskExecutor:
    """Executes index tasks functionally and models their kernel time."""

    def __init__(
        self,
        regions: RegionManager,
        machine: MachineConfig,
        profiler: Optional[Profiler] = None,
    ) -> None:
        self.regions = regions
        self.machine = machine
        self.profiler = profiler if profiler is not None else Profiler()
        #: (partition, launch-domain shape, store shape) -> interned
        #: table.  Insertion is serialised so concurrent plan-scheduler
        #: workers agree on one canonical table (lookups are lock-free).
        self._rect_table_cache: Dict[Tuple, RectTable] = {}
        self._rect_table_lock = threading.Lock()
        #: Per-argument (field id, rect-table id, is-reduction) signature
        #: plus rank count -> (pinned field tuple, per-rank buffer dicts).
        #: A replayed opaque launch re-resolves the same fields and
        #: interned tables every epoch, and ``field.view`` hands back one
        #: canonical view per rect, so the dicts are built once and
        #: shallow-copied per use (an implementation may mutate its
        #: buffer dict).  The value pins the fields, so the ids in live
        #: keys cannot be recycled; ``RegionManager.attach`` swaps in a
        #: new field object, which changes the key.  A bounded LRU.
        self._opaque_binding_memo: "OrderedDict[Tuple, Tuple[tuple, list]]" = (
            OrderedDict()
        )
        self.launch_rects, self._bind_ranks, self._bind_opaque_ranks = self._binder()
        #: :meth:`reserve_scratch`'s buffer.
        self._scratch = np.empty(0)

    # ------------------------------------------------------------------
    # Prepare: geometry, rows and the four kinds of work.
    # ------------------------------------------------------------------
    def _binder(self):
        """The one fork on ``REPRO_HOTPATH_CACHE``.

        Returns ``(launch_rects, bind, bind_opaque)``: the per-rank rect
        table of one argument — indexed by the rank of the point in
        launch-domain iteration order, a pure function of (partition,
        launch domain, store shape), all part of the trace key — and the
        per-rank buffer-dict binders of compiled and opaque launches.
        With the caches on tables are interned and views come from the
        fields' view caches (opaque launches memoize whole launches);
        off, the seed path rebuilds tables per launch and slices every
        view afresh.
        """

        def build(arg: StoreArg, task: IndexTask) -> list:
            shape = arg.store.shape
            table = []
            for point in task.launch_domain.points():
                rect = arg.partition.sub_store_rect(point, shape)
                table.append((rect, rect.volume))
            return table

        if not hotpath_cache_enabled():

            def slice_ranks(rows, start, stop):
                return [
                    {
                        key: None if is_reduction else field.data[table[rank][0].slices()]
                        for key, field, is_reduction, table in rows
                    }
                    for rank in range(start, stop)
                ]

            return build, slice_ranks, slice_ranks

        def interned(arg: StoreArg, task: IndexTask) -> RectTable:
            key = (arg.partition, task.launch_domain.shape, arg.store.shape)
            table = self._rect_table_cache.get(key)
            if table is None:
                table = RectTable.interned(build(arg, task), key[2])
                with self._rect_table_lock:
                    table = self._rect_table_cache.setdefault(key, table)
            return table

        def memoized_ranks(rows, start, stop):
            memo = self._opaque_binding_rows(rows, len(rows[0][3]) if rows else stop)
            return [dict(buffers) for buffers in memo[start:stop]]

        return interned, bind_views, memoized_ranks

    def _rows(self, task: IndexTask, keyed_args, defined_first=frozenset()) -> Tuple[Row, ...]:
        """Resolve everything about a launch that no rank depends on.

        ``defined_first`` names the keys a compiled kernel assigns
        whole before use; their fields may be allocated uninitialised.
        """
        rows = []
        for key, arg in keyed_args:
            table = self.launch_rects(arg, task)
            field = self.regions.field(
                arg.store, key in defined_first and self.defines_store(task, arg, table)
            )
            rows.append((key, field, arg.privilege is Privilege.REDUCE, table))
        return tuple(rows)

    @staticmethod
    def defines_store(task: IndexTask, arg: StoreArg, table) -> bool:
        """Condition (3) of the uninitialised-allocation rule.

        Given a buffer its kernel assigns whole before use
        (``KernelBinding.defined_first``): do the launch's tiles of it
        add up to the whole store, and is it the launch's only view of
        the store?  A second view (another partition of the same store)
        is another kernel buffer, which the kernel may load first.
        """
        if not getattr(table, "covers", False):
            return False
        store, partition = arg.store, arg.partition
        return all(
            other.partition is partition or other.partition == partition
            for other in task.args
            if other.store is store
        )

    def compiled_work(
        self, kernel, rows, scalars, num_points: int, verdict: Verdict,
        wanted, cost=None,
    ) -> ChunkWork:
        """Work of a compiled launch, per rank or merged as ``verdict`` says.

        ``cost`` makes the runner model per-rank seconds (eager
        launches); replay passes none and charges captured seconds.
        Interior tiles share one shape, so the modelled time is memoized
        per tuple of sub-store volumes; the memo is shared by concurrent
        chunks — ``estimate_seconds`` is a pure function of the volumes,
        so a racing duplicate stores the same value.
        """
        kernel_fn = kernel.executor
        bind = self._bind_ranks
        machine = self.machine
        memo: Dict[Tuple[int, ...], float] = {}

        def run(start: int, stop: int, block=None, scratch=None) -> ChunkResult:
            partials = compiled_ranks(
                kernel_fn, rows, scalars, start, stop, verdict, bind, block, scratch
            )
            if cost is None:
                return partials, ()
            seconds = []
            for rank in range(start, stop):
                volumes = tuple(row[3][rank][1] for row in rows)
                modelled = memo.get(volumes)
                if modelled is None:
                    counts = {row[0]: volume for row, volume in zip(rows, volumes)}
                    modelled = memo[volumes] = cost.estimate_seconds(counts, machine)
                seconds.append(modelled)
            return partials, seconds

        return ChunkWork(
            rows, num_points, run, wanted, kernel=kernel, scalars=scalars, verdict=verdict,
            eager=cost is not None,
        )

    def opaque_work(
        self, impl: OpaqueTaskImpl, rows, num_points: int, scalars, task_of: Callable
    ) -> ChunkWork:
        """Work of an opaque launch (rows keyed by argument index).

        With a chunk-level implementation registered (and
        ``config.OPAQUE_CHUNKS``, a test lever), a rank range is one
        :func:`opaque_chunk` call, which a resident plan's workers make
        too.  Otherwise each
        rank is one call on the launch's task (``task_of()``; replay
        only rebuilds it here) with its own buffer dict, its cost
        modelled right after its execute so data-dependent costs observe
        the buffer state the serial loop would show them.
        """
        machine = self.machine
        if impl.chunk is not None and config.opaque_chunks_enabled():
            scalars = tuple(scalars)
            return ChunkWork(
                rows, num_points,
                lambda start, stop: opaque_chunk(impl, rows, scalars, machine, start, stop),
                impl=impl, scalars=scalars,
            )

        task = task_of()
        if any(type(value) is Future for value in task.scalar_args):
            # The operator reads its scalars off the task: hand it one
            # with the futures resolved.
            task = IndexTask(task.task_name, task.launch_domain, task.args, scalars)
        points = list(task.launch_domain.points())
        bind = self._bind_opaque_ranks

        def run(start: int, stop: int) -> ChunkResult:
            partials, seconds = [], []
            for point, buffers in zip(points[start:stop], bind(rows, start, stop)):
                partials.append(impl.execute(task, point, buffers))
                seconds.append(impl.cost_seconds(task, point, buffers, machine))
            return partials, seconds

        return ChunkWork(rows, num_points, run)

    def _opaque_binding_rows(self, rows, num_points: int) -> List[dict]:
        """The per-rank buffer dicts of an opaque launch, memoized.

        One dict per rank mapping argument index to its canonical
        sub-store view (``None`` for reductions).  Callers shallow-copy
        a rank's dict before handing it to the task implementation.
        """
        key = (num_points,) + tuple((id(row[1]), id(row[3]), row[2]) for row in rows)
        cached = self._opaque_binding_memo.get(key)
        if cached is not None:
            # LRU touch; tolerates concurrent chunk workers racing an
            # eviction of the same key (the rows were already fetched).
            try:
                self._opaque_binding_memo.move_to_end(key)
            except KeyError:
                pass
            return cached[1]
        bound = bind_views(rows, 0, num_points)
        if len(self._opaque_binding_memo) >= OPAQUE_BINDING_MEMO_LIMIT:
            # Single least-recently-used eviction; tolerates concurrent
            # chunk workers racing on the same launch (both build
            # identical rows, last insert wins).
            try:
                self._opaque_binding_memo.popitem(last=False)
            except (KeyError, RuntimeError):
                pass
        self._opaque_binding_memo[key] = (tuple(row[1] for row in rows), bound)
        return bound

    def scalar_value(self, value):
        """A launch's scalar, a future resolved (``repro.ir.future``).

        Called as the launch is prepared, after everything it depends on
        has joined, so the future reads its sources' final values.
        """
        if type(value) is not Future:
            return value
        self.profiler.future_scalars += 1
        return value.evaluate(self._read_scalar)

    def scalar_values(self, scalar_args) -> tuple:
        """:meth:`scalar_value` of every scalar of a launch."""
        if not any(type(value) is Future for value in scalar_args):
            return scalar_args
        return tuple(self.scalar_value(value) for value in scalar_args)

    def _read_scalar(self, store) -> float:
        return self.regions.field(store).read_scalar()

    def point_chunk_plan(
        self, num_points: int, rows, width: Optional[int] = None
    ) -> List[Tuple[int, int]]:
        """Rank chunks of one replayed step at dispatch ``width``.

        ``width`` defaults to ``REPRO_POINT_WORKERS``.  A single ``(0,
        num_points)`` chunk means the step runs inline.  Dispatch is
        declined for steps whose total touched volume is below
        :data:`MIN_POINT_DISPATCH_VOLUME`.
        """
        if width is None:
            width = config.point_worker_count()
        if width <= 1 or num_points <= 1:
            return [(0, num_points)]
        if sum(volume for row in rows for _rect, volume in row[3]) < MIN_POINT_DISPATCH_VOLUME:
            self._decline("below_volume")
            return [(0, num_points)]
        return point_chunks(num_points, width)

    # ------------------------------------------------------------------
    # Run chunks: the resident level frame.
    # ------------------------------------------------------------------
    def _decline(self, reason: str) -> None:
        """Record why a step stays in this process (and return ``None``)."""
        self.profiler.record_decline(reason)

    def _shippable(self, work: ChunkWork) -> Optional[list]:
        """The rows' shared-memory descriptors, or ``None`` with a reason.

        A work ships when a worker can resolve what to run — a kernel
        spec, or an opaque operator that is the registry's instance for
        its name and has a defining module and a chunk implementation —
        and every non-reduction field lives in the shared arena (fields
        allocated while ``REPRO_POINT_WORKERS`` was 1 do not).
        """
        impl = work.impl
        if work.kernel is None:
            registry = default_opaque_registry()
            if (
                impl is None
                or impl.module is None
                or not registry.has(impl.name)
                or registry.get(impl.name) is not impl
            ):
                return self._decline("unshippable_operator")
        descriptors = []
        for _key, field, is_reduction, _table in work.rows:
            descriptor = None
            if not is_reduction:
                descriptor = getattr(field, "shm_descriptor", None)
                if descriptor is None:
                    return self._decline("no_shm_descriptor")
            descriptors.append(descriptor)
        return descriptors

    def resident_template(self, work: ChunkWork, chunks) -> Optional[procpool.ResidentStep]:
        """One plan step's worker-resident template, or ``None``.

        The template names the step's runner — the kernel spec, or the
        opaque operator — and carries the *full* rank-indexed wire rect
        table of every row (workers cut chunk ranges locally) and the
        step's chunk plan, which the pool cuts per worker at ship time
        so dispatches never re-send rank ranges.  It holds no field
        address: every level frame syncs the epoch's own.
        """
        if self._shippable(work) is None:
            return None
        buffers = tuple(
            (row[0], row[2], wire_rects(row[3], 0, work.num_points)) for row in work.rows
        )
        impl = work.impl
        if impl is not None:
            spec = procpool.OpaqueSpec(impl.name, impl.module, self.machine)
            return procpool.ResidentStep(spec, buffers, tuple(chunks))
        kernel = work.kernel
        return procpool.ResidentStep(
            procpool.spec_for(kernel), buffers, tuple(chunks), tuple(work.scalars),
            work.verdict, procpool.kernel_spec_id(kernel),
        )

    def resident_entry(self, plan, index: int, work: ChunkWork, chunks) -> Optional[tuple]:
        """One step's entry in its level's resident frame, or ``None``.

        ``(step index, scalar values, descriptors, chunks)``: all a run
        message carries is the epoch's scalars, exactly as the calling
        thread runs with them, and field descriptors as plain tuples, so
        a frame pickles to builtins only (frontends bind fresh stores,
        hence fresh arena blocks, every epoch); the workers hold
        everything else.  Declines — with the reason recorded — when the
        work does not ship or the chunk plan disagrees with the ranges
        baked into the workers' templates; the step then runs its chunks
        inline.
        """
        descriptors = self._shippable(work)
        if descriptors is None:
            return None
        template = plan.steps[index]
        if tuple(chunks) != template.chunks:
            return self._decline("template_mismatch")
        if work.impl is None:
            values = tuple(work.scalars[name] for name in template.scalar_names)
        else:
            values = tuple(work.scalars)
        wire = tuple(None if item is None else tuple(item) for item in descriptors)
        return index, values, wire, chunks

    def run_resident_level(
        self, plan, level: int, entries: Sequence[tuple], works: Sequence[ChunkWork],
        meanwhile: Callable[[], None],
    ) -> List[Shipped]:
        """One plan level's resident steps: one frame per worker, slot 0 here.

        ``entries`` are the level's :meth:`resident_entry` tuples in
        recorded order and ``works`` their prepared works.  While the
        workers compute, this thread runs slot 0's chunks of every entry
        through ``ChunkWork.run`` — what the inline rung runs — then
        ``meanwhile``, the level's other steps.  Returns each entry's
        :class:`Shipped` chunks.  When a worker died or hung
        (``worker_lost``; kernel errors re-raise with their own type)
        the pool is torn down and the workers' chunks come back as
        ``None``, to run inline beside slot 0's finished ones; the next
        frame's ``procpool.process_pool()`` builds a fresh pool, to
        which the plan re-ships.  The pool's lock is held across the
        call and the read of its ``traffic``, so the round trip reports
        exactly its own wire bytes, messages and preemptions, even when
        it fails.
        """
        label = ""
        if telemetry.enabled():
            steps = ",".join(str(entry[0]) for entry in entries)
            label = f"resident plan={plan.plan_id} level={level} steps={steps}"
        pool = procpool.process_pool()
        shares: List[List[Optional[ChunkResult]]] = [
            [None] * len(entry[3]) for entry in entries
        ]

        def calling_thread() -> None:
            for share, work, entry in zip(shares, works, entries):
                for position, (start, stop) in enumerate(entry[3]):
                    if not pool.slot(position):
                        share[position] = work.run(start, stop)
            meanwhile()

        remote = None
        with pool.lock, telemetry.span("wire.roundtrip", label):
            try:
                remote = iter(pool.run_resident_chunks(plan, entries, calling_thread))
            except procpool.ProcessPoolBrokenError:
                self._decline("worker_lost")
            finally:
                self.profiler.record_round_trip(*pool.traffic, pool.placement)
        shipped = []
        for share in shares:
            process_chunks = 0
            if remote is not None:
                for position in range(len(share)):
                    if pool.slot(position):
                        share[position] = next(remote)
                        process_chunks += 1
            shipped.append(Shipped(share, process_chunks))
        return shipped

    def _thread_chunks(
        self, work: ChunkWork, chunks: Sequence[Tuple[int, int]], slots: int
    ) -> List[ChunkResult]:
        """Run a compiled launch's chunks on ``slots`` threads; results in order.

        Chunk ``p`` runs on slot ``p % slots``: slot 0 is the calling
        (scheduling) thread, the others are plan-pool threads, idle
        because the level pools nothing or the launch is eager.  Each
        chunk plans its blocks at :func:`thread_block` elements: fewer,
        longer ufunc calls than at ``codegen.BLOCK``, so the threads
        hand the GIL over less often.
        Every chunk cuts its registers from this executor's
        scratch reserve (:meth:`reserve_scratch`), so no thread allocates
        them and their pages stay mapped from one launch to the next.  Every
        chunk is waited for before a failure propagates, so nothing
        still writes when the caller sees it; the first failing chunk in
        rank order raises.
        """
        block = thread_block(min(len(chunks), slots))
        size = work.kernel.scratch_elements(block, work.verdict and work.verdict.tile)
        scratch = self.reserve_scratch(len(chunks) * size)
        pool = worker_pool()
        runs = [
            partial(work.run, start, stop, block, scratch[position * size : (position + 1) * size])
            for position, (start, stop) in enumerate(chunks)
        ]
        futures = [
            pool.submit(run) if position % slots else None
            for position, run in enumerate(runs)
        ]
        results: List[Optional[ChunkResult]] = [None] * len(chunks)
        try:
            for position, run in enumerate(runs):
                if futures[position] is None:
                    results[position] = run()
        finally:
            wait([future for future in futures if future is not None])
        results = [
            done if future is None else future.result()
            for done, future in zip(results, futures)
        ]
        self.profiler.record_thread_chunks(len(chunks), block, work.eager)
        return results

    def reserve_scratch(self, elements: int) -> np.ndarray:
        """The block scratch thread chunks cut their registers from.

        One buffer per executor, grown to ``elements`` when it is
        smaller and written whole when it grows, so its pages are mapped
        by the thread that reserves it and never handed back.  The plan
        scheduler reserves what a plan's split steps need when the plan
        is captured (``PlanScheduler.reserve``), so its first replay
        touches no fresh page for them.  Only the scheduling thread of
        this executor's runtime uses it, one launch at a time.
        """
        if self._scratch.size < elements:
            self._scratch = np.empty(elements)
            self._scratch.fill(0.0)
        return self._scratch

    # ------------------------------------------------------------------
    # Fold.
    # ------------------------------------------------------------------
    def fold(
        self, results: Sequence[ChunkResult], wanted=None
    ) -> Tuple[float, Dict[object, Partials]]:
        """Fold chunk results in recorded rank order.

        Returns the launch's kernel seconds (the maximum over GPUs of
        the per-GPU sums, ranks dealt round-robin) and its reduction
        partials per key, in rank order — bit-identical to the serial
        per-rank loop for every chunking.  A key's partials stay a
        float64 array when a super-kernel returned them as one (chunks
        concatenate in rank order), else a list of
        :class:`ReductionPartial`.  Keys outside ``wanted`` and empty
        partials are dropped.
        """
        totals: Dict[object, Partials] = {}
        seconds: List[float] = []
        for partials_by_rank, seconds_by_rank in results:
            seconds.extend(seconds_by_rank)
            for partials in partials_by_rank:
                if not partials:
                    continue
                for key, partial in partials.items():
                    if wanted is not None and key not in wanted:
                        continue
                    if type(partial) is np.ndarray:
                        if partial.size:
                            earlier = totals.get(key)
                            totals[key] = (
                                partial if earlier is None
                                else np.concatenate((earlier, partial))
                            )
                    elif partial:
                        totals.setdefault(key, []).append(partial)
        num_gpus = max(1, self.machine.num_gpus)
        if len(seconds) <= num_gpus:
            # One rank per GPU (the paper's execution model): each GPU's
            # sum is ``0.0 + seconds``, which is ``seconds`` exactly.
            return max(seconds, default=0.0), totals
        per_gpu = [0.0] * num_gpus
        for rank, rank_seconds in enumerate(seconds):
            per_gpu[rank % num_gpus] += rank_seconds
        return max(per_gpu), totals

    def launch(
        self, work: ChunkWork, chunks: Sequence[Tuple[int, int]], width: int,
        shipped: Optional[Shipped] = None, threads: int = 1,
    ) -> Tuple[float, Dict[object, Partials]]:
        """Run a prepared launch's chunks and fold them.

        ``shipped`` hands in what a resident level frame (dispatched at
        ``width``) already ran: slot 0's chunks on the calling thread and
        those the worker processes brought back.  The chunks it lacks —
        every chunk without it — run here, in rank order, and no chunk
        runs twice.  With ``threads`` > 1 the chunks run on that many
        slots instead (:meth:`_thread_chunks`).  Returns ``(kernel
        seconds, reduction partials per key)`` with the partials still
        unapplied: the plan scheduler folds each step's partials into
        their stores at its level's join, in recorded order.
        """
        process_chunks = 0
        if threads > 1:
            results = self._thread_chunks(work, chunks, threads)
        elif shipped is None:
            results = [work.run(start, stop) for start, stop in chunks]
        else:
            results = [
                work.run(start, stop) if done is None else done
                for done, (start, stop) in zip(shipped.results, chunks)
            ]
            process_chunks = shipped.process_chunks
        if process_chunks:
            self.profiler.record_point_dispatch(
                ranks=work.num_points, chunks=len(chunks),
                process_chunks=process_chunks, width=width,
            )
        verdict = work.verdict
        if verdict is not None:
            if verdict.merged:
                self.profiler.record_merged_launch(len(chunks), verdict.tile is not None)
            elif work.kernel.reduces:
                self.profiler.record_per_rank_reduction(verdict.why)
        elif work.kernel is None and work.impl is None:
            self.profiler.record_opaque_execution(rank_calls=work.num_points)
        elif work.kernel is None:
            self.profiler.record_opaque_execution(
                chunk_calls=len(chunks), process_chunks=process_chunks
            )
        return self.fold(results, work.wanted)

    # ------------------------------------------------------------------
    # The eager entry points: one chunk each, run in this process.
    # ------------------------------------------------------------------
    def execute_compiled(self, task: IndexTask, kernel: CompiledKernel) -> float:
        """Run a task through its compiled kernel; returns kernel seconds."""
        binding = kernel.binding
        args = task.args
        scalar_args = self.scalar_values(task.scalar_args)
        scalars = {
            name: scalar_args[index] for name, index in binding.scalar_args.items()
        }
        buffer_order = binding.buffer_order or tuple(binding.buffer_args.items())
        rows = self._rows(
            task,
            ((name, args[index]) for name, index in buffer_order),
            binding.defined_first,
        )
        num_points = len(rows[0][3]) if rows else task.launch_domain.volume
        verdict = pool_module.launch_verdict(kernel, rows, num_points)
        work = self.compiled_work(
            kernel, rows, scalars, num_points, verdict, binding.buffer_args, kernel.cost
        )
        # Without worker processes a big launch splits across the idle
        # plan threads, as a chain level's replayed step does.
        chunks = [(0, num_points)]
        workers = config.worker_count()
        if workers > 1 and config.point_worker_count() == 1:
            chunks = thread_split([row[3] for row in rows], num_points, workers) or chunks
        seconds, totals = self.launch(work, chunks, 1, threads=len(chunks))
        self._apply_reductions(args, totals, binding.buffer_args)
        return seconds

    def execute_opaque(self, task: IndexTask, impl: OpaqueTaskImpl) -> float:
        """Run a task through its opaque implementation; returns kernel seconds."""
        seconds, totals = self.execute_opaque_deferred(task, impl)
        self._apply_reductions(task.args, totals)
        return seconds

    def execute_opaque_deferred(
        self, task: IndexTask, impl: OpaqueTaskImpl
    ) -> Tuple[float, Dict[int, Partials]]:
        """Run an opaque task but leave its reduction partials unapplied.

        Returns ``(kernel seconds, partials per argument index)``.
        """
        work = self.opaque_work(
            impl, self._rows(task, enumerate(task.args)),
            task.launch_domain.volume, self.scalar_values(task.scalar_args), lambda: task,
        )
        return self.launch(work, [(0, work.num_points)], 1)

    def _apply_reductions(self, args, totals, index_of=None) -> None:
        """Fold a launch's partials into the stores of its arguments."""
        for key, partials in totals.items():
            arg = args[key if index_of is None else index_of[key]]
            self.apply_reduction_partials(
                arg.store, arg.redop or ReductionOp.ADD, partials
            )

    def apply_reduction_partials(self, store, redop: ReductionOp, partials: Partials) -> None:
        """Fold a launch's reduction partials into a target store.

        The partials — a float64 array, or a list of
        :class:`ReductionPartial` unboxed into one — are folded with one
        vectorised ``ufunc.reduce`` (the operators are associative and
        commutative by construction), then combined with the store's
        current value.  Shared by the eager path and plan replay (which
        resolves targets through captured slot bindings instead of task
        arguments).
        """
        field = self.regions.field(store)
        accumulator = field.read_scalar()
        values = partials
        if type(values) is not np.ndarray:
            values = np.fromiter(
                (partial.value for partial in partials),
                dtype=np.float64,
                count=len(partials),
            )
        folded = values[0] if len(values) == 1 else numpy_ufunc_for(redop).reduce(values)
        field.write_scalar(redop.combine_scalars(accumulator, folded))
