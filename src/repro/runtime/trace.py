"""Deferred task stream with iteration-trace capture and replay.

Iterative applications issue an isomorphic stream of tasks every
iteration, delimited by the synchronisation points they already contain
(scalar reads of dot products and convergence checks, explicit flushes
at iteration boundaries).  The eager pipeline pays the full
submit→buffer→canonicalize→coherence→profile cost for every task of
every iteration even though the fusion *decisions* are memoized.  This
module removes that overhead wholesale, in the spirit of Legion's
dynamic tracing and Bohrium's runtime fusion of array operations:

1. The Diffuse layer defers submitted tasks into an *epoch* buffer
   instead of eagerly feeding its fusion window (the deferred task
   stream).  An epoch ends at the next synchronisation point.
2. Submissions arrive as deferred records — an interned
   :class:`~repro.ir.task.TaskSkeleton` plus stores and scalars — and
   are canonicalized as they arrive (store uids replaced by
   De-Bruijn-style slots, as in the memoization of paper Section 5.2;
   each canonical task interned to a small int), so the boundary only
   samples per-slot liveness and entry-coherence state and the scalar
   equality pattern, and looks the plan up.  Index tasks are built only
   for an epoch that misses.
3. On the first occurrence of a key a :class:`TraceRecorder` captures
   the fully-resolved sequence of launches the pipeline produced
   (compiled kernels, per-rank rect tables, coherence charges) as an
   immutable :class:`ExecutionPlan`, with each window round's analysis
   charge recorded as what a memoization hit on that window charges.
   That is exact, not an estimate: tracing runs only with memoization
   on, so the first occurrence stores every round's decision under its
   window key and pays each kernel's compile charge, which is charged
   once per key.  The second occurrence run eagerly would hit every
   round and charge no compile time — the plan's charges, in the same
   order.  Only two kinds of epoch are refused: one with a launch
   outside its canonical form, and one that grew the adaptive window
   past its own fingerprint (its key can never be computed again).
4. Every later occurrence of the key bypasses window buffering,
   dependence analysis, memoization lookups and per-task coherence
   recomputation entirely: the plan is replayed straight through
   :class:`~repro.runtime.executor.TaskExecutor`, binding the current
   epoch's stores into the captured slots.

Correctness notes:

* Scalar task arguments (``alpha``/``beta`` of CG, fill constants) are
  *not* baked into plans or keys — replay rebinds them from the current
  epoch's tasks, so value-changing iterations replay the same plan.
* Captured kernel times depend only on launch geometry, which is fully
  covered by the key (shapes, partitions, launch domains).  Opaque
  tasks (SpMV, GEMV) are re-executed through their cost model because
  their time may depend on data (e.g. the sparsity pattern), which the
  alpha-equivalent key deliberately does not capture.
* Stores referenced by still-buffered tasks hold *pending stream
  references* so temporary-store elimination sees the same liveness the
  eager pipeline would have seen (see ``Store.add_pending_stream_reference``).
* A scalar argument may be a future (``repro.ir.future``): its source
  stores get slots and pending references, and a launch whose future
  reads a store produced since the last fence gets a *round fence*, part
  of the key, at which the miss path drains the window as a host read
  would have (``docs/architecture.md``, "Futures").  Replay resolves the
  future when the step is prepared, after its producer's level joined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from repro.ir.future import Future, future_sources
from repro.ir.partition import Partition
from repro.ir.privilege import Privilege, ReductionOp
from repro.ir.store import Store
from repro.ir.task import DeferredTask, FusedTask, TaskSkeleton, stream_scalar_pattern
from repro.runtime import pool, telemetry
from repro.runtime.pool import Verdict

#: Upper bound on the deferred epoch buffer.  An application that never
#: synchronises still gets deterministic segmentation: the buffer is
#: processed as a (partial) epoch whenever it reaches this many tasks.
EPOCH_TASK_LIMIT = 2048


# ----------------------------------------------------------------------
# Canonical epoch streams.
# ----------------------------------------------------------------------
@dataclass
class CanonicalStream:
    """The canonical form of one epoch's task stream (cf. ``fusion.memoization``).

    Built incrementally by :meth:`TraceController.add` as tasks arrive —
    store uids become canonical slots in order of first appearance — and
    handed to the :class:`TraceRecorder` of an epoch that misses.
    """

    #: Canonical slot -> the store bound to it in this epoch.
    slot_stores: List[Store]
    #: Store uid -> canonical slot.
    slot_of_uid: Dict[int, int]
    #: Task uid -> position in the epoch stream.
    position_of_uid: Dict[int, int]
    #: Per-slot application liveness sampled at the boundary (part of
    #: the trace key).
    liveness: Tuple[bool, ...]


# ----------------------------------------------------------------------
# Plan steps.
# ----------------------------------------------------------------------
#: Per-slot access summary of one captured step: ``(canonical slot,
#: reads, writes, reduces)`` with the privileges of all arguments touching
#: the slot merged.  The plan scheduler derives the step-level dependence
#: DAG of a plan from these footprints alone.
StepFootprint = Tuple[Tuple[int, bool, bool, bool], ...]


@dataclass
class CompiledStep:
    """One captured launch executed through a compiled kernel."""

    kernel: object  # CompiledKernel (kept untyped to avoid an import cycle)
    task_name: str
    fused: bool
    constituents: int
    launches: int
    num_points: int
    #: (buffer name, canonical slot, is_reduction, per-rank rect table).
    buffer_bindings: Tuple[Tuple[str, int, bool, list], ...]
    #: (scalar name, index into the concatenated scalar tuple).
    scalar_order: Tuple[Tuple[str, int], ...]
    #: Epoch positions of the constituent tasks whose ``scalar_args``
    #: concatenate (in order) into the kernel's scalar tuple.
    scalar_positions: Tuple[int, ...]
    #: Buffer name -> (canonical slot, reduction operator).
    reductions: Dict[str, Tuple[int, ReductionOp]]
    #: Read/write/reduce store footprint (from the launch's privileges).
    footprint: StepFootprint
    kernel_seconds: float
    communication_seconds: float
    overhead_seconds: float
    #: The launch's calling convention, decided at capture by the one
    #: geometry verdict the eager launch took (``pool.launch_verdict``):
    #: a merged step replays as one closure call per rank *chunk* (one
    #: per epoch at dispatch width 1), element-wise or stacked, which
    #: point dispatch can still split; a per-rank one records why.
    verdict: Verdict = Verdict(False)
    #: Slots this launch assigns whole before anything observes them
    #: (the uninitialised-allocation rule of ``RegionManager.field``).
    defined_slots: Tuple[int, ...] = ()

    @property
    def elementwise(self) -> bool:
        """A merged step that reduces nothing."""
        return self.verdict.merged and self.verdict.tile is None

    @property
    def stacked(self) -> bool:
        """A merged step that reduces by ``(ranks, tile)`` rows."""
        return self.verdict.tile is not None


@dataclass
class OpaqueStep:
    """One captured launch executed through an opaque implementation."""

    impl: object  # OpaqueTaskImpl
    task_name: str
    #: (canonical slot, partition, privilege, redop) per argument.
    arg_specs: Tuple[Tuple[int, Partition, Privilege, Optional[ReductionOp]], ...]
    #: Launch ranks (point tasks) of the step, recorded at capture time
    #: so the plan scheduler can decide point chunking without touching
    #: the launch domain.
    num_points: int
    #: Epoch position of the task (its scalar args are rebound at replay).
    position: int
    #: Read/write/reduce store footprint (from the launch's privileges).
    footprint: StepFootprint
    communication_seconds: float
    overhead_seconds: float
    #: ``(argument index, slot, is_reduction, rect table)`` per argument,
    #: resolved at capture (shapes, partitions and the launch domain are
    #: part of the trace key, so the tables hold for every replay).
    buffer_bindings: Tuple[Tuple[int, int, bool, list], ...] = ()


@dataclass
class AnalysisCharge:
    """An analysis-time charge, captured in stream order.

    Replaying charges at their recorded positions (not as one lump sum)
    reproduces the eager pipeline's exact floating-point accumulation
    order, so per-iteration simulated seconds are bit-identical between
    traced and untraced execution.
    """

    seconds: float


@dataclass
class ExecutionPlan:
    """The immutable resolved execution of one canonical epoch."""

    #: Launches and analysis charges in recorded (program) order.
    steps: Tuple[object, ...]
    #: Per-slot coherence snapshots at epoch exit, applied wholesale on
    #: replay instead of re-deriving coherence transitions per task.
    exit_states: Tuple[Tuple[int, Optional[Tuple]], ...]
    #: Data movement charged during the recorded epoch.
    bytes_moved: float
    #: Total analysis-time charge of the recorded epoch (observability;
    #: the per-step :class:`AnalysisCharge` entries carry the values).
    analysis_seconds: float
    #: FusionStatistics deltas of the recorded epoch.
    forwarded_tasks: int
    fused_tasks: int
    fused_constituents: int
    temporaries_eliminated: int
    #: Number of library tasks the plan stands for.
    task_count: int
    #: Lazily-computed dependence schedule (``runtime.scheduler``), cached
    #: on the plan so the DAG is built once per captured plan, not once
    #: per replay.
    schedule: Optional[object] = None
    #: Per-slot application liveness sampled at canonicalization (part of
    #: the trace key, re-exposed here so the super-kernel lowering can
    #: fold dead intermediate slots without re-deriving liveness).
    liveness: Tuple[bool, ...] = ()
    #: Slots whose field, when a replay has to allocate it, may be
    #: allocated uninitialised: the first step touching the slot in
    #: recorded order defines it whole (``CompiledStep.defined_slots``).
    #: Every other step touching the slot depends on that step, so any
    #: level order runs it first.  Decided once, at capture.
    uninitialised_slots: FrozenSet[int] = frozenset()
    #: Cached super-kernel lowering (``runtime.superkernel``): the
    #: lowered plan, or a module-private sentinel when nothing fused.
    #: Retired on ``config.reload_flags()`` so flag flips cannot replay
    #: stale fused closures.
    superkernel: Optional[object] = None
    #: Replays of this plan (``PlanScheduler.execute``), and — while
    #: the plan's lowering is still a speculation (built before the plan
    #: reached its break-even replay count) — the plan scheduler whose
    #: speculation slot it holds (``runtime.superkernel.lower_when_earned``).
    replays: int = 0
    speculative: Optional[object] = None
    #: Cached resident-process registration (``runtime.procpool``): the
    #: :class:`ResidentPlan` whose parent-assigned id names this plan's
    #: worker-resident templates, tagged with the resident generation it
    #: was built under.  ``config.reload_flags()`` bumps the generation,
    #: which retires the registration on its next replay; plan ids are
    #: never reused, so stale worker-side templates can never be served.
    resident: Optional[object] = None


# ----------------------------------------------------------------------
# Recording.
# ----------------------------------------------------------------------
class TraceRecorder:
    """Captures the resolved launches of one epoch into a plan.

    Installed as ``LegionRuntime.trace_recorder`` while the epoch's
    tasks are fed through the eager pipeline; the runtime reports every
    executed launch.  The Diffuse layer reports each window round's
    analysis charge as the charge a memoization hit on that window
    makes, whatever the round itself paid: that is what every later
    occurrence of the epoch pays (module docstring, step 3).  Compile
    charges never become plan steps.
    """

    def __init__(self, runtime, stream: CanonicalStream) -> None:
        self.runtime = runtime
        self.stream = stream
        self.steps: List[object] = []
        #: False once a launch fell outside the canonical epoch: such an
        #: epoch is never captured.
        self.complete = True
        #: True once a round missed memoization (a compiling round is
        #: always one: compile time is charged at the miss that stores
        #: the window's decision).
        self.cold = False
        self.analysis_seconds = 0.0
        self._start_bytes = runtime.coherence.total_bytes_moved

    # -- notifications from the Diffuse layer ---------------------------
    def note_analysis(self, hit_seconds: float, missed: bool) -> None:
        """Record a round's memoization-hit analysis charge."""
        self.analysis_seconds += hit_seconds
        self.steps.append(AnalysisCharge(hit_seconds))
        if missed:
            self.cold = True

    # -- notifications from the runtime ---------------------------------
    def record_launch(self, launch, record) -> None:
        """Capture one executed :class:`ResolvedLaunch` and its record."""
        try:
            if launch.kernel is not None:
                step = self._compiled_step(launch, record)
            else:
                step = self._opaque_step(launch, record)
        except KeyError:
            # The launch referenced a store or constituent outside the
            # canonicalized epoch; never let tracing break execution —
            # simply refuse to capture this epoch.
            self.complete = False
            return
        self.steps.append(step)

    def _compiled_step(self, launch, record) -> CompiledStep:
        task = launch.task
        kernel = launch.kernel
        binding = kernel.binding
        executor = self.runtime.executor
        slot_of_uid = self.stream.slot_of_uid
        args = task.args

        buffer_order = binding.buffer_order or tuple(binding.buffer_args.items())
        bindings = []
        defined_slots = []
        num_points = 0
        for name, arg_index in buffer_order:
            arg = args[arg_index]
            table = executor.launch_rects(arg, task)
            num_points = len(table)
            slot = slot_of_uid[arg.store.uid]
            bindings.append((name, slot, arg.privilege is Privilege.REDUCE, table))
            if name in binding.defined_first and executor.defines_store(task, arg, table):
                defined_slots.append(slot)
        if not bindings:
            num_points = sum(1 for _ in task.launch_domain.points())

        reductions: Dict[str, Tuple[int, ReductionOp]] = {}
        for name, arg_index in binding.buffer_args.items():
            arg = args[arg_index]
            if arg.privilege is Privilege.REDUCE:
                redop = arg.redop if arg.redop is not None else ReductionOp.ADD
                reductions[name] = (slot_of_uid[arg.store.uid], redop)

        constituents = (
            task.constituents if isinstance(task, FusedTask) else (task,)
        )
        position_of_uid = self.stream.position_of_uid
        scalar_positions = tuple(position_of_uid[t.uid] for t in constituents)
        scalar_order = binding.scalar_order or tuple(binding.scalar_args.items())

        return CompiledStep(
            kernel=kernel,
            task_name=task.task_name,
            fused=task.is_fused,
            constituents=task.constituent_count(),
            launches=record.launches,
            num_points=num_points,
            buffer_bindings=tuple(bindings),
            scalar_order=tuple(scalar_order),
            scalar_positions=scalar_positions,
            reductions=reductions,
            footprint=self._footprint(task.args, constituents),
            kernel_seconds=record.kernel_seconds,
            communication_seconds=record.communication_seconds,
            overhead_seconds=record.overhead_seconds,
            verdict=pool.launch_verdict(kernel, bindings, num_points, captured=True),
            defined_slots=tuple(defined_slots),
        )

    def _footprint(self, args, constituents=()) -> StepFootprint:
        """Merge the privileges of a launch's arguments per canonical slot.

        The stores the futures among the constituents' scalars read
        count as read: the step resolves them when it launches, so the
        plan orders it after their producers (and the super-kernel
        lowering splits its unit there), though they bind no buffer.
        """
        slot_of_uid = self.stream.slot_of_uid
        merged: Dict[int, List[bool]] = {}
        for task in constituents:
            for store in future_sources(task.scalar_args):
                merged.setdefault(slot_of_uid[store.uid], [False, False, False])[0] = True
        for arg in args:
            slot = slot_of_uid[arg.store.uid]
            entry = merged.get(slot)
            if entry is None:
                entry = merged[slot] = [False, False, False]
            privilege = arg.privilege
            if privilege.reads:
                entry[0] = True
            if privilege.writes:
                entry[1] = True
            if privilege.reduces:
                entry[2] = True
        return tuple(
            (slot, reads, writes, reduces)
            for slot, (reads, writes, reduces) in sorted(merged.items())
        )

    def _opaque_step(self, launch, record) -> OpaqueStep:
        task = launch.task
        slot_of_uid = self.stream.slot_of_uid
        launch_rects = self.runtime.executor.launch_rects
        arg_specs = tuple(
            (slot_of_uid[arg.store.uid], arg.partition, arg.privilege, arg.redop)
            for arg in task.args
        )
        return OpaqueStep(
            impl=launch.opaque_impl,
            task_name=task.task_name,
            arg_specs=arg_specs,
            num_points=task.launch_domain.volume,
            position=self.stream.position_of_uid[task.uid],
            footprint=self._footprint(task.args, (task,)),
            communication_seconds=record.communication_seconds,
            overhead_seconds=record.overhead_seconds,
            buffer_bindings=tuple(
                (index, spec[0], arg.privilege is Privilege.REDUCE, launch_rects(arg, task))
                for index, (spec, arg) in enumerate(zip(arg_specs, task.args))
            ),
        )

    # -- plan construction ----------------------------------------------
    def build_plan(self, stats_deltas: Tuple[int, int, int, int]) -> ExecutionPlan:
        """Freeze the captured epoch into an immutable plan."""
        coherence = self.runtime.coherence
        exit_states = tuple(
            (slot, coherence.state_key(store))
            for slot, store in enumerate(self.stream.slot_stores)
        )
        forwarded, fused, fused_constituents, temporaries = stats_deltas
        touched: set = set()
        uninitialised = set()
        for step in self.steps:
            if isinstance(step, AnalysisCharge):
                continue
            defined = getattr(step, "defined_slots", ())
            for slot, _reads, _writes, _reduces in step.footprint:
                if slot not in touched:
                    touched.add(slot)
                    if slot in defined:
                        uninitialised.add(slot)
        return ExecutionPlan(
            steps=tuple(self.steps),
            exit_states=exit_states,
            bytes_moved=coherence.total_bytes_moved - self._start_bytes,
            analysis_seconds=self.analysis_seconds,
            forwarded_tasks=forwarded,
            fused_tasks=fused,
            fused_constituents=fused_constituents,
            temporaries_eliminated=temporaries,
            task_count=len(self.stream.position_of_uid),
            liveness=self.stream.liveness,
            uninitialised_slots=frozenset(uninitialised),
        )


def produced_since(
    tasks: Sequence[DeferredTask], start: int, sources: Sequence[Store]
) -> bool:
    """True when one of ``tasks[start:]`` writes or reduces into one of
    ``sources``.

    Those are the launches submitted since the last round fence or epoch
    boundary: a producer among them may still share a window round with
    a launch resolving a future of its result, so that launch takes a
    fence.  Scanned only for launches with futures.
    """
    # Newest first: a producer usually comes right before its consumer.
    for position in range(len(tasks) - 1, start - 1, -1):
        task = tasks[position]
        stores = task.stores
        for index in task.skeleton.mutated:
            if stores[index] in sources:
                return True
    return False


# ----------------------------------------------------------------------
# Replay lives in ``repro.runtime.scheduler``: the plan scheduler builds
# each plan's step-level dependence DAG from the captured footprints and
# dispatches independent steps to a worker pool.
# ----------------------------------------------------------------------
# The controller: deferred stream + trace cache.
# ----------------------------------------------------------------------
class TraceController:
    """Owns the deferred epoch buffer and the plan cache of one engine.

    The epoch buffers :class:`~repro.ir.task.DeferredTask` records, and
    its canonical form is built as they arrive (:meth:`add`): each store
    gets a canonical slot on first appearance, each skeleton a
    controller-lifetime id, and each canonical task — skeleton id,
    scalar count, per-argument slot with the store's shape where the
    slot first appears — an interned small-int id.  The epoch's
    structure is then the tuple of its task ids, and :meth:`boundary`
    never re-walks the epoch: it samples what may change after a task is
    submitted (application liveness per slot, entry coherence per slot),
    the scalar equality pattern and the window fingerprint, and looks
    the plan up.  Skeleton ids are global and a skeleton holds concrete
    partitions, so equal structures hold the same concrete partitions at
    the same argument positions: captured rect tables and communication
    are only valid for the concrete partitions, not just their canonical
    positions.  Index tasks are built (``DiffuseRuntime.materialise``)
    only when an epoch misses and runs through the eager pipeline.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self._profiler = engine.runtime.profiler
        #: ``(stream id, scalar pattern) -> plan``.
        self.cache: Dict[Tuple[int, Tuple[int, ...]], ExecutionPlan] = {}
        #: Pattern-blind key ``(task ids, liveness, entry states, window
        #: fingerprint)`` -> ``[stream id, last-seen scalar pattern]``.
        #: A cache miss whose blind key was last seen with a *different*
        #: pattern is a scalar-pattern flip: the stream structure was
        #: already known and only the scalar equalities changed (e.g.
        #: ``alpha`` colliding with a constant for one iteration), which
        #: forces a conservative re-record (see ROADMAP open item 3).
        self._streams: Dict[Hashable, list] = {}
        #: Key -> epochs of that key that missed (observability: the run
        #: of its epoch at which the first replay happened).
        self.misses: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        #: Canonical task -> interned id; skeleton -> id.
        self._task_ids: Dict[Hashable, int] = {}
        self._skeleton_ids: Dict[TaskSkeleton, int] = {}
        self._begin_epoch()
        #: Plans captured / replayed (observability; the profiler holds
        #: the canonical hit/miss counters).
        self.captured_plans = 0
        self.replayed_epochs = 0
        #: Stores seen in a processed epoch that were still live at its
        #: boundary, re-checked at later boundaries — a handle dropped
        #: *after* the epoch holding the store's last task (e.g. a local
        #: that outlives its final launch) would otherwise never be
        #: rescanned and its field never reclaimed.
        self._reclaim_watch: Dict[int, Store] = {}

    def _begin_epoch(self) -> None:
        """Start an empty epoch buffer and its canonical form."""
        self._pending: List[DeferredTask] = []
        self._structure: List[int] = []
        self._slot_stores: List[Store] = []
        self._slot_of_uid: Dict[int, int] = {}
        #: Epoch positions of the launches a round fence precedes
        #: (:meth:`_add_futures`); the window drains before each.
        self._fences: List[int] = []

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of tasks buffered in the current epoch."""
        return len(self._pending)

    @property
    def longest_run(self) -> int:
        """The most tasks of the buffered epoch between two round fences
        (or a fence and an end of the epoch)."""
        bounds = [0] + self._fences + [len(self._pending)]
        return max(stop - start for start, stop in zip(bounds, bounds[1:]))

    def add(self, task: DeferredTask) -> None:
        """Defer one submitted record into the current epoch.

        Canonicalizes it into the epoch's structure on the way in (see
        the class docstring).  References are taken per *argument* (not
        per distinct store): add/remove are symmetric, so a per-task
        dedup would only cost allocations on the hot path.
        """
        slot_of_uid = self._slot_of_uid
        slot_stores = self._slot_stores
        skeleton_ids = self._skeleton_ids
        skeleton = skeleton_ids.get(task.skeleton)
        if skeleton is None:
            skeleton = skeleton_ids[task.skeleton] = len(skeleton_ids)
        # Flat: skeleton id and scalar count, then a slot per argument,
        # each new slot preceded by its store's shape.
        canonical = [skeleton, len(task.scalar_args)]
        if task.sources:
            self._add_futures(task, canonical)
        for store in task.stores:
            store.add_pending_stream_reference()
            slot = slot_of_uid.get(store.uid)
            if slot is None:
                slot = slot_of_uid[store.uid] = len(slot_stores)
                slot_stores.append(store)
                canonical.append(store.shape)
            canonical.append(slot)
        canonical = tuple(canonical)
        task_id = self._task_ids.get(canonical)
        if task_id is None:
            task_id = self._task_ids[canonical] = len(self._task_ids)
        self._structure.append(task_id)
        self._pending.append(task)
        if len(self._pending) >= EPOCH_TASK_LIMIT:
            self.boundary()

    def _add_futures(self, task: DeferredTask, canonical: list) -> None:
        """Canonicalize the futures among ``task``'s scalars.

        Each future joins the task's canonical form as its expression
        shape and the slots of its source stores, which hold pending
        references like arguments do, so none is reclaimed before the
        launch resolves it.  When a source was produced since the last
        fence (:func:`produced_since`) the launch gets a round fence,
        also part of its canonical form: the window drains before it,
        as a host read of the value would have drained it, and the
        producer's round runs first.
        """
        pending, fences = self._pending, self._fences
        fence = produced_since(pending, fences[-1] if fences else 0, task.sources)
        if fence:
            fences.append(len(pending))
            self._profiler.round_fences += 1
        entry = [fence]
        slot_of_uid, slot_stores = self._slot_of_uid, self._slot_stores
        for value in task.scalar_args:
            if type(value) is Future:
                entry.append(value.shape)
                for store in value.sources:
                    store.add_pending_stream_reference()
                    slot = slot_of_uid.get(store.uid)
                    if slot is None:
                        slot = slot_of_uid[store.uid] = len(slot_stores)
                        slot_stores.append(store)
                        entry.append(store.shape)
                    entry.append(slot)
        canonical.append(tuple(entry))

    def references(self, store: Store) -> bool:
        """True when a buffered task touches ``store``.

        Used by host-side mutations (``attach``) to decide whether they
        must force an epoch boundary to preserve program order.  The
        pending-stream counter maintained by :meth:`add` answers this in
        O(1); it can over-approximate when several engines buffer tasks
        on the same store, which only makes the forced boundary (a
        no-op for the uninvolved engine) conservative.
        """
        return store.pending_stream_references > 0

    # ------------------------------------------------------------------
    def boundary(self) -> None:
        """Process the buffered epoch (replay a plan or record one).

        Liveness is sampled from *application* references only: pending
        stream references held by the epoch buffer itself exist for every
        store of the stream by construction.  Together with the stream
        structure they fully determine the liveness each window round
        will observe while the epoch is fed through the pipeline (the
        application is blocked during the flush, so its reference counts
        cannot change mid-feed).
        """
        engine = self.engine
        tasks = self._pending
        if not tasks:
            engine.drain_window()
            return
        structure, slot_stores = tuple(self._structure), self._slot_stores
        slot_of_uid = self._slot_of_uid
        fences, longest = self._fences, self.longest_run
        self._begin_epoch()

        coherence = engine.runtime.coherence
        liveness = tuple([store.application_references > 0 for store in slot_stores])
        entry_states = tuple([coherence.state_key(store) for store in slot_stores])
        # The *window fingerprint* pins how the epoch would be chunked
        # into fusion-window rounds.  An epoch captured while the
        # adaptive window was still growing replays its (smaller-window)
        # fused structure forever if the size is not part of the key;
        # fingerprinting the size forces an automatic re-capture once the
        # window has grown.  A round fence drains the window, so sizes at
        # or above the epoch's longest fence-free run are equivalent (one
        # round per run), and the fingerprint saturates there.
        window_fingerprint = min(engine.window.size, longest)
        # The scalar *equality pattern* completes the key (the same
        # helper the memoization window key uses): captured kernels may
        # deduplicate scalar parameters with bit-identical values, so a
        # plan is only valid for epochs with the same pattern.  Keeping
        # it out of the blind key tells pattern-only misses apart from
        # genuinely new streams.
        scalar_pattern = stream_scalar_pattern(tasks)
        blind_key = (structure, liveness, entry_states, window_fingerprint)
        known = self._streams.get(blind_key)
        if known is None:
            known = self._streams[blind_key] = [len(self._streams), scalar_pattern]
        key = (known[0], scalar_pattern)

        profiler = engine.runtime.profiler
        plan = self.cache.get(key)
        if plan is None and known[1] != scalar_pattern:
            profiler.record_scalar_pattern_flip()
        known[1] = scalar_pattern
        if plan is not None:
            if not profiler.trace_hits:
                profiler.first_replay_run = self.misses.get(key, 0) + 1
            profiler.record_trace_hit(len(tasks))
            self.replayed_epochs += 1
            label = ""
            if telemetry.enabled():
                label = f"epoch={self.replayed_epochs} tasks={len(tasks)}"
            with telemetry.span(
                "epoch.replay", label, sim=engine.runtime.simulated_seconds
            ):
                try:
                    engine.runtime.plan_scheduler.execute(
                        plan, engine, slot_stores, tasks
                    )
                finally:
                    self._release(tasks, 0)
                self._reclaim_dead_fields(slot_stores)
            return

        profiler.record_trace_miss()
        self.misses[key] = self.misses.get(key, 0) + 1
        records = tasks
        tasks = [engine.materialise(record, "miss") for record in records]
        stream = CanonicalStream(
            slot_stores=slot_stores,
            slot_of_uid=slot_of_uid,
            position_of_uid={task.uid: position for position, task in enumerate(tasks)},
            liveness=liveness,
        )
        recorder = TraceRecorder(engine.runtime, stream)
        stats = engine.stats
        stats_before = (
            stats.forwarded_tasks,
            stats.fused_tasks,
            stats.fused_constituents,
            stats.temporaries_eliminated,
        )
        with telemetry.span(
            "epoch.capture",
            f"tasks={len(tasks)}" if telemetry.enabled() else "",
            sim=engine.runtime.simulated_seconds,
        ):
            engine.begin_capture(recorder)
            fed = 0
            fence = iter(fences)
            next_fence = next(fence, None)
            try:
                for record, task in zip(records, tasks):
                    if fed == next_fence:
                        engine.drain_window()
                        next_fence = next(fence, None)
                    for store in record.stores:
                        store.remove_pending_stream_reference()
                    for store in record.sources:
                        store.remove_pending_stream_reference()
                    fed += 1
                    engine.window_submit(task)
                engine.drain_window()
            finally:
                engine.end_capture()
                self._release(records, fed)
            self._reclaim_dead_fields(slot_stores)

        # An epoch that grew the adaptive window past its fingerprint
        # left a key no later boundary computes (the window only grows):
        # its plan could never be looked up.
        if recorder.complete and min(engine.window.size, longest) == window_fingerprint:
            stats_deltas = (
                stats.forwarded_tasks - stats_before[0],
                stats.fused_tasks - stats_before[1],
                stats.fused_constituents - stats_before[2],
                stats.temporaries_eliminated - stats_before[3],
            )
            plan = self.cache[key] = recorder.build_plan(stats_deltas)
            self.captured_plans += 1
            profiler.record_capture(plan, recorder.cold)
            engine.runtime.plan_scheduler.reserve(plan, slot_stores, records)

    @staticmethod
    def _release(tasks: Sequence[DeferredTask], already_fed: int) -> None:
        """Drop the pending references of tasks not yet handed on."""
        for task in tasks[already_fed:]:
            for store in task.stores:
                store.remove_pending_stream_reference()
            for store in task.sources:
                store.remove_pending_stream_reference()

    def _reclaim_dead_fields(self, slot_stores: Sequence[Store]) -> None:
        """Free the backing storage of stores this epoch killed.

        Functional-update programs (``v_new = f(v_old)``) rebind their
        handles every iteration, so each epoch strands the previous
        epoch's region fields: nothing frees them, steady-state memory
        grows by the working set per iteration, and the shared arena's
        first-fit allocator marches to fresh offsets forever, adding
        segments.  The epoch boundary is the one quiescent
        point where liveness is decidable from the split reference
        counts alone (paper Section 5.1): every launch of the epoch has
        joined, so a store with no application handle, no buffered task
        and no runtime reference can never be observed again — its
        field is reclaimed, and the store leaves the coherence table and
        its manager's registry (should code ever touch it again it gets
        a fresh field, zeroed unless the launch it is allocated for
        defines it whole, and starts with no layout, as a new store
        does).  ``slot_stores`` are the epoch's distinct stores in
        first-use order, deduplicated once by :meth:`add`.
        """
        runtime = self.engine.runtime
        regions, coherence = runtime.regions, runtime.coherence
        watch = self._reclaim_watch
        for store in slot_stores:
            # Only frontend-managed stores: a store created bare by
            # runtime internals (e.g. CSR index arrays) is held by
            # plain Python references the counters never witness.
            if store.ever_application_referenced:
                watch[store.uid] = store
        for uid, store in list(watch.items()):
            if store.unreferenced:
                del watch[uid]
                regions.reclaim_storage(store)
                coherence.forget(store)
                manager = store.manager
                if manager is not None:
                    manager.forget(store)
