"""Dependence-partitioned execution of captured execution plans.

The trace layer (``runtime/trace.py``) resolves every launch of a
repeated epoch ahead of execution; this module replays the captured
:class:`ExecutionPlan` with independent launches overlapping across the
machine (paper Section 4), in the manner of runtime dependence-graph
schedulers of fused array operations (Kristensen et al.,
arXiv:1601.05400; Li et al., arXiv:2007.01277):

1. **Plan analysis** (:func:`analyze_plan`) — once per captured plan,
   cached on it.  The read/write/reduce slot footprints recorded in
   every step induce the step-level dependence DAG (RAW, WAR and WAW
   hazards; reductions count as mutations), which is levelized: steps
   in one level are pairwise independent.  The same pass decides
   everything else that depends only on the plan: where each step's
   reduction partials fold, and the accounting records' static fields.
2. **Dispatch decisions** (:func:`_plan_dispatch`) — once per plan and
   flag setting, cached on the schedule: which steps of a wide level
   are handed to the plan-step thread pool (``REPRO_WORKERS``), the
   point width each step may use so the two parallelism levels never
   oversubscribe the worker processes, each step's rank-chunk plan, and
   what follows from them — the per-level launch lists and the number
   of closure calls one replay makes.
   With ``REPRO_POINT_WORKERS`` > 1 the resident registration
   (:meth:`PlanScheduler._resident_plan`) bakes the same chunk plans
   into the workers' templates.
3. **One plan loop** (:meth:`PlanScheduler.execute`) — executes the
   levels in order.  Every step is prepared into a
   :class:`~repro.runtime.executor.ChunkWork` on the scheduling thread
   and launched inline or on a plan-pool thread.  A plan resident in
   the worker processes never uses the thread pool: each level's shipped
   steps travel as one frame per worker
   (:meth:`PlanScheduler._resident_level`), and while the workers
   compute the scheduling thread runs its own share of those steps (it
   is slot 0 of the pool) and the rest of the level — steps the frame
   declines included.
   Workers only *compute*; all side effects that carry ordering
   semantics are folded at join points **in recorded order** —
   reduction partials at each level's join, profiler records
   and simulated seconds after the last level (:meth:`_account`, the
   only place a replayed step is recorded) — so buffers and simulated
   time are bit-identical for every ``REPRO_WORKERS`` ×
   ``REPRO_POINT_WORKERS`` combination.  A chain-shaped
   plan is the same loop with every level inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import config
from repro.ir.privilege import ReductionOp
from repro.ir.store import Store
from repro.ir.task import DeferredTask, IndexTask
from repro.kernel import codegen
from repro.runtime import executor as executor_module
from repro.runtime import procpool, telemetry
from repro.runtime.executor import ChunkWork
from repro.runtime.pool import thread_block, thread_split, worker_pool
from repro.runtime.superkernel import (
    SuperKernelStep,
    lower_when_earned,
    run_superkernel_ranks,
)
from repro.runtime.trace import (
    AnalysisCharge,
    CompiledStep,
    ExecutionPlan,
    OpaqueStep,
)

#: Minimum number of elements a step must touch before it is handed to
#: the worker pool; smaller steps run inline because the handoff latency
#: exceeds their compute time.  Tests lower this to force pool execution
#: on tiny problems — the results are bit-identical either way, so the
#: threshold is a pure performance knob.
MIN_DISPATCH_VOLUME = 16384


# ----------------------------------------------------------------------
# Plan analysis: dependence DAG and levelization.
# ----------------------------------------------------------------------
@dataclass
class ScheduledStep:
    """One executable plan step with its dependence metadata."""

    #: Position of the step in ``plan.steps`` (recorded order).
    plan_index: int
    step: object  # CompiledStep | OpaqueStep
    compiled: bool
    #: Indices (into ``PlanSchedule.steps``) this step depends on.
    deps: Tuple[int, ...]
    level: int
    #: Total elements touched (the pool-dispatch size heuristic).
    volume: int
    #: Launch ranks of the step (recorded into the plan at capture time;
    #: the basis of the point-chunk decision at replay).
    num_points: int = 1
    #: Compiled steps: precomputed ``(name, epoch position, inner index)``
    #: scalar rebinding plan — the stream key pins every task's scalar
    #: count, so the flat-offset arithmetic is done once per plan.
    scalar_binds: Tuple[Tuple[str, int, int], ...] = ()
    #: Reduction key -> ``(slot, operator)``: where the level's join
    #: folds the step's partials.
    targets: Optional[Dict[object, Tuple[int, ReductionOp]]] = None


@dataclass
class PlanSchedule:
    """The cached dependence partition of one captured plan."""

    steps: Tuple[ScheduledStep, ...]
    #: Levels in dependence order; each level lists indices into
    #: ``steps`` in recorded order (so join-point folds are ordered).
    levels: Tuple[Tuple[int, ...], ...]
    width: int
    #: Step count of every level, in level order.
    level_widths: Tuple[int, ...]
    #: The time-accounting fold in recorded order (:func:`_accounting`).
    accounting: Tuple[object, ...] = ()
    #: ``(flag values, PlanDispatch)`` of :func:`_plan_dispatch`.
    dispatch: Optional[tuple] = None


@dataclass
class PlanDispatch:
    """What one flag setting decides about one plan (:func:`_plan_dispatch`)."""

    workers: int
    point_width: int
    #: Per step ``(dispatched, point width, rank chunks)``.
    decisions: List[Tuple[bool, int, List[Tuple[int, int]]]]
    #: Per level, ``(step index, scheduled step, width, chunks, threads)``
    #: in recorded order — ``threads`` > 1 splits the step's chunks
    #: across that many plan threads — and whether the level hands steps
    #: to the pool.
    levels: Tuple[Tuple[Tuple[int, ScheduledStep, int, list, int], ...], ...]
    pooled: Tuple[bool, ...]
    #: Closure calls one replay makes: every compiled step, and the
    #: super-kernel subset.
    closure_calls: int
    superkernel_calls: int


def analyze_plan(
    plan: ExecutionPlan,
    slot_stores: Sequence[Store],
    tasks: Sequence[DeferredTask] = (),
) -> PlanSchedule:
    """Build the step-level dependence DAG of a plan and levelize it.

    Dependencies are derived purely from the captured per-slot privilege
    footprints: a step depends on the last mutator (writer or reducer)
    of every slot it touches, and a mutation additionally depends on all
    reads of the slot since that mutator (WAR).  Slot shapes are part of
    the trace key, so the schedule — cached on the plan — is valid for
    every replay.
    """
    scheduled: List[ScheduledStep] = []
    last_mutator: Dict[int, int] = {}
    readers_since: Dict[int, List[int]] = {}
    levels_of: List[int] = []

    for plan_index, step in enumerate(plan.steps):
        if isinstance(step, AnalysisCharge):
            continue
        index = len(scheduled)
        deps = set()
        footprint = step.footprint
        for slot, reads, writes, reduces in footprint:
            mutates = writes or reduces
            mutator = last_mutator.get(slot)
            if mutator is not None and (reads or mutates):
                deps.add(mutator)
            if mutates:
                deps.update(readers_since.get(slot, ()))
        for slot, reads, writes, reduces in footprint:
            if writes or reduces:
                last_mutator[slot] = index
                readers_since[slot] = []
            elif reads:
                readers_since.setdefault(slot, []).append(index)
        level = 1 + max((levels_of[d] for d in deps), default=-1)
        levels_of.append(level)
        compiled = isinstance(step, CompiledStep)
        scheduled.append(
            ScheduledStep(
                plan_index=plan_index,
                step=step,
                compiled=compiled,
                deps=tuple(sorted(deps)),
                level=level,
                volume=_step_volume(step, slot_stores),
                num_points=step.num_points,
                scalar_binds=_scalar_binds(step, tasks) if compiled else (),
                targets=_fold_targets(step, compiled),
            )
        )

    level_count = (max(levels_of) + 1) if levels_of else 0
    level_lists: List[List[int]] = [[] for _ in range(level_count)]
    for index, level in enumerate(levels_of):
        level_lists[level].append(index)
    levels = tuple(tuple(level) for level in level_lists)
    level_widths = tuple(len(level) for level in levels)
    index_by_plan = {entry.plan_index: index for index, entry in enumerate(scheduled)}
    return PlanSchedule(
        steps=tuple(scheduled),
        levels=levels,
        width=max(level_widths, default=0),
        level_widths=level_widths,
        accounting=_accounting(plan, index_by_plan),
    )


def _fold_targets(step, compiled: bool) -> Dict[object, Tuple[int, ReductionOp]]:
    """Reduction key -> ``(slot, operator)`` of one step's partials."""
    if compiled:
        return dict(step.reductions)
    return {
        index: (slot, redop or ReductionOp.ADD)
        for index, (slot, _partition, _privilege, redop) in enumerate(step.arg_specs)
    }


def _accounting(plan: ExecutionPlan, index_by_plan: Dict[int, int]) -> Tuple[object, ...]:
    """The plan's accounting fold, decided once (see :meth:`PlanScheduler._account`).

    In recorded order, every analysis charge as itself and every launch
    — a fused unit's constituents one by one — as ``(merged, result
    index, record)``: ``merged`` is ``None``, or for a merged section of
    a fused unit whether it is stacked (the unit's call counts it as a
    merged launch); ``record`` holds ``Profiler.record_task``'s
    arguments up to ``fused``.  ``result index`` is ``None`` for compiled
    launches, which charge their captured kernel seconds; an opaque
    launch charges the seconds its replay's cost model returned, found
    at that index of the replay's results.
    """
    entries: List[object] = []
    for plan_index, step in enumerate(plan.steps):
        fused = isinstance(step, SuperKernelStep)
        for part in step.fused_steps if fused else (step,):
            if isinstance(part, AnalysisCharge):
                entries.append(part)
            elif isinstance(part, CompiledStep):
                entries.append((
                    part.stacked if fused and part.verdict.merged else None, None,
                    (part.task_name, part.constituents, part.kernel_seconds,
                     part.communication_seconds, part.overhead_seconds,
                     part.launches, part.fused),
                ))
            else:
                # Opaque steps are re-timed through their cost model
                # (their time may depend on data).
                entries.append((
                    None, index_by_plan[plan_index],
                    (part.task_name, 1, None, part.communication_seconds,
                     part.overhead_seconds, 1, False),
                ))
    return tuple(entries)


def _scalar_binds(
    step: CompiledStep, tasks: Sequence[DeferredTask]
) -> Tuple[Tuple[str, int, int], ...]:
    """Translate a step's flat scalar indices into (position, inner) pairs."""
    if not step.scalar_order or not tasks:
        return ()
    spans: List[Tuple[int, int]] = []  # (epoch position, scalar count)
    total = 0
    for position in step.scalar_positions:
        count = len(tasks[position].scalar_args)
        spans.append((position, count))
        total += count
    binds: List[Tuple[str, int, int]] = []
    for name, flat_index in step.scalar_order:
        offset = flat_index
        for position, count in spans:
            if offset < count:
                binds.append((name, position, offset))
                break
            offset -= count
    return tuple(binds)


def _step_volume(step: object, slot_stores: Sequence[Store]) -> int:
    """Elements a step touches (used only for the dispatch heuristic)."""
    if isinstance(step, CompiledStep):
        total = 0
        for _name, _slot, _is_reduction, table in step.buffer_bindings:
            total += sum(volume for _rect, volume in table)
        return total
    total = 0
    for slot, _partition, _privilege, _redop in step.arg_specs:
        store = slot_stores[slot]
        size = 1
        for extent in store.shape:
            size *= extent
        total += size
    return total


def _rebuild_opaque_task(
    step: OpaqueStep, tasks: Sequence[DeferredTask], profiler
) -> IndexTask:
    """The index task of an opaque launch, built from this epoch's record.

    The record at the step's position binds the same slots the captured
    launch did (the stream key pins them), so its task is the launch's.
    """
    profiler.tasks_materialised["replay"] += 1
    return tasks[step.position].task()


def _unresolved(value):
    """A scalar as the record holds it (:meth:`PlanScheduler._step_work`)."""
    return value


def _plan_dispatch(schedule: PlanSchedule, executor) -> PlanDispatch:
    """Per-step ``(dispatched, point width, rank chunks)`` decisions.

    None of this depends on the epoch's stores or scalars (shapes and
    partitions are part of the trace key), so it is decided once per
    flag setting and cached on the schedule, together with what replay
    derives from it: the per-level launch lists and the closure-call
    counts.  A level with several steps hands those big enough to
    amortise the handoff to the worker pool (``REPRO_WORKERS`` > 1);
    each dispatched compiled step may then split into at most
    ``max(REPRO_WORKERS, REPRO_POINT_WORKERS) // dispatched steps``
    chunks (never more than the point width), and the small steps
    beside them stay serial.  Steps of a level with nothing dispatched
    — every step of a chain plan — own the whole point width, and so do
    opaque steps of a shared level: their chunks queue on the worker
    pipes.

    Without worker processes (``REPRO_POINT_WORKERS`` = 1) the plan
    threads of a level with nothing dispatched would sit idle, so a
    compiled step there runs ``point_chunks(ranks, k)`` chunks across
    them, the scheduling thread taking chunk 0 (``TaskExecutor.launch``
    with ``threads``): ``k`` is the most chunks, at most
    ``REPRO_WORKERS``, that each still span two of their blocks
    (:func:`_thread_split`).
    """
    workers, point_width = config.worker_count(), config.point_worker_count()
    flags = (
        workers, point_width,
        MIN_DISPATCH_VOLUME, executor_module.MIN_POINT_DISPATCH_VOLUME, codegen.BLOCK,
    )
    if schedule.dispatch is not None and schedule.dispatch[0] == flags:
        return schedule.dispatch[1]
    decisions: List[Optional[tuple]] = [None] * len(schedule.steps)
    levels, pooled = [], []
    closure_calls = superkernel_calls = 0
    for level in schedule.levels:
        dispatched: Sequence[int] = ()
        if workers > 1 and len(level) > 1:
            dispatched = [
                index for index in level
                if schedule.steps[index].volume >= MIN_DISPATCH_VOLUME
            ]
        launches = []
        for index in level:
            entry = schedule.steps[index]
            if not dispatched or not entry.compiled:
                width = point_width
            elif index in dispatched:
                share = max(workers, point_width) // len(dispatched)
                width = max(1, min(point_width, share))
            else:
                width = 1
            rows: Sequence = ()
            if width > 1 and entry.num_points > 1:
                rows = entry.step.buffer_bindings
            chunks = executor.point_chunk_plan(entry.num_points, rows, width)
            threads = 1
            if workers > 1 and point_width == 1 and not dispatched and entry.compiled:
                split = _thread_split(entry.step, workers)
                if split:
                    chunks, threads = split, len(split)
            decisions[index] = (index in dispatched, width, chunks)
            launches.append((index, entry, width, chunks, threads))
            if isinstance(entry.step, SuperKernelStep):
                superkernel_calls += len(chunks)
                closure_calls += len(chunks)
            elif entry.compiled:
                closure_calls += len(chunks) if entry.step.verdict.merged else entry.num_points
        levels.append(tuple(launches))
        pooled.append(bool(dispatched))
    dispatch = PlanDispatch(
        workers, point_width, decisions, tuple(levels), tuple(pooled),
        closure_calls, superkernel_calls,
    )
    schedule.dispatch = (flags, dispatch)
    return dispatch


def _thread_split(step: CompiledStep, workers: int):
    """``pool.thread_split`` of a captured step's rect tables."""
    tables = [table for _name, _slot, _is_reduction, table in step.buffer_bindings]
    return thread_split(tables, step.num_points, workers)


def _apply_plan_epilogue(plan: ExecutionPlan, engine, slot_stores: Sequence[Store]) -> None:
    """Apply captured coherence transitions and statistics wholesale."""
    coherence = engine.runtime.coherence
    for slot, state_key in plan.exit_states:
        coherence.apply_state_key(slot_stores[slot], state_key)
    if plan.bytes_moved:
        coherence.add_bytes_moved(plan.bytes_moved)

    stats = engine.stats
    stats.forwarded_tasks += plan.forwarded_tasks
    stats.fused_tasks += plan.fused_tasks
    stats.fused_constituents += plan.fused_constituents
    stats.temporaries_eliminated += plan.temporaries_eliminated


# ----------------------------------------------------------------------
# The scheduler.
# ----------------------------------------------------------------------
class PlanScheduler:
    """Executes captured plans level by level on the plan-step pool."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        #: Speculative super-kernel lowerings outstanding among this
        #: scheduler's plans (``superkernel.lower_when_earned``).
        self.speculating = 0

    def execute(
        self,
        plan: ExecutionPlan,
        engine,
        slot_stores: Sequence[Store],
        tasks: Sequence[DeferredTask],
    ) -> None:
        """Replay ``plan`` against the current epoch's stores."""
        runtime = self.runtime
        executor, profiler = runtime.executor, runtime.profiler
        plan.replays += 1
        if config.superkernel_enabled():
            # Replay the plan's epoch super-kernels once it has earned
            # them (lowered once, cached on the plan).
            plan = lower_when_earned(plan, tasks, self, profiler) or plan
        schedule = plan.schedule
        if schedule is None:
            schedule = plan.schedule = analyze_plan(plan, slot_stores, tasks)
        dispatch = _plan_dispatch(schedule, executor)
        #: Per-replay slot -> region field memo shared by all steps.
        prepare = partial(self._step_work, slot_stores, tasks, {}, plan.uninitialised_slots)
        resident = None
        if dispatch.point_width > 1:
            # Materialise the worker-process pool now, while no thread
            # futures are in flight: forking from a quiescent point
            # avoids inheriting another thread's lock state mid-level.
            procpool.process_pool()
            resident = self._resident_plan(
                plan, schedule.steps, dispatch.decisions, prepare
            )
        if dispatch.superkernel_calls:
            profiler.record_superkernel_calls(dispatch.superkernel_calls)
        if dispatch.closure_calls:
            profiler.add_replay_closure_calls(dispatch.closure_calls)

        #: Per-step ``(kernel seconds, reduction partials per key)``.
        results: List[Optional[tuple]] = [None] * len(schedule.steps)
        dispatched = 0
        recorder = telemetry.active()
        for level_index, level in enumerate(dispatch.levels):
            # Level spans are manual begin/end pairs (the body below is
            # the whole level); a replay failure unwinds past the end
            # record, but it also tears down the run, so exported traces
            # only ever hold completed levels.
            if recorder is not None:
                label = f"level={level_index} width={len(level)}"
                recorder.record("B", "plan.level", label, runtime.simulated_seconds)
            #: The level's launches, prepared on this thread in recorded
            #: order, and the frame entries and works of those a resident
            #: plan ships.
            launches: Dict[int, Callable] = {}
            entries: List[tuple] = []
            works: List[ChunkWork] = []
            for index, entry, width, chunks, threads in level:
                work = prepare(entry)
                if recorder is None:
                    launches[index] = partial(executor.launch, work, chunks, width, threads=threads)
                else:
                    launches[index] = partial(
                        self._traced_launch, entry, work, chunks, width, threads=threads
                    )
                if resident is not None and index in resident.steps:
                    frame_entry = executor.resident_entry(resident, index, work, chunks)
                    if frame_entry is not None:
                        entries.append(frame_entry)
                        works.append(work)
            if resident is not None:
                shipped = self._resident_level(
                    resident, level_index, launches, entries, works, results
                )
                if len(level) > 1:
                    dispatched += shipped
            elif dispatch.pooled[level_index]:
                pending: List[Tuple[int, object]] = []
                for index, launch in launches.items():
                    if dispatch.decisions[index][0]:
                        pending.append((index, worker_pool().submit(launch)))
                    else:
                        results[index] = launch()
                for index, future in pending:
                    results[index] = future.result()
                dispatched += len(pending)
            else:
                for index, launch in launches.items():
                    results[index] = launch()
            # Join point: fold the level's reduction partials in recorded
            # order so dependent levels (and the final buffers) are
            # bit-identical to serial replay.
            for index, entry, _width, _chunks, _threads in level:
                for key, partials in results[index][1].items():
                    slot, redop = entry.targets[key]
                    executor.apply_reduction_partials(slot_stores[slot], redop, partials)
            if recorder is not None:
                recorder.record("E", "plan.level", label, runtime.simulated_seconds)

        self._account(schedule, results)
        _apply_plan_epilogue(plan, engine, slot_stores)
        if dispatch.workers > 1 or dispatch.point_width > 1:
            profiler.record_plan_execution(
                steps=len(schedule.steps),
                levels=len(schedule.levels),
                width=schedule.width,
                dispatched=dispatched,
                level_widths=schedule.level_widths,
            )

    def reserve(self, plan: ExecutionPlan, slot_stores: Sequence[Store], tasks) -> None:
        """Reserve, when ``plan`` is captured, the block scratch its split
        steps will need on replay (``TaskExecutor.reserve_scratch``).

        The schedule and dispatch decisions are the ones replay reuses
        (both cached on the plan).  A lowering at a later replay may
        need more; the reserve then grows at that launch.  Without plan
        threads to split across, or without a compiled step big enough
        to split, the schedule stays lazy.
        """
        workers = config.worker_count()
        if workers < 2 or config.point_worker_count() > 1:
            return
        if not any(
            isinstance(step, CompiledStep) and _thread_split(step, workers)
            for step in plan.steps
        ):
            return
        schedule = plan.schedule = analyze_plan(plan, slot_stores, tasks)
        executor = self.runtime.executor
        for level in _plan_dispatch(schedule, executor).levels:
            for _index, entry, _width, chunks, threads in level:
                if threads > 1:
                    step = entry.step
                    share = step.kernel.scratch_elements(thread_block(threads), step.verdict.tile)
                    executor.reserve_scratch(len(chunks) * share)

    def _step_work(
        self,
        slot_stores: Sequence[Store],
        tasks: Sequence[DeferredTask],
        fields: Dict[int, object],
        uninitialised,
        entry: ScheduledStep,
        resolve: bool = True,
    ) -> ChunkWork:
        """Prepare one step on the scheduling thread.

        Everything order-sensitive happens here — scalar rebinding from
        the epoch's tasks (the flat-offset arithmetic was done once, in
        :func:`analyze_plan`), with futures resolved after the previous
        level's join (a step resolving one depends on its producer), and
        slot→field resolution through the per-replay ``fields`` memo —
        so the work's runner only computes and workers never touch
        shared state.  Without ``resolve`` a compiled step's futures stay
        unresolved (a resident template only needs the scalar names).
        Replayed compiled steps carry no cost model: their seconds were
        captured at record time.
        """
        step = entry.step
        executor = self.runtime.executor
        rows = []
        regions = self.runtime.regions
        for key, slot, is_reduction, table in step.buffer_bindings:
            resolved = None
            if not is_reduction:
                resolved = fields.get(slot)
                if resolved is None:
                    resolved = fields[slot] = regions.field(
                        slot_stores[slot], slot in uninitialised
                    )
            rows.append((key, resolved, is_reduction, table))
        if not entry.compiled:
            scalar_args = tasks[step.position].scalar_args
            return executor.opaque_work(
                step.impl, rows, entry.num_points,
                executor.scalar_values(scalar_args) if resolve else scalar_args,
                partial(_rebuild_opaque_task, step, tasks, self.runtime.profiler),
            )
        value = executor.scalar_value if resolve else _unresolved
        scalars = {
            name: value(tasks[position].scalar_args[inner])
            for name, position, inner in entry.scalar_binds
        }
        if isinstance(step, SuperKernelStep):
            return ChunkWork(
                rows,
                entry.num_points,
                lambda start, stop, block=None, scratch=None: run_superkernel_ranks(
                    step, rows, scalars, start, stop, block, scratch
                ),
                step.reductions,
                kernel=step.kernel,
                scalars=scalars,
            )
        return executor.compiled_work(
            step.kernel, rows, scalars, entry.num_points, step.verdict, step.reductions
        )

    def _traced_launch(
        self, entry: ScheduledStep, work: ChunkWork, chunks, width: int, shipped=None,
        threads: int = 1,
    ):
        """``executor.launch`` inside a ``plan.step`` span (telemetry on)."""
        label = f"{entry.step.task_name} ranks={entry.num_points} chunks={len(chunks)}"
        with telemetry.span("plan.step", label, sim=self.runtime.simulated_seconds):
            return self.runtime.executor.launch(work, chunks, width, shipped, threads)

    def _resident_level(
        self, resident, level_index: int, launches: Dict[int, Callable],
        entries, works, results,
    ) -> int:
        """Run one level of a resident plan; returns how many steps shipped.

        The level — not the step — is the unit the resident protocol
        ships: ``entries`` (the level's steps whose work ships, prepared
        as ``works``) go to each engaged worker as one frame, this
        thread runs slot 0's chunks of them and then the level's other
        steps while the workers compute, and one reply per worker brings
        back the rest of the entries' chunk results, which each step's
        launch then folds like any chunked dispatch.  The chunks of a
        frame that lost its pool run inline here too — only the lost
        workers' chunks, never slot 0's a second time; the next frame's
        ``procpool.process_pool()`` rebuilds the pool, and the plan
        re-ships to it.  Nothing is submitted to the plan-level thread
        pool.
        """
        frame = {entry[0] for entry in entries}

        def run_pending() -> None:
            for index, launch in launches.items():
                if results[index] is None and index not in frame:
                    results[index] = launch()

        shipped = 0
        if entries:
            level = self.runtime.executor.run_resident_level(
                resident, level_index, entries, works, run_pending
            )
            for entry, done in zip(entries, level):
                results[entry[0]] = launches[entry[0]](done)
                shipped += done.process_chunks > 0
        run_pending()
        return shipped

    def _resident_plan(self, plan: ExecutionPlan, steps, decisions, prepare: Callable):
        """Register ``plan`` for resident process replay (cached on it).

        Every step whose decided chunk plan has several chunks and whose
        work ships (see ``TaskExecutor.resident_template``) gets a
        worker-resident template baking exactly that chunk plan, so the
        dispatch can only disagree with it after a flag change.  The
        pool ships the template set to each worker at most once;
        a :func:`procpool.resident_generation` bump (a flag reload)
        retires the registration so the next replay rebuilds it under a
        fresh id.  Returns ``None`` when
        nothing in the plan ships (cached as an empty registration so
        the scan runs once per generation).
        """
        generation = procpool.resident_generation()
        resident = plan.resident
        if resident is None or resident.generation != generation:
            templates = {}
            for index, (_dispatched, _width, chunks) in enumerate(decisions):
                if len(chunks) > 1:
                    template = self.runtime.executor.resident_template(
                        prepare(steps[index], resolve=False), chunks
                    )
                    if template is not None:
                        templates[index] = template
            resident = plan.resident = procpool.ResidentPlan(
                plan_id=procpool.next_resident_plan_id() if templates else 0,
                generation=generation,
                steps=templates,
            )
        return resident if resident.steps else None

    def _account(self, schedule: PlanSchedule, results) -> None:
        """Fold the plan's time accounting in recorded order.

        A fused unit executed as one closure call but charges its
        recorded constituent subsequence (compiled steps and interior
        analysis charges), so records, floating-point accumulation order
        and simulated seconds are bit-identical to unfused, serial
        replay.  Everything but an opaque launch's re-timed kernel
        seconds was decided once per plan (:func:`_accounting`).
        """
        runtime = self.runtime
        profiler = runtime.profiler
        for entry in schedule.accounting:
            if isinstance(entry, AnalysisCharge):
                runtime.add_simulated_seconds(entry.seconds)
                profiler.record_analysis_time(entry.seconds)
                profiler.add_iteration_seconds(entry.seconds)
                continue
            merged, index, record = entry
            if merged is not None:
                profiler.record_merged_launch(1, merged)
            if index is not None:
                record = record[:2] + (results[index][0],) + record[3:]
            runtime.simulated_seconds += profiler.record_task(
                *record, replayed=True
            ).total_seconds
