"""Profiling of simulated execution.

The profiler records, per launched index task, the analytically-modelled
kernel, communication and runtime-overhead times, plus how many original
library tasks the launch stands for (one for unfused tasks, more for fused
tasks).  The experiment harness uses it to regenerate paper Figure 9
(tasks per iteration, average task length, window sizes) and the
throughput numbers of every weak-scaling figure.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.kernel.codegen import codegen_stats

#: Why a rung of the chunk-dispatch ladder (``runtime/executor.py``)
#: declined a launch.  A launch (or, for the chunk plan of a replayed
#: step, a plan under one flag setting) counts once per declining rung.
DECLINE_REASONS = (
    "below_volume",  # touches fewer elements than the dispatch threshold
    "no_shm_descriptor",  # a field lives outside the shared-memory arena
    "unshippable_operator",  # opaque operator a worker cannot resolve by name
    "template_mismatch",  # chunk plan differs from the resident template
    "worker_lost",  # a pool worker died or missed the reply deadline
)

#: Where an index task is built from a deferred record
#: (``Profiler.tasks_materialised``).
MATERIALISED_BY = ("eager", "miss", "replay")

#: Why a compiled launch — or a section of a super-kernel — runs rank by
#: rank instead of once over the merged span (``pool.launch_verdict``).
RANKED_REASONS = (
    "single_rank",  # one rank: nothing to merge
    "uninterned_table",  # rect tables rebuilt per launch (REPRO_HOTPATH_CACHE=0)
    "nd_or_broadcast_tiling",  # a buffer is N-D, rank-0, replicated or not contiguous
    "ragged_tiling",  # contiguous, but the ranks' tiles differ in size
    "interpreter_backend",  # the interpreter has no row-reducing body
    "unstackable_kernel",  # no tiled buffer, or a reducing loop not indexed by one
)


@dataclass
class TaskRecord:
    """One launched index task as seen by the runtime."""

    name: str
    iteration: Optional[int]
    constituents: int
    kernel_seconds: float
    communication_seconds: float
    overhead_seconds: float
    launches: int
    fused: bool
    #: True when the launch was replayed from a captured execution plan
    #: (trace hit) rather than resolved through the full pipeline.
    replayed: bool = False

    @property
    def total_seconds(self) -> float:
        """Total simulated time attributed to this launch."""
        return self.kernel_seconds + self.communication_seconds + self.overhead_seconds


@dataclass
class IterationRecord:
    """Aggregated statistics of one application iteration."""

    index: int
    index_tasks: int = 0
    constituent_tasks: int = 0
    seconds: float = 0.0
    #: Trace epochs the iteration replayed and ran through the pipeline.
    replayed_epochs: int = 0
    missed_epochs: int = 0


class Profiler:
    """Accumulates task records and iteration statistics."""

    def __init__(self) -> None:
        self.records: List[TaskRecord] = []
        self.iterations: List[IterationRecord] = []
        self.compile_seconds: float = 0.0
        self.analysis_seconds: float = 0.0
        #: Trace subsystem counters: epochs replayed from a captured plan
        #: vs. epochs that went through the full resolve pipeline.
        self.trace_hits: int = 0
        self.trace_misses: int = 0
        #: Library tasks whose resolution was bypassed by trace replay.
        self.trace_replayed_tasks: int = 0
        #: Plans captured, kept so the snapshot can count those never
        #: replayed (``ExecutionPlan.replays``); of them, the ones
        #: captured from a run that missed memoization (and so may have
        #: compiled); and the run of its epoch at which the first replay
        #: happened (0 before any replay).
        self.captured_plans: List[object] = []
        self.plans_captured_cold: int = 0
        self.first_replay_run: int = 0
        #: Index tasks built from deferred records, by where: ``eager``
        #: (every task of an unfused engine), ``miss`` (every task of a
        #: fused epoch that was not replayed, captured or not) and
        #: ``replay`` (an opaque launch run per rank on replay, which
        #: hands its operator the task).  Nothing else in a replayed
        #: epoch builds one.
        self.tasks_materialised: Dict[str, int] = dict.fromkeys(MATERIALISED_BY, 0)
        #: Plan-scheduler counters: replays that went through dependence
        #: analysis, aggregate step/level/width figures of their DAGs,
        #: and how many steps ran on the worker pool (the rest ran
        #: inline on the scheduling thread).
        self.plan_replays: int = 0
        self.plan_steps: int = 0
        self.plan_levels: int = 0
        self.plan_width_max: int = 0
        self.plan_dispatched_steps: int = 0
        #: Level-width histogram over every scheduled replay: width
        #: (steps per dependence level) -> number of levels executed at
        #: that width.  The long tail of this histogram is the paper's
        #: wide-stencil story; a flagship app whose histogram never
        #: leaves ``{1: n}`` is running the scheduler's horizontal
        #: parallelism machinery without ever exercising it.
        self.plan_level_widths: Dict[int, int] = {}
        #: Intra-launch point-dispatch counters: launches whose per-rank
        #: point tasks ran as rank chunks in the worker processes, the
        #: total chunks and ranks they covered, the widest single launch,
        #: and the summed configured width (the utilisation denominator);
        #: of those chunks, the ones a worker process ran (the rest ran
        #: on the scheduling thread, slot 0 of the pool).
        self.point_launches: int = 0
        self.point_chunks: int = 0
        self.point_process_chunks: int = 0
        self.point_ranks: int = 0
        self.point_width_max: int = 0
        self.point_width_budget: int = 0
        #: Rank chunks of replayed compiled launches a chain level split
        #: across the plan threads (the scheduling thread's included),
        #: and the largest block (elements) such a chunk planned at.
        self.point_thread_chunks: int = 0
        self.point_thread_block: int = 0
        #: Element-wise batching: launches executed as merged closure
        #: calls (one per rank chunk instead of one per rank) and the
        #: total merged calls they produced.
        self.batched_launches: int = 0
        self.batched_calls: int = 0
        #: The same for merged launches that reduce (stacked: their
        #: reductions run by ``(ranks, tile)`` rows), first-run and replayed,
        #: replayed super-kernel sections included; and reducing launches
        #: that ran rank by rank, by reason (:data:`RANKED_REASONS`).
        self.stacked_launches: int = 0
        self.stacked_calls: int = 0
        self.per_rank_reductions: Dict[str, int] = dict.fromkeys(RANKED_REASONS, 0)
        #: Opaque-operator execution counters:
        #: library calls made one-per-rank, library calls made
        #: one-per-chunk by chunk-level implementations, and how many of
        #: the chunk calls ran on the worker-process pool.
        self.opaque_rank_calls: int = 0
        self.opaque_chunk_calls: int = 0
        self.opaque_process_chunks: int = 0
        #: Trace epochs whose scalar equality pattern flipped on a known
        #: stream structure, forcing a conservative re-record.
        self.scalar_pattern_flips: int = 0
        #: Futures (``repro.ir.future``) resolved as the launch taking
        #: them ran, once per launch, and the round fences their
        #: submissions placed (the window drained before the launch).
        self.future_scalars: int = 0
        self.round_fences: int = 0
        #: Super-kernel counters: fused units built by the plan→super-kernel
        #: lowering, the compiled constituent steps they absorbed, and the
        #: fused-closure invocations replay actually performed.
        self.superkernel_fusions: int = 0
        self.superkernel_fused_steps: int = 0
        self.superkernel_calls: int = 0
        #: Sections of those units by emitted shape — ``merged``
        #: (element-wise, one pass over the span), ``stacked`` (merged and
        #: reducing by rows) or the reason it stayed ranked.
        self.superkernel_sections: Dict[str, int] = dict.fromkeys(
            ("merged", "stacked") + RANKED_REASONS, 0
        )
        #: Compiled-closure invocations performed by plan replay (one per
        #: merged element-wise chunk, one per rank of a non-element-wise
        #: launch, one per super-kernel chunk) — the interpreter-overhead
        #: figure the super-kernel lowering exists to shrink.
        self.replay_closure_calls: int = 0
        #: Process-pool wire traffic: bytes and request messages actually
        #: pickled onto worker pipes (measured by sizing each payload at
        #: send time) — the figure plan-resident replay exists to shrink.
        self.wire_bytes: int = 0
        self.wire_requests: int = 0
        #: Level round trips made with the pool, the involuntary context
        #: switches the sending thread took during them (counted only
        #: with telemetry armed), and the pool's CPU placement as the
        #: last one found it (``ProcessWorkerPool.placement``; empty
        #: until a level ships).
        self.wire_round_trips: int = 0
        self.slot0_preemptions: int = 0
        self.point_placement: str = ""
        #: Declined ladder rungs by reason (:data:`DECLINE_REASONS`).
        self.declines: Dict[str, int] = dict.fromkeys(DECLINE_REASONS, 0)
        #: Replays the super-kernel gate ran un-lowered: the plan had a
        #: fusible unit but no speculation slot and was not yet at its
        #: break-even replay count (``superkernel.lower_when_earned``).
        self.plans_not_hot: int = 0
        #: Region fields allocated uninitialised (the allocating launch
        #: defines every element before anything loads it) and zero-filled.
        self.fields_uninitialised: int = 0
        self.fields_zero_filled: int = 0
        #: Where the process-wide ``codegen_stats().multi_block_calls``
        #: stood when this profiler was created or reset (compiled
        #: closures are shared between contexts, so the count is too).
        self._multi_block_base: int = codegen_stats().multi_block_calls
        self._current_iteration: Optional[IterationRecord] = None
        #: Serialises the counter updates that can arrive from plan-pool
        #: threads (declines, opaque calls, element-wise batches): wide
        #: levels dispatch steps concurrently, and unsynchronised
        #: ``+=`` would drop increments and de-determinise the counter
        #: gates.  Integer sums are order-independent, so locked updates
        #: keep every counter deterministic for any interleaving.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Iteration markers (driven by the applications).
    # ------------------------------------------------------------------
    def begin_iteration(self) -> None:
        """Mark the start of an application iteration."""
        index = len(self.iterations)
        self._current_iteration = IterationRecord(index=index)
        self.iterations.append(self._current_iteration)

    @property
    def current_iteration(self) -> Optional[int]:
        """Index of the iteration currently being recorded."""
        return self._current_iteration.index if self._current_iteration else None

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def record_task(
        self,
        name: str,
        constituents: int,
        kernel_seconds: float,
        communication_seconds: float,
        overhead_seconds: float,
        launches: int,
        fused: bool,
        replayed: bool = False,
    ) -> TaskRecord:
        """Record one launched index task."""
        record = TaskRecord(
            name=name,
            iteration=self.current_iteration,
            constituents=constituents,
            kernel_seconds=kernel_seconds,
            communication_seconds=communication_seconds,
            overhead_seconds=overhead_seconds,
            launches=launches,
            fused=fused,
            replayed=replayed,
        )
        self.records.append(record)
        if self._current_iteration is not None:
            self._current_iteration.index_tasks += 1
            self._current_iteration.constituent_tasks += constituents
            self._current_iteration.seconds += record.total_seconds
        return record

    def record_compile_time(self, seconds: float) -> None:
        """Attribute JIT compilation time (fusion path only)."""
        self.compile_seconds += seconds

    def record_trace_hit(self, tasks: int) -> None:
        """Record an epoch replayed from a captured execution plan."""
        self.trace_hits += 1
        self.trace_replayed_tasks += tasks
        if self._current_iteration is not None:
            self._current_iteration.replayed_epochs += 1

    def record_trace_miss(self) -> None:
        """Record an epoch that missed the trace cache (with capture on)."""
        self.trace_misses += 1
        if self._current_iteration is not None:
            self._current_iteration.missed_epochs += 1

    def record_capture(self, plan, cold: bool) -> None:
        """Record a captured plan; ``cold``: its run missed memoization."""
        self.captured_plans.append(plan)
        self.plans_captured_cold += cold

    def record_plan_execution(
        self,
        steps: int,
        levels: int,
        width: int,
        dispatched: int,
        level_widths: Sequence[int] = (),
    ) -> None:
        """Record one plan replay executed by the dependence scheduler.

        ``dispatched`` counts the steps of wide (width > 1) levels that
        ran off the scheduling thread: handed to the plan-level thread
        pool, or — for a plan resident in the worker processes, whose
        levels never touch that pool — shipped in the level's frame.
        The other steps of a resident plan's wide levels run inline and
        do not count.  ``level_widths`` lists the step count of every
        dependence level of the replayed schedule, in level order; it
        accumulates into :attr:`plan_level_widths` so runs can report
        not just the widest level ever seen but the full width
        distribution.
        """
        self.plan_replays += 1
        self.plan_steps += steps
        self.plan_levels += levels
        self.plan_width_max = max(self.plan_width_max, width)
        self.plan_dispatched_steps += dispatched
        for level_width in level_widths:
            self.plan_level_widths[level_width] = (
                self.plan_level_widths.get(level_width, 0) + 1
            )

    def record_point_dispatch(
        self, ranks: int, chunks: int, process_chunks: int, width: int
    ) -> None:
        """Record one launch whose rank chunks ran in the worker processes.

        ``process_chunks`` of its ``chunks`` ran in a worker process.
        Reported on the thread that sent the launch's level frame; taken
        under the lock the plan-pool threads' counters share.
        """
        with self._lock:
            self.point_launches += 1
            self.point_chunks += chunks
            self.point_process_chunks += process_chunks
            self.point_ranks += ranks
            self.point_width_max = max(self.point_width_max, chunks)
            self.point_width_budget += max(1, width)

    def record_thread_chunks(self, chunks: int, block: int) -> None:
        """Record one replay whose steps ran ``chunks`` rank chunks across
        the plan threads, at most ``block`` elements per block."""
        with self._lock:
            self.point_thread_chunks += chunks
            self.point_thread_block = max(self.point_thread_block, block)

    def record_merged_launch(self, calls: int, stacked: bool) -> None:
        """Record one launch executed as ``calls`` merged chunk calls:
        element-wise, or ``stacked`` when it reduces."""
        with self._lock:
            if stacked:
                self.stacked_launches += 1
                self.stacked_calls += calls
            else:
                self.batched_launches += 1
                self.batched_calls += calls

    def record_per_rank_reduction(self, reason: str) -> None:
        """Record one reducing launch that ran rank by rank, and why."""
        with self._lock:
            self.per_rank_reductions[reason] += 1

    def record_opaque_execution(
        self, rank_calls: int = 0, chunk_calls: int = 0, process_chunks: int = 0
    ) -> None:
        """Record one opaque launch's library-call counts.

        A launch reports either per-rank calls (chunking off or not
        applicable) or chunk-level calls; ``process_chunks`` counts the
        subset of chunk calls executed by worker processes.  Thread-safe:
        steps of wide levels report from plan-pool threads.
        """
        with self._lock:
            self.opaque_rank_calls += rank_calls
            self.opaque_chunk_calls += chunk_calls
            self.opaque_process_chunks += process_chunks

    def record_scalar_pattern_flip(self) -> None:
        """Record a trace re-record forced by a scalar-pattern flip."""
        self.scalar_pattern_flips += 1

    def record_superkernel_fusion(self, sections: Sequence[str]) -> None:
        """Record one fused unit built by the super-kernel lowering.

        ``sections`` names each constituent's emitted shape: ``merged``,
        ``stacked`` or one of :data:`RANKED_REASONS`.
        """
        self.superkernel_fusions += 1
        self.superkernel_fused_steps += len(sections)
        for shape in sections:
            self.superkernel_sections[shape] += 1

    def record_superkernel_calls(self, calls: int) -> None:
        """Record fused-closure invocations (one per super-kernel chunk)."""
        self.superkernel_calls += calls

    def add_replay_closure_calls(self, calls: int) -> None:
        """Record compiled-closure invocations performed by plan replay."""
        self.replay_closure_calls += calls

    def record_round_trip(
        self, bytes_sent: int, requests: int, preemptions: int, placement: str
    ) -> None:
        """Record one level round trip with the worker-process pool.

        Reported once per round trip, on the thread that sent its
        frames: the pickled bytes and messages it sent, the involuntary
        context switches that thread took meanwhile, and the pool's
        placement.
        """
        with self._lock:
            self.wire_bytes += bytes_sent
            self.wire_requests += requests
            self.wire_round_trips += 1
            self.slot0_preemptions += preemptions
            self.point_placement = placement

    def record_decline(self, reason: str) -> None:
        """Record one declined ladder rung (thread-safe, like
        :meth:`record_opaque_execution`)."""
        with self._lock:
            self.declines[reason] += 1

    def record_plan_not_hot(self) -> None:
        """Record one replay that ran un-lowered for want of a slot."""
        self.plans_not_hot += 1

    def record_field_allocation(self, uninitialised: bool) -> None:
        """Record one region-field allocation.

        Called under the region manager's allocation lock, which
        serialises the pool threads that can allocate.
        """
        if uninitialised:
            self.fields_uninitialised += 1
        else:
            self.fields_zero_filled += 1

    @property
    def wire_bytes_per_epoch(self) -> float:
        """Average wire bytes shipped to workers per replayed epoch."""
        return self.wire_bytes / self.trace_hits if self.trace_hits else 0.0

    @property
    def wire_requests_per_epoch(self) -> float:
        """Average wire request messages sent per replayed epoch."""
        return self.wire_requests / self.trace_hits if self.trace_hits else 0.0

    @property
    def closure_calls_per_epoch(self) -> float:
        """Average compiled-closure invocations per replayed epoch."""
        return self.replay_closure_calls / self.trace_hits if self.trace_hits else 0.0

    @property
    def point_chunks_per_launch(self) -> float:
        """Average rank chunks per point-dispatched launch."""
        return self.point_chunks / self.point_launches if self.point_launches else 0.0

    @property
    def point_utilization(self) -> float:
        """Fraction of the configured point width actually filled.

        The ratio of dispatched chunks to the summed configured dispatch
        width over all point-dispatched launches — 1.0 means every such
        launch produced a full complement of chunks.
        """
        if not self.point_width_budget:
            return 0.0
        return self.point_chunks / self.point_width_budget

    @property
    def plan_average_width(self) -> float:
        """Average DAG width (steps per level) over scheduled replays."""
        return self.plan_steps / self.plan_levels if self.plan_levels else 0.0

    @property
    def worker_utilization(self) -> float:
        """Fraction of scheduled steps that ran on the worker pool."""
        return self.plan_dispatched_steps / self.plan_steps if self.plan_steps else 0.0

    @property
    def epochs_per_replayed_iteration(self) -> float:
        """Mean epochs of the iterations that replayed every epoch (0.0
        without one): 1.0 when nothing inside an iteration reads a value
        on the host."""
        epochs = [
            record.replayed_epochs
            for record in self.iterations
            if record.replayed_epochs and not record.missed_epochs
        ]
        return sum(epochs) / len(epochs) if epochs else 0.0

    @property
    def trace_hit_rate(self) -> float:
        """Fraction of trace-delimited epochs replayed from a plan."""
        total = self.trace_hits + self.trace_misses
        return self.trace_hits / total if total else 0.0

    def record_analysis_time(self, seconds: float) -> None:
        """Attribute fusion-analysis time."""
        self.analysis_seconds += seconds

    def add_iteration_seconds(self, seconds: float) -> None:
        """Attribute extra time (e.g. flush-side costs) to the current iteration."""
        if self._current_iteration is not None:
            self._current_iteration.seconds += seconds

    # ------------------------------------------------------------------
    # Aggregation.
    # ------------------------------------------------------------------
    @property
    def total_index_tasks(self) -> int:
        """Number of index tasks launched to the runtime."""
        return len(self.records)

    @property
    def total_constituent_tasks(self) -> int:
        """Number of original library tasks represented by those launches."""
        return sum(record.constituents for record in self.records)

    @property
    def total_seconds(self) -> float:
        """Total simulated execution time (excluding compile time)."""
        return sum(record.total_seconds for record in self.records)

    def iteration_seconds(self, skip_warmup: int = 0) -> List[float]:
        """Per-iteration simulated time, optionally skipping warm-up iterations."""
        return [it.seconds for it in self.iterations[skip_warmup:]]

    def tasks_per_iteration(self, skip_warmup: int = 0, fused_view: bool = True) -> float:
        """Average tasks per iteration.

        With ``fused_view`` the count is of index tasks actually launched
        (the "Tasks per Iteration (Fused)" column of Figure 9); without it
        the count is of original library tasks ("Tasks per Iteration").
        """
        iterations = self.iterations[skip_warmup:]
        if not iterations:
            return 0.0
        if fused_view:
            return sum(it.index_tasks for it in iterations) / len(iterations)
        return sum(it.constituent_tasks for it in iterations) / len(iterations)

    def average_task_length_seconds(self, skip_warmup: int = 0) -> float:
        """Average kernel time per launched index task (Figure 9 column)."""
        skip_iterations = {it.index for it in self.iterations[:skip_warmup]}
        records = [
            r
            for r in self.records
            if r.iteration is not None and r.iteration not in skip_iterations
        ]
        if not records:
            records = self.records
        if not records:
            return 0.0
        return sum(r.kernel_seconds for r in records) / len(records)

    def throughput(self, skip_warmup: int = 0) -> float:
        """Iterations per simulated second after warm-up."""
        seconds = self.iteration_seconds(skip_warmup)
        if not seconds or sum(seconds) == 0.0:
            return 0.0
        return len(seconds) / sum(seconds)

    @property
    def multi_block_calls(self) -> int:
        """Generated-kernel calls that ran more than one block.

        Counted in this process since the profiler was created or reset
        (worker processes keep their own count); zero says every tile
        fit one block of the kernel tier's block loop.
        """
        return max(0, codegen_stats().multi_block_calls - self._multi_block_base)

    def snapshot(self) -> Dict[str, object]:
        """A structured dict of every counter plus the derived figures.

        Taken under the profiler lock so concurrent plan-pool updates
        never produce a torn view.  The dict is JSON-serialisable: plain
        ints/floats, the pool's placement string and the level-width
        histogram as a ``{width: count}`` dict — the shape exported next
        to Chrome traces by ``repro.tools.tracedump``.
        """
        with self._lock:
            counters: Dict[str, object] = {
                "total_index_tasks": len(self.records),
                "total_constituent_tasks": sum(
                    record.constituents for record in self.records
                ),
                "iterations": len(self.iterations),
                "compile_seconds": self.compile_seconds,
                "analysis_seconds": self.analysis_seconds,
                "trace_hits": self.trace_hits,
                "trace_misses": self.trace_misses,
                "trace_replayed_tasks": self.trace_replayed_tasks,
                "plans_captured_cold": self.plans_captured_cold,
                "plans_never_replayed": sum(
                    1 for plan in self.captured_plans if not plan.replays
                ),
                "first_replay_run": self.first_replay_run,
                "plan_replays": self.plan_replays,
                "plan_steps": self.plan_steps,
                "plan_levels": self.plan_levels,
                "plan_width_max": self.plan_width_max,
                "plan_dispatched_steps": self.plan_dispatched_steps,
                "plan_level_widths": dict(self.plan_level_widths),
                "point_launches": self.point_launches,
                "point_chunks": self.point_chunks,
                "point_ranks": self.point_ranks,
                "point_width_max": self.point_width_max,
                "point_width_budget": self.point_width_budget,
                "point_process_chunks": self.point_process_chunks,
                "point_thread_chunks": self.point_thread_chunks,
                "point_thread_block": self.point_thread_block,
                "batched_launches": self.batched_launches,
                "batched_calls": self.batched_calls,
                "stacked_launches": self.stacked_launches,
                "stacked_calls": self.stacked_calls,
                "opaque_rank_calls": self.opaque_rank_calls,
                "opaque_chunk_calls": self.opaque_chunk_calls,
                "opaque_process_chunks": self.opaque_process_chunks,
                "scalar_pattern_flips": self.scalar_pattern_flips,
                "future_scalars": self.future_scalars,
                "round_fences": self.round_fences,
                "superkernel_fusions": self.superkernel_fusions,
                "superkernel_fused_steps": self.superkernel_fused_steps,
                "superkernel_calls": self.superkernel_calls,
                "replay_closure_calls": self.replay_closure_calls,
                "wire_bytes": self.wire_bytes,
                "wire_requests": self.wire_requests,
                "wire_round_trips": self.wire_round_trips,
                "slot0_preemptions": self.slot0_preemptions,
                "point_placement": self.point_placement,
                "multi_block_calls": self.multi_block_calls,
            }
            for reason, count in self.declines.items():
                counters[f"decline_{reason}"] = count
            for path, count in self.tasks_materialised.items():
                counters[f"tasks_materialised_{path}"] = count
            counters["decline_plan_not_hot"] = self.plans_not_hot
            ranked = 0
            for shape, count in self.superkernel_sections.items():
                if shape in RANKED_REASONS:
                    counters[f"ranked_{shape}"] = count
                    ranked += count
                else:
                    counters[f"superkernel_sections_{shape}"] = count
            counters["superkernel_sections_ranked"] = ranked
            for reason, count in self.per_rank_reductions.items():
                counters[f"per_rank_reducing_{reason}"] = count
            counters["fields_uninitialised"] = self.fields_uninitialised
            counters["fields_zero_filled"] = self.fields_zero_filled
        counters["trace_hit_rate"] = self.trace_hit_rate
        counters["epochs_per_replayed_iteration"] = self.epochs_per_replayed_iteration
        counters["plan_average_width"] = self.plan_average_width
        counters["worker_utilization"] = self.worker_utilization
        counters["point_chunks_per_launch"] = self.point_chunks_per_launch
        counters["point_utilization"] = self.point_utilization
        counters["wire_bytes_per_epoch"] = self.wire_bytes_per_epoch
        counters["wire_requests_per_epoch"] = self.wire_requests_per_epoch
        counters["closure_calls_per_epoch"] = self.closure_calls_per_epoch
        return counters

    def reset(self) -> None:
        """Clear all recorded state (exactly the freshly-built state)."""
        self.__init__()
