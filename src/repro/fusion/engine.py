"""The Diffuse middle layer (paper Figure architecture, Sections 4–6).

:class:`DiffuseRuntime` sits between the frontends (cuPyNumeric / Legate
Sparse) and the Legion-like runtime substrate.  Libraries submit index
tasks to it; Diffuse buffers them into a window, finds fusible prefixes,
eliminates temporaries, JIT-compiles fused kernels (with memoization), and
forwards the optimised tasks downstream.

Setting ``FusionConfig.enable_fusion`` to False turns the layer into a
pass-through, which is the "Unfused" baseline of every benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Set

from repro.ir.store import Store
from repro.ir.task import DeferredTask, IndexTask
from repro.ir.window import TaskWindow
from repro.fusion.algorithm import build_fused_task, plan_window
from repro.fusion.memoization import (
    FusionDecision,
    MemoizationCache,
    canonicalize_window,
    resolve_temporaries,
)
from repro.config import trace_enabled
from repro.kernel.compiler import JITCompiler
from repro.kernel.generators import GeneratorRegistry, default_registry
from repro.kernel.passes.pipeline import PassPipeline
from repro.runtime.runtime import LegionRuntime
from repro.runtime.trace import TraceController, TraceRecorder, produced_since


@dataclass
class FusionConfig:
    """Configuration of the Diffuse layer (benchmarks toggle these)."""

    #: Master switch: False forwards every task unchanged (the baseline).
    enable_fusion: bool = True
    #: False restricts Diffuse to task fusion only — constituent kernels
    #: are concatenated but not loop-fused and temporaries are kept as
    #: distributed data (the ablation discussed in paper Section 7).
    enable_kernel_fusion: bool = True
    #: Demote stores satisfying Definition 4 into task-local allocations.
    enable_temporary_elimination: bool = True
    #: Memoize the fusion analysis on canonical task streams.
    enable_memoization: bool = True
    #: Defer the task stream into epochs and capture/replay execution
    #: plans for repeated epochs (also gated by the ``REPRO_TRACE``
    #: environment variable; requires fusion and memoization).
    enable_tracing: bool = True
    #: Task-window sizing (paper Figure 9 reports the adaptive result).
    initial_window_size: int = 5
    max_window_size: int = 256
    adaptive_window: bool = True

    #: Analysis cost model: seconds per analysed task on a memoization
    #: miss, and per replayed task on a hit.
    analysis_seconds_per_task: float = 25e-6
    replay_seconds_per_task: float = 3e-6


@dataclass
class FusionStatistics:
    """Counters describing what the engine did (used by the experiments)."""

    submitted_tasks: int = 0
    forwarded_tasks: int = 0
    fused_tasks: int = 0
    fused_constituents: int = 0
    temporaries_eliminated: int = 0


class DiffuseRuntime:
    """Buffers, fuses and forwards index tasks."""

    def __init__(
        self,
        runtime: Optional[LegionRuntime] = None,
        config: Optional[FusionConfig] = None,
        generator_registry: Optional[GeneratorRegistry] = None,
    ) -> None:
        self.runtime = runtime or LegionRuntime()
        self.config = config or FusionConfig()
        self.registry = generator_registry or default_registry()
        pipeline = PassPipeline(
            enable_loop_fusion=self.config.enable_kernel_fusion,
            enable_temporary_elimination=self.config.enable_kernel_fusion,
            enable_normalize=self.config.enable_kernel_fusion,
            enable_cse=self.config.enable_kernel_fusion,
        )
        self.compiler = JITCompiler(registry=self.registry, pipeline=pipeline)
        self.window = TaskWindow(
            initial_size=self.config.initial_window_size,
            max_size=self.config.max_window_size,
            adaptive=self.config.adaptive_window,
        )
        self.cache = MemoizationCache()
        self.stats = FusionStatistics()
        self._charged_compile_keys: Set[Hashable] = set()
        #: Deferred task stream with trace capture/replay, or None when
        #: tracing is disabled (flag sampled once per engine, like the
        #: hot-path caches are sampled once per context).
        self.trace: Optional[TraceController] = None
        if (
            self.config.enable_fusion
            and self.config.enable_memoization
            and self.config.enable_tracing
            and trace_enabled()
        ):
            self.trace = TraceController(self)
        self._recorder: Optional[TraceRecorder] = None
        #: Untraced launches submitted since the last round fence or
        #: flush: where a future's producer may still be pending
        #: (``runtime.trace.produced_since``).
        self._segment: List[DeferredTask] = []

    # ------------------------------------------------------------------
    # Task submission (the library-facing API).
    # ------------------------------------------------------------------
    def submit(self, task: DeferredTask) -> None:
        """Submit one launch in program order.

        With tracing the record joins the deferred epoch as it is;
        otherwise its index task is built here.
        """
        self.stats.submitted_tasks += 1
        if self.trace is not None:
            self.trace.add(task)
            return
        if not self.config.enable_fusion:
            self.stats.forwarded_tasks += 1
            self.runtime.submit(self.materialise(task, "eager"))
            return
        if task.sources and produced_since(self._segment, 0, task.sources):
            # The round fence the traced pipeline places at this launch.
            self.runtime.profiler.round_fences += 1
            self.drain_window()
            self._segment = []
        self._segment.append(task)
        self.window_submit(self.materialise(task, "eager"))

    def materialise(self, task: DeferredTask, path: str) -> IndexTask:
        """The index task of a deferred record, counted by ``path``
        (``Profiler.tasks_materialised``)."""
        self.runtime.profiler.tasks_materialised[path] += 1
        return task.task()

    def window_submit(self, task: IndexTask) -> None:
        """Feed one task into the fusion window (the eager pipeline)."""
        self.window.add(task)
        if self.window.full:
            self._process_round()

    def flush_window(self) -> None:
        """Send all pending tasks through fusion to the runtime.

        With tracing enabled this is an epoch boundary: the deferred
        stream is either replayed from a captured plan or recorded while
        it runs through the eager pipeline.
        """
        if self.trace is not None:
            self.trace.boundary()
            return
        self._segment = []
        self.drain_window()

    def drain_window(self) -> None:
        """Process window rounds until the window is empty."""
        while not self.window.empty:
            self._process_round()

    # Alias matching the paper's pseudocode.
    flush = flush_window

    # ------------------------------------------------------------------
    # Trace capture hooks (driven by the TraceController).
    # ------------------------------------------------------------------
    def begin_capture(self, recorder: TraceRecorder) -> None:
        """Route launches and charges of the current epoch to ``recorder``."""
        self._recorder = recorder
        self.runtime.trace_recorder = recorder

    def end_capture(self) -> None:
        """Stop routing launches to the epoch recorder."""
        self._recorder = None
        self.runtime.trace_recorder = None

    # ------------------------------------------------------------------
    # Future / scalar access (forces a flush like Legion futures do).
    # ------------------------------------------------------------------
    def read_scalar(self, store: Store) -> float:
        """Read a scalar store, flushing pending tasks first."""
        self.flush_window()
        return self.runtime.read_scalar(store)

    def read_array(self, store: Store):
        """Read a full store, flushing pending tasks first."""
        self.flush_window()
        return self.runtime.read_array(store)

    def begin_iteration(self) -> None:
        """Mark an application iteration boundary in the profiler."""
        self.runtime.profiler.begin_iteration()

    def notify_host_write(self, store: Store) -> None:
        """A host-side write to ``store`` is about to happen.

        With the deferred task stream a host write to a store referenced
        by a buffered task would be reordered ahead of that task; force
        an epoch boundary in that case (the eager pipeline needs no such
        check because it never defers past a host interaction that the
        applications perform).
        """
        if self.trace is not None and self.trace.references(store):
            self.trace.boundary()

    # ------------------------------------------------------------------
    # One round of window processing.
    # ------------------------------------------------------------------
    def _process_round(self) -> None:
        tasks = self.window.tasks
        if not tasks:
            return
        window_length = len(tasks)

        if self.config.enable_memoization:
            key, store_map = canonicalize_window(tasks)
            decision = self.cache.lookup(key)
            if decision is not None:
                temporaries = resolve_temporaries(tasks, store_map, decision.temporary_indices)
                prefix_length = decision.prefix_length
                self._charge_analysis(window_length, replay=True)
            else:
                result, temporaries = plan_window(
                    tasks,
                    can_kernel_fuse=self.compiler.can_compile,
                    eliminate_temporaries=self.config.enable_temporary_elimination,
                )
                prefix_length = result.prefix_length
                temp_indices = tuple(
                    sorted(store_map[store.uid] for store in temporaries)
                )
                self.cache.store(
                    key,
                    FusionDecision(
                        prefix_length=prefix_length,
                        temporary_indices=temp_indices,
                        fused=prefix_length >= 2,
                    ),
                )
                self._charge_analysis(window_length, replay=False)
        else:
            key = None
            result, temporaries = plan_window(
                tasks,
                can_kernel_fuse=self.compiler.can_compile,
                eliminate_temporaries=self.config.enable_temporary_elimination,
            )
            prefix_length = result.prefix_length
            self._charge_analysis(window_length, replay=False)

        prefix = self.window.drain(prefix_length)
        self.window.record_fusion_result(window_length, prefix_length)

        if prefix_length < 2:
            self.stats.forwarded_tasks += 1
            self.runtime.submit(prefix[0])
            return

        fused = build_fused_task(prefix, temporaries)
        compiled = self.compiler.compile(fused, cache_key=key)
        self._charge_compile_time(key, compiled.compile_seconds)
        self.stats.fused_tasks += 1
        self.stats.fused_constituents += fused.constituent_count()
        self.stats.temporaries_eliminated += len(temporaries)
        self.runtime.submit(fused, compiled=compiled)

    # ------------------------------------------------------------------
    # Cost accounting for analysis and compilation.
    # ------------------------------------------------------------------
    def _charge_analysis(self, analyzed_tasks: int, replay: bool) -> None:
        """Charge one round's analysis; a capturing epoch's recorder gets
        the charge a memoization hit on the same window makes (the one
        every later occurrence of the epoch pays, see ``runtime.trace``)."""
        hit_seconds = self.config.replay_seconds_per_task * analyzed_tasks
        seconds = (
            hit_seconds
            if replay
            else self.config.analysis_seconds_per_task * analyzed_tasks
        )
        if self._recorder is not None:
            self._recorder.note_analysis(hit_seconds, missed=not replay)
        self.runtime.add_simulated_seconds(seconds)
        self.runtime.profiler.record_analysis_time(seconds)
        self.runtime.profiler.add_iteration_seconds(seconds)

    def _charge_compile_time(self, key: Optional[Hashable], seconds: float) -> None:
        if seconds <= 0.0:
            return
        if key is not None:
            if key in self._charged_compile_keys:
                return
            self._charged_compile_keys.add(key)
        self.runtime.add_simulated_seconds(seconds)
        self.runtime.profiler.record_compile_time(seconds)
        self.runtime.profiler.add_iteration_seconds(seconds)
