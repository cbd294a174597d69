"""The Legion-like runtime: the layer below Diffuse.

The runtime resolves index tasks (fused or not) — the communication each
launch implies, the kernel or opaque operator that runs it — and executes
the unfused baseline's launches, recording analytically-modelled timings
in the profiler; a fused epoch runs as a plan (``runtime/scheduler.py``).
It is deliberately ignorant of fusion, as in the paper's architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

import numpy as np

from repro.ir.store import Store
from repro.ir.task import IndexTask
from repro.kernel.compiler import CompiledKernel, JITCompiler
from repro.kernel.generators import GeneratorRegistry, default_registry
from repro.runtime import telemetry
from repro.runtime.coherence import CoherenceTracker
from repro.runtime.executor import TaskExecutor
from repro.runtime.machine import MachineConfig
from repro.runtime.opaque import OpaqueTaskImpl, OpaqueTaskRegistry, default_opaque_registry
from repro.runtime.profiler import Profiler
from repro.runtime.region import RegionManager


class UnexecutableTaskError(RuntimeError):
    """Raised when a task has neither a kernel generator nor an opaque impl."""


@dataclass
class ResolvedLaunch:
    """A task whose execution resources and charges are fully resolved.

    Splitting :meth:`LegionRuntime.submit` into *resolve* (coherence
    pricing, kernel/opaque-impl selection) and *execute* lets an
    :class:`~repro.runtime.trace.ExecutionPlan` drive execution directly:
    a fused engine's window rounds only resolve, the epoch's recorder
    turns the launches into a plan, and the plan runs them (its replays
    skip resolution entirely).
    """

    task: IndexTask
    communication_seconds: float
    #: Compiled kernel, or None for opaque execution.
    kernel: Optional[CompiledKernel]
    #: Opaque implementation, or None for compiled execution.
    opaque_impl: Optional[OpaqueTaskImpl]


class LegionRuntime:
    """Executes index tasks against the simulated machine."""

    def __init__(
        self,
        machine: Optional[MachineConfig] = None,
        generator_registry: Optional[GeneratorRegistry] = None,
        opaque_registry: Optional[OpaqueTaskRegistry] = None,
    ) -> None:
        self.machine = machine or MachineConfig()
        self.profiler = Profiler()
        self.regions = RegionManager(self.profiler)
        self.coherence = CoherenceTracker(self.machine)
        self.executor = TaskExecutor(self.regions, self.machine, self.profiler)
        self.opaque_registry = opaque_registry or default_opaque_registry()
        # Per-task kernels correspond to the libraries' pre-compiled task
        # variants; their compilation is not charged to the application.
        self._task_variant_compiler = JITCompiler(
            registry=generator_registry or default_registry()
        )
        self._task_variant_cache: Dict[Hashable, CompiledKernel] = {}
        self.simulated_seconds: float = 0.0
        self._plan_scheduler = None

    @property
    def plan_scheduler(self):
        """The dependence-partitioned plan scheduler (created lazily)."""
        if self._plan_scheduler is None:
            from repro.runtime.scheduler import PlanScheduler

            self._plan_scheduler = PlanScheduler(self)
        return self._plan_scheduler

    # ------------------------------------------------------------------
    # Task submission.
    # ------------------------------------------------------------------
    def resolve(
        self, task: IndexTask, compiled: Optional[CompiledKernel] = None
    ) -> ResolvedLaunch:
        """Price the task's communication and select its execution vehicle."""
        communication = self.coherence.communication_seconds(task)
        if compiled is not None:
            return ResolvedLaunch(task, communication, kernel=compiled, opaque_impl=None)
        if self._task_variant_compiler.can_compile(task):
            kernel = self._task_variant_kernel(task)
            return ResolvedLaunch(task, communication, kernel=kernel, opaque_impl=None)
        if self.opaque_registry.has(task.task_name):
            impl = self.opaque_registry.get(task.task_name)
            return ResolvedLaunch(task, communication, kernel=None, opaque_impl=impl)
        raise UnexecutableTaskError(
            f"task '{task.task_name}' has neither a kernel generator nor an "
            "opaque implementation"
        )

    def execute_resolved(self, launch: ResolvedLaunch) -> float:
        """Execute a resolved launch of the unfused engine, as one inline
        chunk, and account it; returns the simulated seconds it took."""
        task = launch.task
        with telemetry.span(
            "task.execute",
            f"{task.task_name} points={task.launch_domain.volume}"
            if telemetry.enabled()
            else "",
            sim=self.simulated_seconds,
        ):
            if launch.kernel is not None:
                kernel_seconds = self.executor.execute_compiled(task, launch.kernel)
                launches = launch.kernel.launches
            else:
                kernel_seconds = self.executor.execute_opaque(task, launch.opaque_impl)
                launches = 1

        record = self.profiler.record_task(
            name=task.task_name,
            constituents=task.constituent_count(),
            kernel_seconds=kernel_seconds,
            communication_seconds=launch.communication_seconds,
            overhead_seconds=self.machine.task_launch_overhead,
            launches=launches,
            fused=task.is_fused,
        )
        self.simulated_seconds += record.total_seconds
        return record.total_seconds

    def submit(self, task: IndexTask, compiled: Optional[CompiledKernel] = None) -> float:
        """Resolve and execute a task; returns the simulated seconds it took."""
        return self.execute_resolved(self.resolve(task, compiled))

    def _task_variant_kernel(self, task: IndexTask) -> CompiledKernel:
        # The kernel binding depends on which arguments alias the same
        # (store, partition) view — e.g. ``dot(r, r)`` and ``dot(p, q)``
        # need different bindings — so the cache key includes the
        # aliasing pattern of the argument list, not just its length.
        views = []
        pattern = []
        for arg in task.args:
            view = (arg.store.uid, arg.partition)
            for position, existing in enumerate(views):
                if existing == view:
                    pattern.append(position)
                    break
            else:
                pattern.append(len(views))
                views.append(view)
        key = (task.task_name, tuple(pattern), len(task.scalar_args))
        kernel = self._task_variant_cache.get(key)
        if kernel is None:
            kernel = self._task_variant_compiler.compile(task, charge_compile_time=False)
            self._task_variant_cache[key] = kernel
        return kernel

    # ------------------------------------------------------------------
    # Host-side data access (futures, attach/detach).
    # ------------------------------------------------------------------
    def read_scalar(self, store: Store) -> float:
        """Read the value of a scalar store (blocking on a future)."""
        return self.regions.field(store).read_scalar()

    def write_scalar(self, store: Store, value: float) -> None:
        """Write a scalar store from the host."""
        self.regions.field(store).write_scalar(value)
        self.coherence.invalidate(store)

    def attach_array(self, store: Store, data: np.ndarray) -> None:
        """Attach host data as the contents of a store."""
        self.regions.attach(store, data)
        self.coherence.invalidate(store)

    def read_array(self, store: Store) -> np.ndarray:
        """A copy of the store's full contents (host-side inspection)."""
        return np.array(self.regions.field(store).data, copy=True)

    def fill(self, store: Store, value: float) -> None:
        """Host-side constant fill of a store (no task launch)."""
        self.regions.field(store).fill(value)
        self.coherence.invalidate(store)

    # ------------------------------------------------------------------
    # Accounting helpers.
    # ------------------------------------------------------------------
    def add_simulated_seconds(self, seconds: float) -> None:
        """Attribute extra simulated time (e.g. JIT compilation)."""
        self.simulated_seconds += seconds

    def reset_profiling(self) -> None:
        """Clear profiling and timing state but keep data and coherence."""
        self.profiler.reset()
        self.simulated_seconds = 0.0
