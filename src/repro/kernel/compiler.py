"""The JIT compiler driver: compose, optimise, lower, cache.

The compiler is invoked by the fusion engine whenever it builds a fused
task (and, lazily, for single tasks executed through their generated
kernels).  It runs the pass pipeline, lowers the result to an executor,
derives the roofline cost descriptor, and caches the compiled kernel
under the canonical task-stream key provided by the memoization analysis
(paper Section 5.2).

Compilation *time* is part of the paper's evaluation (Figure 13).  We do
not run a real MLIR/LLVM backend, so the compiler charges an analytic
compile-time estimate — a fixed overhead per kernel plus a per-statement
cost — which the experiment harness uses to reproduce the warm-up and
break-even analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Tuple

from repro.ir.task import FusedTask, IndexTask
from repro.kernel.cost import KernelCost, analyze_kernel
from repro.kernel.generators import GeneratorRegistry, default_registry
from repro.kernel.kir import Assign, Function, Loop, Reduce
from repro.kernel.lowering import KernelExecutor, lower
from repro.kernel.passes.compose import (
    CompositionError,
    KernelBinding,
    compose_fused_task,
    compose_task,
)
from repro.kernel.passes.pipeline import PassPipeline, default_pipeline


@dataclass(frozen=True)
class CompileTimeModel:
    """Analytic model of JIT compilation latency.

    Calibrated so that applications with a few hundred fusible operations
    per iteration (TorchSWE) pay several seconds of warm-up compilation
    while micro-benchmarks pay tens of milliseconds, matching the orders
    of magnitude in paper Figure 13.
    """

    base_seconds: float = 0.020
    per_statement_seconds: float = 0.004
    per_loop_seconds: float = 0.010

    def estimate(self, function: Function) -> float:
        """Compile time of a composed (pre-optimisation) kernel."""
        statements = 0
        loops = 0
        for stmt in function.body:
            if isinstance(stmt, Loop):
                loops += 1
                statements += len(stmt.body)
        return self.base_seconds + self.per_statement_seconds * statements + self.per_loop_seconds * loops


@dataclass
class CompiledKernel:
    """A compiled kernel ready for execution by the runtime."""

    function: Function
    binding: KernelBinding
    executor: KernelExecutor
    cost: KernelCost
    compile_seconds: float
    fused_count: int
    cache_key: Optional[Hashable] = None

    @property
    def launches(self) -> int:
        """Kernel launches per point task."""
        return self.cost.launches

    @property
    def reduces(self) -> bool:
        """Whether the kernel returns reduction partials."""
        return any(loop.has_reduction for loop in self.cost.loops)

    def scratch_elements(self, block: int, tile: Optional[int] = None) -> int:
        """Elements of the scratch one call blocking at ``block`` (stacked
        at ``tile``) uses."""
        return self.executor.scratch_elements(block, tile)


@dataclass
class CompilerStats:
    """Counters describing compiler activity (used by Figure 13).

    Generated bodies compile lazily, on a kernel's first call; the
    builtin ``compile`` runs are counted process-wide by
    :func:`repro.kernel.codegen.codegen_stats`.
    """

    compilations: int = 0
    cache_hits: int = 0
    total_compile_seconds: float = 0.0

    def reset(self) -> None:
        self.compilations = 0
        self.cache_hits = 0
        self.total_compile_seconds = 0.0


class JITCompiler:
    """Compiles (fused) index tasks into executable kernels."""

    def __init__(
        self,
        registry: Optional[GeneratorRegistry] = None,
        pipeline: Optional[PassPipeline] = None,
        compile_time_model: Optional[CompileTimeModel] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.registry = registry or default_registry()
        self.pipeline = pipeline or default_pipeline()
        self.compile_time_model = compile_time_model or CompileTimeModel()
        #: Kernel execution backend; None defers to REPRO_KERNEL_BACKEND.
        self.backend = backend
        self.stats = CompilerStats()
        self._cache: Dict[Hashable, CompiledKernel] = {}

    # ------------------------------------------------------------------
    # Compilation entry points.
    # ------------------------------------------------------------------
    def can_compile(self, task: IndexTask) -> bool:
        """True when every constituent of the task has a kernel generator."""
        if isinstance(task, FusedTask):
            return all(self.can_compile(t) for t in task.constituents)
        return self.registry.has(task.task_name)

    def compile(
        self,
        task: IndexTask,
        cache_key: Optional[Hashable] = None,
        charge_compile_time: bool = True,
    ) -> CompiledKernel:
        """Compile ``task`` (fused or not) into an executable kernel.

        ``cache_key`` is the canonical task-stream key from the
        memoization analysis; compilation is skipped entirely on a cache
        hit.  ``charge_compile_time`` is False for the per-task kernels of
        the unfused execution path, which correspond to the libraries'
        pre-compiled task variants rather than JIT output.
        """
        if cache_key is not None and cache_key in self._cache:
            self.stats.cache_hits += 1
            return self._cache[cache_key]

        if isinstance(task, FusedTask):
            composed, binding = compose_fused_task(task, self.registry)
            fused_count = task.constituent_count()
        else:
            composed, binding = compose_task(task, self.registry)
            fused_count = 1

        compile_seconds = (
            self.compile_time_model.estimate(composed) if charge_compile_time else 0.0
        )
        optimized = self.pipeline.run(composed, binding)
        # The passes may scalarise or eliminate buffers; derive the access
        # metadata from the function that actually executes.
        binding.attach_function_metadata(optimized)
        executor = lower(optimized, binding, backend=self.backend)
        kernel = CompiledKernel(
            function=optimized,
            binding=binding,
            executor=executor,
            cost=analyze_kernel(optimized),
            compile_seconds=compile_seconds,
            fused_count=fused_count,
            cache_key=cache_key,
        )
        self.stats.compilations += 1
        self.stats.total_compile_seconds += compile_seconds
        if cache_key is not None:
            self._cache[cache_key] = kernel
        return kernel

    # ------------------------------------------------------------------
    # Cache management.
    # ------------------------------------------------------------------
    @property
    def cache_size(self) -> int:
        """Number of cached compiled kernels."""
        return len(self._cache)

    def clear_cache(self) -> None:
        """Drop all cached kernels (used between benchmark configurations)."""
        self._cache.clear()
