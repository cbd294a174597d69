"""The runtime context connecting frontends to Diffuse and the runtime.

The context plays the role of the Legate core runtime in the paper's
software stack: it owns the store manager, decides launch domains, and
routes the index tasks emitted by the frontends either through the
Diffuse fusion layer (the "Fused" configuration) or directly to the
Legion-like runtime (the "Unfused" baseline).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.config import hotpath_cache_enabled
from repro.ir.domain import Domain, Rect, factor_domain, tile_shape_for
from repro.ir.partition import Partition, Replication, Tiling
from repro.ir.projection import promote_dimension
from repro.ir.store import Store, StoreManager
from repro.ir.privilege import Privilege, ReductionOp
from repro.ir.task import DeferredTask, TaskSkeleton
from repro.fusion.engine import DiffuseRuntime, FusionConfig
from repro.kernel.generators import GeneratorRegistry, default_registry
from repro.runtime.machine import MachineConfig
from repro.runtime.opaque import OpaqueTaskRegistry, default_opaque_registry
from repro.runtime.runtime import LegionRuntime


#: Replication is a value with no parameters: one instance serves all.
_REPLICATION = Replication()


class RuntimeContext:
    """Owns the runtime stack and issues index tasks for the frontends."""

    def __init__(
        self,
        num_gpus: int = 1,
        fusion: bool = True,
        machine: Optional[MachineConfig] = None,
        fusion_config: Optional[FusionConfig] = None,
        generator_registry: Optional[GeneratorRegistry] = None,
        opaque_registry: Optional[OpaqueTaskRegistry] = None,
    ) -> None:
        self.machine = machine or MachineConfig(num_gpus=num_gpus)
        self.stores = StoreManager()
        self.legion = LegionRuntime(
            machine=self.machine,
            generator_registry=generator_registry,
            opaque_registry=opaque_registry,
        )
        self.fusion_enabled = fusion
        # Copy the caller's config: mutating it in place would alias
        # fusion state across every context sharing the object (e.g. the
        # fused and unfused runs of a benchmark sweep).
        if fusion_config is not None:
            config = replace(fusion_config, enable_fusion=fusion)
        else:
            config = FusionConfig(enable_fusion=fusion)
        self.diffuse = DiffuseRuntime(
            runtime=self.legion,
            config=config,
            generator_registry=generator_registry,
        )
        # Partition descriptions are pure values derived from (shape,
        # offset, launch domain); intern them so the thousands of array
        # ops an application issues per iteration share one object per
        # distinct tiling instead of rebuilding it on every task.
        # REPRO_HOTPATH_CACHE=0 restores the seed behaviour (see
        # repro.config), sampled once per context like the executor does.
        self._intern_partitions = hotpath_cache_enabled()
        self._partition_cache: Dict[tuple, Partition] = {}
        self._launch_domain_cache: Dict[int, Domain] = {}
        #: ``(task name, launch domain, specs)`` -> its one skeleton
        #: (:meth:`skeleton`); bounded, like the partition cache, by the
        #: program's distinct launch shapes.
        self._skeletons: Dict[tuple, TaskSkeleton] = {}

    # ------------------------------------------------------------------
    # Launch-domain and partition policy (mirrors cuPyNumeric's blocking).
    # ------------------------------------------------------------------
    @property
    def num_gpus(self) -> int:
        """Number of GPUs the context launches tasks over."""
        return self.machine.num_gpus

    def launch_domain(self, ndim: int) -> Domain:
        """The launch domain used for arrays of the given dimensionality."""
        if not self._intern_partitions:
            return Domain((1,)) if ndim == 0 else factor_domain(self.num_gpus, ndim)
        domain = self._launch_domain_cache.get(ndim)
        if domain is None:
            domain = Domain((1,)) if ndim == 0 else factor_domain(self.num_gpus, ndim)
            self._launch_domain_cache[ndim] = domain
        return domain

    def natural_partition(
        self,
        store: Store,
        view_offset: Optional[Sequence[int]] = None,
        view_shape: Optional[Sequence[int]] = None,
    ) -> Partition:
        """The blocked tiling cuPyNumeric would use for a (view of a) store.

        For a view that covers the whole store the partition is the plain
        natural tiling; for an offset view the tiling carries the view's
        offset and bounds so aliasing views of the same store compare
        unequal (which is what the fusion constraints key on).
        """
        shape = tuple(view_shape) if view_shape is not None else store.shape
        offset = tuple(view_offset) if view_offset is not None else (0,) * store.ndim
        if store.ndim == 0 or store.volume <= 1:
            return _REPLICATION
        key = ("natural", store.shape, shape, offset)
        partition = self._partition_cache.get(key) if self._intern_partitions else None
        if partition is None:
            launch = self.launch_domain(len(shape))
            tile = tile_shape_for(shape, launch)
            if offset == (0,) * store.ndim and shape == store.shape:
                partition = Tiling.create(tile)
            else:
                bounds = Rect(offset, tuple(o + s for o, s in zip(offset, shape)))
                partition = Tiling.create(tile, offset=offset, bounds=bounds)
            if self._intern_partitions:
                self._partition_cache[key] = partition
        return partition

    def row_partition(self, store: Store, rows: int) -> Partition:
        """Partition a 2-D store by blocks of rows over a 1-D launch domain.

        Used for dense matrices in mat-vec products, where the launch
        domain is that of the 1-D result vector.
        """
        key = ("rows", store.shape, rows)
        partition = self._partition_cache.get(key) if self._intern_partitions else None
        if partition is None:
            launch = self.launch_domain(1)
            row_tile = -(-rows // launch.shape[0])
            tile = (row_tile,) + store.shape[1:]
            partition = Tiling.create(tile, projection=promote_dimension(0, store.ndim))
            if self._intern_partitions:
                self._partition_cache[key] = partition
        return partition

    def replication(self) -> Partition:
        """A replication partition (every GPU sees the whole store)."""
        return _REPLICATION

    # ------------------------------------------------------------------
    # Store management.
    # ------------------------------------------------------------------
    def create_store(self, shape: Sequence[int], name: Optional[str] = None) -> Store:
        """Create a distributed store."""
        return self.stores.create_store(shape, name=name)

    def create_scalar_store(self, name: Optional[str] = None) -> Store:
        """Create a scalar (future-like) store."""
        return self.stores.create_scalar_store(name=name)

    def attach(self, store: Store, data: np.ndarray) -> None:
        """Attach host data to a store (not a task launch)."""
        self.diffuse.notify_host_write(store)
        self.legion.attach_array(store, data)

    # ------------------------------------------------------------------
    # Task issue.
    # ------------------------------------------------------------------
    def skeleton(
        self,
        task_name: str,
        launch_domain: Domain,
        specs: Tuple[Tuple[Partition, Privilege, Optional[ReductionOp]], ...],
    ) -> TaskSkeleton:
        """The skeleton of a launch: one ``(partition, privilege, redop)``
        per argument, in the kernel generator's parameter order.

        Interned, so a steady program's launches share one skeleton per
        shape; built afresh per call on the seed path
        (``REPRO_HOTPATH_CACHE=0``), like its partitions.
        """
        if not self._intern_partitions:
            return TaskSkeleton(task_name, launch_domain, specs)
        key = (task_name, launch_domain, specs)
        skeleton = self._skeletons.get(key)
        if skeleton is None:
            skeleton = self._skeletons[key] = TaskSkeleton(task_name, launch_domain, specs)
        return skeleton

    def submit(
        self,
        skeleton: TaskSkeleton,
        stores: Tuple[Store, ...],
        scalar_args: Tuple[float, ...] = (),
    ) -> None:
        """Submit one launch in program order: ``stores`` bind the
        skeleton's arguments position by position; a scalar may be a
        future (``repro.ir.future``), resolved when the launch runs."""
        self.diffuse.submit(DeferredTask(skeleton, stores, scalar_args))

    def flush(self) -> None:
        """Flush the Diffuse task window."""
        self.diffuse.flush_window()

    def read_scalar(self, store: Store) -> float:
        """Blocking read of a scalar store (forces a flush)."""
        return self.diffuse.read_scalar(store)

    def read_future(self, future) -> float:
        """Blocking host read of a future (forces a flush)."""
        self.flush()
        return future.evaluate(self.legion.read_scalar)

    def read_array(self, store: Store) -> np.ndarray:
        """Blocking read of a full store (forces a flush)."""
        return self.diffuse.read_array(store)

    def begin_iteration(self) -> None:
        """Mark an application iteration boundary for profiling."""
        self.diffuse.begin_iteration()

    # ------------------------------------------------------------------
    # Profiling access for the experiment harness.
    # ------------------------------------------------------------------
    @property
    def profiler(self):
        """The runtime profiler."""
        return self.legion.profiler

    @property
    def simulated_seconds(self) -> float:
        """Total simulated execution time so far."""
        return self.legion.simulated_seconds


# ----------------------------------------------------------------------
# Module-level current context (cuPyNumeric-style implicit runtime).
# ----------------------------------------------------------------------
_current_context: Optional[RuntimeContext] = None


def set_context(context: Optional[RuntimeContext]) -> None:
    """Install ``context`` as the current runtime context."""
    global _current_context
    _current_context = context


def get_context() -> RuntimeContext:
    """The current runtime context (created on demand with defaults)."""
    global _current_context
    if _current_context is None:
        _current_context = RuntimeContext()
    return _current_context


@contextlib.contextmanager
def runtime_context(**kwargs):
    """Context manager installing a fresh runtime context.

    >>> with runtime_context(num_gpus=4, fusion=True) as ctx:
    ...     ...
    """
    previous = _current_context
    context = RuntimeContext(**kwargs)
    set_context(context)
    try:
        yield context
    finally:
        set_context(previous)
