"""Coherence tracking and communication modelling.

Legion maintains coherence of distributed data by moving and invalidating
physical instances as tasks with different partitions and privileges touch
the same logical region.  The substrate models the *cost* of that data
movement: it tracks, per store, the partition through which the store was
last written (its "valid partition") and charges an alpha-beta
communication cost whenever a task reads the store through a different,
aliasing partition.

This is exactly the communication that limits task fusion in the paper —
e.g. the stencil's ``center[:] = work`` write forces halo exchanges before
the next iteration's reads of the ``north``/``south``/... views — so the
model charges the unfused and fused executions identically and the fusion
speedups come only from launch overheads and memory traffic, as in the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.config import hotpath_cache_enabled
from repro.ir.domain import Domain
from repro.ir.partition import Partition, Replication
from repro.ir.store import Store
from repro.ir.task import IndexTask
from repro.runtime.machine import MachineConfig


@dataclass
class StoreCoherenceState:
    """Per-store record of how the store's contents are currently laid out."""

    #: Partition through which the store was last written, or None when the
    #: store has never been written (or was written by the host).
    valid_partition: Optional[Partition] = None
    #: Launch domain of the writing task (needed to evaluate sub-stores).
    valid_domain: Optional[Domain] = None
    #: True when every GPU additionally holds a full replica (after a
    #: replicated read the copies stay valid until the next write).
    replicated: bool = False


def _halo_bytes(
    partition: Partition,
    valid_partition: Partition,
    valid_domain: Optional[Domain],
    launch_domain: Domain,
    store_shape: Tuple[int, ...],
    itemsize: int,
) -> Tuple[float, float]:
    """``(worst, total)`` bytes the GPUs of a re-tiled read must fetch.

    Each GPU fetches the part of its new sub-store not already present
    in its old one.  The volume is computed exactly by rectangle
    arithmetic over the launch domain; this is the simulator's job, not
    the scale-free analysis, so enumerating the (at most #GPUs) points
    is acceptable.
    """
    worst_bytes = 0.0
    total_bytes = 0.0
    for point in launch_domain.points():
        new_rect = partition.sub_store_rect(point, store_shape)
        if valid_domain is not None and valid_domain.contains(point):
            old_rect = valid_partition.sub_store_rect(point, store_shape)
            overlap = new_rect.intersection(old_rect).volume
        else:
            overlap = 0
        missing = max(0, new_rect.volume - overlap)
        missing_bytes = missing * itemsize
        worst_bytes = max(worst_bytes, missing_bytes)
        total_bytes += missing_bytes
    return worst_bytes, total_bytes


class CoherenceTracker:
    """Tracks store layouts and derives per-task communication costs."""

    def __init__(self, machine: MachineConfig) -> None:
        self.machine = machine
        self._states: Dict[int, StoreCoherenceState] = {}
        self.total_bytes_moved: float = 0.0
        #: New partition -> ``(the other arguments, result)`` of its last
        #: :func:`_halo_bytes`, a pure function.  The frontend interns
        #: partitions and launch domains and a shifted view is read
        #: against the same valid layout launch after launch, so one
        #: entry per partition — which also bounds the memo by the
        #: context's partition cache — answers a steady program.
        #: ``None`` on the seed path (``REPRO_HOTPATH_CACHE=0``), sampled
        #: once like the executor's rect-table cache.
        self._halo_memo: Optional[Dict[Partition, Tuple[Tuple, Tuple[float, float]]]] = (
            {} if hotpath_cache_enabled() else None
        )

    def state(self, store: Store) -> StoreCoherenceState:
        """The coherence state of a store (created on first access)."""
        existing = self._states.get(store.uid)
        if existing is None:
            existing = StoreCoherenceState()
            self._states[store.uid] = existing
        return existing

    def forget(self, store: Store) -> None:
        """Drop a dead store's layout (storage reclamation, ``runtime/trace.py``)."""
        self._states.pop(store.uid, None)

    def reset(self) -> None:
        """Forget all layouts (used between benchmark configurations)."""
        self._states.clear()
        self.total_bytes_moved = 0.0

    # ------------------------------------------------------------------
    # Cost model.
    # ------------------------------------------------------------------
    def communication_seconds(self, task: IndexTask) -> float:
        """Communication time implied by launching ``task``, then update state.

        The cost is the maximum over GPUs of the bytes each GPU must
        receive divided by the interconnect bandwidth (an alpha-beta
        model), summed over the task's store arguments.
        """
        total = 0.0
        for arg in task.args:
            state = self.state(arg.store)
            if arg.privilege.reads:
                total += self._read_cost(task, arg.store, arg.partition, state)
            if arg.privilege.reduces:
                total += self._reduction_cost(arg.store)
        # Writes update the valid layout after all reads are priced.
        for arg in task.args:
            if arg.privilege.writes or arg.privilege.reduces:
                state = self.state(arg.store)
                state.valid_partition = arg.partition
                state.valid_domain = task.launch_domain
                state.replicated = False
        return total

    def _read_cost(
        self,
        task: IndexTask,
        store: Store,
        partition: Partition,
        state: StoreCoherenceState,
    ) -> float:
        if self.machine.num_gpus <= 1:
            return 0.0
        if state.valid_partition is None:
            # Never written by a task: the data was produced by the host
            # (or a fill) and is assumed to already be distributed.
            return 0.0
        # Identity first: the frontend interns partitions, so the common
        # revalidation case compares equal without touching fields.
        if state.valid_partition is partition or state.valid_partition == partition:
            return 0.0
        if isinstance(partition, Replication):
            if state.replicated:
                return 0.0
            bytes_per_gpu = store.size_bytes / self.machine.num_gpus
            cost = self.machine.allgather_time(bytes_per_gpu)
            state.replicated = True
            self.total_bytes_moved += bytes_per_gpu * (self.machine.num_gpus - 1)
            return cost
        # Tiled read of data valid under a different tiling: a halo exchange.
        geometry = (
            state.valid_partition,
            state.valid_domain,
            task.launch_domain,
            store.shape,
            store.dtype.itemsize,
        )
        memo = self._halo_memo
        cached = None if memo is None else memo.get(partition)
        if cached is not None and cached[0] == geometry:
            worst_bytes, total_bytes = cached[1]
        else:
            worst_bytes, total_bytes = _halo_bytes(partition, *geometry)
            if memo is not None:
                memo[partition] = (geometry, (worst_bytes, total_bytes))
        if worst_bytes == 0.0:
            return 0.0
        self.total_bytes_moved += total_bytes
        return self.machine.point_to_point_time(worst_bytes)

    def _reduction_cost(self, store: Store) -> float:
        """Cost of folding per-GPU reduction contributions."""
        if self.machine.num_gpus <= 1:
            return 0.0
        if store.is_scalar:
            return self.machine.scalar_reduction_time()
        bytes_per_gpu = store.size_bytes / self.machine.num_gpus
        self.total_bytes_moved += bytes_per_gpu * (self.machine.num_gpus - 1)
        return self.machine.allreduce_time(bytes_per_gpu)

    # ------------------------------------------------------------------
    # Trace support: the per-epoch communication of a captured execution
    # plan is only valid while the stores enter the epoch in the same
    # layout, so the trace key embeds a snapshot of the entry states and
    # replay applies the captured exit states wholesale instead of
    # re-deriving them task by task.
    # ------------------------------------------------------------------
    def state_key(self, store: Store) -> Optional[Tuple]:
        """A hashable snapshot of the store's current layout.

        ``None`` for stores the tracker has never seen.  A tracked state
        with no valid partition and no replicas behaves identically to
        an untracked one for every cost decision, so it normalises to
        ``None`` as well — otherwise the trace key of an epoch would
        spuriously change between the first occurrence (stores unseen)
        and the second (default states created by pricing), costing one
        guaranteed extra re-record per application.
        """
        state = self._states.get(store.uid)
        if state is None:
            return None
        if state.valid_partition is None and not state.replicated:
            return None
        return (state.valid_partition, state.valid_domain, state.replicated)

    def apply_state_key(self, store: Store, key: Optional[Tuple]) -> None:
        """Restore a layout snapshot produced by :meth:`state_key`."""
        if key is None:
            self._states.pop(store.uid, None)
            return
        state = self.state(store)
        state.valid_partition, state.valid_domain, state.replicated = key

    def add_bytes_moved(self, bytes_moved: float) -> None:
        """Account data movement charged wholesale by a replayed plan."""
        self.total_bytes_moved += bytes_moved

    # ------------------------------------------------------------------
    # Host interactions.
    # ------------------------------------------------------------------
    def invalidate(self, store: Store) -> None:
        """Record a host-side write to the store (layout unknown)."""
        state = self.state(store)
        state.valid_partition = None
        state.valid_domain = None
        state.replicated = False
