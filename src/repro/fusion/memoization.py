"""Memoization of the fusion analysis (paper Section 5.2).

Iterative applications issue the same *pattern* of tasks every iteration,
but over fresh temporary stores with fresh ids, so the raw task streams
are never identical.  Diffuse therefore memoizes the fusion analysis on a
canonical, alpha-equivalent representation of the task window: store ids
are replaced by De-Bruijn-style indices in order of first appearance, and
partitions by indices into the sequence of distinct partitions seen so
far.  Two windows with the same canonical form are isomorphic and receive
the same fusion decision (and the same compiled kernel, via the compiler
cache keyed by the same canonical form).

The canonical form also records, per store, whether the application holds
live references at analysis time — temporary-store elimination depends on
that liveness, so two windows that differ only in liveness must not share
a cached decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.config import hotpath_cache_enabled as _hotpath_cache_enabled
from repro.ir.partition import Partition
from repro.ir.task import IndexTask, stream_scalar_pattern


@dataclass(frozen=True)
class FusionDecision:
    """A memoized outcome of analysing one task window."""

    #: Number of leading tasks that fused (1 means the head task runs alone).
    prefix_length: int
    #: Canonical store indices of the stores demoted to temporaries.
    temporary_indices: Tuple[int, ...]
    #: Whether the prefix is executed as a fused task (False when the head
    #: task is opaque or the prefix degenerated to a single task).
    fused: bool


#: Attribute under which a task's canonical signature is cached.  A
#: task's arguments are immutable after construction, so the signature is
#: computed once per task no matter how many analysis rounds replay it
#: (store *liveness* is deliberately excluded — it changes over time and
#: is re-read on every canonicalisation).
_SIGNATURE_ATTR = "_memo_signature"

#: One cached argument: (store, store shape, partition, privilege value,
#: redop value or None).  The store and partition objects are kept so the
#: window canonicalisation can translate them to De-Bruijn indices and
#: query liveness without touching the task again.
TaskSignature = Tuple[str, Tuple[int, ...], Tuple[Tuple, ...], int]


def task_signature(task: IndexTask) -> TaskSignature:
    """The window-independent part of a task's canonical form, cached."""
    signature = getattr(task, _SIGNATURE_ATTR, None)
    if signature is None:
        signature = (
            task.task_name,
            task.launch_domain.shape,
            tuple(
                (
                    arg.store,
                    arg.store.shape,
                    arg.partition,
                    arg.privilege.value,
                    arg.redop.value if arg.redop is not None else None,
                )
                for arg in task.args
            ),
            len(task.scalar_args),
        )
        setattr(task, _SIGNATURE_ATTR, signature)
    return signature


def canonicalize_window(tasks: Sequence[IndexTask]) -> Tuple[Hashable, Dict[int, int]]:
    """The canonical form of a task window.

    Returns ``(key, store_index_map)`` where ``key`` is hashable and
    ``store_index_map`` maps store uids to their canonical indices (needed
    to translate a cached decision's temporary set back to real stores).

    Store uids are replaced by indices in order of first appearance and
    partitions by indices into a hash-keyed table of distinct partitions —
    partitions are small frozen value objects, so dict lookup replaces the
    quadratic equality scan without changing which partitions dedup.
    Per-task signatures are cached on the tasks themselves, so a replay
    round only pays for the window-dependent index translation.  Setting
    ``REPRO_HOTPATH_CACHE=0`` restores the seed canonicalisation path.
    """
    if not _hotpath_cache_enabled():
        return _canonicalize_window_uncached(tasks)
    store_indices: Dict[int, int] = {}
    partition_indices: Dict[Partition, int] = {}
    store_liveness: List[bool] = []

    canonical_tasks = []
    for task in tasks:
        name, domain_shape, args, scalar_count = task_signature(task)
        canonical_args = []
        for store, shape, partition, privilege, redop in args:
            index = store_indices.get(store.uid)
            if index is None:
                index = len(store_indices)
                store_indices[store.uid] = index
                store_liveness.append(store.has_live_application_references)
            partition_index = partition_indices.get(partition)
            if partition_index is None:
                partition_index = len(partition_indices)
                partition_indices[partition] = partition_index
            canonical_args.append((index, shape, partition_index, privilege, redop))
        canonical_tasks.append((name, domain_shape, tuple(canonical_args), scalar_count))
    # The *equality pattern* of the window's scalar operands (not the
    # values) is part of the key: fused-kernel composition deduplicates
    # scalar parameters that carry bit-identical values, so a cached
    # decision/kernel is only valid for windows with the same pattern.
    key = (
        tuple(canonical_tasks),
        tuple(store_liveness),
        stream_scalar_pattern(tasks),
    )
    return key, store_indices


def _canonicalize_window_uncached(
    tasks: Sequence[IndexTask],
) -> Tuple[Hashable, Dict[int, int]]:
    """The seed canonicalisation: no signature cache, linear-scan dedup."""
    store_indices: Dict[int, int] = {}
    partition_list: List[Partition] = []
    store_liveness: List[bool] = []

    def store_index(store) -> int:
        index = store_indices.get(store.uid)
        if index is None:
            index = len(store_indices)
            store_indices[store.uid] = index
            store_liveness.append(store.has_live_application_references)
        return index

    def partition_index(partition: Partition) -> int:
        for index, existing in enumerate(partition_list):
            if existing == partition:
                return index
        partition_list.append(partition)
        return len(partition_list) - 1

    canonical_tasks = []
    for task in tasks:
        canonical_args = tuple(
            (
                store_index(arg.store),
                arg.store.shape,
                partition_index(arg.partition),
                arg.privilege.value,
                arg.redop.value if arg.redop is not None else None,
            )
            for arg in task.args
        )
        canonical_tasks.append(
            (
                task.task_name,
                task.launch_domain.shape,
                canonical_args,
                len(task.scalar_args),
            )
        )
    key = (
        tuple(canonical_tasks),
        tuple(store_liveness),
        stream_scalar_pattern(tasks),
    )
    return key, store_indices


class MemoizationCache:
    """Maps canonical window forms to fusion decisions."""

    def __init__(self) -> None:
        self._decisions: Dict[Hashable, FusionDecision] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, key: Hashable) -> Optional[FusionDecision]:
        """The cached decision for a canonical window, if any."""
        decision = self._decisions.get(key)
        if decision is None:
            self.misses += 1
        else:
            self.hits += 1
        return decision

    def store(self, key: Hashable, decision: FusionDecision) -> None:
        """Record the decision for a canonical window."""
        self._decisions[key] = decision

    def __len__(self) -> int:
        return len(self._decisions)

    def clear(self) -> None:
        """Drop all cached decisions."""
        self._decisions.clear()
        self.hits = 0
        self.misses = 0


def resolve_temporaries(
    tasks: Sequence[IndexTask],
    store_index_map: Dict[int, int],
    temporary_indices: Sequence[int],
):
    """Translate canonical temporary indices back to store objects."""
    if not temporary_indices:
        return []
    wanted = set(temporary_indices)
    stores = []
    seen = set()
    for task in tasks:
        for store, _, _, _, _ in task_signature(task)[2]:
            index = store_index_map.get(store.uid)
            if index in wanted and store.uid not in seen:
                seen.add(store.uid)
                stores.append(store)
    # Preserve canonical ordering for determinism.
    stores.sort(key=lambda store: store_index_map[store.uid])
    return stores
