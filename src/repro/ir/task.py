"""Index tasks, point tasks and sub-stores (paper Section 3.2).

An :class:`IndexTask` describes a group of parallel *point tasks* launched
over a rectangular launch domain.  Each point task operates on the
sub-stores obtained by evaluating the task's partitions at its launch
point.  The index-task representation is scale free: it stores the launch
domain symbolically and never materialises the point tasks — those are
only constructed on demand (``point_task``) by the runtime substrate and
by tests that validate the scale-free analysis against a brute-force one.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ir.domain import Domain, Point, Rect, as_point
from repro.ir.future import Future, future_sources
from repro.ir.partition import Partition
from repro.ir.privilege import Privilege, ReductionOp, promote, validate_reduction
from repro.ir.store import Store

_task_ids = itertools.count()


@dataclass(frozen=True)
class StoreArg:
    """A single ``(store, partition, privilege)`` argument of an index task."""

    store: Store
    partition: Partition
    privilege: Privilege
    redop: Optional[ReductionOp] = None

    def __post_init__(self) -> None:
        validate_reduction(self.privilege, self.redop)

    @property
    def view(self) -> Tuple[Store, Partition]:
        """The distributed view ``(store, partition)`` accessed by the task."""
        return (self.store, self.partition)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"({self.store.name}, {self.partition}, {self.privilege})"


@dataclass(frozen=True)
class SubStore:
    """The subset of a store seen by one point of a partition's domain."""

    store: Store
    partition: Partition
    point: Point

    def rect(self) -> Rect:
        """The rectangle of the parent store covered by this sub-store."""
        return self.partition.sub_store_rect(self.point, self.store.shape)

    def intersects(self, other: "SubStore") -> bool:
        """True when two sub-stores of the *same parent store* overlap."""
        if self.store != other.store:
            return False
        return self.rect().overlaps(other.rect())

    @property
    def empty(self) -> bool:
        """True when the sub-store contains no elements."""
        return self.rect().empty


@dataclass(frozen=True)
class PointTask:
    """One point of an index task's launch domain (a concrete task)."""

    task: "IndexTask"
    point: Point

    def arguments(self) -> List[Tuple[SubStore, Privilege]]:
        """The sub-stores touched by this point task, with privileges."""
        return [
            (SubStore(arg.store, arg.partition, self.point), arg.privilege)
            for arg in self.task.args
        ]

    def reads(self, sub: SubStore) -> bool:
        """True when this point task reads the given sub-store."""
        return self._accesses(sub, lambda pr: pr.reads)

    def writes(self, sub: SubStore) -> bool:
        """True when this point task writes the given sub-store."""
        return self._accesses(sub, lambda pr: pr.writes)

    def reduces(self, sub: SubStore) -> bool:
        """True when this point task reduces to the given sub-store."""
        return self._accesses(sub, lambda pr: pr.reduces)

    def _accesses(self, sub: SubStore, predicate) -> bool:
        for own, privilege in self.arguments():
            if own.store == sub.store and predicate(privilege) and own.intersects(sub):
                return True
        return False


def scalar_bits(value: float) -> bytes:
    """The exact IEEE-754 bit pattern of a scalar operand.

    Used as the grouping key for value-based scalar canonicalisation:
    unlike ``==``, the bit pattern distinguishes ``-0.0`` from ``0.0``
    and never equates distinct NaNs, so two scalar positions are grouped
    only when substituting one for the other is bit-exact.
    """
    return struct.pack("<d", value)


def scalar_group_pattern(values: Iterable[float]) -> Tuple[int, ...]:
    """Group scalar operands by bit pattern in first-appearance order.

    The pattern — not the values — is embedded in the memoization and
    trace keys: iteration-dependent scalars (``alpha``/``beta``) keep
    hitting the caches as long as their *equality structure* is stable,
    while fused-kernel scalar deduplication stays sound because any
    stream whose equalities differ produces a different key.  A
    :class:`~repro.ir.future.Future` has no value yet: it is always a
    group of its own, and kernels never share its parameter.
    """
    groups: Dict[object, int] = {}
    pattern: List[int] = []
    for value in values:
        key = scalar_bits(value) if type(value) is not Future else object()
        index = groups.get(key)
        if index is None:
            index = len(groups)
            groups[key] = index
        pattern.append(index)
    return tuple(pattern)


def stream_scalar_pattern(tasks: Iterable) -> Tuple[int, ...]:
    """The scalar equality pattern of a task stream, in program order.

    ``tasks`` are index tasks or the deferred records standing for them
    (anything with ``scalar_args``).

    The single definition shared by the memoization window key and the
    trace stream key — the two must never diverge, or a replayed plan
    could bind a deduplicated scalar parameter to the wrong value.
    """
    return scalar_group_pattern(
        [value for task in tasks for value in task.scalar_args]
    )


class IndexTask:
    """A group of parallel point tasks over a launch domain.

    Parameters
    ----------
    task_name:
        Name of the operation, which doubles as the key into the kernel
        generator registry (paper Section 6.2).
    launch_domain:
        The rectangular domain of points over which point tasks are
        launched; normally one point per processor.
    args:
        Ordered ``(store, partition, privilege)`` arguments.  The order
        matches the parameter order expected by the kernel generator.
    scalar_args:
        Immediate scalar operands (e.g. the ``0.2`` in ``0.2 * avg``).
    """

    def __init__(
        self,
        task_name: str,
        launch_domain: Domain,
        args: Sequence[StoreArg],
        scalar_args: Sequence[float] = (),
        provenance: Optional[str] = None,
    ) -> None:
        self.uid = next(_task_ids)
        self.task_name = task_name
        self.launch_domain = launch_domain
        self.args: Tuple[StoreArg, ...] = tuple(args)
        self.scalar_args: Tuple[float, ...] = tuple(scalar_args)
        self.provenance = provenance

    # ------------------------------------------------------------------
    # Privilege predicates over distributed views (paper Section 3.2).
    # ------------------------------------------------------------------
    def reads(self, store: Store, partition: Optional[Partition] = None) -> bool:
        """R(T, (S, P)): the task reads the store (through ``partition``)."""
        return self._matches(store, partition, lambda pr: pr.reads)

    def writes(self, store: Store, partition: Optional[Partition] = None) -> bool:
        """W(T, (S, P)): the task writes the store (through ``partition``)."""
        return self._matches(store, partition, lambda pr: pr.writes)

    def reduces(self, store: Store, partition: Optional[Partition] = None) -> bool:
        """Rd(T, (S, P)): the task reduces to the store (through ``partition``)."""
        return self._matches(store, partition, lambda pr: pr.reduces)

    def _matches(self, store: Store, partition: Optional[Partition], predicate) -> bool:
        for arg in self.args:
            if arg.store != store:
                continue
            if partition is not None and arg.partition != partition:
                continue
            if predicate(arg.privilege):
                return True
        return False

    # ------------------------------------------------------------------
    # Store accessors.
    # ------------------------------------------------------------------
    def stores(self) -> Tuple[Store, ...]:
        """All distinct stores touched by the task, in argument order."""
        seen: Dict[int, Store] = {}
        for arg in self.args:
            seen.setdefault(arg.store.uid, arg.store)
        return tuple(seen.values())

    def views(self) -> Tuple[Tuple[Store, Partition, Privilege], ...]:
        """All ``(store, partition, privilege)`` triples of the task."""
        return tuple((arg.store, arg.partition, arg.privilege) for arg in self.args)

    def args_for_store(self, store: Store) -> Tuple[StoreArg, ...]:
        """All arguments referring to the given store."""
        return tuple(arg for arg in self.args if arg.store == store)

    # ------------------------------------------------------------------
    # Point tasks (constructed on demand; never stored).
    # ------------------------------------------------------------------
    def point_task(self, point: Sequence[int]) -> PointTask:
        """The point task at ``point`` of the launch domain."""
        point = as_point(point)
        if not self.launch_domain.contains(point):
            raise ValueError(f"{point} is outside launch domain {self.launch_domain}")
        return PointTask(task=self, point=point)

    def point_tasks(self) -> Iterable[PointTask]:
        """Iterate over every point task (brute force; for tests only)."""
        for point in self.launch_domain.points():
            yield PointTask(task=self, point=point)

    # ------------------------------------------------------------------
    # Misc.
    # ------------------------------------------------------------------
    @property
    def is_fused(self) -> bool:
        """True for tasks produced by the fusion engine."""
        return False

    def constituent_count(self) -> int:
        """Number of original library tasks this task stands for."""
        return 1

    def __repr__(self) -> str:
        arg_str = ", ".join(str(arg) for arg in self.args)
        return (
            f"IndexTask({self.task_name}, domain={self.launch_domain.shape}, "
            f"args=[{arg_str}])"
        )


class TaskSkeleton:
    """Everything a launch fixes besides its stores and scalars.

    The task name, the launch domain and one ``(partition, privilege,
    redop)`` per argument: the part of an :class:`IndexTask` that repeats
    from iteration to iteration.  The runtime context interns one
    skeleton per distinct shape, so a steady program's submissions share
    a handful of them; the trace layer keys a deferred task by its
    skeleton and argument slots.  Equal skeletons compare and hash
    equal, and the hash is computed once.
    """

    __slots__ = ("task_name", "launch_domain", "specs", "mutated", "_hash")

    def __init__(
        self,
        task_name: str,
        launch_domain: Domain,
        specs: Sequence[Tuple[Partition, Privilege, Optional[ReductionOp]]],
    ) -> None:
        specs = tuple(specs)
        for _partition, privilege, redop in specs:
            validate_reduction(privilege, redop)
        self.task_name = task_name
        self.launch_domain = launch_domain
        self.specs = specs
        #: Positions of the arguments the launch writes or reduces into.
        self.mutated = tuple(
            index
            for index, (_partition, privilege, _redop) in enumerate(specs)
            if privilege.writes or privilege.reduces
        )
        self._hash = hash((task_name, launch_domain, specs))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TaskSkeleton):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.task_name == other.task_name
            and self.launch_domain == other.launch_domain
            and self.specs == other.specs
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"TaskSkeleton({self.task_name}, domain={self.launch_domain.shape})"


class DeferredTask:
    """One submitted launch: a skeleton, its stores and its scalars.

    What the frontends submit and the deferred task stream buffers.  The
    :class:`IndexTask` it stands for — one :class:`StoreArg` per
    ``(store, spec)`` pair — is built by :meth:`task` only where a
    pipeline needs it: an epoch that misses the trace cache, an untraced
    engine, or the unfused baseline.  A replayed epoch reads the stores
    and scalars straight off the record.

    ``sources`` are the stores the futures among the scalars read
    (:func:`~repro.ir.future.future_sources`): the launch observes them
    although they are none of its arguments.
    """

    __slots__ = ("skeleton", "stores", "scalar_args", "sources")

    def __init__(
        self,
        skeleton: TaskSkeleton,
        stores: Tuple[Store, ...],
        scalar_args: Tuple[float, ...] = (),
    ) -> None:
        self.skeleton = skeleton
        self.stores = stores
        self.scalar_args = scalar_args
        self.sources = future_sources(scalar_args) if scalar_args else ()

    @classmethod
    def of(cls, task: IndexTask) -> "DeferredTask":
        """The record of an index task built by hand (an uninterned skeleton)."""
        skeleton = TaskSkeleton(
            task.task_name,
            task.launch_domain,
            [(arg.partition, arg.privilege, arg.redop) for arg in task.args],
        )
        return cls(skeleton, tuple(arg.store for arg in task.args), task.scalar_args)

    def task(self) -> IndexTask:
        """The index task this record stands for."""
        skeleton = self.skeleton
        return IndexTask(
            skeleton.task_name,
            skeleton.launch_domain,
            [
                StoreArg(store, partition, privilege, redop)
                for store, (partition, privilege, redop) in zip(self.stores, skeleton.specs)
            ],
            self.scalar_args,
        )


class FusedTask(IndexTask):
    """An index task standing for a fused prefix of the task window.

    The fused task's arguments are the union of the constituent tasks'
    arguments with privileges promoted (a store both read and written
    becomes Read-Write), except for stores identified as temporaries,
    which are dropped from the argument list entirely and demoted to
    task-local allocations by the kernel compiler (paper Sections 4.2.2
    and 5.1).
    """

    def __init__(
        self,
        constituents: Sequence[IndexTask],
        args: Sequence[StoreArg],
        temporary_stores: Sequence[Store] = (),
        task_name: Optional[str] = None,
    ) -> None:
        if not constituents:
            raise ValueError("a fused task needs at least one constituent")
        name = task_name or "fused_" + "_".join(t.task_name for t in constituents)
        super().__init__(
            task_name=name,
            launch_domain=constituents[0].launch_domain,
            args=args,
            scalar_args=tuple(
                scalar for task in constituents for scalar in task.scalar_args
            ),
        )
        self.constituents: Tuple[IndexTask, ...] = tuple(constituents)
        self.temporary_stores: Tuple[Store, ...] = tuple(temporary_stores)

    @property
    def is_fused(self) -> bool:
        return True

    def constituent_count(self) -> int:
        return sum(task.constituent_count() for task in self.constituents)

    def __repr__(self) -> str:
        names = [t.task_name for t in self.constituents]
        return (
            f"FusedTask({names}, domain={self.launch_domain.shape}, "
            f"temporaries={[s.name for s in self.temporary_stores]})"
        )


def combine_arguments(
    tasks: Sequence[IndexTask],
    temporaries: Sequence[Store] = (),
) -> List[StoreArg]:
    """Build the argument list of a fused task (paper Section 4.2.2).

    Arguments of the constituent tasks are merged per ``(store,
    partition)`` view.  Privileges are promoted: a view that is read by one
    task and written by another gets Read-Write.  Views of temporary stores
    are excluded — they become task-local allocations inside the fused
    kernel.
    """
    temp_ids = {store.uid for store in temporaries}
    merged: Dict[Tuple[int, Partition], StoreArg] = {}
    order: List[Tuple[int, Partition]] = []
    for task in tasks:
        for arg in task.args:
            if arg.store.uid in temp_ids:
                continue
            key = (arg.store.uid, arg.partition)
            if key not in merged:
                merged[key] = arg
                order.append(key)
                continue
            existing = merged[key]
            if existing.privilege == arg.privilege and existing.redop == arg.redop:
                continue
            privilege = promote(existing.privilege, arg.privilege)
            merged[key] = StoreArg(
                store=existing.store,
                partition=existing.partition,
                privilege=privilege,
                redop=None,
            )
    return [merged[key] for key in order]
