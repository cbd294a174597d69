"""Region fields: backing storage for stores.

Legion stores data in *physical instances* of logical regions.  The
substrate keeps a single NumPy array per store (the simulator has one
address space) and hands out views of sub-store rectangles to point
tasks.  Placement and data movement are modelled analytically by the
coherence tracker rather than by physically copying data between
per-processor buffers — the functional result is identical and the
performance model is what the benchmarks measure.

With ``REPRO_POINT_WORKERS`` > 1 the backing arrays are allocated
inside a shared-memory arena (``runtime/shm.py``) instead of private
heap pages: the array semantics in this process are unchanged (``data``
is a view of the segment), and every field additionally carries a
picklable block descriptor that the process pool ships to workers so
point-task chunks in other processes map the same physical pages —
zero-copy in both directions.  Every level frame carries its fields'
current descriptors, so replacing a field (:meth:`RegionManager.attach`)
or freeing one (:meth:`RegionManager.reclaim_storage`) leaves the plans
the workers hold valid.  The arena is owned per region manager
and unlinked when the manager is garbage collected or the interpreter
exits, so runs never leak ``/dev/shm`` segments.
"""

from __future__ import annotations

import ctypes
import threading
import weakref
from typing import Dict, Optional

import numpy as np

from repro import config
from repro.ir.domain import Rect
from repro.ir.store import Store
from repro.runtime.shm import BlockDescriptor, SharedArena

#: The allocator policy: glibc ``mallopt(parameter, value)`` pairs
#: (parameter numbers from ``malloc.h``).
_MALLOPT_POLICY = (
    (-1, 1 << 30),  # M_TRIM_THRESHOLD: keep up to 1 GiB of freed heap top
    (-3, 32 << 20),  # M_MMAP_THRESHOLD: blocks below 32 MiB (glibc's limit) stay on the heap
)


def _keep_freed_memory_mapped() -> bool:
    """Stop the allocator handing array memory back to the OS.

    glibc trims the heap top and unmaps every block of 128 KiB or more
    on ``free``, so each whole-tile temporary and each fresh region
    field is page-faulted in again on its next use — whether a given
    phase pays depends on incidental heap layout, which made identical
    commits measure 2x apart.  Legion reserves its instance pools at
    start-up and never returns them; this is the same policy for the
    one address space of the simulator: freed blocks up to tens of MiB
    stay mapped and are reused.  Pinned once, here, where region storage
    is created (forked pool workers inherit it); a silent no-op on
    platforms whose C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(parameter, value) == 1 for parameter, value in _MALLOPT_POLICY)


#: Whether the policy took (the allocator tests skip where it did not).
KEEPS_FREED_MEMORY_MAPPED = _keep_freed_memory_mapped()


class RegionField:
    """The backing NumPy array of one store.

    Sub-store views are memoized per rectangle: point tasks of every
    launch touching this store ask for the same handful of rectangles
    over and over (one per launch point), and NumPy basic slicing always
    returns a *view* of ``data``, so a cached view observes every write
    exactly like a freshly-sliced one.  ``data`` is never rebound after
    construction (``RegionManager.attach`` swaps in a whole new field
    instead), so in-place mutation — kernel writes, :meth:`fill` — keeps
    cached views valid by construction; any future code that does rebind
    ``data`` must call :meth:`invalidate_views`.

    When an ``arena`` is supplied the backing array lives in a
    shared-memory block and :attr:`shm_descriptor` addresses it for
    worker processes; otherwise the field is a plain private array and
    the descriptor is ``None`` (launches touching such fields run their
    rank chunks inline).

    The one allocation site of region storage.  The contract is that no
    element is observable before it is written and an element nothing
    wrote reads zero, so storage is zero-filled unless it is about to be
    overwritten whole: by ``initial``, or — ``uninitialised`` — by the
    launch it is allocated for (``RegionManager.field`` has the rule).
    """

    def __init__(
        self,
        store: Store,
        initial: Optional[np.ndarray] = None,
        arena: Optional[SharedArena] = None,
        uninitialised: bool = False,
    ) -> None:
        self.store = store
        self.shm_descriptor: Optional[BlockDescriptor] = None
        self._arena = arena
        if initial is not None:
            initial = np.asarray(initial, dtype=store.dtype)
            if tuple(initial.shape) != store.shape:
                raise ValueError(
                    f"initial data shape {initial.shape} does not match store "
                    f"shape {store.shape}"
                )
        zero = initial is None and not uninitialised
        if arena is not None:
            self.data, self.shm_descriptor = arena.allocate(
                store.shape, store.dtype, zero
            )
        else:
            self.data = (np.zeros if zero else np.empty)(store.shape, dtype=store.dtype)
        if initial is not None:
            self.data[...] = initial
        self._view_cache: Dict[Rect, np.ndarray] = {}

    def view(self, rect: Rect) -> np.ndarray:
        """A mutable NumPy view of the given rectangle of the region.

        Thread-safe under concurrent plan-scheduler workers: the cache is
        populated with ``setdefault`` (atomic in CPython), so all callers
        observe one canonical view object per rectangle — which keeps
        ``id()``-keyed downstream caches (e.g. the SpMV row plans) stable.
        """
        cached = self._view_cache.get(rect)
        if cached is None:
            cached = self._view_cache.setdefault(rect, self.data[rect.slices()])
        return cached

    def invalidate_views(self) -> None:
        """Drop all cached sub-store views."""
        self._view_cache.clear()

    def release_storage(self) -> None:
        """Return a shared-memory block to its arena (no-op otherwise)."""
        if self._arena is not None and self.shm_descriptor is not None:
            # Drop the views first: a recycled block must not be written
            # through a stale cached view of the retired field.
            self.invalidate_views()
            descriptor, self.shm_descriptor = self.shm_descriptor, None
            self._arena.release(descriptor)

    def read_scalar(self) -> float:
        """The value of a rank-0 / single-element region."""
        return float(self.data.reshape(-1)[0])

    def write_scalar(self, value: float) -> None:
        """Overwrite the value of a rank-0 / single-element region."""
        flat = self.data.reshape(-1)
        flat[0] = value

    def fill(self, value: float) -> None:
        """Fill the whole region with a constant."""
        self.data.fill(value)


class RegionManager:
    """Allocates and tracks the region field of every store."""

    def __init__(self, profiler=None) -> None:
        self._fields: Dict[int, RegionField] = {}
        #: Told of every first-use allocation (``record_field_allocation``).
        self._profiler = profiler
        # First-use allocation must be serialised: two plan-scheduler
        # workers racing to create the same field would otherwise write
        # through different backing arrays.
        self._allocate_lock = threading.Lock()
        self._arena: Optional[SharedArena] = None
        self._arena_finalizer = None

    # ------------------------------------------------------------------
    # Shared-memory arena (point dispatch to worker processes).
    # ------------------------------------------------------------------
    @property
    def arena(self) -> Optional[SharedArena]:
        """The manager's shared arena, if any field has needed one."""
        return self._arena

    def _field_arena(self) -> Optional[SharedArena]:
        """The arena new fields allocate from (``None`` ⇒ private heap).

        Created lazily on the first allocation while
        ``REPRO_POINT_WORKERS`` > 1; a ``weakref.finalize`` hook unlinks
        its segments when the manager is collected or the interpreter
        exits.  Callers hold ``_allocate_lock``.
        """
        if config.point_worker_count() <= 1:
            return None
        if self._arena is None or self._arena.closed:
            arena = SharedArena()
            self._arena = arena
            self._arena_finalizer = weakref.finalize(
                self, SharedArena.close, arena
            )
        return self._arena

    def close_arena(self) -> None:
        """Unlink the manager's segments now (tests / explicit teardown)."""
        if self._arena_finalizer is not None:
            self._arena_finalizer()
            self._arena_finalizer = None
        self._arena = None

    # ------------------------------------------------------------------
    def field(self, store: Store, uninitialised: bool = False) -> RegionField:
        """The region field of ``store``, allocated on first use.

        A fresh field is zero-filled: host reads, scalar reads and
        writes, reduction folds, opaque operators (stencils write
        interiors only) and every launch that reads a store before
        writing it, or writes only part of it (``y[1:] = x[:-1]`` on a
        fresh ``y``), observe zeros where nothing wrote.
        ``uninitialised`` skips the fill and is only consulted when this
        call allocates.  A launch passes it when all of: (1) it runs a
        compiled kernel; (2) in the kernel's optimised KIR the buffer is
        assigned before anything loads it or reduces into it
        (``kir.buffers_defined_first``); (3) the argument's interned
        rect table covers the store (``RectTable.covers``) and is the
        launch's only view of it (``TaskExecutor.defines_store``).
        Replayed plans carry the verdict per slot, decided at capture.
        """
        existing = self._fields.get(store.uid)
        if existing is None:
            with self._allocate_lock:
                existing = self._fields.get(store.uid)
                if existing is None:
                    existing = RegionField(
                        store, arena=self._field_arena(), uninitialised=uninitialised
                    )
                    self._fields[store.uid] = existing
                    if self._profiler is not None:
                        self._profiler.record_field_allocation(uninitialised)
        return existing

    def attach(self, store: Store, data: np.ndarray) -> RegionField:
        """Attach externally-produced data as the store's region field.

        Serialised with first-use allocation so a point-dispatch or
        plan-scheduler worker racing :meth:`field` never observes a
        half-installed replacement (attach itself only happens at host
        synchronisation points, which drain both dispatch levels first).
        The replaced field's storage is freed; resident process plans
        are unaffected, since their templates hold no field address and
        every level frame syncs the fields' current descriptors.
        """
        with self._allocate_lock:
            field = RegionField(store, initial=data, arena=self._field_arena())
            replaced = self._fields.get(store.uid)
            self._fields[store.uid] = field
        if replaced is not None:
            replaced.release_storage()
        return field

    def has_field(self, store: Store) -> bool:
        """True when backing storage for the store has been allocated."""
        return store.uid in self._fields

    def reclaim_storage(self, store: Store) -> bool:
        """Free a store's backing storage; True when it had any.

        The storage-reclamation pass (``runtime/trace.py``) calls this at
        epoch boundaries for stores whose split reference counts all hit
        zero: the application dropped its handle and no buffered task
        will touch the store again, so its region field — megabytes of
        arena or heap pages per epoch in a functional-update program —
        is garbage.  Returning the block keeps steady-state memory
        bounded and the arena's first-fit offsets cycling through a
        small set.

        Freeing never retires resident plans: level frames always carry
        the epoch's current descriptors (worker-side templates hold
        none), so a recycled block re-enters the protocol only through
        the fresh field that now owns it.
        """
        with self._allocate_lock:
            field = self._fields.pop(store.uid, None)
        if field is None:
            return False
        field.release_storage()
        return True

    @property
    def allocated_bytes(self) -> int:
        """Total bytes of live backing storage (used by ablation benches)."""
        return sum(field.data.nbytes for field in self._fields.values())

    @property
    def allocated_fields(self) -> int:
        """Number of live region fields."""
        return len(self._fields)
