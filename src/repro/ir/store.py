"""Stores: distributed arrays in Diffuse's data model (paper Section 3.1).

A store is a distributed array with a unique id, a rectangular shape and an
element type.  Stores say nothing about *where* data lives — placement is
described separately by partitions — which is what keeps the IR scale
free.

Stores also implement the *split reference counting* scheme from paper
Section 5.1: references held by the application (e.g. a live cuPyNumeric
``ndarray``) are counted separately from references held inside Diffuse's
own runtime (pending tasks in the window, the coherence tracker, ...).  A
store with no live application references and no downstream readers is a
candidate for temporary-store elimination.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.ir.domain import Point, as_point, shape_volume

#: The element type every store has unless told otherwise.
FLOAT64 = np.dtype(np.float64)
_INT = {int}


class Store:
    """A distributed array identified by a unique id and a shape."""

    __slots__ = (
        "uid",
        "shape",
        "dtype",
        "name",
        "_application_refs",
        "_ever_application_referenced",
        "_runtime_refs",
        "_pending_stream_refs",
        "_manager",
    )

    def __init__(
        self,
        uid: int,
        shape: Sequence[int],
        dtype: np.dtype = FLOAT64,
        name: Optional[str] = None,
        manager: Optional["StoreManager"] = None,
    ) -> None:
        self.uid = int(uid)
        # Shapes and dtypes the frontends pass are already normal (a
        # tuple of ints, an ``np.dtype``); only anything else is
        # converted.
        if type(shape) is not tuple or not _INT.issuperset(map(type, shape)):
            shape = as_point(shape)
        self.shape: Point = shape
        self.dtype = dtype if isinstance(dtype, np.dtype) else np.dtype(dtype)
        self.name = name if name is not None else f"store{uid}"
        self._application_refs = 0
        self._ever_application_referenced = False
        self._runtime_refs = 0
        self._pending_stream_refs = 0
        self._manager = manager

    # ------------------------------------------------------------------
    # Shape helpers.
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Number of dimensions of the store."""
        return len(self.shape)

    @property
    def volume(self) -> int:
        """Number of elements in the store."""
        return shape_volume(self.shape)

    @property
    def size_bytes(self) -> int:
        """Total footprint of the store in bytes."""
        return self.volume * self.dtype.itemsize

    @property
    def manager(self) -> Optional["StoreManager"]:
        """The registry that created this store (None for a bare store)."""
        return self._manager

    @property
    def is_scalar(self) -> bool:
        """True for zero-dimensional stores (futures / reduction results)."""
        return self.ndim == 0 or self.volume == 1

    # ------------------------------------------------------------------
    # Split reference counting (paper Section 5.1).
    # ------------------------------------------------------------------
    def add_application_reference(self) -> None:
        """Record that user-visible code holds a handle to this store."""
        self._application_refs += 1
        self._ever_application_referenced = True

    def remove_application_reference(self) -> None:
        """Drop a user-visible handle (e.g. Python ``del`` of an ndarray)."""
        if self._application_refs <= 0:
            raise ValueError(f"{self} has no application references to remove")
        self._application_refs -= 1

    def add_runtime_reference(self) -> None:
        """Record a reference held internally by the Diffuse runtime."""
        self._runtime_refs += 1

    def remove_runtime_reference(self) -> None:
        """Drop an internal runtime reference."""
        if self._runtime_refs <= 0:
            raise ValueError(f"{self} has no runtime references to remove")
        self._runtime_refs -= 1

    @property
    def application_references(self) -> int:
        """Number of live application references."""
        return self._application_refs

    @property
    def ever_application_referenced(self) -> bool:
        """True when user code *ever* held a handle to this store.

        Distinguishes frontend-managed stores — whose death the split
        reference counts witness, so their storage can be reclaimed —
        from runtime-internal stores created bare (e.g. the CSR arrays
        of a sparse matrix), which are kept alive by plain Python
        references the counters never see and must not be collected on
        a zero count.
        """
        return self._ever_application_referenced

    def add_pending_stream_reference(self) -> None:
        """Record that a deferred (not yet analysed) task references this store.

        The deferred task stream buffers whole epochs of tasks before
        feeding them through the fusion window.  A store referenced by a
        still-buffered task must count as live for temporary-store
        elimination: that later task reads it, although the application
        may have dropped its handle since submitting it.
        """
        self._pending_stream_refs += 1

    def remove_pending_stream_reference(self) -> None:
        """Drop a deferred-task reference (the task entered the window)."""
        if self._pending_stream_refs <= 0:
            raise ValueError(f"{self} has no pending stream references to remove")
        self._pending_stream_refs -= 1

    @property
    def runtime_references(self) -> int:
        """Number of live runtime references."""
        return self._runtime_refs

    @property
    def pending_stream_references(self) -> int:
        """Number of deferred (not yet analysed) tasks referencing this store."""
        return self._pending_stream_refs

    @property
    def unreferenced(self) -> bool:
        """True when no application handle, buffered task or runtime
        reference holds the store."""
        return not (self._application_refs or self._pending_stream_refs or self._runtime_refs)

    @property
    def has_live_application_references(self) -> bool:
        """True when user code could still observe effects on this store.

        Stores referenced by tasks still buffered in the deferred task
        stream count as live: a later task reading the store is exactly
        as observing as a live application handle.
        """
        return self._application_refs > 0 or self._pending_stream_refs > 0

    # ------------------------------------------------------------------
    # Identity semantics: two stores are the same object iff same uid.
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Store):
            return NotImplemented
        return self.uid == other.uid

    def __hash__(self) -> int:
        return hash(self.uid)

    def __repr__(self) -> str:
        return f"Store(uid={self.uid}, name={self.name!r}, shape={self.shape})"


class StoreManager:
    """Factory and registry for stores.

    The manager hands out unique ids and remembers every live store so that
    the runtime substrate can allocate backing memory lazily and tests can
    inspect the full store population.
    """

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._stores: Dict[int, Store] = {}

    def create_store(
        self,
        shape: Sequence[int],
        dtype: np.dtype = FLOAT64,
        name: Optional[str] = None,
    ) -> Store:
        """Create a fresh store with a unique id."""
        uid = next(self._ids)
        store = Store(uid=uid, shape=shape, dtype=dtype, name=name, manager=self)
        self._stores[uid] = store
        return store

    def create_scalar_store(
        self, dtype: np.dtype = FLOAT64, name: Optional[str] = None
    ) -> Store:
        """Create a zero-dimensional store, used for reduction results."""
        return self.create_store(shape=(), dtype=dtype, name=name)

    def get(self, uid: int) -> Store:
        """Look up a store by id."""
        return self._stores[uid]

    def forget(self, store: Store) -> None:
        """Remove a store from the registry (after it has been destroyed)."""
        self._stores.pop(store.uid, None)

    def __len__(self) -> int:
        return len(self._stores)

    def __iter__(self):
        return iter(self._stores.values())

    def all_stores(self) -> Tuple[Store, ...]:
        """Snapshot of every live store."""
        return tuple(self._stores.values())
