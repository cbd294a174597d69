"""Shared-memory arena for region-field backing storage.

With ``REPRO_POINT_WORKERS`` > 1 the region manager allocates the
backing NumPy array of every store inside ``multiprocessing.shared_memory``
segments instead of private heap pages.  The parent keeps the exact same
mutable ``ndarray`` semantics it always had (the array is a view of the
segment), while worker processes attach the segment *by name* and map the
same physical pages — point-task chunks executed in another process read
their inputs and write their output tiles with **zero copies** in either
direction.

Layout
------
The arena is a slab allocator: it creates segments of
:data:`SEGMENT_BYTES` (allocations larger than a segment get a
dedicated segment) and carves 64-byte-aligned blocks out of them with a
first-fit free list (freed blocks coalesce with their neighbours, so
region churn — e.g. eliminated temporaries — does not leak segment
space).  Every block is described by a :class:`BlockDescriptor` — the
picklable ``(segment name, offset, shape, dtype)`` tuple the process
pool ships to workers.

Lifetime
--------
Each :class:`SharedArena` owns its segments and unlinks them when it is
closed.  Segments are named ``repro-<pid>-<hex>-<n>``, so a leaked one
names the process that created it.  The region manager closes its arena
through a ``weakref.finalize`` hook, which Python runs when the manager
is garbage collected *or at interpreter exit* — so test runs do not leak
``/dev/shm`` segments or trip ``resource_tracker`` warnings: pool
workers are children of this process and share its resource tracker, so
a worker-side attach re-registers the same name into the same cache (a
no-op) and the parent's unlink retires the single entry.  Workers must
therefore *not* unregister their attachments — doing so would strip the
parent's entry and make the later unlink warn about an unknown name.
The tracker is a process the first segment starts; at exit
:func:`shutdown_shared_memory` stops and reaps it, so it cannot outlive
this process.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.runtime import telemetry

#: Size of each segment the arena carves block allocations out of.
SEGMENT_BYTES = 16 * 1024 * 1024

#: Block alignment inside a segment (one cache line, and a multiple of
#: every NumPy itemsize in use).
_ALIGN = 64

#: How long exit waits to reap the stopped resource tracker: it exits
#: within milliseconds once every copy of its pipe is closed, and a copy
#: some unrelated child process holds costs exactly this wait.
TRACKER_EXIT_SECONDS = 2.0

#: Arenas not yet closed (closed at exit before the tracker stops).
_LIVE_ARENAS: "weakref.WeakSet[SharedArena]" = weakref.WeakSet()


def _align(value: int) -> int:
    return (value + _ALIGN - 1) & ~(_ALIGN - 1)


class BlockDescriptor(NamedTuple):
    """Address of one arena block.

    A level frame ships it to worker processes as the plain tuple
    ``tuple(descriptor)``, which pickles to builtins only
    (:func:`attach_view` reads it by position).
    """

    segment: str
    offset: int
    shape: Tuple[int, ...]
    dtype: str


class SharedArena:
    """Slab allocator over named shared-memory segments."""

    def __init__(self, segment_bytes: Optional[int] = None) -> None:
        self.segment_bytes = segment_bytes or SEGMENT_BYTES
        #: Unique prefix so two arenas (or two processes) never collide;
        #: it leads with the creating process's pid.
        self._prefix = f"repro-{os.getpid()}-{uuid.uuid4().hex[:12]}"
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        #: Segment name -> sorted list of free ``(offset, size)`` holes.
        self._free: Dict[str, List[Tuple[int, int]]] = {}
        self._counter = 0
        self._lock = threading.Lock()
        self.closed = False
        _LIVE_ARENAS.add(self)

    # ------------------------------------------------------------------
    # Allocation.
    # ------------------------------------------------------------------
    def allocate(
        self, shape: Tuple[int, ...], dtype, zero: bool = True
    ) -> Tuple[np.ndarray, BlockDescriptor]:
        """A shared array plus its shippable descriptor.

        Zero-filled unless the caller passes ``zero=False`` because it
        writes every element before anything reads one (see
        ``RegionManager.field``): segments are recycled, so a reused
        hole still holds the previous block's bytes.
        """
        dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape, dtype=np.int64))) * dtype.itemsize
        size = _align(nbytes)
        with self._lock:
            if self.closed:
                raise RuntimeError("shared arena is closed")
            placement = self._find_hole(size)
            if placement is None:
                placement = self._new_segment(size)
            name, offset = placement
            segment = self._segments[name]
        descriptor = BlockDescriptor(
            segment=name, offset=offset, shape=tuple(shape), dtype=dtype.str
        )
        if telemetry.enabled():
            telemetry.instant(
                "shm.alloc", f"segment={name} offset={offset} bytes={size}"
            )
        array = np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=offset)
        if zero:
            array.fill(0)
        return array, descriptor

    def _find_hole(self, size: int) -> Optional[Tuple[str, int]]:
        for name, holes in self._free.items():
            for index, (offset, hole_size) in enumerate(holes):
                if hole_size >= size:
                    if hole_size == size:
                        holes.pop(index)
                    else:
                        holes[index] = (offset + size, hole_size - size)
                    return name, offset
        return None

    def _new_segment(self, size: int) -> Tuple[str, int]:
        name = f"{self._prefix}-{self._counter}"
        self._counter += 1
        segment_size = max(size, self.segment_bytes)
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=segment_size
        )
        self._segments[name] = segment
        if segment_size > size:
            self._free[name] = [(size, segment_size - size)]
        else:
            self._free[name] = []
        return name, 0

    def release(self, descriptor: BlockDescriptor) -> None:
        """Return a block to its segment's free list (coalescing)."""
        dtype = np.dtype(descriptor.dtype)
        nbytes = max(1, int(np.prod(descriptor.shape, dtype=np.int64))) * dtype.itemsize
        size = _align(nbytes)
        if telemetry.enabled():
            telemetry.instant(
                "shm.reclaim",
                f"segment={descriptor.segment} offset={descriptor.offset} "
                f"bytes={size}",
            )
        with self._lock:
            holes = self._free.get(descriptor.segment)
            if holes is None or self.closed:
                return
            holes.append((descriptor.offset, size))
            holes.sort()
            merged: List[Tuple[int, int]] = []
            for offset, hole_size in holes:
                if merged and merged[-1][0] + merged[-1][1] == offset:
                    merged[-1] = (merged[-1][0], merged[-1][1] + hole_size)
                else:
                    merged.append((offset, hole_size))
            self._free[descriptor.segment] = merged

    # ------------------------------------------------------------------
    # Introspection / teardown.
    # ------------------------------------------------------------------
    @property
    def segment_count(self) -> int:
        with self._lock:
            return len(self._segments)

    def close(self) -> None:
        """Unlink every segment.  Runs at manager GC / interpreter exit.

        Safe to call more than once.  Live NumPy views of a segment keep
        the *mapping* valid in this process until they are dropped (the
        ``ndarray`` holds the buffer), but the name disappears from
        ``/dev/shm`` immediately.
        """
        with self._lock:
            if self.closed:
                return
            self.closed = True
            segments = list(self._segments.values())
            self._segments.clear()
            self._free.clear()
        for segment in segments:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            try:
                segment.close()
            except BufferError:
                # NumPy views of the segment are still alive (e.g. a
                # region field of a context that outlives its arena's
                # explicit close); the mapping is reclaimed when they go.
                pass


def shutdown_shared_memory() -> None:
    """Close every live arena, then stop and reap the resource tracker.

    Left alone, the tracker notices this process's exit only afterwards
    and outlives it by milliseconds, an orphan.  This runs at exit after
    the worker processes are gone (they hold copies of the tracker's
    pipe; ``procpool``'s exit hook stops them first), and the arenas
    close before the tracker stops because unlinking a segment messages
    the tracker, which would start a fresh one.  Only a tracker this
    process started is stopped.
    """
    for arena in list(_LIVE_ARENAS):
        arena.close()
    tracker = resource_tracker._resource_tracker
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is None or pid is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    deadline = time.monotonic() + TRACKER_EXIT_SECONDS
    while time.monotonic() < deadline:
        try:
            if os.waitpid(pid, os.WNOHANG)[0]:
                return
        except ChildProcessError:
            return
        time.sleep(0.001)


# ----------------------------------------------------------------------
# Worker-side attachment.
# ----------------------------------------------------------------------
#: Segment name -> attached SharedMemory, cached per process.
_ATTACHMENTS: Dict[str, shared_memory.SharedMemory] = {}
#: Bound on the attachment cache: segments of dead arenas linger only
#: until enough newer segments displace them (LRU eviction — a resident
#: worker re-touches the same few segments every replay, so the hot set
#: must never be displaced by one-shot segments of retired arenas).
_MAX_ATTACHMENTS = 64


def attach_view(descriptor: tuple) -> np.ndarray:
    """Map a block descriptor to a NumPy view of the shared pages.

    ``descriptor`` is a :class:`BlockDescriptor` or its plain-tuple wire
    form ``(segment, offset, shape, dtype)``.

    Used by process-pool workers: the first touch of a segment attaches
    it by name; later blocks of the same segment reuse the cached
    attachment (refreshed to most-recently-used, so steady resident
    replay keeps its segments pinned).  The attach's resource-tracker
    registration is a no-op re-add into the parent's shared cache (see
    the module docstring).
    """
    name, offset, shape, dtype = descriptor
    segment = _ATTACHMENTS.pop(name, None)
    if segment is None:
        segment = shared_memory.SharedMemory(name=name)
        while len(_ATTACHMENTS) >= _MAX_ATTACHMENTS:
            oldest = next(iter(_ATTACHMENTS))
            stale = _ATTACHMENTS.pop(oldest)
            try:
                stale.close()
            except BufferError:  # pragma: no cover - view still alive
                pass
    _ATTACHMENTS[name] = segment
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset)


def close_attachments() -> None:
    """Drop every cached attachment (worker shutdown path)."""
    while _ATTACHMENTS:
        _, segment = _ATTACHMENTS.popitem()
        try:
            segment.close()
        except BufferError:  # pragma: no cover - view still alive
            pass
