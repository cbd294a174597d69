"""The plan scheduler's worker thread pool and rank-chunk partitioning.

The **plan scheduler** (``runtime/scheduler.py``) hands two kinds of
work to the pool, sized by ``REPRO_WORKERS`` and resized lazily when
that flag changes:

* independent steps of a wide level of a captured
  :class:`ExecutionPlan`, each run whole on a pool thread;
* without worker processes (``REPRO_POINT_WORKERS=1``), the rank chunks
  of a big compiled step of a level that pools nothing — every level of
  a chain plan — chunk 0 on the scheduling thread and the others here
  (``TaskExecutor.launch`` with ``threads``).

Only the scheduling thread submits, and only while no step of its level
is on the pool, so a pool thread never waits on its own pool.  With
worker processes the rank chunks of a launch run in them
(``runtime/procpool.py``) or inline on the thread that runs the launch.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

from repro import config
from repro.ir.domain import Rect

_POOL: Optional[ThreadPoolExecutor] = None
_POOL_SIZE = 0
_POOL_LOCK = threading.Lock()


def worker_pool() -> ThreadPoolExecutor:
    """The process-wide plan-step pool, resized on demand."""
    global _POOL, _POOL_SIZE
    size = config.worker_count()
    with _POOL_LOCK:
        if _POOL is None or _POOL_SIZE != size:
            if _POOL is not None:
                _POOL.shutdown(wait=False)
            _POOL = ThreadPoolExecutor(
                max_workers=size, thread_name_prefix="repro-worker"
            )
            _POOL_SIZE = size
        return _POOL


def shutdown_shared_pool() -> None:
    """Retire the thread-pool singleton (reloads, atexit, test teardown)."""
    global _POOL, _POOL_SIZE
    with _POOL_LOCK:
        pool = _POOL
        _POOL = None
        _POOL_SIZE = 0
    if pool is not None:
        pool.shutdown(wait=False)


def _reload_shared_pool() -> None:
    """Config-reload hook: drop a pool sized from a stale flag value."""
    with _POOL_LOCK:
        stale = _POOL is not None and _POOL_SIZE != config.worker_count()
    if stale:
        shutdown_shared_pool()


config.register_reload_callback(_reload_shared_pool)
atexit.register(shutdown_shared_pool)


def contiguous_elementwise_tables(
    tables, num_points: int, require_full_cover: bool = False
) -> bool:
    """The shared geometry predicate of element-wise chunk batching.

    True when every per-rank rect table in ``tables`` tiles a 1-D span
    contiguously in rank order (each tile starts where the previous one
    ended).  Under that condition — and a kernel with no reductions,
    which callers check separately — one closure call over any merged
    contiguous span of tiles is element-for-element identical to the
    per-rank loop: NumPy ufuncs are element-wise and the tiles are
    disjoint and consecutive.  This single predicate backs both batching
    sites (the trace recorder's capture-time verdict and the eager
    executor's per-launch detection) so the soundness condition cannot
    drift between them.

    ``require_full_cover`` additionally pins the first tile to offset 0
    (the recorder's conservative whole-store condition; the eager path
    only needs contiguity, since a merged chunk span is a valid
    sub-rectangle wherever it starts).
    """
    if num_points <= 1:
        return False
    for table in tables:
        if len(table) != num_points:
            return False
        cursor: Optional[int] = 0 if require_full_cover else None
        for rect, _volume in table:
            if len(rect.lo) != 1:
                return False
            if cursor is not None and rect.lo[0] != cursor:
                return False
            cursor = rect.hi[0]
    return True


def merged_table_span(table: Sequence, start: int, stop: int) -> Rect:
    """The merged 1-D rect covering ranks ``[start, stop)`` of a table.

    Only valid for tables that satisfied
    :func:`contiguous_elementwise_tables`; used by the merged-call
    paths of compiled launches and super-kernels (the process-pool
    workers build the same span from the wire form of the chunk's rects).
    """
    return Rect(table[start][0].lo, table[stop - 1][0].hi)


def point_chunks(num_points: int, width: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` rank chunks of one launch.

    The chunk count is bounded by the dispatch ``width`` and by the rank
    count; chunks cover ``range(num_points)`` in order and differ in size
    by at most one rank, so the recorded-rank-order join at the launch's
    fold point is a simple concatenation.
    """
    if num_points <= 0:
        return [(0, 0)]
    if width <= 1 or num_points <= 1:
        return [(0, num_points)]
    chunk_count = min(width, num_points)
    base, extra = divmod(num_points, chunk_count)
    chunks: List[Tuple[int, int]] = []
    start = 0
    for index in range(chunk_count):
        stop = start + base + (1 if index < extra else 0)
        chunks.append((start, stop))
        start = stop
    return chunks
