"""The shared persistent worker pool and rank-chunk partitioning.

Two dispatch levels share this pool so they never multiply into
oversubscription:

* the **plan scheduler** (``runtime/scheduler.py``) hands independent
  steps of a captured :class:`ExecutionPlan` to it, and
* the **intra-launch point dispatcher** (the thread rung of
  ``runtime/executor.py``'s substrate ladder) hands contiguous rank
  chunks of a single launch to it.

The pool is sized for the wider of the two levels
(``max(REPRO_WORKERS, REPRO_POINT_WORKERS)``) and is resized lazily when
either flag changes.  Closures submitted through :func:`submit_guarded`
mark their worker thread as *nested* for the duration of the closure:
the executor's point dispatcher consults :func:`in_pool_worker` and runs
serially on such threads, so a step that was itself dispatched to the
pool never re-submits chunk work and waits on it — which could otherwise
exhaust the pool with blocked waiters (a classic nested-dispatch
deadlock).
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

from repro import config
from repro.ir.domain import Rect

_POOL: Optional[ThreadPoolExecutor] = None
_POOL_SIZE = 0
_POOL_LOCK = threading.Lock()
_TLS = threading.local()


def shared_pool_size() -> int:
    """Workers the shared pool needs for both dispatch levels."""
    return max(config.worker_count(), config.point_worker_count())


def worker_pool(size: Optional[int] = None) -> ThreadPoolExecutor:
    """The process-wide worker pool, resized on demand."""
    global _POOL, _POOL_SIZE
    if size is None:
        size = shared_pool_size()
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
    """Config-reload hook: drop a pool sized from stale flag values.

    :func:`worker_pool` already resizes on its next call, but only when
    invoked without an explicit size — retiring the singleton here makes
    every path (including explicit-size callers that cached the old
    figure) rebuild against the freshly-read flags.
    """
    with _POOL_LOCK:
        stale = _POOL is not None and _POOL_SIZE != shared_pool_size()
    if stale:
        shutdown_shared_pool()


config.register_reload_callback(_reload_shared_pool)
atexit.register(shutdown_shared_pool)


def in_pool_worker() -> bool:
    """True when the calling thread is executing a guarded pool closure.

    Used to suppress nested point dispatch: work that already runs on a
    pool worker computes serially instead of re-submitting to the pool.
    """
    return getattr(_TLS, "active", False)


def guarded(fn: Callable[[], object]) -> Callable[[], object]:
    """Wrap a closure so its worker thread reports :func:`in_pool_worker`."""

    def run() -> object:
        _TLS.active = True
        try:
            return fn()
        finally:
            _TLS.active = False

    return run


def submit_guarded(pool: ThreadPoolExecutor, fn: Callable[[], object]) -> Future:
    """Submit ``fn`` with the nested-dispatch guard installed."""
    return pool.submit(guarded(fn))


def dispatch_chunks(
    pool: ThreadPoolExecutor,
    chunks: List[Tuple[int, int]],
    run: Callable[[int, int], object],
) -> List[object]:
    """Run rank-chunk closures across the pool, the first one inline.

    The order-sensitive join protocol of the executor's thread rung:
    results come back in chunk (and therefore rank) order, so join-point
    folds reproduce the serial accumulation order exactly.
    """
    futures = [
        submit_guarded(pool, lambda s=start, e=stop: run(s, e))
        for start, stop in chunks[1:]
    ]
    results: List[object] = [run(*chunks[0])]
    results.extend(future.result() for future in futures)
    return results


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


def point_chunks(num_points: int, width: int, min_ranks: int = 1) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` rank chunks of one launch.

    The chunk count is bounded by the dispatch ``width`` and by the
    ``min_ranks``-per-chunk floor; chunks cover ``range(num_points)`` in
    order and differ in size by at most one rank, so the recorded-rank-
    order join at the launch's fold point is a simple concatenation.
    """
    if num_points <= 0:
        return [(0, 0)]
    if width <= 1 or num_points <= 1:
        return [(0, num_points)]
    chunk_count = min(width, max(1, num_points // max(1, min_ranks)))
    if chunk_count <= 1:
        return [(0, num_points)]
    base, extra = divmod(num_points, chunk_count)
    chunks: List[Tuple[int, int]] = []
    start = 0
    for index in range(chunk_count):
        stop = start + base + (1 if index < extra else 0)
        chunks.append((start, stop))
        start = stop
    return chunks
