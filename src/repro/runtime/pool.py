"""The worker thread pool, rank-chunk partitioning and launch geometry.

Two kinds of work go to the pool, sized by ``REPRO_WORKERS`` and
resized lazily when that flag changes:

* independent steps of a wide level of a captured
  :class:`ExecutionPlan`, each run whole on a pool thread by the **plan
  scheduler** (``runtime/scheduler.py``);
* without worker processes (``REPRO_POINT_WORKERS=1``), the rank chunks
  (:func:`thread_split`) of a big compiled step of a level that pools
  nothing, as every level of a chain plan, on an epoch's first run as on
  its replays — chunk 0 on the calling thread and the others here
  (``TaskExecutor.launch`` with ``threads``).

Only the scheduling thread submits, and only while no step of its level
is on the pool, so a pool thread never waits on its own pool.  With
worker processes the rank chunks of a replayed step run in them
(``runtime/procpool.py``) or inline on the thread that runs the launch.

How a compiled launch runs a rank range — one merged call, stacked when
it reduces, or one call per rank — is decided once from its interned
rect tables (:class:`RectTable`) by :func:`launch_verdict`.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro import config
from repro.ir.domain import Rect
from repro.ir.partition import rects_cover
from repro.kernel import codegen

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


def _contiguous(table) -> bool:
    """True when a per-rank rect table of more than one rank tiles a 1-D
    span contiguously in rank order (each tile starts where the previous
    one ended): ``RectTable.contiguous``."""
    if len(table) <= 1:
        return False
    cursor: Optional[int] = None
    for rect, _volume in table:
        if len(rect.lo) != 1 or (cursor is not None and rect.lo[0] != cursor):
            return False
        cursor = rect.hi[0]
    return True


class RectTable(list):
    """An interned per-rank ``(rect, volume)`` table.

    Interned tables are immortal and immutable once published, so the
    geometry facts derived from them are memoized on the table itself:
    whether it tiles a 1-D span contiguously in rank order, the one
    volume every rank's rect has (``tile``; ``None`` when they differ or
    are empty), the volume of all of them (``volume``), whether its
    rects cover the whole store
    (``ir.partition.rects_cover``), the NumPy slices of each merged rank
    range a merged call binds (``executor.span_slices``), and the wire
    rect list of each rank range (``executor.wire_rects``).  Tables
    rebuilt per launch (``REPRO_HOTPATH_CACHE=0``) are plain lists: they
    never merge, never vouch for a cover and cut their wire rects per
    call.
    """

    __slots__ = ("contiguous", "tile", "volume", "covers", "spans", "wire")

    @classmethod
    def interned(cls, entries, store_shape) -> "RectTable":
        """A table over ``entries`` with its geometry memos filled in."""
        table = cls(entries)
        table.contiguous = _contiguous(table)
        table.volume = sum(volume for _rect, volume in table)
        volumes = {volume for _rect, volume in table}
        table.tile = (volumes.pop() or None) if len(volumes) == 1 else None
        table.covers = rects_cover((rect for rect, _volume in table), store_shape)
        table.spans = {}
        table.wire = {}
        return table


class Verdict(NamedTuple):
    """How a compiled launch runs a rank range (:func:`launch_verdict`).

    ``merged``: one closure call over the range's contiguous span of
    every buffer.  ``tile``: the elements of every rank's tile of a
    merged launch that reduces — its body reduces by ``(ranks, tile)``
    rows and returns one float64 array of per-rank partials per target
    (a *stacked* launch); ``None`` for an element-wise one.  ``why``:
    the reason a launch runs rank by rank (``profiler.RANKED_REASONS``).
    """

    merged: bool
    tile: Optional[int] = None
    why: Optional[str] = None


#: The verdict of an element-wise merged launch.
ELEMENTWISE = Verdict(True)


def launch_verdict(kernel, rows: Sequence, num_points: int) -> Verdict:
    """The one geometry verdict of a compiled launch, unfused or a plan step.

    ``rows`` are ``(key, field, is_reduction, rect table)`` rows or a
    captured step's ``buffer_bindings`` (the same shape).  A launch
    merges when every non-reduction table is an interned
    :class:`RectTable` tiling a 1-D span contiguously in rank order:
    NumPy ufuncs are element-wise and the tiles are disjoint and
    consecutive, so one call over any merged range of ranks is
    element-for-element the per-rank loop.  A kernel that reduces
    merges (stacks) only when every rank's tile of every such table has
    one size ``tile`` and its executor emits the row-reducing body:
    row ``i`` of ``reduce(x.reshape(-1, tile), axis=1)`` is bit for bit
    rank ``i``'s ``reduce(axis=None)``, and the partials come back in
    rank order, which is the order every fold takes them in.

    Plain per-launch tables (``REPRO_HOTPATH_CACHE=0``, the seed path)
    carry no geometry memo: their contiguity is measured per launch, so
    the seed path merges element-wise launches, and a launch over them
    that reduces never stacks.
    """
    if num_points <= 1:
        return Verdict(False, why="single_rank")
    tables = [row[3] for row in rows if not row[2]]
    if not tables:
        return Verdict(False, why="unstackable_kernel")
    for table in tables:
        contiguous = getattr(table, "contiguous", None)
        if contiguous is None:
            if kernel.reduces:
                return Verdict(False, why="uninterned_table")
            contiguous = _contiguous(table)
        if not contiguous or len(table) != num_points:
            return Verdict(False, why="nd_or_broadcast_tiling")
    if not kernel.reduces:
        return ELEMENTWISE
    refusal = kernel.executor.stack_refusal
    if refusal is not None:
        return Verdict(False, why=refusal)
    tiles = {table.tile for table in tables}
    if len(tiles) != 1 or None in tiles:
        return Verdict(False, why="ragged_tiling")
    return Verdict(True, tiles.pop())


def merged_table_span(table: Sequence, start: int, stop: int) -> Rect:
    """The merged 1-D rect covering ranks ``[start, stop)`` of a table.

    Only valid for a contiguous table (``RectTable.contiguous``); used by
    the merged-call paths of compiled launches and super-kernels.
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


def thread_block(chunks: int) -> int:
    """Elements per block of a thread chunk that runs beside ``chunks − 1``
    others (``TaskExecutor._thread_chunks``).

    Two chunks at ``2 × codegen.BLOCK`` hand the GIL over half as often
    as at ``BLOCK``, and kept the split's CPU time per op 12–16 % above
    one serial call on Black-Scholes, where blocks of ``BLOCK`` cost
    33–44 % (``docs/architecture.md``, *Kernel tier*).  Only two chunks
    were measured, so more chunks keep that block rather than
    registers ``k`` times longer.
    """
    return min(chunks, 2) * codegen.BLOCK


def thread_split(tables: Sequence, num_points: int, workers: int):
    """The rank chunks of a compiled launch across the plan threads, or ``None``.

    ``tables`` are the launch's per-rank rect tables.  The most chunks,
    at most ``workers``, that each still span two of their blocks: a
    chunk's span is what its largest buffer covers over its ranks, and
    its block is :func:`thread_block` of the chunk count.  A chunk of
    one block runs whole-tile, a fresh temporary per ufunc call instead
    of the block loop's registers, and on ``stream-churn`` (65,536
    elements, two chunks of one block each) that cost more than the
    split saved.  Any split needs two chunks of ``2 × thread_block(2)``
    elements each, so tables holding fewer than ``4 × thread_block(2)``
    between them rule it out before any chunk is summed.
    """
    if sum(_volume(table) for table in tables) < 4 * thread_block(2):
        return None
    for count in range(min(workers, num_points), 1, -1):
        chunks = point_chunks(num_points, count)
        least = 2 * thread_block(count)
        if all(
            max(sum(volume for _rect, volume in table[start:stop]) for table in tables) >= least
            for start, stop in chunks
        ):
            return chunks
    return None


def _volume(table) -> int:
    """Elements of every rank's rect of a table (memoized when interned)."""
    volume = getattr(table, "volume", None)
    return sum(entry[1] for entry in table) if volume is None else volume
