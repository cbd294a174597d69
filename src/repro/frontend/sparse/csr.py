"""Distributed CSR matrices and the opaque SpMV task.

A CSR matrix is stored as three stores — ``indptr``, ``indices`` and
``data`` — mirroring Legate Sparse.  Row coordinates may be stored as
32-bit values, matching the optimisation the paper applies to Legate
Sparse for a fair comparison with PETSc (footnote 1 in Section 7.1); the
choice only affects the modelled memory traffic of SpMV.

The SpMV kernel is opaque (no KIR generator), so it never joins a fused
kernel, but it participates in the task stream and its dense vector
arguments interact with fusion exactly as in the paper: the surrounding
AXPY/dot-product tasks of the Krylov solvers fuse around it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ir.privilege import Privilege
from repro.ir.task import IndexTask
from repro.frontend.cunumeric.array import ndarray
from repro.frontend.legate.context import RuntimeContext, get_context
from repro.config import hotpath_cache_enabled
from repro.runtime.machine import MachineConfig
from repro.runtime.opaque import register_opaque_task


# ----------------------------------------------------------------------
# Opaque SpMV task: y = A @ x over the rows owned by each point task.
# Argument order: indptr, indices, data, x, y.
# ----------------------------------------------------------------------
def _evict_oldest(cache: Dict, limit: int) -> None:
    """Drop oldest-first entries until the cache is below its limit.

    Dicts iterate in insertion order, so evicting ``next(iter(cache))``
    is FIFO — live matrices (re-inserted on attach) keep their entries.
    Tolerates concurrent plan-scheduler workers evicting the same key
    (``pop`` with a default never raises; ``StopIteration`` from a
    just-emptied cache ends the sweep).
    """
    while len(cache) >= limit:
        try:
            cache.pop(next(iter(cache)), None)
        except (StopIteration, RuntimeError):
            break


#: (partition, point, store shape) -> row range.  Mirrors the executor's
#: sub-store rect cache for the SpMV-internal row-range queries.
_SPMV_ROWS_CACHE: Dict[Tuple, Tuple[int, int]] = {}
_SPMV_ROWS_CACHE_LIMIT = 65536


def _spmv_rows(task: IndexTask, point) -> Tuple[int, int]:
    """The half-open row range owned by ``point`` (from y's partition)."""
    y_arg = task.args[4]
    if not hotpath_cache_enabled():
        rect = y_arg.partition.sub_store_rect(point, y_arg.store.shape)
        return rect.lo[0], rect.hi[0]
    key = (y_arg.partition, point, y_arg.store.shape)
    rows = _SPMV_ROWS_CACHE.get(key)
    if rows is None:
        rect = y_arg.partition.sub_store_rect(point, y_arg.store.shape)
        rows = (rect.lo[0], rect.hi[0])
        _evict_oldest(_SPMV_ROWS_CACHE, _SPMV_ROWS_CACHE_LIMIT)
        _SPMV_ROWS_CACHE[key] = rows
    return rows


#: id(float64 coordinate array) -> (pinning reference, int64 conversion).
#: Stores are float64-only, so SpMV must convert ``indptr``/``indices``
#: to integers; the coordinate arrays of a matrix never change after
#: attach, and the region-field view cache hands back the same array
#: object on every launch, so the conversion is computed once per matrix
#: instead of once per point task.  Keeping the source array in the value
#: pins its id, making the key collision-free.
_INT_INDEX_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
_INT_INDEX_CACHE_LIMIT = 256


def _as_int_indices(array: np.ndarray) -> np.ndarray:
    """The int64 conversion of a CSR coordinate array, memoized."""
    entry = _INT_INDEX_CACHE.get(id(array))
    if entry is not None and entry[0] is array:
        return entry[1]
    converted = array.astype(np.int64)
    _evict_oldest(_INT_INDEX_CACHE, _INT_INDEX_CACHE_LIMIT)
    _INT_INDEX_CACHE[id(array)] = (array, converted)
    return converted


#: (id(indptr array), row range) -> pinned row-block execution plan.
#: The sparsity pattern of a matrix never changes after attach, so the
#: integer row offsets, gather columns and empty-row mask of each row
#: block are computed once and replayed on every launch (the region-field
#: view cache keeps the keyed array object stable).
_ROW_PLAN_CACHE: Dict[Tuple[int, int, int], Tuple] = {}
_ROW_PLAN_CACHE_LIMIT = 1024


def _row_plan(indptr: np.ndarray, indices: np.ndarray, row_lo: int, row_hi: int):
    """The cached ``(lo, hi, cols, offsets, empty_row_mask)`` of a row block."""
    key = (id(indptr), row_lo, row_hi)
    entry = _ROW_PLAN_CACHE.get(key)
    if entry is not None and entry[0] is indptr:
        return entry[1]
    starts = _as_int_indices(indptr)[row_lo : row_hi + 1]
    lo, hi = int(starts[0]), int(starts[-1])
    cols = _as_int_indices(indices)[lo:hi]
    offsets = starts[:-1] - lo
    counts = np.diff(starts)
    # reduceat assigns the value at position offsets[i] for empty rows;
    # those rows must be patched back to zero afterwards.  The mask is
    # None for the common all-rows-populated case so execution can skip
    # the fix-up entirely.
    empty_mask = None if bool(np.all(counts > 0)) else (counts > 0)
    # Trailing empty rows make offsets[-1] == hi - lo, which reduceat
    # rejects as out of bounds; execution pads the products with one
    # zero so those offsets become valid (the rows are zeroed by the
    # mask anyway, and the last real row's sum only gains + 0.0).
    pad_products = bool(len(offsets)) and int(offsets[-1]) >= hi - lo > 0
    plan = (lo, hi, cols, offsets, empty_mask, pad_products)
    _evict_oldest(_ROW_PLAN_CACHE, _ROW_PLAN_CACHE_LIMIT)
    _ROW_PLAN_CACHE[key] = (indptr, plan)
    return plan


def _spmv_row_block(indptr, indices, data, x, row_lo: int, row_hi: int):
    """The y values of rows ``[row_lo, row_hi)`` — one merged reduceat.

    ``reduceat`` sums each row's segment sequentially and the products
    are an element-wise multiply, so the block's per-row sums are
    bit-identical whether the block covers one rank or a whole chunk of
    contiguous ranks.  Shared by the per-rank execute and the chunk
    implementation.
    """
    if hotpath_cache_enabled():
        lo, hi, cols, offsets, empty_mask, pad_products = _row_plan(
            indptr, indices, row_lo, row_hi
        )
        values = data[lo:hi]
        products = values * x[cols]
        if len(products):
            if pad_products:
                products = np.concatenate((products, np.zeros(1)))
            sums = np.add.reduceat(products, offsets)
        else:
            sums = np.zeros(row_hi - row_lo)
        if empty_mask is not None:
            sums = np.where(empty_mask, sums, 0.0)
        return sums
    starts = indptr[row_lo : row_hi + 1].astype(np.int64)
    lo, hi = starts[0], starts[-1]
    cols = indices[lo:hi].astype(np.int64)
    values = data[lo:hi]
    products = values * x[cols]
    offsets = starts[:-1] - lo
    # reduceat assigns the value at position offsets[i] for empty rows;
    # patch those rows back to zero afterwards.  Trailing empty rows
    # would put offsets[-1] past the end, which reduceat rejects; pad
    # the products with one zero so those offsets stay in bounds.
    if len(products):
        if len(offsets) and int(offsets[-1]) >= len(products):
            products = np.concatenate((products, np.zeros(1)))
        sums = np.add.reduceat(products, offsets)
    else:
        sums = np.zeros(row_hi - row_lo)
    counts = np.diff(starts)
    return np.where(counts > 0, sums, 0.0)


def _spmv_execute(task: IndexTask, point, buffers: Dict[int, Optional[np.ndarray]]):
    indptr, indices, data, x, y = (buffers[i] for i in range(5))
    if y is None:
        return None
    # The x argument is partitioned by blocks (its halo gather is modelled
    # analytically in the cost function); the kernel needs the gathered
    # vector, which in the single-address-space simulator is simply the
    # view's base array.
    if x is not None and x.base is not None:
        x = x.base
    row_lo, row_hi = _spmv_rows(task, point)
    if row_hi <= row_lo:
        return None
    y[...] = _spmv_row_block(indptr, indices, data, x, row_lo, row_hi)
    return None


#: (id(indptr array), row range, index bytes, total rows, machine) ->
#: pinned analytic SpMV cost.  Everything the cost depends on is in the
#: key, so replayed launches skip the roofline arithmetic entirely.
_SPMV_COST_CACHE: Dict[Tuple, Tuple[np.ndarray, float]] = {}
_SPMV_COST_CACHE_LIMIT = 4096


def _spmv_cost(task: IndexTask, point, buffers, machine: MachineConfig) -> float:
    indptr = buffers[0]
    row_lo, row_hi = _spmv_rows(task, point)
    rows = max(0, row_hi - row_lo)
    if indptr is None or rows == 0:
        return machine.kernel_launch_latency
    if hotpath_cache_enabled():
        index_bytes_key = task.scalar_args[0] if task.scalar_args else None
        total_rows_key = task.args[4].store.shape[0]
        key = (id(indptr), row_lo, row_hi, index_bytes_key, total_rows_key, machine)
        entry = _SPMV_COST_CACHE.get(key)
        if entry is not None and entry[0] is indptr:
            return entry[1]
        seconds = _spmv_cost_uncached(task, indptr, row_lo, row_hi, rows, machine)
        _evict_oldest(_SPMV_COST_CACHE, _SPMV_COST_CACHE_LIMIT)
        _SPMV_COST_CACHE[key] = (indptr, seconds)
        return seconds
    return _spmv_cost_uncached(task, indptr, row_lo, row_hi, rows, machine)


def _spmv_cost_uncached(
    task: IndexTask,
    indptr: np.ndarray,
    row_lo: int,
    row_hi: int,
    rows: int,
    machine: MachineConfig,
) -> float:
    nnz = float(indptr[row_hi] - indptr[row_lo])
    index_bytes = float(task.scalar_args[0]) if task.scalar_args else 8.0
    # Per non-zero: a value (8B), a column index, and the gathered x value;
    # per row: an indptr entry and the y write.
    bytes_moved = nnz * (8.0 + index_bytes + 8.0) + rows * (index_bytes + 8.0)
    flops = 2.0 * nnz
    seconds = machine.kernel_launch_latency + max(
        bytes_moved / machine.gpu_memory_bandwidth, flops / machine.gpu_peak_flops
    )
    # Halo gather of the off-processor entries of x needed by the local
    # rows.  For the banded matrices of the evaluation this is about one
    # grid row per neighbour per GPU (the same model as the PETSc
    # baseline's MatMult), not a full allgather of x.
    if machine.num_gpus > 1:
        total_rows = task.args[4].store.shape[0]
        halo_bytes = min(total_rows, 2 * int(np.sqrt(max(1, total_rows)))) * 8.0
        seconds += machine.point_to_point_time(halo_bytes)
    return seconds


def _merged_row_span(y_rects) -> Optional[Tuple[int, int]]:
    """``(first row, end row)`` when the rects tile rows contiguously."""
    for index in range(len(y_rects) - 1):
        if y_rects[index][1][0] != y_rects[index + 1][0][0]:
            return None
    return y_rects[0][0][0], y_rects[-1][1][0]


#: id(a chunk's y rect list) -> (the pinned list, its merged row span).
#: Keyed like ``_SPMV_CHUNK_COST_CACHE``: a chunk replayed in the parent
#: hands in the same interned list every epoch, so contiguity is decided
#: once per chunk geometry.
_SPMV_SPAN_CACHE: Dict[int, Tuple[list, Optional[Tuple[int, int]]]] = {}


def _spmv_row_span(y_rects) -> Optional[Tuple[int, int]]:
    if not hotpath_cache_enabled():
        return _merged_row_span(y_rects)
    entry = _SPMV_SPAN_CACHE.get(id(y_rects))
    if entry is None or entry[0] is not y_rects:
        _evict_oldest(_SPMV_SPAN_CACHE, _SPMV_COST_CACHE_LIMIT)
        entry = _SPMV_SPAN_CACHE[id(y_rects)] = (y_rects, _merged_row_span(y_rects))
    return entry[1]


def _spmv_chunk_execute(bases, rects, scalars):
    """One SpMV over the merged row span of a contiguous rank chunk.

    The chunk contract hands full base arrays, so x needs no
    ``.base`` unwrap; the y row span comes from the chunk's y rects
    (argument 4), merged when the ranks tile contiguously (block
    partitions always do) and computed per rank otherwise.
    """
    indptr, indices, data, x, y = (bases[index] for index in range(5))
    y_rects = rects[4]
    span = _spmv_row_span(y_rects)
    if span is not None:
        row_lo, row_hi = span
        if row_hi > row_lo:
            y[row_lo:row_hi] = _spmv_row_block(
                indptr, indices, data, x, row_lo, row_hi
            )
    else:  # pragma: no cover - block partitions are always contiguous
        for lo, hi in y_rects:
            if hi[0] > lo[0]:
                y[lo[0] : hi[0]] = _spmv_row_block(
                    indptr, indices, data, x, lo[0], hi[0]
                )
    return None


#: (id(indptr array), id(the chunk's y rect list), index bytes, total
#: rows, machine) -> pinned per-rank seconds of the chunk.  A chunk
#: replayed in the parent hands in the same rect list every epoch
#: (``executor.wire_rects`` memoizes it per range on an interned
#: ``RectTable``), so the per-rank loop below runs once per chunk
#: geometry; lists cut per call (a worker process's, whose tables are
#: plain lists rebuilt from the plan ship, and the seed path's) miss.
_SPMV_CHUNK_COST_CACHE: Dict[Tuple, Tuple[np.ndarray, list, List[float]]] = {}


def _spmv_chunk_cost(bases, rects, scalars, machine: MachineConfig):
    """Per-rank modelled seconds of an SpMV chunk (mirrors ``_spmv_cost``).

    Reads only the sparsity structure (``indptr`` values, which the
    chunk never writes) and y's shape, so running after the chunk's
    execute observes the same state the interleaved per-rank loop does —
    and, with both pinned in the entry, the memoized seconds are the
    floats a recomputation would return.
    """
    if not hotpath_cache_enabled():
        return _spmv_chunk_cost_uncached(bases, rects, scalars, machine)
    indptr, y_rects = bases[0], rects[4]
    key = (
        id(indptr), id(y_rects), scalars[0] if scalars else None,
        bases[4].shape[0], machine,
    )
    entry = _SPMV_CHUNK_COST_CACHE.get(key)
    if entry is None or entry[0] is not indptr or entry[1] is not y_rects:
        seconds = _spmv_chunk_cost_uncached(bases, rects, scalars, machine)
        _evict_oldest(_SPMV_CHUNK_COST_CACHE, _SPMV_COST_CACHE_LIMIT)
        entry = _SPMV_CHUNK_COST_CACHE[key] = (indptr, y_rects, seconds)
    return list(entry[2])


def _spmv_chunk_cost_uncached(bases, rects, scalars, machine: MachineConfig):
    indptr = bases[0]
    total_rows = bases[4].shape[0]
    index_bytes = float(scalars[0]) if scalars else 8.0
    # The halo term is the same for every rank: priced once per chunk.
    halo_seconds = 0.0
    if machine.num_gpus > 1:
        halo_bytes = min(total_rows, 2 * int(np.sqrt(max(1, total_rows)))) * 8.0
        halo_seconds = machine.point_to_point_time(halo_bytes)
    seconds = []
    for lo, hi in rects[4]:
        row_lo, row_hi = lo[0], hi[0]
        rows = max(0, row_hi - row_lo)
        if rows == 0:
            seconds.append(machine.kernel_launch_latency)
            continue
        nnz = float(indptr[row_hi] - indptr[row_lo])
        bytes_moved = nnz * (8.0 + index_bytes + 8.0) + rows * (index_bytes + 8.0)
        flops = 2.0 * nnz
        rank_seconds = machine.kernel_launch_latency + max(
            bytes_moved / machine.gpu_memory_bandwidth,
            flops / machine.gpu_peak_flops,
        )
        if machine.num_gpus > 1:
            rank_seconds += halo_seconds
        seconds.append(rank_seconds)
    return seconds


register_opaque_task(
    "spmv_csr",
    _spmv_execute,
    _spmv_cost,
    chunk_execute=_spmv_chunk_execute,
    chunk_cost_seconds=_spmv_chunk_cost,
)


class csr_matrix:  # noqa: N801 - mirrors the SciPy class name
    """A distributed sparse matrix in CSR format."""

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
        index_bytes: int = 4,
        context: Optional[RuntimeContext] = None,
    ) -> None:
        self.context = context or get_context()
        self.shape = (int(shape[0]), int(shape[1]))
        self.nnz = int(len(data))
        #: Bytes per stored coordinate (4 matches the PETSc-style 32-bit
        #: optimisation described in the paper; 8 models 64-bit indices).
        self.index_bytes = int(index_bytes)
        self._indptr_store = self.context.create_store((self.shape[0] + 1,), name="csr_indptr")
        self._indices_store = self.context.create_store((self.nnz,), name="csr_indices")
        self._data_store = self.context.create_store((self.nnz,), name="csr_data")
        self.context.attach(self._indptr_store, np.asarray(indptr, dtype=np.float64))
        self.context.attach(self._indices_store, np.asarray(indices, dtype=np.float64))
        self.context.attach(self._data_store, np.asarray(data, dtype=np.float64))
        self._host_diagonal = self._compute_diagonal(indptr, indices, data)

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    @staticmethod
    def _compute_diagonal(indptr, indices, data) -> np.ndarray:
        rows = len(indptr) - 1
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        # Row id of every stored entry, then pick the entries on the diagonal.
        row_of_entry = np.repeat(np.arange(rows, dtype=np.int64), np.diff(indptr))
        diagonal = np.zeros(rows)
        on_diagonal = row_of_entry == indices
        diagonal[row_of_entry[on_diagonal]] = data[on_diagonal]
        return diagonal

    @property
    def nrows(self) -> int:
        """Number of rows."""
        return self.shape[0]

    @property
    def ncols(self) -> int:
        """Number of columns."""
        return self.shape[1]

    def diagonal(self) -> ndarray:
        """The matrix diagonal as a dense distributed vector."""
        from repro.frontend.cunumeric.creation import array

        return array(self._host_diagonal, name="csr_diag")

    # ------------------------------------------------------------------
    # SpMV.
    # ------------------------------------------------------------------
    def dot(self, x: ndarray) -> ndarray:
        """Sparse mat-vec product ``A @ x`` (an opaque SpMV task)."""
        if x.ndim != 1 or x.shape[0] != self.ncols:
            raise ValueError(f"cannot multiply {self.shape} matrix by {x.shape} vector")
        out = x._fresh_like((self.nrows,), name="spmv_out")
        replicated = (self.context.replication(), Privilege.READ, None)
        # x is read through its natural block partition plus a halo gather
        # (modelled inside the SpMV cost function), mirroring how Legate
        # Sparse gathers only the columns its local rows touch rather than
        # replicating the whole vector.
        out._submit(
            "spmv_csr",
            (self._indptr_store, self._indices_store, self._data_store, x.store, out.store),
            (replicated, replicated, replicated, x.read_spec(), out.write_spec()),
            (float(self.index_bytes),),
        )
        return out

    def __matmul__(self, x: ndarray) -> ndarray:
        return self.dot(x)

    def to_dense(self) -> np.ndarray:
        """The matrix as a dense host array (tests only)."""
        indptr = self.context.read_array(self._indptr_store).astype(np.int64)
        indices = self.context.read_array(self._indices_store).astype(np.int64)
        data = self.context.read_array(self._data_store)
        dense = np.zeros(self.shape)
        for row in range(self.nrows):
            for position in range(indptr[row], indptr[row + 1]):
                dense[row, indices[position]] = data[position]
        return dense


def csr_from_dense(dense: np.ndarray, index_bytes: int = 4) -> csr_matrix:
    """Build a CSR matrix from a dense host array."""
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = dense.shape
    indptr = [0]
    indices = []
    data = []
    for row in range(rows):
        nonzero = np.nonzero(dense[row])[0]
        indices.extend(int(c) for c in nonzero)
        data.extend(float(v) for v in dense[row, nonzero])
        indptr.append(len(indices))
    return csr_matrix(
        np.asarray(indptr), np.asarray(indices), np.asarray(data), (rows, cols),
        index_bytes=index_bytes,
    )


def poisson_2d(grid_points: int, index_bytes: int = 4) -> csr_matrix:
    """The standard 5-point finite-difference Laplacian on a square grid.

    This is the matrix family used by the paper's Krylov-solver and
    multigrid benchmarks: ``grid_points`` is the number of points along
    one side, the matrix is ``grid_points**2`` square with at most five
    non-zeros per row.
    """
    n = int(grid_points)
    rows = n * n
    grid_i, grid_j = np.divmod(np.arange(rows, dtype=np.int64), n)

    # Build the five diagonals as (row, column, value) triples, mask out the
    # entries that fall off the grid, and sort by (row, column).
    row_blocks = []
    col_blocks = []
    val_blocks = []

    def add_band(mask: np.ndarray, column_offset: int, value: float) -> None:
        band_rows = np.arange(rows, dtype=np.int64)[mask]
        row_blocks.append(band_rows)
        col_blocks.append(band_rows + column_offset)
        val_blocks.append(np.full(band_rows.shape, value))

    add_band(grid_i > 0, -n, -1.0)
    add_band(grid_j > 0, -1, -1.0)
    add_band(np.ones(rows, dtype=bool), 0, 4.0)
    add_band(grid_j < n - 1, 1, -1.0)
    add_band(grid_i < n - 1, n, -1.0)

    all_rows = np.concatenate(row_blocks)
    all_cols = np.concatenate(col_blocks)
    all_vals = np.concatenate(val_blocks)
    order = np.lexsort((all_cols, all_rows))
    all_rows, all_cols, all_vals = all_rows[order], all_cols[order], all_vals[order]

    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.add.at(indptr, all_rows + 1, 1)
    indptr = np.cumsum(indptr)
    return csr_matrix(
        indptr, all_cols, all_vals, (rows, rows), index_bytes=index_bytes
    )
