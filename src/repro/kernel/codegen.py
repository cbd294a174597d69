"""Code generation: KIR kernels compiled to blocked NumPy bodies, run by one driver.

The paper's Diffuse JIT-compiles fused MLIR kernels to real device code so
that a memoized replay round executes pre-compiled kernels with no
per-statement interpretation, and so that task-local temporaries become
register values: a fused kernel reads its inputs once and writes its
outputs once.  This module plays that role for the reproduction.  A KIR
:class:`~repro.kernel.kir.Function` is translated to the Python source of
a *body* that holds only what touches data — the ufunc calls of each
loop's block, the reductions after each loop and a ranked section's rank
loop — compiled with the builtin ``compile`` exactly once and run by
:func:`_run`, the one hand-written driver, from a small
:class:`KernelPlan`: the driver looks the buffers up, raises for a
missing one, converts the scalars, plans each loop's blocks
(:class:`_Call`) and packages the reduction partials.

A KIR ``Load`` is an element-wise load at the current loop index, so any
schedule that visits every index once is a faithful execution of a loop.
The body visits one cache-sized *block* of the tile at a time, as
``ufunc(..., out)`` calls on a few block-sized scratch registers owned by
the call, buffer assignments writing straight into the target slice.  An
extent of at most one block — or a call whose buffer windows make a
block loop illegal (:func:`_block_rows`) — runs the same body once over
the unsliced buffers with ``out=None``: whole-tile evaluation.  The
operations, their order and the reductions (of full-length operands)
are the interpreter's, so results are bit-identical, which the
differential backend (``REPRO_KERNEL_BACKEND=differential``) asserts on
every call; ``docs/architecture.md`` ("Kernel tier") has the details.

Compiled bodies are cached by source text process-wide, so two kernels
with the same canonical form compile once (:func:`codegen_stats` counts).
"""

from __future__ import annotations

import functools
import math
import re
import threading
import time
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.kernel.kir import (
    Assign,
    BinOp,
    BinOpKind,
    Const,
    Expr,
    Function,
    Load,
    LocalRef,
    Loop,
    ParamKind,
    Reduce,
    ReduceKind,
    ScalarRef,
    UnOp,
    UnOpKind,
    _erf,
    _erf_into,
)
from repro.kernel.lowering import KernelExecutor, ReductionPartial
from repro.kernel.passes.compose import KernelBinding


class CodegenError(RuntimeError):
    """Raised when a kernel cannot be translated to Python source."""


# ----------------------------------------------------------------------
# Operator spellings, mirroring the lambdas of ``kir._BINOP_EVAL`` /
# ``kir._UNOP_EVAL``: the ufunc the operator dispatches to (array
# operands, ``out=`` form), and the spelling of a sub-expression whose
# operands are all scalars, which stays Python-level ``np.float64``
# arithmetic.
# ----------------------------------------------------------------------
_BINOPS: Dict[BinOpKind, Tuple[str, str]] = {
    BinOpKind.ADD: ("add", "({lhs} + {rhs})"),
    BinOpKind.SUB: ("subtract", "({lhs} - {rhs})"),
    BinOpKind.MUL: ("multiply", "({lhs} * {rhs})"),
    BinOpKind.DIV: ("divide", "({lhs} / {rhs})"),
    BinOpKind.POW: ("power", "np.power({lhs}, {rhs})"),
    BinOpKind.MAX: ("maximum", "np.maximum({lhs}, {rhs})"),
    BinOpKind.MIN: ("minimum", "np.minimum({lhs}, {rhs})"),
    BinOpKind.LT: ("less", "({lhs} < {rhs}).astype(np.float64)"),
    BinOpKind.GT: ("greater", "({lhs} > {rhs}).astype(np.float64)"),
    BinOpKind.LE: ("less_equal", "({lhs} <= {rhs}).astype(np.float64)"),
    BinOpKind.GE: ("greater_equal", "({lhs} >= {rhs}).astype(np.float64)"),
    BinOpKind.EQ: ("equal", "({lhs} == {rhs}).astype(np.float64)"),
}

#: Comparisons yield float64 0.0/1.0: a float64 ``out`` receives exactly
#: the values of ``.astype(np.float64)``, which a fresh (boolean) result
#: still needs.
_COMPARISONS = {BinOpKind.LT, BinOpKind.GT, BinOpKind.LE, BinOpKind.GE, BinOpKind.EQ}

#: ``ERF`` and ``RECIP`` have no ufunc of their own (see ``_operation``).
_UNOPS: Dict[UnOpKind, Tuple[Optional[str], str]] = {
    UnOpKind.NEG: ("negative", "(-{operand})"),
    UnOpKind.SQRT: ("sqrt", "np.sqrt({operand})"),
    UnOpKind.EXP: ("exp", "np.exp({operand})"),
    UnOpKind.LOG: ("log", "np.log({operand})"),
    UnOpKind.ABS: ("absolute", "np.abs({operand})"),
    UnOpKind.ERF: (None, "_erf({operand})"),
    UnOpKind.SIN: ("sin", "np.sin({operand})"),
    UnOpKind.COS: ("cos", "np.cos({operand})"),
    UnOpKind.TANH: ("tanh", "np.tanh({operand})"),
    UnOpKind.RECIP: (None, "(1.0 / {operand})"),
}

#: The ufunc whose ``reduce`` a reduction is.  For array operands
#: ``np.sum``/``np.prod``/``np.max``/``np.min`` all dispatch to exactly
#: ``ufunc.reduce(value, axis=None)`` (``fromnumeric._wrapreduction``), so
#: the reduced values are bit-identical to the interpreter's while the
#: Python dispatch wrapper is skipped.
_REDUCE_UFUNCS: Dict[ReduceKind, str] = {
    ReduceKind.SUM: "add",
    ReduceKind.PROD: "multiply",
    ReduceKind.MAX: "maximum",
    ReduceKind.MIN: "minimum",
}

# Spellings of ``kir.combine_reduction`` for repeated reductions into the
# same target.
_COMBINE_FMT: Dict[ReduceKind, str] = {
    ReduceKind.SUM: "float({acc} + {new})",
    ReduceKind.PROD: "float({acc} * {new})",
    ReduceKind.MAX: "float(max({acc}, {new}))",
    ReduceKind.MIN: "float(min({acc}, {new}))",
}

# The same, over the per-rank columns of a section that reduces by rows.
# Python's ``max(acc, new)`` keeps ``acc`` unless ``new > acc`` — so a NaN
# on either side loses the comparison and the *first* operand survives —
# which ``np.maximum`` (NaN-propagating) does not reproduce.
_ROW_COMBINE_FMT: Dict[ReduceKind, str] = {
    ReduceKind.SUM: "{acc} + {new}",
    ReduceKind.PROD: "{acc} * {new}",
    ReduceKind.MAX: "np.where({new} > {acc}, {new}, {acc})",
    ReduceKind.MIN: "np.where({new} < {acc}, {new}, {acc})",
}

#: Elements per block of a generated block loop: the best point of the
#: sweep recorded in ``docs/architecture.md`` (2 Ki–64 Ki elements on the
#: Black-Scholes kernel).  A handful of 128 KiB registers plus the tile
#: slices stay resident in L2, while each ufunc call still covers enough
#: elements to amortise its ~0.5 µs dispatch.
BLOCK = 16384

#: Source text -> compiled body.  Keyed on the full source so that two
#: structurally-identical kernels (the same canonical form) share one
#: compiled body process-wide.
_FUNCTION_CACHE: Dict[str, Callable] = {}


@dataclass
class CodegenCounters:
    """Process-wide codegen activity counters (asserted by tests)."""

    source_compilations: int = 0
    source_cache_hits: int = 0
    #: Closure calls that ran at least one loop as more than one block.
    multi_block_calls: int = 0
    #: Lines of the sources compiled, and the seconds ``compile`` took.
    source_lines: int = 0
    compile_seconds: float = 0.0

    def reset(self) -> None:
        self.__init__()


_COUNTERS = CodegenCounters()
#: Closures run on pool threads; ``+=`` on a shared counter is not atomic.
_MULTI_BLOCK_LOCK = threading.Lock()


def codegen_stats() -> CodegenCounters:
    """The process-wide codegen counters."""
    return _COUNTERS


def clear_function_cache() -> None:
    """Drop all compiled closures and reset counters (tests only)."""
    _FUNCTION_CACHE.clear()
    _COUNTERS.reset()


# ----------------------------------------------------------------------
# The driver: everything a generated body does not do itself.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelPlan:
    """What the driver does around one generated body (:func:`_run`).

    Plain data, so a :class:`~repro.runtime.procpool.SuperKernelSpec`
    ships it to a worker beside the body's source.
    """

    #: Passed as ``buffers[name]``, in the body's parameter order.
    buffers: Tuple[str, ...]
    #: Passed as ``np.float64(scalars[name])``, after the buffers.
    scalars: Tuple[str, ...]
    #: ``(buffer position, message)``: a ``None`` there raises first.
    guards: Tuple[Tuple[int, str], ...]
    #: Per block loop: reference position (-1: always one block), tile
    #: buffers, written ones among them, registers, full-length scratch,
    #: block-local allocations, and the argument positions of its whole
    #: buffers (``None``: the body passes them).
    loops: Tuple[Tuple[int, int, int, int, int, int, Optional[Tuple[int, ...]]], ...]
    #: Empty lists passed last, for a ranked section's per-rank partials.
    lists: int
    #: What the body returns, in order: ``(target, kind)`` of each of a
    #: kernel's ``ReductionPartial`` objects, or ``(prefixed target,
    #: None)`` of each of a super-kernel's arrays of per-rank partials.
    partials: Tuple[Tuple[str, Optional[ReduceKind]], ...]


class KernelSource(str):
    """The text of a generated body, carrying the plan it runs under."""

    def __new__(cls, text: str, plan: KernelPlan) -> "KernelSource":
        source = super().__new__(cls, text)
        source.plan = plan
        return source

    def __reduce__(self):
        # The plan travels on its own (``SuperKernelSpec.plan``).
        return str, (str(self),)


def _block_rows(reference, whole, written: int, block: int) -> int:
    """Rows per block of a loop over ``reference``; 0 runs it as one block.

    ``reference`` holds more than ``block`` elements; ``whole`` are the
    loop's tile buffers, the ``written`` ones first.  A block loop is
    legal when every index is computed from its own index alone, from
    the operands whole-tile evaluation would see:

    * Every buffer spans the reference index space.  A rank-0 buffer
      would be legal to broadcast, but a register filled from rank-0
      operands is an array where whole-tile evaluation has a scalar, and
      NumPy computes ``power(x, 0.5)`` differently for the two.
    * Every written window is identical to or disjoint from every other.
      Whole-tile ``target[...] = value`` holds under any aliasing because
      NumPy buffers overlapping operands; a block loop does not
      (``x[1:] = x[:-1]``: block *k*'s write changes what block *k+1*
      reads).
    """
    shape = reference.shape
    extent = shape[0]
    rows = max(1, block // (reference.size // extent))
    if rows >= extent:
        return 0
    for buffer in whole:
        if buffer is not None and buffer.shape != shape:
            return 0
    for target in whole[:written]:
        for other in whole:
            if other is None or other is target or not np.may_share_memory(target, other):
                continue
            data = other.__array_interface__["data"], target.__array_interface__["data"]
            if other.strides != target.strides or data[0] != data[1]:
                return 0
    return rows


class _Call:
    """One run of a compiled body that has block loops: the driver's side of them.

    The body is shared process-wide by pool threads, so what a call
    allocates, and whether it has blocked yet, belongs to this object.
    ``args`` is the argument list the body was called with, ``block`` the
    elements per block this call plans at, and ``scratch`` (when given)
    a flat float64 buffer of at least :func:`scratch_elements` the
    registers are cut from instead of a fresh allocation: the loops run
    one after another and no register outlives its loop.
    """

    __slots__ = ("loops", "args", "block", "scratch", "blocked", "full")

    def __init__(self, loops, args: list, block: int, scratch=None) -> None:
        self.loops = loops
        self.args = args
        self.block = block
        self.scratch = scratch
        self.blocked = False
        self.full: Optional[List[np.ndarray]] = None

    def blocks(self, loop: int, *buffers) -> Sequence[tuple]:
        """What the body's ``for`` over loop ``loop`` unpacks, one tuple a block.

        The loop's whole buffers are its tile buffers, written ones
        first, then the reference buffer of each block-local allocation:
        taken from ``args`` at the loop's plan positions, or — for a loop
        over body locals (a ranked section's rank views, a full-length
        allocation, a folded intermediate) — passed in ``buffers``.  A
        block is the tile buffers, registers, allocations and full-length
        scratch cut to it; one block of the full extent has the buffers
        whole, ``None`` for each register and scratch (whole-tile
        evaluation) and a fresh ``empty_like`` per allocation.
        """
        reference, tiles, written, registers, fulls, take = self.loops[loop]
        if take is not None:
            buffers = take(self.args)
        rows = 0
        if reference >= 0 and buffers[reference].size > self.block:
            rows = _block_rows(buffers[reference], buffers[:tiles], written, self.block)
        if not rows:
            self.full = None
            if tiles == len(buffers):  # no allocation between registers and scratch
                return (buffers + (None,) * (registers + fulls),)
            allocs = tuple(map(np.empty_like, buffers[tiles:]))
            return (buffers[:tiles] + (None,) * registers + allocs + (None,) * fulls,)
        whole = buffers[:tiles]
        anchor = whole[reference]
        if not self.blocked:
            self.blocked = True
            with _MULTI_BLOCK_LOCK:
                _COUNTERS.multi_block_calls += 1
        shape = anchor.shape
        extent = shape[0]
        cut_shape = (registers + len(buffers) - tiles, rows) + shape[1:]
        size = math.prod(cut_shape)
        if self.scratch is not None and self.scratch.size >= size:
            scratch = self.scratch[:size].reshape(cut_shape)
        else:
            scratch = np.empty(cut_shape)
        self.full = [np.empty(shape) for _ in range(fulls)]
        own = tuple(scratch)
        blocks = []
        for start in range(0, extent, rows):
            cut = slice(start, start + rows)
            if start + rows > extent:
                own = tuple(scratch[:, : extent - start])
            blocks.append(
                tuple(None if b is None else b[cut] for b in whole)
                + own
                + tuple(full[cut] for full in self.full)
            )
        return blocks

    def fulls(self, *values) -> Sequence:
        """A loop's full-length values: as computed, or the arrays its blocks filled."""
        return values if self.full is None else self.full


def _broadcast(value, reference):
    """A reduced operand as the interpreter sees it: a 0-d value spans
    the loop's index space, so summing a constant counts elements."""
    value = np.asarray(value)
    if value.ndim == 0 and reference is not None:
        value = np.broadcast_to(value, reference.shape)
    return value


def _getter(keys: Sequence) -> Callable:
    """``container -> tuple(container[key] for key in keys)``, in C for two
    keys or more."""
    return itemgetter(*keys) if len(keys) > 1 else partial(_take, tuple(keys))


def _take(keys: tuple, container) -> tuple:
    return tuple(map(container.__getitem__, keys))


def _driver(plan: KernelPlan) -> tuple:
    """What :func:`_run` reads of ``plan`` per call, as getters.

    ``(buffers, loops)``: the getter of the buffer arguments, and each
    loop as :meth:`_Call.blocks` reads it, its argument positions turned
    into one getter of its whole buffers.
    """
    loops = []
    for reference, tiles, written, registers, fulls, _allocs, positions in plan.loops:
        take = None if positions is None else _getter(positions)
        loops.append((reference, tiles, written, registers, fulls, take))
    return _getter(plan.buffers), tuple(loops)


def scratch_elements(plan: KernelPlan, block: int) -> int:
    """Elements of the flat scratch a call of ``plan``'s body blocking at
    ``block`` cuts every loop's registers and allocations from."""
    rows = max((loop[3] + loop[5] for loop in plan.loops), default=0)
    return rows * block


def _run(
    body: Callable, plan: KernelPlan, driver: tuple, buffers, scalars,
    block: Optional[int] = None, scratch: Optional[np.ndarray] = None,
):
    """Run a compiled body under its plan: the driver of every generated kernel.

    Binds the buffers, raises for a guarded one that is not materialised
    before anything runs, converts the scalars as the interpreter does,
    hands a body with block loops a fresh :class:`_Call` planning blocks
    of ``block`` elements (:data:`BLOCK` by default) in ``scratch`` (a
    fresh allocation when ``None``) and packages the partials.
    ``driver`` is :func:`_driver` of ``plan``.
    """
    # No comprehensions here: each is a function frame of its own.
    take_buffers, loops = driver
    args = list(take_buffers(buffers))
    for position, message in plan.guards:
        if args[position] is None:
            raise RuntimeError(message)
    for name in plan.scalars:
        args.append(np.float64(scalars[name]))
    if plan.lists:
        args += [[] for _ in range(plan.lists)]
    values = body(_Call(loops, args, block or BLOCK, scratch) if loops else None, *args)
    partials: Dict[str, object] = {}
    if plan.partials:
        for (key, kind), value in zip(plan.partials, values):
            partials[key] = (
                np.asarray(value, dtype=np.float64)
                if kind is None
                else ReductionPartial(kind=kind, value=value)
            )
    return partials


#: Globals shared by every generated body.
_KERNEL_ENV: Dict[str, object] = {
    "np": np,
    "_erf": _erf,
    "_erf_into": _erf_into,
    "_broadcast": _broadcast,
}

_IDENT_RE = re.compile(r"\W")


class _NameTable:
    """Deterministic mapping from KIR names to Python identifiers."""

    def __init__(self) -> None:
        self._names: Dict[Tuple[str, str], str] = {}

    def get(self, kind: str, name: str) -> str:
        key = (kind, name)
        ident = self._names.get(key)
        if ident is None:
            ident = f"_{kind}{len(self._names)}_{_IDENT_RE.sub('_', name)}"
            self._names[key] = ident
        return ident

    def seed(self, kind: str, name: str, ident: str) -> None:
        """Pin a name to an existing identifier (cross-section aliasing)."""
        self._names[(kind, name)] = ident


class _SourceWriter:
    """The lines of one generated body and the plan its driver runs it with.

    The parameters are the driver's arguments in :class:`KernelPlan`
    order, after the per-call :class:`_Call` (``_k``): the buffers, the
    scalars, then the lists of ranked partials.
    """

    def __init__(self, comment: str) -> None:
        self.comment = comment
        self.lines: List[str] = []
        self.indent = 1
        #: ``(key, identifier)`` of each buffer and scalar parameter.
        self.buffers: List[Tuple[str, str]] = []
        self.scalars: List[Tuple[str, str]] = []
        self.lists: List[str] = []
        #: Buffer key -> message of its guard, first guard first.
        self.guards: Dict[str, str] = {}
        self.loops: List[tuple] = []
        #: ``(key, kind, identifier)`` of each value the body returns.
        self.partials: List[Tuple[str, Optional[ReduceKind], str]] = []

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def source(self) -> KernelSource:
        params = ["_k"] + [ident for _key, ident in self.buffers + self.scalars] + self.lists
        lines = [f"def __kernel__({', '.join(params)}):  # {self.comment}"] + self.lines
        if self.partials:
            lines.append(f"    return {_names([ident for _key, _kind, ident in self.partials])}")
        elif not self.lines:
            lines.append("    pass")
        position = {key: index for index, (key, _ident) in enumerate(self.buffers)}
        plan = KernelPlan(
            buffers=tuple(key for key, _ident in self.buffers),
            scalars=tuple(key for key, _ident in self.scalars),
            # Allocations and folded intermediates are body locals, never None.
            guards=tuple((position[k], m) for k, m in self.guards.items() if k in position),
            loops=tuple(self.loops),
            lists=len(self.lists),
            partials=tuple((key, kind) for key, kind, _ident in self.partials),
        )
        return KernelSource("\n".join(lines) + "\n", plan)


def _names(items: Sequence[str]) -> str:
    """``a, b`` (``a,`` for one): an unpacking target or a returned tuple."""
    return ", ".join(items) + ("," if len(items) == 1 else "")


@dataclass
class _Value:
    """A rendered operand of the block body."""

    text: str
    #: All-scalar sub-expression: Python-level ``np.float64`` arithmetic.
    scalar: bool = False
    #: The scratch register holding it, if any.
    register: Optional[int] = None
    #: The tile buffer it views unchanged (a bare load or an alias of one).
    buffer: Optional[str] = None


class _ReduceHazard(Exception):
    """A reduction reads a buffer the same loop writes afterwards."""


def _block_local_allocs(function: Function, buffer_params: Set[str]) -> Dict[str, str]:
    """Task-local allocations that live in a block-sized register: name -> like.

    An allocation never leaves the kernel, so it needs its full extent
    only when it outlives one block of one loop: accessed from two
    loops, read before the block wrote it (the zero fill is observable),
    another allocation's reference buffer, a loop's index buffer or a
    reduction target.  Every other one is filled where it is defined and
    read back inside the same block, whatever its use count.
    """
    allocs = {s.name: s.like for s in function.allocs if s.name not in buffer_params}
    for stmt in function.allocs:
        allocs.pop(stmt.like, None)
    home: Dict[str, int] = {}
    for position, loop in enumerate(function.loops):
        allocs.pop(loop.index_buffer, None)
        written: Set[str] = set()
        for stmt in loop.body:
            escaped = stmt.buffers_read() - written
            if isinstance(stmt, Reduce):
                escaped.add(stmt.target)
            for name in stmt.buffers_read() | stmt.buffers_written():
                if home.setdefault(name, position) != position:
                    escaped.add(name)
            written |= stmt.buffers_written()
            for name in escaped:
                allocs.pop(name, None)
    return allocs


def _count_local_refs(expr: Expr, counts: Dict[str, int]) -> None:
    """Count the ``LocalRef`` occurrences of ``expr`` (with multiplicity)."""
    if isinstance(expr, LocalRef):
        counts[expr.name] = counts.get(expr.name, 0) + 1
    elif isinstance(expr, BinOp):
        _count_local_refs(expr.lhs, counts)
        _count_local_refs(expr.rhs, counts)
    elif isinstance(expr, UnOp):
        _count_local_refs(expr.operand, counts)


class _LoopEmitter:
    """Renders one KIR loop as a block body over scratch registers.

    Each statement is linearised in post-order into ``ufunc(a, b, out)``
    calls.  An operation's result goes to the lowest free register (its
    operands' registers are released first, so a dying operand is
    overwritten in place), the last operation of a buffer assignment
    writes straight into the target, and a loop-local value keeps its
    register up to its last reference.  Inside the block loop a tile
    buffer is its block view (kind ``c`` of the name table), after it the
    whole buffer (kind ``b``).  With ``defer`` the reductions are finished
    after the block loop; without it the loop is not blockable and they
    run where they stand.
    """

    def __init__(self, kernel: "_KernelEmitter", loop: Loop, defer: bool) -> None:
        self.kernel = kernel
        self.loop = loop
        self.defer = defer
        self.body: List[str] = []
        self.post: List[str] = []
        self.locals: Dict[str, _Value] = {}
        #: References to each local still to be rendered.
        self.uses: Dict[str, int] = {}
        self.pins: Dict[int, int] = {}
        self.free: Set[int] = set()
        self.registers = 0
        #: Tile buffers the loop touches (insertion-ordered) and writes.
        self.tiles: Dict[str, None] = {}
        self.written: Dict[str, None] = {}
        self.allocs: Dict[str, None] = {}
        #: Names that receive a full-length value (reduced expressions,
        #: cross-section locals), by scratch index.
        self.fulls: List[str] = []
        self.reduces: List[Tuple[Reduce, str]] = []
        for stmt in loop.body:
            _count_local_refs(stmt.expr, self.uses)

    # -- registers -----------------------------------------------------
    def _acquire(self) -> int:
        if self.free:
            register = min(self.free)
            self.free.remove(register)
            return register
        self.registers += 1
        return self.registers - 1

    def _pin(self, value: _Value) -> None:
        """Hold ``value``'s register for one more consumer."""
        if value.register is not None:
            self.pins[value.register] = self.pins.get(value.register, 0) + 1

    def _release(self, value: _Value) -> None:
        """One holder of ``value`` is done; the last one frees its register."""
        if value.register is not None:
            self.pins[value.register] -= 1
            if not self.pins[value.register]:
                self.free.add(value.register)

    def _unbind(self, name: str) -> None:
        value = self.locals.pop(name, None)
        if value is not None:
            self._release(value)

    # -- expressions ---------------------------------------------------
    def _op(self, ufunc, operands, dest=None, result=None, cast=False, scratch=()) -> _Value:
        """Emit one ufunc call; ``result`` is named when ``dest`` may be None.

        With ``scratch`` registers it is a call of the helper
        ``_<ufunc>_into`` (:func:`_erf_into`), which takes them last.
        """
        for operand in operands:
            self._release(operand)
        register = None
        if dest is None:
            register = self._acquire()
            self.pins[register] = 1  # held for the one consumer of the result
            dest, result = f"_o{register}", f"_t{register}"
        args = ", ".join(v.text for v in operands)
        if scratch:
            call = f"_{ufunc}_into({args}, {dest}, {', '.join(f'_o{r}' for r in scratch)})"
        else:
            # Positional ``out`` is the cheaper call; NumPy deprecates it
            # for exactly these two ufuncs.
            keyword = "out=" if ufunc in ("maximum", "minimum") else ""
            call = f"np.{ufunc}({args}, {keyword}{dest})"
        if result is None:
            self.body.append(call)
            return _Value(dest)
        if cast:
            call += ".astype(np.float64, copy=False)"
        self.body.append(f"{result} = {call}")
        return _Value(result, register=register)

    def _leaf(self, expr: Expr) -> _Value:
        kernel = self.kernel
        if isinstance(expr, Const):
            # repr() round-trips finite doubles exactly; ``inf`` and
            # ``nan`` are not names in the generated module, so they are
            # spelled as the strings np.float64 parses.  np.float64
            # mirrors the interpreter's Const evaluation.
            value = expr.value
            text = repr(value) if math.isfinite(value) else repr(str(float(value)))
            return _Value(f"np.float64({text})", scalar=True)
        if isinstance(expr, ScalarRef):
            return _Value(kernel.ident("s", expr.name), scalar=True)
        if isinstance(expr, LocalRef):
            if expr.name not in self.locals:
                raise CodegenError(
                    f"local '{expr.name}' is read before it is defined in "
                    f"kernel '{kernel.function.name}'"
                )
            value = self.locals[expr.name]
            self._pin(value)  # held until this reference is consumed
            self.uses[expr.name] -= 1
            if not self.uses[expr.name]:
                # The last reference: its consumer frees the register
                # (and may overwrite it in place).
                self._unbind(expr.name)
            return value
        if isinstance(expr, Load):
            ident = kernel.ident("c", expr.buffer)
            if expr.buffer in kernel.block_allocs:
                self.allocs[expr.buffer] = None
                return _Value(ident)
            self.tiles[expr.buffer] = None
            return _Value(ident, buffer=expr.buffer)
        raise CodegenError(f"unknown expression {expr!r}")

    def _operation(self, expr: Expr, dest, result) -> _Value:
        if isinstance(expr, BinOp):
            ufunc, scalar_fmt = _BINOPS[expr.op]
            lhs, rhs = self._value(expr.lhs), self._value(expr.rhs)
            if lhs.scalar and rhs.scalar:
                return _Value(scalar_fmt.format(lhs=lhs.text, rhs=rhs.text), scalar=True)
            return self._op(ufunc, (lhs, rhs), dest, result, expr.op in _COMPARISONS)
        ufunc, scalar_fmt = _UNOPS[expr.op]
        operand = self._value(expr.operand)
        if operand.scalar:
            return _Value(scalar_fmt.format(operand=operand.text), scalar=True)
        if expr.op is UnOpKind.ERF:
            # The operand holds its register while the helper's four are
            # taken, so the helper never overwrites it before its last
            # read; the result may land in any of them (``copysign`` last).
            scratch = [self._acquire() for _ in range(4)]
            self.free.update(scratch)
            return self._op("erf", (operand,), dest, result, scratch=scratch)
        if expr.op is UnOpKind.RECIP:
            return self._op("divide", (_Value("1.0", scalar=True), operand), dest, result)
        return self._op(ufunc, (operand,), dest, result)

    def _value(self, expr: Expr, dest=None, result=None) -> _Value:
        """Render ``expr``; with ``dest`` its value lands there.

        ``dest`` alone is a buffer: the last operation writes into it, a
        bare value is copied.  ``dest`` with ``result`` is scratch that
        is ``None`` when the loop runs as one block: the value comes back
        fresh under the name ``result``.
        """
        if isinstance(expr, (BinOp, UnOp)):
            value = self._operation(expr, dest, result)
            if not value.scalar:
                return value
        else:
            value = self._leaf(expr)
        return value if dest is None else self._copy(value, dest, result)

    def _copy(self, value: _Value, dest: str, result) -> _Value:
        """Copy a bare value into ``dest`` (see :meth:`_value`)."""
        self._release(value)
        if result is None:
            self.body.append(f"{dest}[...] = {value.text}")
            return _Value(dest)
        self.body.append(f"{result} = np.positive({value.text}, {dest})")
        return _Value(result)

    def _full(self, result: str) -> Tuple[str, str]:
        """Claim full-length scratch for a value named ``result``: (dest, result)."""
        self.fulls.append(result)
        return f"_u{len(self.fulls) - 1}", result

    # -- statements ----------------------------------------------------
    def run(self) -> "_LoopEmitter":
        for index, stmt in enumerate(self.loop.body):
            if isinstance(stmt, Assign):
                self._assign(stmt)
            elif isinstance(stmt, Reduce):
                self._reduce(index, stmt)
            else:  # pragma: no cover - no other loop statement kinds
                raise CodegenError(f"unknown loop statement {stmt!r}")
        if self.defer:
            for stmt, operand in self.reduces:
                self._finish_reduce(stmt, operand, self.post)
        return self

    def _assign(self, stmt: Assign) -> None:
        kernel = self.kernel
        if stmt.is_local:
            value = self._value(stmt.expr)
            self._unbind(stmt.target)
            if self.uses.get(stmt.target):
                self.locals[stmt.target] = value  # now the local's hold
            else:
                self._release(value)
        elif stmt.target in kernel.fold_writes:
            # A dead cross-section intermediate lives only as a local of
            # the generated function (never as a region field).
            self._value(stmt.expr, *self._full(kernel.fold_writes[stmt.target]))
        elif stmt.target in kernel.block_allocs:
            self.allocs[stmt.target] = None
            self._value(stmt.expr, dest=kernel.ident("c", stmt.target))
        elif stmt.target in kernel.tiles:
            self.tiles[stmt.target] = self.written[stmt.target] = None
            self._value(stmt.expr, dest=kernel.ident("c", stmt.target))
        else:
            raise CodegenError(
                f"assignment to unknown buffer '{stmt.target}' in "
                f"kernel '{kernel.function.name}'"
            )

    def _reduce(self, index: int, stmt: Reduce) -> None:
        if isinstance(stmt.expr, (BinOp, UnOp)):
            operand = f"_v{len(self.fulls)}"
            self._value(stmt.expr, *self._full(operand))
        else:
            leaf = self._leaf(stmt.expr)
            if leaf.scalar:
                operand = leaf.text
            elif leaf.buffer is not None:
                # A bare buffer is reduced as it stands, so the reduction
                # can wait for the end of the block loop only if nothing
                # writes the buffer in between.
                later = self.loop.body[index + 1 :]
                if self.defer and any(leaf.buffer in s.buffers_written() for s in later):
                    raise _ReduceHazard
                operand = self.kernel.ident("b", leaf.buffer)
            else:
                operand = f"_v{len(self.fulls)}"
                self._copy(leaf, *self._full(operand))
        if self.defer:
            self.reduces.append((stmt, operand))
        else:
            self._finish_reduce(stmt, operand, self.body)

    def _finish_reduce(self, stmt: Reduce, operand: str, lines: List[str]) -> None:
        kernel = self.kernel
        index = self.loop.index_buffer
        if index in kernel.tiles:
            # Mirror the interpreter's runtime broadcast exactly.
            operand = f"_broadcast({operand}, {kernel.ident('b', index)})"
        reduce = f"np.{_REDUCE_UFUNCS[stmt.kind]}.reduce"
        if kernel.tile is None:
            reduced, combine = f"float({reduce}({operand}, axis=None))", _COMBINE_FMT
        else:
            # One row per rank of the merged span (broadcast above when
            # 0-d): row ``i`` of ``reduce(axis=1)`` is bit for bit the
            # ``reduce(axis=None)`` of rank ``i``'s tile.
            reduced = f"{reduce}({operand}.reshape(-1, {kernel.tile}), axis=1)"
            combine = _ROW_COMBINE_FMT
        existing = kernel.partials.get(stmt.target)
        if existing is None:
            acc = f"_p{kernel.tag}{len(kernel.partials)}"
            lines.append(f"{acc} = {reduced}")
        else:
            acc, tmp = existing[0], kernel.temp()
            lines.append(f"{tmp} = {reduced}")
            lines.append(f"{acc} = " + combine[stmt.kind].format(acc=acc, new=tmp))
        kernel.partials[stmt.target] = (acc, stmt.kind)

    # -- the block loop around the body --------------------------------
    def write(self, out: _SourceWriter) -> None:
        """A ``for`` over the driver's blocks around the body, then the
        deferred reductions."""
        kernel = self.kernel
        if self.body:
            reference = None
            if self.defer and self.tiles:
                index = self.loop.index_buffer
                reference = index if index in self.tiles else next(iter(self.written or self.tiles))
                if index in kernel.tiles:
                    # Full-length scratch takes the reference shape, which
                    # the reduction broadcast rule expects to be the index
                    # space.
                    self.tiles[index] = None
            ordered = list(self.written) + [t for t in self.tiles if t not in self.written]
            targets = (
                [kernel.ident("c", name) for name in ordered]
                + [f"_o{i}" for i in range(self.registers)]
                + [kernel.ident("c", name) for name in self.allocs]
                + [f"_u{i}" for i in range(len(self.fulls))]
            )
            whole = [
                kernel.ident("b", name)
                for name in ordered + [kernel.block_allocs[alloc] for alloc in self.allocs]
            ]
            # The driver holds the parameters; a loop over body locals
            # passes its buffers.
            params = {ident: index for index, (_key, ident) in enumerate(out.buffers)}
            positions = None
            args = [str(len(out.loops))]
            if all(ident in params for ident in whole):
                positions = tuple(params[ident] for ident in whole)
            else:
                args += whole
            anchor = -1 if reference is None else ordered.index(reference)
            out.loops.append(
                (
                    anchor, len(ordered), len(self.written), self.registers,
                    len(self.fulls), len(self.allocs), positions,
                )
            )
            out.emit(f"for {_names(targets)} in _k.blocks({', '.join(args)}):")
            out.indent += 1
            for line in self.body:
                out.emit(line)
            out.indent -= 1
            if self.fulls:
                out.emit(f"{_names(self.fulls)} = _k.fulls({', '.join(self.fulls)})")
        for line in self.post:
            out.emit(line)


class _KernelEmitter:
    """Emits the Alloc/Assign/Reduce body of one KIR function.

    The one emission path behind :func:`generate_source` and every
    section of :func:`generate_superkernel_source`; parameters, rank
    loops and the shape of the returned partials are the callers'.
    Guards go to the plan under ``prefix`` + the buffer's name.
    """

    def __init__(
        self,
        out: _SourceWriter,
        names,
        function: Function,
        *,
        prefix: str = "",
        may_be_none: Optional[Set[str]] = None,
        fold_writes: Optional[Dict[str, str]] = None,
        tile: Optional[int] = None,
    ) -> None:
        self.out = out
        self.names = names
        self.function = function
        #: Elements per rank when the buffers span several ranks' tiles
        #: and a reduction yields one value per rank (an array, in rank
        #: order) instead of one float.
        self.tile = tile
        #: A section's ``k{i}:``; its identifier form disambiguates
        #: accumulator and temporary names between sections.
        self.prefix = prefix
        self.tag = _IDENT_RE.sub("_", prefix)
        #: Buffer parameters that may be bound to ``None`` (every one,
        #: unless the caller knows better): guarded by the driver.
        self.may_be_none = may_be_none
        self.fold_writes = fold_writes or {}
        params = {p.name for p in function.buffer_params}
        self.block_allocs = _block_local_allocs(function, params)
        #: Names bound to tile-shaped arrays: parameters and allocations
        #: that keep their full extent.
        self.tiles: Set[str] = params - set(self.fold_writes)
        #: Reduction partial accumulators: target -> (ident, last ReduceKind).
        self.partials: Dict[str, Tuple[str, ReduceKind]] = {}
        self._temps = 0

    def ident(self, kind: str, name: str) -> str:
        """The identifier of KIR name ``name`` in this kernel or section."""
        return self.names.get(kind, self.prefix + name)

    def temp(self) -> str:
        self._temps += 1
        return f"_r{self.tag}{self._temps - 1}"

    def _guard(self, name: str, message: str) -> None:
        if self.may_be_none is None or name in self.may_be_none:
            self.out.guards.setdefault(self.prefix + name, message)

    def emit(self) -> Dict[str, Tuple[str, ReduceKind]]:
        function, out = self.function, self.out
        # Task-local allocations.  The reference buffer must be materialised
        # (reduction targets are handed to the executor as None).
        for stmt in function.allocs:
            if stmt.like not in self.tiles:
                raise CodegenError(
                    f"allocation '{stmt.name}' references unknown buffer "
                    f"'{stmt.like}' in kernel '{function.name}'"
                )
            self._guard(
                stmt.like,
                f"allocation '{stmt.name}' has no reference buffer '{stmt.like}'",
            )
            if stmt.name not in self.block_allocs:
                like = self.ident("b", stmt.like)
                out.emit(f"{self.ident('b', stmt.name)} = np.zeros_like({like})")
                self.tiles.add(stmt.name)
        unknown_loads = function.buffers_read() - self.tiles - set(self.block_allocs)
        if unknown_loads:
            raise CodegenError(
                f"kernel '{function.name}' loads undeclared buffers "
                f"{sorted(unknown_loads)}"
            )
        for loop in function.loops:
            for stmt in loop.body:
                if isinstance(stmt, Assign) and not stmt.is_local and stmt.target in self.tiles:
                    self._guard(stmt.target, f"buffer '{stmt.target}' is not materialised")
            try:
                emitter = _LoopEmitter(self, loop, defer=True).run()
            except _ReduceHazard:
                emitter = _LoopEmitter(self, loop, defer=False).run()
            emitter.write(out)
        return self.partials


def generate_source(function: Function, tile: Optional[int] = None) -> KernelSource:
    """Translate a KIR function into the body ``__kernel__`` and its plan.

    Run by the driver, the body takes the executor's ``(buffers,
    scalars)`` dictionaries and returns the reduction partials, exactly
    like the interpreter.  Statement order, per-element operation order
    and reduction calls all match the interpreter so results are
    bit-identical.  With ``tile`` it is the *stacked* body of a merged
    launch: the buffers span several ranks' tiles of ``tile`` elements
    each, and each reduction is one ``reduce(axis=1)`` over the
    operand's ``(ranks, tile)`` rows, returned as a float64 array of
    per-rank partials (the convention of a merged super-kernel section).
    """
    names = _NameTable()
    out = _SourceWriter(f"kernel {function.name!r}")
    for param in function.params:
        if param.kind is ParamKind.BUFFER:
            out.buffers.append((param.name, names.get("b", param.name)))
        else:
            out.scalars.append((param.name, names.get("s", param.name)))
    partials = _KernelEmitter(out, names, function, tile=tile).emit()
    out.partials = [
        (target, None if tile else kind, acc) for target, (acc, kind) in partials.items()
    ]
    return out.source()


def stack_refusal(function: Function) -> Optional[str]:
    """Why ``function`` has no stacked body (:func:`generate_source` with
    a tile), or ``None``.

    A row reduction broadcasts a 0-d operand over the loop's index
    buffer before cutting it into rows, so every reducing loop must be
    indexed by a tiled buffer: a parameter or full-extent allocation
    that is not itself a reduction target (those are ``None``).
    """
    targets = {
        stmt.target for loop in function.loops for stmt in loop.body if isinstance(stmt, Reduce)
    }
    tiled = {param.name for param in function.buffer_params} | {
        stmt.name for stmt in function.allocs
    }
    for loop in function.loops:
        if loop.has_reduction and (
            loop.index_buffer not in tiled or loop.index_buffer in targets
        ):
            return "unstackable_kernel"
    return None


# ----------------------------------------------------------------------
# Super-kernel emission: several captured kernels spliced into one
# generated function (``runtime.superkernel`` decides what to splice).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SuperKernelSection:
    """One constituent kernel of a super-kernel, ready for emission.

    ``mode`` selects the calling convention of the section's buffers
    (``None`` for reduction targets in both).  ``merged``: every buffer
    tiles its 1-D store contiguously in rank order, ``buffers[prefix +
    name]`` is one view spanning the chunk's tiles and the body runs once
    over it, blocked; it may reduce only when every rank's tile has the
    same ``tile`` elements, a reduction being one ``ufunc.reduce(axis=1)``
    over the operand's ``(ranks, tile)`` rows.  ``ranked``: the buffer is
    the list of per-rank views and the body runs inside a rank loop — the
    per-rank closure calls of step-by-step replay collapse into one call
    per chunk; what a reducing step with a ragged, N-D or broadcast
    tiling gets.  ``fold_writes``/``fold_reads`` alias dead cross-section
    intermediates to shared locals, so their region fields are never
    materialised.
    """

    prefix: str
    function: Function
    mode: str
    #: Parameter names bound with REDUCE privilege (handed in as None).
    reduction_params: Tuple[str, ...] = ()
    #: Elements per rank of a merged section that reduces.
    tile: Optional[int] = None
    #: (param name, shared local identifier) written by this section.
    fold_writes: Tuple[Tuple[str, str], ...] = ()
    #: (param name, shared local identifier) read by this section.
    fold_reads: Tuple[Tuple[str, str], ...] = ()


def generate_superkernel_source(
    sections: Sequence[SuperKernelSection], name: str
) -> KernelSource:
    """Emit one ``__kernel__`` body running every section in recorded order.

    Each section comes from the same emitter as :func:`generate_source`
    and keeps its own block loops, so the fused function is bit-identical
    to running the constituent kernels back to back.  The driver returns
    ``{prefixed target: float64 array of per-rank partials}`` in section
    (within a section, first-occurrence) order — the order the
    scheduler's per-step fold loop would observe: a merged section's row
    reduction, or the list a ranked section appends its ranks' floats to.
    """
    names = _NameTable()
    out = _SourceWriter(f"super-kernel {name!r}")
    for section in sections:
        function = section.function
        prefix = section.prefix
        ranked = section.mode == "ranked"
        emitter = _KernelEmitter(
            out,
            names,
            function,
            prefix=prefix,
            may_be_none=set(section.reduction_params) if ranked else None,
            fold_writes=dict(section.fold_writes),
            tile=section.tile,
        )
        ident = emitter.ident
        folded = dict(section.fold_writes + section.fold_reads)
        for param, local in folded.items():
            names.seed("b", prefix + param, local)
        for param in function.scalar_params:
            out.scalars.append((prefix + param.name, ident("s", param.name)))

        if ranked:
            # Reduction parameters arrive as ``None`` for the whole call —
            # their results come back as partials — and every other one
            # as the list of its per-rank views, which the rank loop zips.
            views = [
                param.name
                for param in function.buffer_params
                if param.name not in section.reduction_params
            ]
            if not views:
                raise CodegenError(f"super-kernel section '{function.name}' has no rank views")
            for param in function.buffer_params:
                kind = "b" if param.name in section.reduction_params else "v"
                out.buffers.append((prefix + param.name, ident(kind, param.name)))
            ranks = ", ".join(ident("v", view) for view in views)
            out.emit(f"for {_names([ident('b', view) for view in views])} in zip({ranks}):")
            out.indent += 1
            loop_start = len(out.lines)
        else:
            if section.tile is None and any(loop.has_reduction for loop in function.loops):
                raise CodegenError(
                    f"super-kernel section '{function.name}': reductions "
                    "in a merged section without a uniform tile"
                )
            for param in function.buffer_params:
                if param.name not in folded:
                    out.buffers.append((prefix + param.name, ident("b", param.name)))

        partials = emitter.emit()
        if ranked:
            # Each rank's partials go to one list per target, handed in by
            # the driver (targets in first-occurrence order).
            for target, (acc, _kind) in partials.items():
                if target in section.reduction_params:
                    out.lists.append(f"_pl{len(out.lists)}")
                    out.emit(f"{out.lists[-1]}.append({acc})")
                    out.partials.append((prefix + target, None, out.lists[-1]))
            if len(out.lines) == loop_start:
                out.emit("pass")
            out.indent -= 1
        else:
            # Row reductions: ``acc`` holds one value per rank.
            out.partials += [
                (prefix + target, None, acc)
                for target, (acc, _kind) in partials.items()
                if target in section.reduction_params
            ]
    return out.source()


def _compile_source(source: str, kernel_name: str) -> Tuple[Callable, bool]:
    """Compile a generated body, reusing the process-wide cache."""
    fn = _FUNCTION_CACHE.get(source)
    if fn is not None:
        _COUNTERS.source_cache_hits += 1
        return fn, False
    start = time.perf_counter()
    code = compile(source, f"<kir-codegen:{kernel_name}>", "exec")
    namespace = dict(_KERNEL_ENV)
    exec(code, namespace)
    _COUNTERS.compile_seconds += time.perf_counter() - start
    fn = namespace["__kernel__"]
    _FUNCTION_CACHE[source] = fn
    _COUNTERS.source_compilations += 1
    _COUNTERS.source_lines += source.count("\n")
    return fn, True


def bind(source: str, plan: KernelPlan, name: str) -> Tuple[Callable, bool]:
    """The ``(buffers, scalars)`` entry point of a generated body run by
    the driver under ``plan``, and whether its source compiled just now."""
    body, fresh = _compile_source(source, name)
    return partial(_run, body, plan, _driver(plan)), fresh


class CodegenExecutor(KernelExecutor):
    """Executes a kernel through its compiled body and the driver.

    Bodies are generated and compiled lazily, each when first needed:
    the per-rank body, and for a kernel that reduces the stacked body of
    each tile its merged launches use (a merged call of a kernel that
    reduces nothing runs the per-rank body over the span).  A fused
    kernel's memo key pins its launch geometry, so it compiles exactly
    one of them.
    """

    backend = "codegen"

    def __init__(self, function: Function, binding: KernelBinding) -> None:
        super().__init__(function, binding)
        self.stack_refusal = stack_refusal(function)
        self._reduces = any(loop.has_reduction for loop in function.loops)
        #: tile (``None``: per rank) -> (source, entry point, whether the
        #: source compiled rather than came from the process-wide cache).
        self._bodies: Dict[Optional[int], Tuple[KernelSource, Callable, bool]] = {}

    def _body(self, tile: Optional[int]) -> Tuple[KernelSource, Callable, bool]:
        """The body a call at ``tile`` runs, generated and compiled once."""
        key = tile if self._reduces else None
        body = self._bodies.get(key)
        if body is None:
            source = generate_source(self.function, key)
            body = (source,) + bind(source, source.plan, self.function.name)
            body = self._bodies.setdefault(key, body)
        return body

    @property
    def source(self) -> KernelSource:
        """The per-rank body's source."""
        return self._body(None)[0]

    @property
    def freshly_compiled(self) -> bool:
        """Whether the per-rank body compiled when it was first needed."""
        return self._body(None)[2]

    @functools.cached_property
    def _fn(self) -> Callable:
        """The per-rank entry point."""
        return self._body(None)[1]

    def __call__(
        self,
        buffers: Dict[str, Optional[np.ndarray]],
        scalars: Dict[str, float],
        block: Optional[int] = None,
        scratch: Optional[np.ndarray] = None,
        tile: Optional[int] = None,
    ):
        if tile is None or not self._reduces:
            return self._fn(buffers, scalars, block, scratch)
        return self._body(tile)[1](buffers, scalars, block, scratch)

    def scratch_elements(self, block: int, tile: Optional[int] = None) -> int:
        return scratch_elements(self._body(tile)[0].plan, block)
