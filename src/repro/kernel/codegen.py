"""Code generation: KIR kernels compiled to blocked single-pass NumPy closures.

The paper's Diffuse JIT-compiles fused MLIR kernels to real device code so
that a memoized replay round executes pre-compiled kernels with no
per-statement interpretation, and so that task-local temporaries become
register values: a fused kernel reads its inputs once and writes its
outputs once.  This module plays that role for the reproduction: a KIR
:class:`~repro.kernel.kir.Function` is translated to Python source,
compiled with the builtin ``compile`` exactly once, and wrapped in a
:class:`CodegenExecutor` with the same calling convention as the
tree-walking interpreter.

A KIR ``Load`` is an element-wise load at the current loop index, so any
schedule that visits every index once is a faithful execution of a loop.
The generated code visits one cache-sized *block* of the tile at a time:
per loop it slices the tile-shaped buffers along axis 0 and runs every
statement of the loop over that block as ``ufunc(..., out)`` calls on a
few block-sized scratch registers owned by the call, buffer assignments
writing straight into the target slice.  An extent of at most one block
— or a call whose buffer windows make a block loop illegal, see
:func:`_plan_blocks` — runs the same body once over the unsliced
buffers with ``out=None``, which is whole-tile evaluation.

The emitted code performs the same per-element operations in the same
order as the interpreter, and reductions by the same call over the same
full-length operand (a reduced expression is evaluated block by block
into one full-length scratch and reduced once after the loop), so
results are bit-identical, which the differential backend
(``REPRO_KERNEL_BACKEND=differential``) asserts on every kernel
invocation.  ``docs/architecture.md`` ("Kernel tier") has the details.

Compiled functions are cached by source text at module level.  Two
kernels with the same canonical form produce identical source, so a
memoization hit anywhere in the process (even from a different
:class:`~repro.kernel.compiler.JITCompiler` instance of a weak-scaling
sweep) reuses the already-compiled closure instead of invoking
``compile`` again.  :func:`codegen_stats` exposes the counters that the
regression tests assert on.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
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

#: The block sequence of a loop that runs once over its unsliced buffers.
_WHOLE = (None,)

#: Source text -> compiled kernel entry point.  Keyed on the full module
#: source so that two structurally-identical kernels (the same canonical
#: form) share one compiled closure process-wide.
_FUNCTION_CACHE: Dict[str, Callable] = {}


@dataclass
class CodegenCounters:
    """Process-wide codegen activity counters (asserted by tests)."""

    source_compilations: int = 0
    source_cache_hits: int = 0
    #: Closure calls that ran at least one loop as more than one block.
    multi_block_calls: int = 0

    def reset(self) -> None:
        self.source_compilations = 0
        self.source_cache_hits = 0
        self.multi_block_calls = 0


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


def _plan_blocks(reference, whole, written: int, registers: int, first: bool):
    """Plan one loop of a generated kernel as a sequence of blocks.

    Called by generated code for a loop whose ``reference`` buffer holds
    more than :data:`BLOCK` elements.  ``whole`` are the tile buffers the
    loop touches, the ``written`` ones first.  Returns :data:`_WHOLE`
    when the loop must run as one block of the full extent, else one
    tuple per block: its axis-0 slice, every buffer of ``whole`` cut to
    it and ``registers`` block-shaped scratch arrays.  The scratch
    belongs to this call — the compiled closure is shared process-wide
    by pool threads.

    A block loop is legal when every index is computed from its own
    index alone, from the operands whole-tile evaluation would see:

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
    rows = max(1, BLOCK // (reference.size // extent))
    if rows >= extent:
        return _WHOLE
    for buffer in whole:
        if buffer is not None and buffer.shape != shape:
            return _WHOLE
    for target in whole[:written]:
        for other in whole:
            if other is None or other is target or not np.may_share_memory(target, other):
                continue
            if (
                other.strides != target.strides
                or other.__array_interface__["data"] != target.__array_interface__["data"]
            ):
                return _WHOLE
    if first:
        with _MULTI_BLOCK_LOCK:
            _COUNTERS.multi_block_calls += 1
    scratch = np.empty((registers, rows) + shape[1:])
    block_registers = tuple(scratch)
    blocks = []
    for start in range(0, extent, rows):
        cut = slice(start, start + rows)
        cuts = [None if b is None else b[cut] for b in whole]
        blocks.append((cut, *cuts, *block_registers))
    ragged = extent % rows
    if ragged:
        blocks[-1] = (cut, *cuts, *scratch[:, :ragged])
    return blocks


#: Globals shared by every generated kernel function.
_KERNEL_ENV: Dict[str, object] = {
    "np": np,
    "_erf": _erf,
    "_plan_blocks": _plan_blocks,
    "_WHOLE": _WHOLE,
    "ReductionPartial": ReductionPartial,
    "ReduceKind": ReduceKind,
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


class _PrefixedNames:
    """A section-scoped view of a shared name table.

    Super-kernel sections concatenate several kernels into one generated
    function; prefixing every KIR name with the section's ``k{i}:`` tag
    keeps the sections' namespaces disjoint while cross-section folds can
    still alias two prefixed names to one identifier via ``seed``.
    """

    def __init__(self, base: _NameTable, prefix: str) -> None:
        self._base = base
        self._prefix = prefix

    def get(self, kind: str, name: str) -> str:
        return self._base.get(kind, self._prefix + name)


class _SourceWriter:
    """Accumulates the indented source lines of one generated function.

    Block loops share the function's scratch names (``_o<i>`` register
    outputs, ``_u<i>`` full-length scratch slices): each loop resets the
    ones it bound, so they are initialised to ``None`` once, where
    :meth:`reserve_scratch_init` was called.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0
        self.registers = 0
        self.fulls = 0
        self.plans = False
        self._scratch_at: Optional[Tuple[int, int]] = None

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def reserve_scratch_init(self) -> None:
        self._scratch_at = (len(self.lines), self.indent)

    def source(self) -> str:
        lines = list(self.lines)
        scratch = [f"_o{i}" for i in range(self.registers)]
        scratch += [f"_u{i}" for i in range(self.fulls)]
        at, indent = self._scratch_at
        pad = "    " * indent
        if scratch:
            lines.insert(at, pad + " = ".join(scratch) + " = None")
        if self.plans:
            lines.insert(at, pad + "_first = True")
        return "\n".join(lines) + "\n"


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
    register up to its last reference.  With ``defer`` the reductions are
    finished after the block loop; without it the loop is not blockable
    and they run where they stand.
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

    def _pin(self, value: _Value, count: int = 1) -> None:
        """Hold ``value``'s register for ``count`` more consumers."""
        if value.register is not None:
            self.pins[value.register] = self.pins.get(value.register, 0) + count

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
    def _op(self, ufunc, operands, dest=None, result=None, cast=False) -> _Value:
        """Emit one ufunc call; ``result`` is named when ``dest`` may be None."""
        for operand in operands:
            self._release(operand)
        register = None
        if dest is None:
            register = self._acquire()
            self.pins[register] = 1  # held for the one consumer of the result
            dest, result = f"_o{register}", f"_t{register}"
        # Positional ``out`` is the cheaper call; NumPy deprecates it for
        # exactly these two ufuncs.
        keyword = "out=" if ufunc in ("maximum", "minimum") else ""
        call = f"np.{ufunc}({', '.join(v.text for v in operands)}, {keyword}{dest})"
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
            return _Value(kernel.names.get("s", expr.name), scalar=True)
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
            ident = kernel.names.get("b", expr.buffer)
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
            return self._erf(operand, dest, result)
        if expr.op is UnOpKind.RECIP:
            return self._op("divide", (_Value("1.0", scalar=True), operand), dest, result)
        return self._op(ufunc, (operand,), dest, result)

    def _erf(self, x: _Value, dest, result) -> _Value:
        """``kir._erf`` operation for operation, ``copysign`` last."""

        def const(value: float) -> _Value:
            return _Value(repr(value), scalar=True)

        self._pin(x, 2)  # three consumers: sign, absolute, copysign
        sign = self._op("sign", (x,))
        ax = self._op("absolute", (x,))
        self._pin(ax, 2)
        t = self._op("multiply", (const(0.3275911), ax))
        t = self._op("add", (const(1.0), t))
        t = self._op("divide", (const(1.0), t))
        self._pin(t, 4)
        poly = self._op("multiply", (t, const(1.061405429)))
        for coefficient in (-1.453152027, 1.421413741, -0.284496736, 0.254829592):
            poly = self._op("add", (const(coefficient), poly))
            poly = self._op("multiply", (t, poly))
        tail = self._op("negative", (ax,))
        tail = self._op("multiply", (tail, ax))
        tail = self._op("exp", (tail,))
        poly = self._op("multiply", (poly, tail))
        poly = self._op("subtract", (const(1.0), poly))
        poly = self._op("multiply", (sign, poly))
        return self._op("copysign", (poly, x), dest, result)

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
            self._value(stmt.expr, dest=kernel.names.get("b", stmt.target))
        elif stmt.target in kernel.tiles:
            self.tiles[stmt.target] = self.written[stmt.target] = None
            self._value(stmt.expr, dest=kernel.names.get("b", stmt.target))
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
                operand = leaf.text
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
            # Mirror the interpreter's runtime broadcast exactly: a 0-d
            # value (loop-invariant expression, or a load from a rank-0
            # buffer) is broadcast over the index space so e.g. summing
            # a constant counts elements.
            index_ident = kernel.names.get("b", index)
            tmp = kernel.temp()
            lines.append(f"{tmp} = np.asarray({operand})")
            lines.append(f"if {tmp}.ndim == 0 and {index_ident} is not None:")
            lines.append(f"    {tmp} = np.broadcast_to({tmp}, {index_ident}.shape)")
            operand = tmp
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
        kernel = self.kernel
        names = kernel.names
        allocs = [
            (names.get("b", name), names.get("b", kernel.block_allocs[name]))
            for name in self.allocs
        ]
        out.registers = max(out.registers, self.registers)
        out.fulls = max(out.fulls, len(self.fulls))
        if not (self.defer and self.body and self.tiles):
            # Nothing to block over (or not blockable): one flat pass.
            for ident, like in allocs:
                out.emit(f"{ident} = np.empty_like({like})")
            for line in self.body + self.post:
                out.emit(line)
            return
        index = self.loop.index_buffer
        reference = index if index in self.tiles else next(iter(self.written or self.tiles))
        reference = names.get("b", reference)
        if index in kernel.tiles:
            # Full-length scratch takes the reference shape, which the
            # reduction broadcast rule expects to be the index space.
            self.tiles[index] = None
        ordered = list(self.written) + [t for t in self.tiles if t not in self.written]
        idents = [names.get("b", name) for name in ordered]
        scratch = [f"_o{i}" for i in range(self.registers)]
        fulls = range(len(self.fulls))
        out.plans = True
        out.emit("_blocks = _WHOLE")
        out.emit(f"if {reference}.size > {BLOCK}:")
        out.indent += 1
        out.emit(f"_whole = ({', '.join(idents)},)")
        out.emit(
            f"_blocks = _plan_blocks({reference}, _whole, {len(self.written)}, "
            f"{len(scratch) + len(allocs)}, _first)"
        )
        out.emit("_first = _first and _blocks is _WHOLE")
        if self.fulls:
            out.emit("if _blocks is not _WHOLE:")
            for i in fulls:
                out.emit(f"    _q{i} = np.empty({reference}.shape)")
        out.indent -= 1
        if allocs:
            out.emit("if _blocks is _WHOLE:")
            for ident, like in allocs:
                out.emit(f"    {ident} = np.empty_like({like})")
        out.emit("for _blk in _blocks:")
        out.indent += 1
        out.emit("if _blk is not None:")
        unpack = ["_cut"] + idents + scratch + [ident for ident, _like in allocs]
        out.emit(f"    {', '.join(unpack)} = _blk")
        for i in fulls:
            out.emit(f"    _u{i} = _q{i}[_cut]")
        for line in self.body:
            out.emit(line)
        out.indent -= 1
        out.emit("if _blocks is not _WHOLE:")
        out.indent += 1
        out.emit(f"{', '.join(idents)}, = _whole")
        reset = scratch + [f"_u{i}" for i in fulls]
        if reset:
            out.emit(" = ".join(reset) + " = None")
        for i, result in enumerate(self.fulls):
            out.emit(f"{result} = _q{i}")
        out.indent -= 1
        for line in self.post:
            out.emit(line)


class _KernelEmitter:
    """Emits the Alloc/Assign/Reduce body of one KIR function.

    The one emission path behind :func:`generate_source` and every
    section of :func:`generate_superkernel_source`; parameter binding,
    rank loops and the shape of the returned partials are the callers'.
    """

    def __init__(
        self,
        out: _SourceWriter,
        names,
        function: Function,
        *,
        tag: str = "",
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
        #: Disambiguates accumulator/temporary names between sections.
        self.tag = tag
        #: Buffer parameters that may be bound to ``None`` (every one,
        #: unless the caller knows better): guarded before use.
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

    def temp(self) -> str:
        self._temps += 1
        return f"_r{self.tag}{self._temps - 1}"

    def _guard(self, name: str, message: str) -> None:
        if self.may_be_none is None or name in self.may_be_none:
            self.out.emit(f"if {self.names.get('b', name)} is None:")
            self.out.emit(f"    raise RuntimeError({message!r})")

    def emit(self) -> Dict[str, Tuple[str, ReduceKind]]:
        function, out, names = self.function, self.out, self.names
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
                like = names.get("b", stmt.like)
                out.emit(f"{names.get('b', stmt.name)} = np.zeros_like({like})")
                self.tiles.add(stmt.name)
        unknown_loads = function.buffers_read() - self.tiles - set(self.block_allocs)
        if unknown_loads:
            raise CodegenError(
                f"kernel '{function.name}' loads undeclared buffers "
                f"{sorted(unknown_loads)}"
            )
        guarded: Set[str] = set()
        for loop in function.loops:
            for stmt in loop.body:
                if (
                    isinstance(stmt, Assign)
                    and not stmt.is_local
                    and stmt.target in self.tiles
                    and stmt.target not in guarded
                ):
                    guarded.add(stmt.target)
                    self._guard(stmt.target, f"buffer '{stmt.target}' is not materialised")
            try:
                emitter = _LoopEmitter(self, loop, defer=True).run()
            except _ReduceHazard:
                emitter = _LoopEmitter(self, loop, defer=False).run()
            emitter.write(out)
        return self.partials


def generate_source(function: Function) -> str:
    """Translate a KIR function into the source of ``__kernel__``.

    The generated function takes the executor's ``(buffers, scalars)``
    dictionaries and returns the reduction partials, exactly like the
    interpreter.  Statement order, per-element operation order and
    reduction calls all match the interpreter so results are
    bit-identical.
    """
    names = _NameTable()
    out = _SourceWriter()
    out.emit(f"def __kernel__(buffers, scalars):  # kernel {function.name!r}")
    out.indent += 1
    for param in function.params:
        if param.kind is ParamKind.BUFFER:
            out.emit(f"{names.get('b', param.name)} = buffers[{param.name!r}]")
        else:
            ident = names.get("s", param.name)
            out.emit(f"{ident} = np.float64(scalars[{param.name!r}])")
    out.reserve_scratch_init()
    partials = _KernelEmitter(out, names, function).emit()
    items = ", ".join(
        f"{target!r}: ReductionPartial(kind=ReduceKind.{kind.name}, value={acc})"
        for target, (acc, kind) in partials.items()
    )
    out.emit(f"return {{{items}}}")
    return out.source()


# ----------------------------------------------------------------------
# Super-kernel emission: several captured kernels spliced into one
# generated function (``runtime.superkernel`` decides what to splice).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SuperKernelSection:
    """One constituent kernel of a super-kernel, ready for emission.

    ``mode`` selects the calling convention of the section's buffers:

    ``merged``
        Every buffer tiles its 1-D store contiguously in rank order;
        ``buffers[prefix+name]`` is a single merged view spanning the
        chunk's tiles (``None`` for reduction targets) and the body is
        emitted once, blocked over the merged span (identical to the
        per-step merged call).  A merged section may reduce only when
        every rank's tile has the same ``tile`` elements: a reduction is
        then one ``ufunc.reduce(axis=1)`` over the operand's ``(ranks,
        tile)`` rows, and each target returns its per-rank partials.

    ``ranked``
        ``buffers[prefix+name]`` is the list of per-rank views (``None``
        for reduction targets) and the body is emitted inside an internal
        rank loop — the per-rank closure calls of step-by-step replay
        collapse into one call per chunk.  What a reducing step whose
        tiling is ragged, N-D or broadcast gets.

    ``fold_writes``/``fold_reads`` alias dead cross-section intermediates
    to shared locals: the writer assigns the local instead of a buffer
    view and readers load it, so the intermediate's region field is never
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
) -> str:
    """Emit one ``__kernel__`` running every section in recorded order.

    Each section's body comes from the same emitter as
    :func:`generate_source` and keeps its own block loops, so the fused
    function is bit-identical to running the constituent kernels back to
    back.  Reduction partials are returned as ``{prefixed target:
    float64 array of per-rank partials}`` with keys in section (and
    within a section, first-occurrence) order — the same order the
    scheduler's per-step fold loop would observe.  A merged section's
    row reduction already is that array; a ranked section collects its
    per-rank floats and converts them once, after its rank loop.
    """
    names = _NameTable()
    out = _SourceWriter()
    out.emit(f"def __kernel__(buffers, scalars):  # super-kernel {name!r}")
    out.indent += 1
    out.emit("_partials = {}")
    out.reserve_scratch_init()

    partial_list_count = 0
    for section_index, section in enumerate(sections):
        function = section.function
        prefix = section.prefix
        pnames = _PrefixedNames(names, prefix)
        folded = dict(section.fold_writes + section.fold_reads)
        for param, ident in folded.items():
            names.seed("b", prefix + param, ident)

        out.emit(f"# section {section_index}: kernel {function.name!r}")
        for param in function.scalar_params:
            ident = pnames.get("s", param.name)
            out.emit(f"{ident} = np.float64(scalars[{prefix + param.name!r}])")

        ranked = section.mode == "ranked"
        if ranked:
            # Per-rank view lists arrive under the prefixed buffer names;
            # the section's reduction partials accumulate per rank into
            # lists (one per target, in first-occurrence order), handed
            # back as float64 arrays after the rank loop.
            views = [
                param.name
                for param in function.buffer_params
                if param.name not in section.reduction_params
            ]
            if not views:
                raise CodegenError(
                    f"super-kernel section '{function.name}' has no "
                    "non-reduction buffer to derive its rank count from"
                )
            for param in function.buffer_params:
                list_ident = names.get("v", prefix + param.name)
                out.emit(f"{list_ident} = buffers[{prefix + param.name!r}]")
            reduce_lists: Dict[str, str] = {}
            for loop in function.loops:
                for inner in loop.body:
                    if (
                        isinstance(inner, Reduce)
                        and inner.target in section.reduction_params
                        and inner.target not in reduce_lists
                    ):
                        list_ident = f"_pl{partial_list_count}"
                        partial_list_count += 1
                        reduce_lists[inner.target] = list_ident
                        out.emit(f"{list_ident} = []")
            # Reduction parameters bind to ``None`` for the whole call —
            # their results come back through ``_partials`` — so they are
            # hoisted out of the rank loop.  Every other parameter arrives
            # as a per-rank view list that is never ``None``, so the loop
            # body indexes (and writes) it unguarded.
            for param in section.reduction_params:
                out.emit(f"{pnames.get('b', param)} = None")
            rank_ident = f"_rk{section_index}"
            out.emit(
                f"for {rank_ident} in range(len({names.get('v', prefix + views[0])})):"
            )
            out.indent += 1
            for param in views:
                list_ident = names.get("v", prefix + param)
                out.emit(f"{pnames.get('b', param)} = {list_ident}[{rank_ident}]")
        else:
            if section.tile is None and any(loop.has_reduction for loop in function.loops):
                raise CodegenError(
                    f"super-kernel section '{function.name}': reductions "
                    "in a merged section without a uniform tile"
                )
            for param in function.buffer_params:
                if param.name not in folded:
                    ident = pnames.get("b", param.name)
                    out.emit(f"{ident} = buffers[{prefix + param.name!r}]")

        partials = _KernelEmitter(
            out,
            pnames,
            function,
            tag=f"{section_index}_",
            may_be_none=set(section.reduction_params) if ranked else None,
            fold_writes=dict(section.fold_writes),
            tile=section.tile,
        ).emit()

        if ranked:
            for target, (acc, _kind) in partials.items():
                list_ident = reduce_lists.get(target)
                if list_ident is not None:
                    out.emit(f"{list_ident}.append({acc})")
            out.indent -= 1
            for target, list_ident in reduce_lists.items():
                out.emit(
                    f"_partials[{prefix + target!r}] = "
                    f"np.array({list_ident}, dtype=np.float64)"
                )
        else:
            # Row reductions: ``acc`` holds one value per rank.
            for target, (acc, _kind) in partials.items():
                if target in section.reduction_params:
                    out.emit(
                        f"_partials[{prefix + target!r}] = "
                        f"np.asarray({acc}, dtype=np.float64)"
                    )

    out.emit("return _partials")
    return out.source()


def _compile_source(source: str, kernel_name: str) -> Tuple[Callable, bool]:
    """Compile kernel source, reusing the process-wide closure cache."""
    fn = _FUNCTION_CACHE.get(source)
    if fn is not None:
        _COUNTERS.source_cache_hits += 1
        return fn, False
    code = compile(source, f"<kir-codegen:{kernel_name}>", "exec")
    namespace = dict(_KERNEL_ENV)
    exec(code, namespace)
    fn = namespace["__kernel__"]
    _FUNCTION_CACHE[source] = fn
    _COUNTERS.source_compilations += 1
    return fn, True


class CodegenExecutor(KernelExecutor):
    """Executes a kernel through its compiled NumPy closure."""

    backend = "codegen"

    def __init__(self, function: Function, binding: KernelBinding) -> None:
        super().__init__(function, binding)
        self.source = generate_source(function)
        self._fn, self.freshly_compiled = _compile_source(self.source, function.name)

    def __call__(
        self,
        buffers: Dict[str, Optional[np.ndarray]],
        scalars: Dict[str, float],
    ) -> Dict[str, ReductionPartial]:
        return self._fn(buffers, scalars)
