"""KIR: the loop-level kernel intermediate representation.

KIR plays the role of the affine/memref/arith MLIR dialects in the paper.
A kernel is a :class:`Function` with buffer and scalar parameters and a
body consisting of task-local allocations and affine loops.  Every loop
iterates over the index space of one of the kernel's buffers and contains
element-wise assignments and reductions.

The representation deliberately mirrors the structure of the MLIR fragments
in paper Figure 8: generator functions emit one loop per library task, the
composition pass concatenates the loops, and the optimisation passes fuse
the loops and scalarise the task-local temporaries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np


class BinOpKind(enum.Enum):
    """Binary arithmetic operators available in kernel bodies."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    POW = "pow"
    MAX = "max"
    MIN = "min"
    LT = "lt"
    GT = "gt"
    LE = "le"
    GE = "ge"
    EQ = "eq"


class UnOpKind(enum.Enum):
    """Unary operators available in kernel bodies."""

    NEG = "neg"
    SQRT = "sqrt"
    EXP = "exp"
    LOG = "log"
    ABS = "abs"
    ERF = "erf"
    SIN = "sin"
    COS = "cos"
    TANH = "tanh"
    RECIP = "recip"


class ReduceKind(enum.Enum):
    """Reduction operators for reduction statements."""

    SUM = "sum"
    PROD = "prod"
    MAX = "max"
    MIN = "min"


# ----------------------------------------------------------------------
# Expressions.
# ----------------------------------------------------------------------
class Expr:
    """Base class of kernel expressions."""

    def buffers_read(self) -> Set[str]:
        """Names of buffers loaded anywhere in the expression."""
        raise NotImplementedError

    def locals_read(self) -> Set[str]:
        """Names of loop-local scalars referenced in the expression."""
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    """A floating-point literal."""

    value: float

    def buffers_read(self) -> Set[str]:
        return set()

    def locals_read(self) -> Set[str]:
        return set()

    def __str__(self) -> str:
        return f"{self.value}"


@dataclass(frozen=True)
class ScalarRef(Expr):
    """A reference to a scalar parameter of the kernel."""

    name: str

    def buffers_read(self) -> Set[str]:
        return set()

    def locals_read(self) -> Set[str]:
        return set()

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Load(Expr):
    """An element-wise load from a buffer at the current loop index."""

    buffer: str

    def buffers_read(self) -> Set[str]:
        return {self.buffer}

    def locals_read(self) -> Set[str]:
        return set()

    def __str__(self) -> str:
        return f"{self.buffer}[i]"


@dataclass(frozen=True)
class LocalRef(Expr):
    """A reference to a loop-local scalar defined earlier in the same loop."""

    name: str

    def buffers_read(self) -> Set[str]:
        return set()

    def locals_read(self) -> Set[str]:
        return {self.name}

    def __str__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary arithmetic operation."""

    op: BinOpKind
    lhs: Expr
    rhs: Expr

    def buffers_read(self) -> Set[str]:
        return self.lhs.buffers_read() | self.rhs.buffers_read()

    def locals_read(self) -> Set[str]:
        return self.lhs.locals_read() | self.rhs.locals_read()

    def __str__(self) -> str:
        return f"({self.lhs} {self.op.value} {self.rhs})"


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operation."""

    op: UnOpKind
    operand: Expr

    def buffers_read(self) -> Set[str]:
        return self.operand.buffers_read()

    def locals_read(self) -> Set[str]:
        return self.operand.locals_read()

    def __str__(self) -> str:
        return f"{self.op.value}({self.operand})"


# ----------------------------------------------------------------------
# Loop statements.
# ----------------------------------------------------------------------
class LoopStmt:
    """Base class of statements appearing inside loops."""


@dataclass(frozen=True)
class Assign(LoopStmt):
    """Element-wise assignment ``target[i] = expr`` or ``$local = expr``.

    When ``is_local`` is true the target is a loop-local scalar rather than
    a buffer element; loop-local scalars are the result of temporary
    scalarisation and correspond to register values in generated code.
    """

    target: str
    expr: Expr
    is_local: bool = False

    def buffers_read(self) -> Set[str]:
        return self.expr.buffers_read()

    def buffers_written(self) -> Set[str]:
        return set() if self.is_local else {self.target}

    def __str__(self) -> str:
        lhs = f"${self.target}" if self.is_local else f"{self.target}[i]"
        return f"{lhs} = {self.expr}"


@dataclass(frozen=True)
class Reduce(LoopStmt):
    """Reduction of an element-wise expression into a scalar buffer.

    ``target`` names a rank-0 buffer (a future in Legion terms).  The
    reduction folds ``expr`` over the loop's index space using ``kind``.
    """

    target: str
    kind: ReduceKind
    expr: Expr

    def buffers_read(self) -> Set[str]:
        return self.expr.buffers_read()

    def buffers_written(self) -> Set[str]:
        return {self.target}

    def __str__(self) -> str:
        return f"{self.target} {self.kind.value}= {self.expr}"


# ----------------------------------------------------------------------
# Function-level statements.
# ----------------------------------------------------------------------
class Stmt:
    """Base class of function-level statements."""


@dataclass(frozen=True)
class Alloc(Stmt):
    """A task-local allocation with the same shape as a reference buffer.

    Allocs are produced when the fusion engine demotes a distributed
    temporary store into task-local data (paper Figure 8c); the temporary
    elimination pass later removes allocs that the loop-fusion pass made
    redundant (paper Figure 8d).
    """

    name: str
    like: str

    def __str__(self) -> str:
        return f"{self.name} = alloc(like={self.like})"


@dataclass(frozen=True)
class Loop(Stmt):
    """An affine loop over the index space of ``index_buffer``.

    ``reduction_only`` loops contain only :class:`Reduce` statements; the
    distinction matters for the cost model (a reduction launch has a
    different latency profile than a map launch).
    """

    index_buffer: str
    body: Tuple[LoopStmt, ...]
    parallel: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))

    def buffers_read(self) -> Set[str]:
        return set().union(*(stmt.buffers_read() for stmt in self.body)) if self.body else set()

    def buffers_written(self) -> Set[str]:
        return (
            set().union(*(stmt.buffers_written() for stmt in self.body))
            if self.body
            else set()
        )

    @property
    def has_reduction(self) -> bool:
        return any(isinstance(stmt, Reduce) for stmt in self.body)

    def __str__(self) -> str:
        keyword = "affine.par" if self.parallel else "affine.for"
        lines = [f"{keyword} %i over {self.index_buffer} {{"]
        lines.extend(f"  {stmt}" for stmt in self.body)
        lines.append("}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Parameters and functions.
# ----------------------------------------------------------------------
class ParamKind(enum.Enum):
    """Kinds of kernel parameters."""

    BUFFER = "buffer"
    SCALAR = "scalar"


@dataclass(frozen=True)
class Param:
    """A kernel parameter: either a memref-like buffer or a scalar."""

    name: str
    kind: ParamKind = ParamKind.BUFFER
    dtype: str = "f64"

    @staticmethod
    def buffer(name: str, dtype: str = "f64") -> "Param":
        return Param(name=name, kind=ParamKind.BUFFER, dtype=dtype)

    @staticmethod
    def scalar(name: str, dtype: str = "f64") -> "Param":
        return Param(name=name, kind=ParamKind.SCALAR, dtype=dtype)

    def __str__(self) -> str:
        prefix = "memref" if self.kind is ParamKind.BUFFER else "scalar"
        return f"%{self.name}: {prefix}<{self.dtype}>"


@dataclass(frozen=True)
class Function:
    """A kernel: parameters plus a body of allocations and loops."""

    name: str
    params: Tuple[Param, ...]
    body: Tuple[Stmt, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "body", tuple(self.body))
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate parameter names in kernel {self.name}: {names}")

    # ------------------------------------------------------------------
    # Introspection helpers used by the passes and the cost model.
    # ------------------------------------------------------------------
    @property
    def loops(self) -> Tuple[Loop, ...]:
        """The loops of the function, in program order."""
        return tuple(stmt for stmt in self.body if isinstance(stmt, Loop))

    @property
    def allocs(self) -> Tuple[Alloc, ...]:
        """The task-local allocations of the function."""
        return tuple(stmt for stmt in self.body if isinstance(stmt, Alloc))

    @property
    def buffer_params(self) -> Tuple[Param, ...]:
        """Parameters that are buffers."""
        return tuple(p for p in self.params if p.kind is ParamKind.BUFFER)

    @property
    def scalar_params(self) -> Tuple[Param, ...]:
        """Parameters that are scalars."""
        return tuple(p for p in self.params if p.kind is ParamKind.SCALAR)

    def param_names(self) -> Set[str]:
        """All parameter names."""
        return {p.name for p in self.params}

    def buffers_read(self) -> Set[str]:
        """All buffers read anywhere in the function."""
        return set().union(*(loop.buffers_read() for loop in self.loops)) if self.loops else set()

    def buffers_written(self) -> Set[str]:
        """All buffers written anywhere in the function."""
        return (
            set().union(*(loop.buffers_written() for loop in self.loops))
            if self.loops
            else set()
        )

    def with_body(self, body: Sequence[Stmt]) -> "Function":
        """A copy of the function with a replacement body."""
        return replace(self, body=tuple(body))

    def pretty(self) -> str:
        """A human-readable rendering (loosely MLIR flavoured)."""
        header = ", ".join(str(p) for p in self.params)
        lines = [f"func @{self.name}({header}) {{"]
        for stmt in self.body:
            text = str(stmt)
            lines.extend("  " + line for line in text.splitlines())
        lines.append("}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.pretty()


# ----------------------------------------------------------------------
# Expression and statement rewriting utilities shared by the passes.
# ----------------------------------------------------------------------
def substitute_expr(expr: Expr, mapping: Dict[str, str]) -> Expr:
    """Rename buffer and scalar references in an expression per ``mapping``."""
    if isinstance(expr, Load):
        return Load(mapping.get(expr.buffer, expr.buffer))
    if isinstance(expr, ScalarRef):
        return ScalarRef(mapping.get(expr.name, expr.name))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute_expr(expr.lhs, mapping), substitute_expr(expr.rhs, mapping))
    if isinstance(expr, UnOp):
        return UnOp(expr.op, substitute_expr(expr.operand, mapping))
    return expr


def substitute_stmt(stmt: LoopStmt, mapping: Dict[str, str]) -> LoopStmt:
    """Rename buffer references in a loop statement according to ``mapping``."""
    if isinstance(stmt, Assign):
        target = stmt.target if stmt.is_local else mapping.get(stmt.target, stmt.target)
        return Assign(target=target, expr=substitute_expr(stmt.expr, mapping), is_local=stmt.is_local)
    if isinstance(stmt, Reduce):
        return Reduce(
            target=mapping.get(stmt.target, stmt.target),
            kind=stmt.kind,
            expr=substitute_expr(stmt.expr, mapping),
        )
    raise TypeError(f"unknown loop statement {stmt!r}")


def replace_loads(expr: Expr, replacements: Mapping[str, Expr]) -> Expr:
    """Replace every ``Load(b)`` in ``expr`` with ``replacements[b]``, in one walk."""
    if isinstance(expr, Load):
        return replacements.get(expr.buffer, expr)
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            replace_loads(expr.lhs, replacements),
            replace_loads(expr.rhs, replacements),
        )
    if isinstance(expr, UnOp):
        return UnOp(expr.op, replace_loads(expr.operand, replacements))
    return expr


def sole_buffer_assignment(function: Function, target: str) -> Optional[Assign]:
    """The unique element-wise write to ``target``, if that is its only access.

    Returns the single non-local :class:`Assign` whose target is
    ``target`` when the function never loads the buffer, never reduces
    into it and never allocates from or into it — the conditions under
    which the super-kernel lowering (``runtime.superkernel``) may demote
    a dead cross-launch intermediate to a fused-local value.  Returns
    ``None`` otherwise.
    """
    if target in function.buffers_read():
        return None
    found: Optional[Assign] = None
    for stmt in function.body:
        if isinstance(stmt, Alloc):
            if stmt.name == target or stmt.like == target:
                return None
        elif isinstance(stmt, Loop):
            for inner in stmt.body:
                if isinstance(inner, Reduce):
                    if inner.target == target:
                        return None
                elif isinstance(inner, Assign) and not inner.is_local:
                    if inner.target == target:
                        if found is not None:
                            return None
                        found = inner
    return found


def buffers_defined_first(function: Function) -> FrozenSet[str]:
    """Buffer parameters the kernel assigns whole before anything observes them.

    One pass over the body in statement order: a buffer qualifies when
    its first occurrence is the target of a non-local :class:`Assign`
    whose value does not load it.  Both executors write every element of
    an ``Assign`` target's tile (``target[...] = value``, or a final
    ``ufunc(..., out=target)`` per block whose blocks partition the
    tile), so a tile of such a buffer never shows its prior contents and
    the region manager may hand it out uninitialised
    (``RegionManager.field``).  An earlier load, a :class:`Reduce` into
    the buffer or an :class:`Alloc` shadowing its name disqualifies it;
    ``Alloc.like`` and ``Loop.index_buffer`` only read a shape.
    """
    first: Dict[str, bool] = {}
    for stmt in function.body:
        if isinstance(stmt, Alloc):
            first.setdefault(stmt.name, False)
        elif isinstance(stmt, Loop):
            for inner in stmt.body:
                for name in inner.buffers_read():
                    first.setdefault(name, False)
                if isinstance(inner, Reduce):
                    first.setdefault(inner.target, False)
                elif not inner.is_local:
                    first.setdefault(inner.target, True)
    params = {param.name for param in function.buffer_params}
    return frozenset(name for name, defined in first.items() if defined and name in params)


def assignment_loads_buffers(function: Function, stmt: Assign) -> bool:
    """True when ``stmt``'s value transitively loads at least one buffer.

    Local scalar references are chased through their defining assignments
    so a value routed through scalarised temporaries still counts.  Used
    by the super-kernel fold analysis: a load-free definition may be
    zero-dimensional, and while broadcasting keeps element-wise consumers
    exact, the conservative lowering only folds full-shape values.
    """
    local_defs: Dict[str, Expr] = {}
    for outer in function.body:
        if not isinstance(outer, Loop):
            continue
        for inner in outer.body:
            if isinstance(inner, Assign) and inner.is_local:
                local_defs[inner.target] = inner.expr
    seen: Set[str] = set()
    frontier = [stmt.expr]
    while frontier:
        expr = frontier.pop()
        if expr.buffers_read():
            return True
        for name in expr.locals_read():
            if name not in seen:
                seen.add(name)
                definition = local_defs.get(name)
                if definition is not None:
                    frontier.append(definition)
    return False


def count_flops(expr: Expr) -> int:
    """Number of arithmetic operations in an expression tree."""
    if isinstance(expr, BinOp):
        return 1 + count_flops(expr.lhs) + count_flops(expr.rhs)
    if isinstance(expr, UnOp):
        # Transcendental unary operations are charged a handful of flops.
        heavy = {UnOpKind.EXP, UnOpKind.LOG, UnOpKind.SQRT, UnOpKind.ERF,
                 UnOpKind.SIN, UnOpKind.COS, UnOpKind.TANH}
        return (8 if expr.op in heavy else 1) + count_flops(expr.operand)
    return 0


# ----------------------------------------------------------------------
# NumPy evaluation of expressions (used by the lowering module).
# ----------------------------------------------------------------------
_BINOP_EVAL = {
    BinOpKind.ADD: lambda a, b: a + b,
    BinOpKind.SUB: lambda a, b: a - b,
    BinOpKind.MUL: lambda a, b: a * b,
    BinOpKind.DIV: lambda a, b: a / b,
    BinOpKind.POW: lambda a, b: np.power(a, b),
    BinOpKind.MAX: np.maximum,
    BinOpKind.MIN: np.minimum,
    BinOpKind.LT: lambda a, b: (a < b).astype(np.float64),
    BinOpKind.GT: lambda a, b: (a > b).astype(np.float64),
    BinOpKind.LE: lambda a, b: (a <= b).astype(np.float64),
    BinOpKind.GE: lambda a, b: (a >= b).astype(np.float64),
    BinOpKind.EQ: lambda a, b: (a == b).astype(np.float64),
}


def _erf(x):
    """Vectorised error function (Abramowitz & Stegun 7.1.26 approximation).

    SciPy is an optional dependency, so the kernel executor carries its own
    erf good to ~1.5e-7 absolute error, which is ample for the
    Black-Scholes benchmark.

    The final ``copysign`` makes the function *exactly* odd for every
    input, zeros and NaNs included (``erf(-0.0) == -0.0``, as IEEE libm
    defines it): for nonzero ``x`` the product already carries ``x``'s
    sign, so the copy is a bitwise no-op, and ``np.sign(±0.0) == 0.0``
    keeps ``erf(±0.0)`` exactly zero.  The normalisation pass relies on
    this to rewrite ``erf(neg(x))`` as ``neg(erf(x))`` bit-exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    sign = np.sign(x)
    ax = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * ax)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    return np.copysign(sign * (1.0 - poly * np.exp(-ax * ax)), x)


def _erf_into(x, out, a, b, c, d):
    """:func:`_erf` into caller-owned registers, ufunc call for ufunc call.

    Generated kernels call it (``kernel/codegen.py``).  The 21 calls,
    their operands and their order are :func:`_erf`'s, so the result is
    bit-identical, ``copysign`` last included (it keeps erf exactly
    odd).  ``a``–``d`` are scratch that must not hold ``x``, ``out``
    receives the result; ``None`` allocates, as whole-tile evaluation
    does.
    """
    sign = np.sign(x, a)
    ax = np.absolute(x, b)
    t = np.multiply(0.3275911, ax, c)
    t = np.add(1.0, t, c)
    t = np.divide(1.0, t, c)
    poly = np.multiply(t, 1.061405429, d)
    for coefficient in (-1.453152027, 1.421413741, -0.284496736, 0.254829592):
        poly = np.add(coefficient, poly, d)
        poly = np.multiply(t, poly, d)
    tail = np.negative(ax, c)
    tail = np.multiply(tail, ax, c)
    tail = np.exp(tail, c)
    poly = np.multiply(poly, tail, d)
    poly = np.subtract(1.0, poly, d)
    poly = np.multiply(sign, poly, d)
    return np.copysign(poly, x, out)


_UNOP_EVAL = {
    UnOpKind.NEG: lambda a: -a,
    UnOpKind.SQRT: np.sqrt,
    UnOpKind.EXP: np.exp,
    UnOpKind.LOG: np.log,
    UnOpKind.ABS: np.abs,
    UnOpKind.ERF: _erf,
    UnOpKind.SIN: np.sin,
    UnOpKind.COS: np.cos,
    UnOpKind.TANH: np.tanh,
    UnOpKind.RECIP: lambda a: 1.0 / a,
}

_REDUCE_EVAL = {
    ReduceKind.SUM: np.sum,
    ReduceKind.PROD: np.prod,
    ReduceKind.MAX: np.max,
    ReduceKind.MIN: np.min,
}

_REDUCE_COMBINE = {
    ReduceKind.SUM: lambda a, b: a + b,
    ReduceKind.PROD: lambda a, b: a * b,
    ReduceKind.MAX: max,
    ReduceKind.MIN: min,
}


def evaluate_expr(expr: Expr, buffers: Dict[str, np.ndarray], scalars: Dict[str, float],
                  locals_: Dict[str, np.ndarray]) -> np.ndarray:
    """Evaluate a kernel expression with NumPy array semantics."""
    if isinstance(expr, Const):
        return np.float64(expr.value)
    if isinstance(expr, ScalarRef):
        return np.float64(scalars[expr.name])
    if isinstance(expr, Load):
        return buffers[expr.buffer]
    if isinstance(expr, LocalRef):
        return locals_[expr.name]
    if isinstance(expr, BinOp):
        return _BINOP_EVAL[expr.op](
            evaluate_expr(expr.lhs, buffers, scalars, locals_),
            evaluate_expr(expr.rhs, buffers, scalars, locals_),
        )
    if isinstance(expr, UnOp):
        return _UNOP_EVAL[expr.op](evaluate_expr(expr.operand, buffers, scalars, locals_))
    raise TypeError(f"unknown expression {expr!r}")


def reduce_array(kind: ReduceKind, values: np.ndarray) -> float:
    """Reduce an array of per-element values to a scalar."""
    return float(_REDUCE_EVAL[kind](values))


def combine_reduction(kind: ReduceKind, a: float, b: float) -> float:
    """Combine two partial reduction results."""
    return float(_REDUCE_COMBINE[kind](a, b))
