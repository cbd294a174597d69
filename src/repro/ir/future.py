"""Futures: 0-d values the host has not read yet.

A reduction's result lives in a 0-d store.  Reading it on the host
(``float()``) ends the runtime's fusion scope at that point: everything
submitted so far must execute first.  A :class:`Future` instead keeps
host arithmetic over such results deferred — an expression of ``+``,
``-``, ``*``, ``/``, unary ``-``, Python ``max`` and the zero guard of
the Krylov solvers over 0-d stores and constants — and is passed to a
launch as a scalar argument like any number.  It is never a task: the
runtime evaluates it when the launch that takes it runs, with Python
float semantics, so every value is the one the host read would have
produced.

Futures are immutable.  A leaf holds the array it was made from, whose
application reference keeps the store's field alive as long as a future
may still read it.  A future reads its stores when its consumer
launches: a 0-d array written in place after a future was built on it
is read with the new value.
"""

from __future__ import annotations

import operator
from typing import Callable, Tuple

import numpy as np

from repro.ir.store import Store


def _python_max(a: float, b: float) -> float:
    """``max(a, b)``: ``b`` only when ``b > a`` (so a NaN ``a`` wins)."""
    return b if b > a else a


def _nonzero(value: float) -> float:
    """A denominator guarded against exact zero (either sign)."""
    return 1e-300 if value == 0.0 else value


_APPLY: dict = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
    "neg": operator.neg,
    "max": _python_max,
    "nonzero": _nonzero,
}

_NUMBER = (int, float, np.integer, np.floating)


def _number(value):
    """A number as a float operand, or ``None`` for anything else."""
    return float(value) if isinstance(value, _NUMBER) else None


class Future:
    """A deferred 0-d value: a load of a 0-d store, or an operator over
    futures and constants (see the module docstring).

    ``context`` is the runtime context whose ``read_future`` flushes and
    evaluates on a host read (``float()``); the runtime itself only
    calls :meth:`evaluate`.  ``sources`` are the stores the value reads,
    one per load in expression order, and ``shape`` the expression with
    stores and constants left out (what the trace key records besides
    the source slots).
    """

    __slots__ = ("op", "operands", "context", "sources", "shape", "_apply")

    #: NumPy scalars defer to the future's reflected operators.
    __array_ufunc__ = None

    def __init__(self, op: str, operands: Tuple, context=None) -> None:
        self.op = op
        self.operands = operands
        self.context = context
        if op == "load":
            self.sources: Tuple[Store, ...] = operands[:1]
            self.shape: object = op
            return
        self._apply = _APPLY[op]
        sources: Tuple[Store, ...] = ()
        shape = [op]
        for operand in operands:
            if type(operand) is Future:
                sources += operand.sources
                shape.append(operand.shape)
            else:
                shape.append(None)
        self.sources = sources
        self.shape = tuple(shape)

    @classmethod
    def load(cls, store: Store, context=None, holder=None) -> "Future":
        """The value of a 0-d store; ``holder`` (the array the store
        backs) is kept alive with the future."""
        return cls("load", (store, holder), context)

    # ------------------------------------------------------------------
    def evaluate(self, read: Callable[[Store], float]) -> float:
        """The value, reading each source store through ``read``."""
        operands = self.operands
        if self.op == "load":
            return read(operands[0])
        first = operands[0]
        if type(first) is Future:
            first = first.evaluate(read)
        if len(operands) == 1:
            return self._apply(first)
        second = operands[1]
        if type(second) is Future:
            second = second.evaluate(read)
        return self._apply(first, second)

    def _binary(self, op: str, other, reverse: bool = False):
        if type(other) is not float and type(other) is not Future:
            other = _number(other)
            if other is None:
                return NotImplemented
        return Future(op, (other, self) if reverse else (self, other), self.context)

    def __add__(self, other):
        return self._binary("add", other)

    def __radd__(self, other):
        return self._binary("add", other, True)

    def __sub__(self, other):
        return self._binary("sub", other)

    def __rsub__(self, other):
        return self._binary("sub", other, True)

    def __mul__(self, other):
        return self._binary("mul", other)

    def __rmul__(self, other):
        return self._binary("mul", other, True)

    def __truediv__(self, other):
        return self._binary("div", other)

    def __rtruediv__(self, other):
        return self._binary("div", other, True)

    def __neg__(self):
        return Future("neg", (self,), self.context)

    # ------------------------------------------------------------------
    # Host reads: each one flushes the context like ``ndarray.item()``.
    # ------------------------------------------------------------------
    def item(self) -> float:
        """Blocking host read of the value."""
        return self.context.read_future(self)

    def __float__(self) -> float:
        return self.item()

    def __lt__(self, other):
        return float(self) < other

    def __le__(self, other):
        return float(self) <= other

    def __gt__(self, other):
        return float(self) > other

    def __ge__(self, other):
        return float(self) >= other

    def __repr__(self) -> str:
        if self.op == "load":
            return f"Future(load {self.operands[0].name})"
        return f"Future({self.op} {', '.join(map(repr, self.operands))})"


def maximum(a, b):
    """Python ``max(a, b)`` over futures and numbers, deferred.

    Returns ``b`` only when ``b > a``, as the builtin does, so a NaN
    first operand is kept and ``max(-0.0, 0.0)`` is ``-0.0``.  Without a
    future operand the result is the builtin's.
    """
    if type(a) is Future:
        result = a._binary("max", b)
    elif type(b) is Future:
        result = b._binary("max", a, True)
    else:
        return max(a, b)
    if result is NotImplemented:
        raise TypeError(f"max() of {type(a).__name__} and {type(b).__name__}")
    return result


def nonzero(value):
    """``value``, or ``1e-300`` when it is exactly zero; deferred for a future."""
    if type(value) is Future:
        return Future("nonzero", (value,), value.context)
    return _nonzero(value)


def future_sources(scalar_args) -> Tuple[Store, ...]:
    """The source stores of the futures among a launch's scalars, in order."""
    sources: Tuple[Store, ...] = ()
    for value in scalar_args:
        if type(value) is Future:
            sources += value.sources
    return sources

