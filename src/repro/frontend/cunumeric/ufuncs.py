"""Element-wise module-level functions (the NumPy ufunc surface)."""

from __future__ import annotations

from typing import Union

from repro.frontend.cunumeric.array import ndarray, _full_like

ArrayOrScalar = Union[ndarray, int, float]


def _as_array(value: ArrayOrScalar, template: ndarray) -> ndarray:
    if isinstance(value, ndarray):
        return value
    return _full_like(template, float(value))


# ----------------------------------------------------------------------
# Binary functions.
# ----------------------------------------------------------------------
def add(a: ndarray, b: ArrayOrScalar) -> ndarray:
    """Element-wise addition."""
    return a + b


def subtract(a: ndarray, b: ArrayOrScalar) -> ndarray:
    """Element-wise subtraction."""
    return a - b


def multiply(a: ndarray, b: ArrayOrScalar) -> ndarray:
    """Element-wise multiplication."""
    return a * b


def divide(a: ndarray, b: ArrayOrScalar) -> ndarray:
    """Element-wise division."""
    return a / b


def power(a: ndarray, b: ArrayOrScalar) -> ndarray:
    """Element-wise exponentiation."""
    return a ** b


def maximum(a: ndarray, b: ArrayOrScalar) -> ndarray:
    """Element-wise maximum."""
    if isinstance(b, ndarray):
        return a._binary(b, "maximum", "maximum_scalar")
    return a._binary(float(b), "maximum", "maximum_scalar")


def minimum(a: ndarray, b: ArrayOrScalar) -> ndarray:
    """Element-wise minimum."""
    if isinstance(b, ndarray):
        return a._binary(b, "minimum", "minimum_scalar")
    return a._binary(float(b), "minimum", "minimum_scalar")


def where(condition: ndarray, if_true: ArrayOrScalar, if_false: ArrayOrScalar) -> ndarray:
    """Element-wise selection: ``condition ? if_true : if_false``."""
    if_true = _as_array(if_true, condition)
    if_false = _as_array(if_false, condition)
    out = condition._fresh_like(name="where")
    out._submit(
        "where",
        (condition.store, if_true.store, if_false.store, out.store),
        (condition.read_spec(), if_true.read_spec(), if_false.read_spec(), out.write_spec()),
    )
    return out


def axpy(alpha: float, x: ndarray, y: ndarray) -> ndarray:
    """The hand-fused ``alpha * x + y`` kernel.

    Naturally-written programs express this as a multiply followed by an
    add and rely on Diffuse to fuse them; the "manually fused" baselines
    call this function directly.
    """
    out = x._fresh_like(name="axpy")
    out._submit(
        "axpy",
        (x.store, y.store, out.store),
        (x.read_spec(), y.read_spec(), out.write_spec()),
        (float(alpha),),
    )
    return out


# ----------------------------------------------------------------------
# Unary functions.
# ----------------------------------------------------------------------
def negative(a: ndarray) -> ndarray:
    """Element-wise negation."""
    return a._unary("negative")


def sqrt(a: ndarray) -> ndarray:
    """Element-wise square root."""
    return a._unary("sqrt")


def exp(a: ndarray) -> ndarray:
    """Element-wise exponential."""
    return a._unary("exp")


def log(a: ndarray) -> ndarray:
    """Element-wise natural logarithm."""
    return a._unary("log")


def absolute(a: ndarray) -> ndarray:
    """Element-wise absolute value."""
    return a._unary("absolute")


def erf(a: ndarray) -> ndarray:
    """Element-wise error function (used by Black-Scholes)."""
    return a._unary("erf")


def sin(a: ndarray) -> ndarray:
    """Element-wise sine."""
    return a._unary("sin")


def cos(a: ndarray) -> ndarray:
    """Element-wise cosine."""
    return a._unary("cos")


def tanh(a: ndarray) -> ndarray:
    """Element-wise hyperbolic tangent."""
    return a._unary("tanh")
