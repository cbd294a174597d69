"""A cuPyNumeric-like distributed NumPy frontend.

The module mirrors (a useful subset of) the NumPy API.  Arrays are
deferred: every operation emits Diffuse index tasks over partitioned
stores instead of computing eagerly, and values only materialise when the
program reads them (``float(x)``, ``x.to_numpy()``), exactly like the
cuPyNumeric library the paper evaluates.

>>> from repro.frontend.legate import runtime_context
>>> import repro.frontend.cunumeric as np
>>> with runtime_context(num_gpus=4):
...     x = np.full(1024, 2.0)
...     y = np.full(1024, 3.0)
...     z = 2.0 * x + y
...     assert abs(float(z.sum()) - 1024 * 7.0) < 1e-9
"""

from repro.frontend.cunumeric.array import maximum_scalar, ndarray, nonzero_scalar
from repro.frontend.cunumeric.creation import (
    arange,
    array,
    empty,
    full,
    ones,
    zeros,
    zeros_like,
)
from repro.frontend.cunumeric.ufuncs import (
    absolute,
    add,
    axpy,
    cos,
    divide,
    erf,
    exp,
    log,
    maximum,
    minimum,
    multiply,
    negative,
    power,
    sin,
    sqrt,
    subtract,
    tanh,
    where,
)
from repro.frontend.cunumeric.reductions import amax, amin, dot, sum  # noqa: A004
from repro.frontend.cunumeric import linalg, random
from repro.ir.future import Future

__all__ = [
    "ndarray",
    "Future",
    "maximum_scalar",
    "nonzero_scalar",
    "array",
    "arange",
    "empty",
    "full",
    "ones",
    "zeros",
    "zeros_like",
    "absolute",
    "add",
    "axpy",
    "cos",
    "divide",
    "erf",
    "exp",
    "log",
    "maximum",
    "minimum",
    "multiply",
    "negative",
    "power",
    "sin",
    "sqrt",
    "subtract",
    "tanh",
    "where",
    "amax",
    "amin",
    "dot",
    "sum",
    "linalg",
    "random",
]
