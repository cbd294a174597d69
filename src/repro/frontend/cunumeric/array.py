"""The deferred distributed ndarray.

An :class:`ndarray` is a *view descriptor* over a store: the store plus an
offset and a shape.  Slicing creates new views of the same store — the
aliasing views that drive the paper's motivating example — and every
operation emits index tasks whose partitions carry the view's offset and
bounds, so Diffuse sees exactly the aliasing structure the paper's fusion
constraints reason about.

Arithmetic whose operands are all 0-d arrays, futures or numbers builds
a :class:`~repro.ir.future.Future` instead of a task: a reduction's
result stays deferred until a launch takes it as a scalar argument, or
the host reads it with ``float()``.

Only ``float64`` data and step-1 slicing are supported; that is all the
paper's applications need.
"""

from __future__ import annotations

import operator
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.ir import future as future_module
from repro.ir.domain import Domain
from repro.ir.future import Future
from repro.ir.partition import Partition
from repro.ir.privilege import Privilege, ReductionOp
from repro.ir.store import Store
from repro.frontend.legate.context import RuntimeContext, get_context

Scalar = Union[int, float, Future]

#: One argument of a launch skeleton: ``(partition, privilege, redop)``.
Spec = Tuple[Partition, Privilege, Optional[ReductionOp]]


class ndarray:  # noqa: N801 - mirrors the NumPy class name
    """A distributed, deferred array (possibly a view of another array)."""

    def __init__(
        self,
        store: Store,
        offset: Optional[Tuple[int, ...]] = None,
        shape: Optional[Tuple[int, ...]] = None,
        context: Optional[RuntimeContext] = None,
        partition: Optional[Partition] = None,
    ) -> None:
        self._context = context or get_context()
        self._store = store
        #: True when the view is the whole store, so an array of the
        #: same shape has the same natural partition (``_fresh_like``).
        self._whole = offset is None and shape is None
        self._offset = tuple(offset) if offset is not None else (0,) * store.ndim
        self._shape = tuple(shape) if shape is not None else store.shape
        self._store.add_application_reference()
        # The partition is a value fixed by the view: computed once per
        # array, and an output built by ``_fresh_like`` starts with the
        # partition of the array it was built from.
        self._partition = partition

    def __del__(self) -> None:
        try:
            self._store.remove_application_reference()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    # ------------------------------------------------------------------
    # Basic properties.
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Logical shape of the (view of the) array."""
        return self._shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self._shape)

    @property
    def size(self) -> int:
        """Number of elements."""
        size = 1
        for extent in self._shape:
            size *= extent
        return size

    @property
    def dtype(self) -> np.dtype:
        """Element type (always float64)."""
        return self._store.dtype

    @property
    def store(self) -> Store:
        """The backing store (for tests and the experiment harness)."""
        return self._store

    @property
    def context(self) -> RuntimeContext:
        """The runtime context that owns this array."""
        return self._context

    def __len__(self) -> int:
        if self.ndim == 0:
            raise TypeError("len() of unsized object")
        return self._shape[0]

    def __repr__(self) -> str:
        return f"ndarray(shape={self._shape}, store={self._store.name})"

    # ------------------------------------------------------------------
    # Partitions and task plumbing.
    # ------------------------------------------------------------------
    def partition(self) -> Partition:
        """The partition used when this view is a task argument."""
        partition = self._partition
        if partition is None:
            partition = self._partition = self._context.natural_partition(
                self._store, self._offset, self._shape
            )
        return partition

    def launch_domain(self) -> Domain:
        """The launch domain used for element-wise tasks on this view."""
        return self._context.launch_domain(self.ndim)

    def read_spec(self) -> Spec:
        """This view as a Read argument of a launch skeleton."""
        return (self.partition(), Privilege.READ, None)

    def write_spec(self) -> Spec:
        """This view as a Write argument of a launch skeleton."""
        return (self.partition(), Privilege.WRITE, None)

    def reduce_spec(self, redop: ReductionOp = ReductionOp.ADD) -> Spec:
        """This view as a Reduce argument of a launch skeleton."""
        return (self.partition(), Privilege.REDUCE, redop)

    def _submit(
        self,
        task_name: str,
        stores: Tuple[Store, ...],
        specs: Tuple[Spec, ...],
        scalar_args: Tuple[Scalar, ...] = (),
    ) -> None:
        """Launch ``task_name`` over this view's launch domain, binding
        ``stores`` to ``specs`` position by position.  A scalar may be a
        :class:`Future`: the launch resolves it when it runs."""
        context = self._context
        context.submit(
            context.skeleton(task_name, self.launch_domain(), specs), stores, scalar_args
        )

    def _fresh_like(
        self, shape: Optional[Tuple[int, ...]] = None, name: str = "tmp"
    ) -> "ndarray":
        """A new whole array of ``shape`` (default: this view's shape)."""
        if shape is None:
            shape = self._shape
        store = self._context.create_store(shape, name=name)
        partition = self._partition if self._whole and shape == self._shape else None
        return ndarray(store, context=self._context, partition=partition)

    # ------------------------------------------------------------------
    # Slicing: views share the store and carry offsets/bounds.
    # ------------------------------------------------------------------
    def __getitem__(self, key) -> "ndarray":
        offsets, shape = self._resolve_slices(key)
        absolute = tuple(o + rel for o, rel in zip(self._offset, offsets))
        return ndarray(self._store, offset=absolute, shape=shape, context=self._context)

    def _resolve_slices(self, key) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        if not isinstance(key, tuple):
            key = (key,)
        if len(key) > self.ndim:
            raise IndexError(f"too many indices for a {self.ndim}-D array")
        key = key + (slice(None),) * (self.ndim - len(key))
        offsets = []
        shape = []
        for index, extent in zip(key, self._shape):
            if isinstance(index, slice):
                start, stop, step = index.indices(extent)
                if step != 1:
                    raise NotImplementedError("only step-1 slices are supported")
                offsets.append(start)
                shape.append(max(0, stop - start))
            elif isinstance(index, (int, np.integer)):
                raise NotImplementedError(
                    "integer indexing is not supported; use slices to keep "
                    "the result distributed"
                )
            else:
                raise TypeError(f"unsupported index {index!r}")
        return tuple(offsets), tuple(shape)

    def __setitem__(self, key, value) -> None:
        target = self if key is Ellipsis else self[key]
        if isinstance(value, ndarray):
            if value.shape != target.shape:
                raise ValueError(
                    f"cannot assign shape {value.shape} into shape {target.shape}"
                )
            target._submit(
                "copy",
                (value._store, target._store),
                (value.read_spec(), target.write_spec()),
            )
        else:
            target._submit(
                "fill", (target._store,), (target.write_spec(),), (float(value),)
            )

    # ------------------------------------------------------------------
    # Element-wise operator helpers.
    # ------------------------------------------------------------------
    def future(self) -> Future:
        """The deferred value of a 0-d array (no host read)."""
        if self._shape:
            raise ValueError("only a 0-d array has a future value")
        return Future.load(self._store, self._context, self)

    def _binary(self, other, op: str, scalar_op: str, reverse: bool = False) -> "ndarray":
        if not self._shape and op in _FUTURE_OPS:
            # Host arithmetic on a 0-d value stays deferred: a future, or
            # (with an n-d operand) a launch taking the future as a scalar.
            apply = _FUTURE_OPS[op]
            this, other = self.future(), as_future(other)
            return apply(other, this) if reverse else apply(this, other)
        if isinstance(other, ndarray) and other._shape:
            if other.shape != self.shape:
                raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
            out = self._fresh_like()
            lhs, rhs = (other, self) if reverse else (self, other)
            self._submit(
                op,
                (lhs._store, rhs._store, out._store),
                (lhs.read_spec(), rhs.read_spec(), out.write_spec()),
            )
            return out
        out = self._fresh_like()
        task = f"r{scalar_op}" if reverse and scalar_op in ("subtract_scalar", "divide_scalar") else scalar_op
        self._submit(
            task,
            (self._store, out._store),
            (self.read_spec(), out.write_spec()),
            (other if type(other) is Future else scalar_arg(other),),
        )
        return out

    def _unary(self, op: str) -> "ndarray":
        out = self._fresh_like()
        self._submit(op, (self._store, out._store), (self.read_spec(), out.write_spec()))
        return out

    def _inplace(self, other, op: str, scalar_op: str) -> "ndarray":
        if isinstance(other, ndarray) and other._shape:
            if other.shape != self.shape:
                raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
            self._submit(
                op,
                (self._store, other._store, self._store),
                (self.read_spec(), other.read_spec(), self.write_spec()),
            )
        else:
            self._submit(
                scalar_op,
                (self._store, self._store),
                (self.read_spec(), self.write_spec()),
                (scalar_arg(other),),
            )
        return self

    # Arithmetic dunders -------------------------------------------------
    def __add__(self, other):
        return self._binary(other, "add", "add_scalar")

    def __radd__(self, other):
        return self._binary(other, "add", "add_scalar", reverse=True)

    def __sub__(self, other):
        return self._binary(other, "subtract", "subtract_scalar")

    def __rsub__(self, other):
        return self._binary(other, "subtract", "subtract_scalar", reverse=True)

    def __mul__(self, other):
        return self._binary(other, "multiply", "multiply_scalar")

    def __rmul__(self, other):
        return self._binary(other, "multiply", "multiply_scalar", reverse=True)

    def __truediv__(self, other):
        return self._binary(other, "divide", "divide_scalar")

    def __rtruediv__(self, other):
        return self._binary(other, "divide", "divide_scalar", reverse=True)

    def __pow__(self, other):
        if isinstance(other, ndarray):
            return self._binary(other, "power", "power_scalar")
        return self._binary(float(other), "power", "power_scalar")

    def __neg__(self):
        if self.ndim == 0:
            return -self.future()
        return self._unary("negative")

    def __iadd__(self, other):
        return self._inplace(other, "add", "add_scalar")

    def __isub__(self, other):
        return self._inplace(other, "subtract", "subtract_scalar")

    def __imul__(self, other):
        return self._inplace(other, "multiply", "multiply_scalar")

    def __itruediv__(self, other):
        return self._inplace(other, "divide", "divide_scalar")

    # Comparisons produce 0/1-valued arrays used with ``where``.
    def __gt__(self, other):
        return self._compare(other, "greater", "greater_scalar")

    def __lt__(self, other):
        return self._compare(other, "less", "less_scalar")

    def __ge__(self, other):
        return self._compare(other, "greater_equal", None)

    def __le__(self, other):
        return self._compare(other, "less_equal", None)

    def _compare(self, other, op: str, scalar_op: Optional[str]):
        if isinstance(other, (int, float)) and scalar_op is not None:
            return self._binary(other, op, scalar_op)
        if isinstance(other, (int, float)):
            other = _full_like(self, float(other))
        return self._binary(other, op, op)

    # ------------------------------------------------------------------
    # Reductions.
    # ------------------------------------------------------------------
    def _reduce(self, task_name: str, redop: ReductionOp, identity: float) -> "ndarray":
        result_store = self._context.create_scalar_store(name=f"{task_name}_result")
        self._context.legion.write_scalar(result_store, identity)
        result = ndarray(
            result_store, context=self._context, partition=self._context.replication()
        )
        self._submit(
            task_name,
            (self._store, result_store),
            (self.read_spec(), result.reduce_spec(redop)),
        )
        return result

    def sum(self) -> "ndarray":
        """Sum of all elements (a deferred scalar)."""
        return self._reduce("sum_reduce", ReductionOp.ADD, 0.0)

    def max(self) -> "ndarray":
        """Maximum element (a deferred scalar)."""
        return self._reduce("max_reduce", ReductionOp.MAX, float("-inf"))

    def min(self) -> "ndarray":
        """Minimum element (a deferred scalar)."""
        return self._reduce("min_reduce", ReductionOp.MIN, float("inf"))

    def dot(self, other: "ndarray") -> "ndarray":
        """Inner product with another array of the same shape."""
        if not isinstance(other, ndarray) or other.shape != self.shape:
            raise ValueError("dot requires another array of the same shape")
        result_store = self._context.create_scalar_store(name="dot_result")
        self._context.legion.write_scalar(result_store, 0.0)
        result = ndarray(
            result_store, context=self._context, partition=self._context.replication()
        )
        self._submit(
            "dot",
            (self._store, other._store, result_store),
            (self.read_spec(), other.read_spec(), result.reduce_spec(ReductionOp.ADD)),
        )
        return result

    # ------------------------------------------------------------------
    # Materialisation.
    # ------------------------------------------------------------------
    def item(self) -> float:
        """Blocking read of a scalar array's value."""
        if self.size != 1:
            raise ValueError("item() requires a single-element array")
        return self._context.read_scalar(self._store)

    def __float__(self) -> float:
        return self.item()

    def to_numpy(self) -> np.ndarray:
        """Blocking copy of the view's contents into a NumPy array."""
        full = self._context.read_array(self._store)
        slices = tuple(
            slice(o, o + s) for o, s in zip(self._offset, self._shape)
        )
        return np.array(full[slices], copy=True)

    __array__ = to_numpy

    def fill(self, value: float) -> None:
        """Fill the view with a constant (emits a fill task)."""
        self.__setitem__(Ellipsis, float(value))

    def copy(self) -> "ndarray":
        """A freshly-allocated copy of the view."""
        out = self._fresh_like(name="copy")
        self._submit("copy", (self._store, out._store), (self.read_spec(), out.write_spec()))
        return out


#: Element-wise task -> the operator of its future form.
_FUTURE_OPS = {
    "add": operator.add, "subtract": operator.sub,
    "multiply": operator.mul, "divide": operator.truediv,
}


def as_future(value):
    """A 0-d array as its future; anything else as it is."""
    if isinstance(value, ndarray) and not value._shape:
        return value.future()
    return value


def scalar_arg(value):
    """A scalar operand as a launch takes it: a 0-d array or a future
    stays deferred, a number becomes a float."""
    value = as_future(value)
    return value if type(value) is Future else float(value)


def maximum_scalar(a, b):
    """Python ``max(a, b)`` over 0-d arrays, futures and numbers, deferred
    (:func:`repro.ir.future.maximum`)."""
    return future_module.maximum(as_future(a), as_future(b))


def nonzero_scalar(value):
    """``value``, or ``1e-300`` when exactly zero, deferred for a 0-d array
    or a future (:func:`repro.ir.future.nonzero`)."""
    return future_module.nonzero(as_future(value))


def _full_like(template: ndarray, value: float) -> ndarray:
    out = template._fresh_like(name="const")
    out._submit("fill", (out._store,), (out.write_spec(),), (value,))
    return out
