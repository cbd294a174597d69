"""Privileges with which tasks access their store arguments.

The paper's IR annotates each ``(store, partition)`` pair of an index task
with one of four privileges: Read, Write, Read-Write and Reduce.  The
privileges drive both the fusion constraints (paper Section 4) and the
coherence/communication model of the runtime substrate.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

import numpy as np


class Privilege(enum.Enum):
    """Access privilege of a task on a store argument."""

    READ = "R"
    WRITE = "W"
    READ_WRITE = "RW"
    REDUCE = "Rd"

    #: Members are singletons compared by identity, so the identity hash
    #: is consistent with equality and, unlike ``Enum``'s Python-level
    #: name hash, costs nothing: privileges are part of every launch
    #: skeleton's key.
    __hash__ = object.__hash__

    @property
    def reads(self) -> bool:
        """True when the privilege observes existing store contents."""
        return self in (Privilege.READ, Privilege.READ_WRITE)

    @property
    def writes(self) -> bool:
        """True when the privilege overwrites store contents."""
        return self in (Privilege.WRITE, Privilege.READ_WRITE)

    @property
    def reduces(self) -> bool:
        """True when the privilege folds values with a reduction operator."""
        return self is Privilege.REDUCE

    def __str__(self) -> str:
        return self.value


class ReductionOp(enum.Enum):
    """Associative, commutative reduction operators supported by the IR."""

    ADD = "add"
    MUL = "mul"
    MIN = "min"
    MAX = "max"

    __hash__ = object.__hash__  # as ``Privilege.__hash__``

    @property
    def identity(self) -> float:
        """The identity element of the operator."""
        return _IDENTITIES[self]

    def apply(self, accumulator: np.ndarray, value: np.ndarray) -> np.ndarray:
        """Fold ``value`` into ``accumulator`` and return the result."""
        return _APPLIERS[self](accumulator, value)

    def combine_scalars(self, a: float, b: float) -> float:
        """Fold two scalar partial results."""
        return float(_APPLIERS[self](np.asarray(a), np.asarray(b)))


_IDENTITIES = {
    ReductionOp.ADD: 0.0,
    ReductionOp.MUL: 1.0,
    ReductionOp.MIN: float("inf"),
    ReductionOp.MAX: float("-inf"),
}

_APPLIERS: dict = {
    ReductionOp.ADD: lambda acc, val: acc + val,
    ReductionOp.MUL: lambda acc, val: acc * val,
    ReductionOp.MIN: np.minimum,
    ReductionOp.MAX: np.maximum,
}


def promote(first: Privilege, second: Privilege) -> Privilege:
    """Combine the privileges of two accesses to the same store view.

    Used when constructing fused tasks: a store that is read by one
    constituent task and written by another is accessed with Read-Write
    privilege by the fused task (paper Section 4.2.2).  Reductions do not
    combine with other privileges — the fusion constraints guarantee the
    combination never arises — so mixing them is an error here.
    """
    if first == second:
        return first
    if Privilege.REDUCE in (first, second):
        raise ValueError(
            "cannot promote a reduction privilege together with "
            f"{first} and {second}; the reduction fusion constraint should "
            "have prevented this combination"
        )
    return Privilege.READ_WRITE


_UFUNCS = {
    ReductionOp.ADD: np.add,
    ReductionOp.MUL: np.multiply,
    ReductionOp.MIN: np.minimum,
    ReductionOp.MAX: np.maximum,
}


def numpy_ufunc_for(op: ReductionOp) -> Callable:
    """The NumPy ufunc whose ``reduce`` implements the operator."""
    return _UFUNCS[op]


def validate_reduction(privilege: Privilege, redop: Optional[ReductionOp]) -> None:
    """Check that a reduction operator is supplied exactly when needed."""
    if privilege.reduces and redop is None:
        raise ValueError("REDUCE privilege requires a reduction operator")
    if not privilege.reduces and redop is not None:
        raise ValueError(f"privilege {privilege} must not carry a reduction operator")
