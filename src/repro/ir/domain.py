"""Points, rectangles and rectangular domains.

Diffuse describes both data (store shapes) and compute (launch domains)
with rectangular index spaces.  A :class:`Rect` is a half-open
``[lo, hi)`` box over integer points; a :class:`Domain` is a rectangle
anchored at the origin, described only by its shape.

These objects are deliberately tiny and immutable — they appear inside
partition descriptions and task arguments, which must be hashable so the
memoization machinery (paper Section 5.2) can canonicalise task streams.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

Point = Tuple[int, ...]


def as_point(value: Sequence[int]) -> Point:
    """Normalise a sequence of integers into a point tuple."""
    return tuple(int(v) for v in value)


def point_add(a: Point, b: Point) -> Point:
    """Element-wise sum of two points of equal dimensionality."""
    _check_dims(a, b)
    return tuple(x + y for x, y in zip(a, b))


def point_sub(a: Point, b: Point) -> Point:
    """Element-wise difference of two points of equal dimensionality."""
    _check_dims(a, b)
    return tuple(x - y for x, y in zip(a, b))


def point_mul(a: Point, b: Point) -> Point:
    """Element-wise product of two points of equal dimensionality."""
    _check_dims(a, b)
    return tuple(x * y for x, y in zip(a, b))


def _check_dims(a: Point, b: Point) -> None:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {a} vs {b}")


@dataclass(frozen=True)
class Rect:
    """A half-open axis-aligned box ``[lo, hi)`` of integer points."""

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError(
                f"lo and hi must have the same dimension: {self.lo} vs {self.hi}"
            )
        object.__setattr__(self, "lo", as_point(self.lo))
        object.__setattr__(self, "hi", as_point(self.hi))

    def __hash__(self) -> int:
        # Rects key the sub-store view caches of the execution hot path;
        # the hash is computed on first use and memoized (lazily, so
        # rects that are never hashed pay nothing at construction).
        try:
            return self._hash
        except AttributeError:
            value = hash((self.lo, self.hi))
            object.__setattr__(self, "_hash", value)
            return value

    @staticmethod
    def from_shape(shape: Sequence[int]) -> "Rect":
        """Build the rectangle ``[0, shape)``."""
        shape = as_point(shape)
        return Rect((0,) * len(shape), shape)

    @property
    def dim(self) -> int:
        """Number of dimensions of the rectangle."""
        return len(self.lo)

    @property
    def shape(self) -> Point:
        """Extent along each dimension (clamped below at zero)."""
        return tuple(max(0, h - l) for l, h in zip(self.lo, self.hi))

    @property
    def volume(self) -> int:
        """Number of integer points contained in the rectangle."""
        total = 1
        for extent in self.shape:
            total *= extent
        return total

    @property
    def empty(self) -> bool:
        """True when the rectangle contains no points."""
        return any(h <= l for l, h in zip(self.lo, self.hi))

    def contains_point(self, point: Sequence[int]) -> bool:
        """True when ``point`` lies inside the rectangle."""
        point = as_point(point)
        if len(point) != self.dim:
            return False
        return all(l <= p < h for l, p, h in zip(self.lo, point, self.hi))

    def contains_rect(self, other: "Rect") -> bool:
        """True when ``other`` is entirely inside this rectangle."""
        if other.empty:
            return True
        return all(
            sl <= ol and oh <= sh
            for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def intersection(self, other: "Rect") -> "Rect":
        """The (possibly empty) overlap of two rectangles."""
        if self.dim != other.dim:
            raise ValueError(
                f"cannot intersect rectangles of dimension {self.dim} and {other.dim}"
            )
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        return Rect(lo, hi)

    def overlaps(self, other: "Rect") -> bool:
        """True when the two rectangles share at least one point."""
        return not self.intersection(other).empty

    def intersect_with_shape(self, shape: Sequence[int]) -> "Rect":
        """Clamp the rectangle to the box ``[0, shape)``."""
        return self.intersection(Rect.from_shape(shape))

    def points(self) -> Iterator[Point]:
        """Iterate over every integer point in the rectangle."""
        if self.empty:
            return iter(())
        ranges = [range(l, h) for l, h in zip(self.lo, self.hi)]
        return iter(itertools.product(*ranges))

    def slices(self) -> Tuple[slice, ...]:
        """NumPy-compatible slices selecting this rectangle from an array."""
        return tuple(slice(l, h) for l, h in zip(self.lo, self.hi))

    def translate(self, offset: Sequence[int]) -> "Rect":
        """Shift the rectangle by ``offset``."""
        offset = as_point(offset)
        return Rect(point_add(self.lo, offset), point_add(self.hi, offset))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rect(lo={self.lo}, hi={self.hi})"


@dataclass(frozen=True)
class Domain:
    """A rectangular index space anchored at the origin.

    Domains describe both the shape of stores and the launch domains of
    index tasks.  A domain with shape ``(4, 2)`` contains the eight points
    ``(0, 0) .. (3, 1)``.
    """

    shape: Point

    def __post_init__(self) -> None:
        shape = as_point(self.shape)
        if any(s < 0 for s in shape):
            raise ValueError(f"domain shape must be non-negative: {shape}")
        object.__setattr__(self, "shape", shape)

    @property
    def dim(self) -> int:
        """Number of dimensions of the domain."""
        return len(self.shape)

    @property
    def volume(self) -> int:
        """Number of points in the domain."""
        return self.rect.volume

    @property
    def rect(self) -> Rect:
        """The domain as a rectangle ``[0, shape)``."""
        return Rect.from_shape(self.shape)

    @property
    def empty(self) -> bool:
        """True when the domain contains no points."""
        return self.volume == 0

    def points(self) -> Iterator[Point]:
        """Iterate over every point in the domain."""
        return self.rect.points()

    def contains(self, point: Sequence[int]) -> bool:
        """True when ``point`` lies inside the domain."""
        return self.rect.contains_point(point)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"Domain{self.shape}"


def factor_domain(count: int, dim: int) -> Domain:
    """Split ``count`` processors into a roughly square ``dim``-D domain.

    This mirrors how cuPyNumeric chooses launch domains: the number of
    processors is factored into a launch grid as close to a hypercube as
    possible so that tile surface (and therefore halo traffic) is
    minimised.

    >>> factor_domain(8, 2).shape
    (4, 2)
    >>> factor_domain(7, 2).shape
    (7, 1)
    """
    if count <= 0:
        raise ValueError("processor count must be positive")
    if dim <= 0:
        raise ValueError("dimension must be positive")
    if dim == 1:
        return Domain((count,))
    extents = [1] * dim
    remaining = count
    # Greedily peel prime factors onto the currently-smallest extent.
    factor = 2
    factors = []
    while factor * factor <= remaining:
        while remaining % factor == 0:
            factors.append(factor)
            remaining //= factor
        factor += 1
    if remaining > 1:
        factors.append(remaining)
    for prime in sorted(factors, reverse=True):
        smallest = extents.index(min(extents))
        extents[smallest] *= prime
    extents.sort(reverse=True)
    return Domain(tuple(extents))


def tile_shape_for(shape: Sequence[int], launch: Domain) -> Point:
    """Compute the tile shape that splits ``shape`` over ``launch``.

    The tile shape is the ceiling division of the store extent by the
    launch extent along each dimension, matching the blocking used by
    cuPyNumeric when partitioning arrays for index launches.
    """
    shape = as_point(shape)
    if len(shape) != launch.dim:
        raise ValueError(
            f"store shape {shape} and launch domain {launch.shape} "
            "must have the same dimensionality"
        )
    return tuple(
        -(-extent // parts) if parts > 0 else extent
        for extent, parts in zip(shape, launch.shape)
    )


def broadcast_shapes(*shapes: Sequence[int]) -> Point:
    """NumPy-style broadcasting of shapes, used by the frontends.

    >>> broadcast_shapes((4, 1), (1, 5))
    (4, 5)
    """
    result: list = []
    max_dim = max((len(s) for s in shapes), default=0)
    padded = [((1,) * (max_dim - len(s))) + as_point(s) for s in shapes]
    for dims in zip(*padded) if padded else []:
        extent = 1
        for d in dims:
            if d == 1:
                continue
            if extent == 1:
                extent = d
            elif extent != d:
                raise ValueError(f"shapes {shapes} are not broadcastable")
        result.append(extent)
    return tuple(result)


def shape_volume(shape: Sequence[int]) -> int:
    """Number of elements in an array of the given shape."""
    total = 1
    for extent in shape:
        total *= int(extent)
    return total
