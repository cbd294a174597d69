"""First-class, structured partitions of stores (paper Section 3.1).

A partition maps each point of a launch domain to a *sub-store* — a
rectangular subset of a store.  Diffuse supports two syntactic kinds:

``Replication`` (the paper's ``None`` kind)
    Every launch point maps to the entire store.

``Tiling``
    An affine, n-dimensional tiling described by a tile shape, an offset
    from the origin and a projection function applied to launch points
    before computing tile bounds (paper Figure 3e).

The crucial property is that partitions are *scale free*: the mapping from
points to sub-stores is implicit in a handful of integers plus a projection
id, so two partitions can be compared for equality in constant time without
enumerating sub-stores.  That constant-time equality check is the alias
query at the heart of the fusion constraints (paper Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.ir.domain import (
    Domain,
    Point,
    Rect,
    as_point,
    point_add,
    point_mul,
)
from repro.ir.projection import ProjectionFunction, identity_projection


def rects_cover(rects: Iterable[Rect], store_shape: Sequence[int]) -> bool:
    """True when the distinct ``rects`` add up to the volume of the store.

    Tiles produced by a single partition are disjoint for distinct
    projected points, so summing distinct-tile volumes gives the exact
    covered volume.
    """
    return sum(rect.volume for rect in set(rects)) >= Rect.from_shape(store_shape).volume


class Partition:
    """Base class of all partition kinds."""

    #: Short syntactic-kind name used in canonicalisation and debugging.
    kind: str = "abstract"

    def sub_store_rect(self, point: Sequence[int], store_shape: Sequence[int]) -> Rect:
        """The rectangle of the store owned by launch point ``point``.

        The result is clamped to the store bounds, mirroring how Legion
        clips image rectangles to the parent region.
        """
        raise NotImplementedError

    def covers(self, store_shape: Sequence[int], launch_domain: Domain) -> bool:
        """True when the union of sub-stores over ``launch_domain`` is the store.

        Used by temporary-store elimination (paper Definition 4), which
        requires that a candidate temporary was written through a covering
        partition before being read.
        """
        raise NotImplementedError

    def is_replication(self) -> bool:
        """True for partitions that replicate the whole store to every point."""
        return False

    def is_disjoint(self) -> bool:
        """True when distinct launch points map to disjoint sub-stores.

        Writes through a disjoint partition are point-wise by construction;
        writes through a non-disjoint partition (replication, or a tiling
        with a non-injective projection) touch data visible to other launch
        points, so the fusion constraints must treat them as conflicting
        with every other access to the store.
        """
        return False

    def __eq__(self, other: object) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError

    def __hash__(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class Replication(Partition):
    """The ``None`` partition kind: every point sees the whole store."""

    kind: str = "replication"

    def sub_store_rect(self, point: Sequence[int], store_shape: Sequence[int]) -> Rect:
        return Rect.from_shape(store_shape)

    def covers(self, store_shape: Sequence[int], launch_domain: Domain) -> bool:
        return not launch_domain.empty

    def is_replication(self) -> bool:
        return True

    def is_disjoint(self) -> bool:
        return False

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "Replication()"


@dataclass(frozen=True)
class Tiling(Partition):
    """An affine tiling of a store (paper Figure 3).

    ``tile_shape``
        Extent of each tile along every store dimension.
    ``offset``
        Translation applied to every tile, letting tilings describe views
        of a sub-rectangle of the store (e.g. ``grid[1:-1, 1:-1]``).
    ``projection``
        Transformation applied to launch points before computing the tile
        bounds; non-identity projections express aliased or replicated
        tilings (paper Figure 3d).
    ``bounds``
        Optional rectangle within the store that the tiling describes a
        view of.  Sub-store rectangles are clipped against it, so a tiling
        of the interior view ``grid[1:-1, 1:-1]`` never spills into the
        boundary cells even when the view extent does not divide evenly by
        the launch domain.
    """

    tile_shape: Point
    offset: Point
    projection: ProjectionFunction
    bounds: Optional[Rect] = None

    kind: str = "tiling"

    def __post_init__(self) -> None:
        tile_shape = as_point(self.tile_shape)
        offset = as_point(self.offset)
        if len(tile_shape) != len(offset):
            raise ValueError(
                f"tile shape {tile_shape} and offset {offset} must have the "
                "same dimensionality"
            )
        if any(extent < 0 for extent in tile_shape):
            raise ValueError(f"tile shape must be non-negative: {tile_shape}")
        object.__setattr__(self, "tile_shape", tile_shape)
        object.__setattr__(self, "offset", offset)

    def __hash__(self) -> int:
        # Tilings key the sub-store rect caches and the memoization
        # tables; the hash is memoized on first use so repeated probes
        # skip re-hashing four fields (and tilings that are never hashed
        # pay nothing at construction).
        try:
            return self._hash
        except AttributeError:
            value = hash((self.tile_shape, self.offset, self.projection, self.bounds))
            object.__setattr__(self, "_hash", value)
            return value

    @staticmethod
    def create(
        tile_shape: Sequence[int],
        offset: Sequence[int] = None,
        projection: ProjectionFunction = None,
        bounds: Optional[Rect] = None,
    ) -> "Tiling":
        """Convenience constructor with identity projection / zero offset."""
        tile_shape = as_point(tile_shape)
        if offset is None:
            offset = (0,) * len(tile_shape)
        if projection is None:
            projection = identity_projection()
        return Tiling(
            tile_shape=tile_shape,
            offset=as_point(offset),
            projection=projection,
            bounds=bounds,
        )

    @property
    def dim(self) -> int:
        """Dimensionality of the tiles (and of the store being tiled)."""
        return len(self.tile_shape)

    def is_disjoint(self) -> bool:
        """Identity-projected tilings map distinct points to disjoint tiles."""
        return self.projection == identity_projection()

    def sub_store_rect(self, point: Sequence[int], store_shape: Sequence[int]) -> Rect:
        projected = self.projection(as_point(point))
        if len(projected) != self.dim:
            raise ValueError(
                f"projection produced a {len(projected)}-D point for a "
                f"{self.dim}-D tiling"
            )
        next_point = tuple(c + 1 for c in projected)
        lo = point_add(point_mul(projected, self.tile_shape), self.offset)
        hi = point_add(point_mul(next_point, self.tile_shape), self.offset)
        rect = Rect(lo, hi).intersect_with_shape(store_shape)
        if self.bounds is not None:
            rect = rect.intersection(self.bounds)
        return rect

    def covers(self, store_shape: Sequence[int], launch_domain: Domain) -> bool:
        # A pure function of an immutable tiling, asked over and over
        # with the one (shape, domain) pair the tiling was built for:
        # the last answer is kept on the instance.  The frontend interns
        # tilings (off under ``REPRO_HOTPATH_CACHE=0``, where every
        # launch builds its own and this never hits).
        key = (tuple(store_shape), launch_domain.shape)
        try:
            last_key, covered = self._covers
            if last_key == key:
                return covered
        except AttributeError:
            pass
        covered = rects_cover(
            (self.sub_store_rect(point, store_shape) for point in launch_domain.points()),
            store_shape,
        )
        object.__setattr__(self, "_covers", (key, covered))
        return covered

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tiling(shape={self.tile_shape}, offset={self.offset}, "
            f"proj={self.projection.name})"
        )


def partitions_alias(first: Partition, second: Partition) -> bool:
    """Conservative constant-time alias query between two partitions.

    Two *equal* partitions map every launch point to the same sub-store, so
    accesses through them have at most point-wise dependencies.  Any other
    pair is conservatively assumed to alias.  This matches the paper's use
    of partition inequality (``P != P'``) in the fusion constraints: the
    check never enumerates sub-stores and is therefore independent of the
    machine size.
    """
    return first != second


def natural_tiling(store_shape: Sequence[int], launch_domain: Domain) -> Tiling:
    """The canonical blocked tiling of a store over a launch domain.

    The tile shape is the ceiling division of store extents by launch
    extents, which is how cuPyNumeric partitions arrays for index
    launches.
    """
    from repro.ir.domain import tile_shape_for

    return Tiling.create(tile_shape_for(store_shape, launch_domain))
