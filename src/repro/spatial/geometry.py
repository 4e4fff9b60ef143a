"""Planar geometry primitives and distance metrics.

Tasks and workers live in a two-dimensional coordinate space.  The
synthetic experiments of the paper use a 100x100 Euclidean square; the
Beijing experiments use a longitude/latitude rectangle with distances in
kilometres, for which we provide the haversine metric.  All metrics share
the signature ``metric(a: Point, b: Point) -> float`` so they can be
plugged into the grid index and the bipartite graph builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple, Union

import numpy as np

DistanceMetric = Callable[["Point", "Point"], float]
#: Vectorised metric over coordinate arrays: ``metric(ax, ay, bx, by)``
#: returns the elementwise distances as a ``float64`` array.
BatchDistanceMetric = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray
]

#: Mean Earth radius in kilometres, used by the haversine metric.
EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True)
class Point:
    """A point in the plane (or a lon/lat pair for geographic data).

    Attributes:
        x: First coordinate (or longitude in degrees).
        y: Second coordinate (or latitude in degrees).
    """

    x: float
    y: float

    def __iter__(self):
        yield self.x
        yield self.y

    def as_tuple(self) -> Tuple[float, float]:
        return (self.x, self.y)

    def translate(self, dx: float, dy: float) -> "Point":
        """Return a new point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def distance_to(self, other: "Point", metric: Union[str, DistanceMetric] = "euclidean") -> float:
        """Distance to ``other`` under the given metric (name or callable)."""
        return resolve_metric(metric)(self, other)


def as_point(value: Union[Point, Tuple[float, float], Iterable[float]]) -> Point:
    """Coerce a ``Point`` or 2-sequence into a :class:`Point`."""
    if isinstance(value, Point):
        return value
    x, y = value  # type: ignore[misc]
    return Point(float(x), float(y))


def euclidean_distance(a: Point, b: Point) -> float:
    """Straight-line distance, the metric used by the synthetic experiments."""
    return math.hypot(a.x - b.x, a.y - b.y)


def manhattan_distance(a: Point, b: Point) -> float:
    """L1 distance; a cheap proxy for grid-like road networks."""
    return abs(a.x - b.x) + abs(a.y - b.y)


def haversine_distance(a: Point, b: Point) -> float:
    """Great-circle distance in kilometres between two lon/lat points.

    Points are interpreted as ``(longitude, latitude)`` in degrees, which
    matches how the Beijing bounding box is specified in the paper
    (bottom-left ``(116.30, 39.84)``, top-right ``(116.50, 40.0)``).
    """
    lon1, lat1 = math.radians(a.x), math.radians(a.y)
    lon2, lat2 = math.radians(b.x), math.radians(b.y)
    dlon = lon2 - lon1
    dlat = lat2 - lat1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def euclidean_distances_batch(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray
) -> np.ndarray:
    """Elementwise :func:`euclidean_distance` over coordinate arrays.

    ``np.hypot`` and ``math.hypot`` both defer to the platform's C
    ``hypot``, so each element is bit-identical to the scalar metric —
    which is what lets the vectorised graph builder reproduce the
    all-pairs scan's edge set exactly at the radius boundary.
    """
    return np.hypot(ax - bx, ay - by)


def manhattan_distances_batch(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray
) -> np.ndarray:
    """Elementwise :func:`manhattan_distance` over coordinate arrays."""
    return np.abs(ax - bx) + np.abs(ay - by)


def haversine_distances_batch(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray
) -> np.ndarray:
    """Elementwise :func:`haversine_distance` over lon/lat arrays.

    Mirrors the scalar formula operation-for-operation (including the
    ``min(1, sqrt(h))`` clamp).  Unlike the euclidean pair, exact
    boundary agreement with the scalar metric is platform-dependent:
    numpy's float64 ``sin``/``cos`` may come from a vector math library
    that differs from libm by a few ulps, so a point whose distance is
    within ulps of the radius can flip between the scalar and batched
    evaluations there.  Randomly placed points land on that knife edge
    with probability ~0, but bit-exactness should not be *relied on*
    for this metric the way it can be for euclidean/manhattan.

    Radii are kilometres while coordinates are degrees, so the grid
    range queries cannot use a radius as a coordinate half-width; they
    bound each query's cells with :func:`coordinate_spans`, widened so
    that every pair this function keeps lies inside the rectangle.
    """
    lon1, lat1 = np.radians(ax), np.radians(ay)
    lon2, lat2 = np.radians(bx), np.radians(by)
    dlon = lon2 - lon1
    dlat = lat2 - lat1
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))


#: Widening of the haversine spans: a relative part for the float error
#: of the batch metric's trigonometry and an absolute part (degrees,
#: about 0.1 mm) for rounding in the coordinates themselves, so a pair
#: the metric keeps always lies inside its query's rectangle.
_SPAN_RELATIVE_MARGIN = 1e-9
_SPAN_ABSOLUTE_MARGIN_DEG = 1e-9


def on_globe(xs: np.ndarray, ys: np.ndarray) -> bool:
    """Whether every ``(x, y)`` is a lon/lat pair in ``[-180, 180] x [-90, 90]``."""
    return bool(np.all(np.abs(xs) <= 180.0) and np.all(np.abs(ys) <= 90.0))


def coordinate_spans(
    metric: Union[str, DistanceMetric],
    cx: Union[np.ndarray, float],
    cy: Union[np.ndarray, float],
    radii: Union[np.ndarray, float],
    points_on_globe: bool = True,
) -> Tuple[Union[np.ndarray, float], Union[np.ndarray, float]]:
    """Half-widths ``(dx, dy)`` in coordinate units of each query's range.

    Every point within ``radii`` of ``(cx, cy)`` under ``metric`` lies in
    ``[cx - dx, cx + dx] x [cy - dy, cy + dy]``; the grid-bucketed range
    queries turn that rectangle into their candidate cells.

    Euclidean and manhattan radii are already coordinate lengths, so both
    spans are ``radii`` itself.  Haversine radii are kilometres on
    lon/lat degrees: with ``d = r / EARTH_RADIUS_KM`` the latitude span
    is ``degrees(d)`` and the longitude span ``degrees(asin(sin d /
    cos(|lat| + dy)))``, the widest longitude offset of the spherical
    cap, both widened by a small margin.  A span is ``inf`` (the full
    grid) where the cap's rectangle does not bound it: the cap reaches a
    pole (``|lat| + dy >= 90``, which includes ``d >= pi/2``), or the
    longitude range touches the +-180 degree seam, or a coordinate lies
    off the globe (the query's here, the points' via ``points_on_globe``).

    Scalars in give scalars out; arrays give arrays.
    """
    if metric != "haversine":
        return radii, radii
    delta = np.asarray(radii, dtype=np.float64) / EARTH_RADIUS_KM
    delta = delta * (1.0 + _SPAN_RELATIVE_MARGIN)
    dy = np.degrees(delta) + _SPAN_ABSOLUTE_MARGIN_DEG
    edge = np.abs(cy) + dy
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.sin(delta) / np.cos(np.radians(np.minimum(edge, 90.0)))
        dx = np.degrees(np.arcsin(np.minimum(ratio, 1.0)))
    dx = dx * (1.0 + _SPAN_RELATIVE_MARGIN) + _SPAN_ABSOLUTE_MARGIN_DEG
    # `not <` keeps NaN radii or coordinates on the full-grid side.
    full_x = ~(edge < 90.0) | ~(ratio < 1.0) | ~(cx - dx > -180.0) | ~(cx + dx < 180.0)
    full_y = ~(np.abs(cy) <= 90.0) | ~(np.abs(cx) <= 180.0) | (not points_on_globe)
    dx = np.where(full_x | full_y, np.inf, dx)
    dy = np.where(full_y, np.inf, dy)
    if np.ndim(radii) == 0:
        return float(dx), float(dy)
    return dx, dy


_METRICS: dict = {
    "euclidean": euclidean_distance,
    "manhattan": manhattan_distance,
    "haversine": haversine_distance,
}

_BATCH_METRICS: dict = {
    "euclidean": euclidean_distances_batch,
    "manhattan": manhattan_distances_batch,
    "haversine": haversine_distances_batch,
}


def resolve_metric(metric: Union[str, DistanceMetric]) -> DistanceMetric:
    """Resolve a metric name or callable into a callable.

    Raises:
        KeyError: if a string name is not one of ``euclidean``,
            ``manhattan`` or ``haversine``.
    """
    if callable(metric):
        return metric
    return _METRICS[metric]


def resolve_batch_metric(
    metric: Union[str, DistanceMetric],
) -> Optional[BatchDistanceMetric]:
    """Resolve the vectorised counterpart of a named metric, if one exists.

    Returns ``None`` for caller-supplied metric callables (which have no
    array form); :func:`repro.matching.bipartite.build_bipartite_graph`
    then takes its all-pairs scan.
    """
    if callable(metric):
        return None
    return _BATCH_METRICS.get(metric)


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.max_x < self.min_x or self.max_y < self.min_y:
            raise ValueError("bounding box must have non-negative extent")

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def contains(self, point: Point) -> bool:
        """Whether ``point`` lies inside (boundary inclusive)."""
        return self.min_x <= point.x <= self.max_x and self.min_y <= point.y <= self.max_y

    def clamp(self, point: Point) -> Point:
        """Project ``point`` onto the box (nearest point inside)."""
        return Point(
            min(self.max_x, max(self.min_x, point.x)),
            min(self.max_y, max(self.min_y, point.y)),
        )

    @classmethod
    def square(cls, side: float, origin: Point = Point(0.0, 0.0)) -> "BoundingBox":
        """A square box of side ``side`` with bottom-left corner at ``origin``."""
        if side <= 0:
            raise ValueError("side must be positive")
        return cls(origin.x, origin.y, origin.x + side, origin.y + side)


__all__ = [
    "Point",
    "as_point",
    "BoundingBox",
    "DistanceMetric",
    "BatchDistanceMetric",
    "euclidean_distance",
    "manhattan_distance",
    "haversine_distance",
    "euclidean_distances_batch",
    "manhattan_distances_batch",
    "haversine_distances_batch",
    "resolve_metric",
    "resolve_batch_metric",
    "coordinate_spans",
    "on_globe",
    "EARTH_RADIUS_KM",
]
