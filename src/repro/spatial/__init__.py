"""Spatial substrate: geometry, grid partitioning and range queries.

The paper (Definition 1) partitions the region of interest into grid cells
and sets one unit price per cell per time period.  Workers impose a range
constraint (Definition 4): a worker located at ``l_w`` with radius ``a_w``
can only serve tasks whose origin falls inside the disc of radius ``a_w``
around ``l_w``.

This subpackage provides:

* :mod:`repro.spatial.geometry` — points, distance metrics (Euclidean,
  Manhattan, haversine for latitude/longitude data) and bounding boxes;
* :mod:`repro.spatial.grid` — the rectangular grid partitioning with the
  bottom-left-to-top-right indexing used in the paper's running example;
* :mod:`repro.spatial.index` — grid-bucketed, array-native point sets
  that answer the batched circular range queries needed to build the
  task–worker bipartite graph without an all-pairs scan.
"""

from repro.spatial.geometry import (
    BoundingBox,
    Point,
    euclidean_distance,
    haversine_distance,
    manhattan_distance,
    resolve_metric,
)
from repro.spatial.grid import Grid, GridCell
from repro.spatial.index import GridBuckets

__all__ = [
    "Point",
    "BoundingBox",
    "euclidean_distance",
    "manhattan_distance",
    "haversine_distance",
    "resolve_metric",
    "Grid",
    "GridCell",
    "GridBuckets",
]
