"""Direct contracts of the two array-native range-query structures.

:class:`GridBuckets` (a fixed point set) and :class:`DynamicGridBuckets`
(a slot-addressed live set) are the only circular range queries the
graph builders run.  These tests pin their public behaviour — inclusive
boundaries, result ordering, input validation, slot bookkeeping under
insert/remove — against brute-force scans with the scalar metrics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.spatial.geometry import (
    BoundingBox,
    Point,
    euclidean_distance,
    haversine_distance,
    manhattan_distance,
)
from repro.spatial.grid import Grid
from repro.spatial.index import DynamicGridBuckets, GridBuckets

SCALAR_METRICS = {
    "euclidean": euclidean_distance,
    "manhattan": manhattan_distance,
    "haversine": haversine_distance,
}


@pytest.fixture
def grid():
    return Grid.square(100.0, 10)


def _brute_force(points, centers, radii, metric):
    """``{(center, point)}`` with the scalar metric: the all-pairs oracle."""
    distance = SCALAR_METRICS[metric]
    return {
        (q, p)
        for q, (cx, cy) in enumerate(centers)
        for p, (px, py) in enumerate(points)
        if distance(Point(cx, cy), Point(px, py)) <= radii[q]
    }


def _random_case(metric, seed):
    """Points, queries and a grid in the metric's natural coordinates."""
    rng = np.random.default_rng(seed)
    if metric == "haversine":
        # A lon/lat window over central Beijing; radii in kilometres.
        grid = Grid(BoundingBox(116.2, 39.8, 116.6, 40.1), 6, 8)
        lo, hi = np.array([116.2, 39.8]), np.array([116.6, 40.1])
        points = rng.uniform(lo, hi, size=(60, 2))
        centers = rng.uniform(lo, hi, size=(12, 2))
        radii = rng.uniform(0.5, 12.0, size=12)
    else:
        grid = Grid.square(100.0, 8)
        points = rng.uniform(0.0, 100.0, size=(60, 2))
        centers = rng.uniform(0.0, 100.0, size=(12, 2))
        radii = rng.uniform(1.0, 40.0, size=12)
    return grid, points, centers, radii


class TestGridBuckets:
    @pytest.mark.parametrize("metric", sorted(SCALAR_METRICS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_query_circles_match_scalar_brute_force(self, metric, seed):
        grid, points, centers, radii = _random_case(metric, seed)
        buckets = GridBuckets(grid, points[:, 0], points[:, 1])
        center_idx, point_idx, _ = buckets.query_circles(
            centers[:, 0], centers[:, 1], radii, metric
        )
        got = set(zip(center_idx.tolist(), point_idx.tolist()))
        assert got == _brute_force(points.tolist(), centers.tolist(), radii, metric)

    def test_query_circle_inclusive_boundary(self, grid):
        buckets = GridBuckets(grid, [13.0], [10.0])
        center_idx, point_idx, distances = buckets.query_circles([10.0], [10.0], [3.0])
        assert point_idx.tolist() == [0]
        assert distances.tolist() == [3.0]

    def test_results_grouped_by_center_in_query_order(self, grid):
        buckets = GridBuckets(grid, [11.0, 51.0], [10.0, 50.0])
        center_idx, point_idx, _ = buckets.query_circles(
            [50.0, 10.0, 30.0], [50.0, 10.0, 30.0], [2.0, 2.0, 1.0]
        )
        assert center_idx.tolist() == [0, 1]
        assert point_idx.tolist() == [1, 0]

    def test_same_cell_points_keep_insertion_order(self, grid):
        xs = [5.0, 1.0, 3.0, 95.0]
        ys = [5.0, 1.0, 3.0, 95.0]
        buckets = GridBuckets(grid, xs, ys)
        _, point_idx, _ = buckets.query_circles([4.0], [4.0], [6.0])
        assert point_idx.tolist() == [0, 1, 2]

    def test_empty_point_set_and_empty_batch(self, grid):
        empty = GridBuckets(grid, [], [])
        assert len(empty) == 0
        assert all(a.size == 0 for a in empty.query_circles([1.0], [1.0], [5.0]))
        one = GridBuckets(grid, [1.0], [1.0])
        assert len(one) == 1
        assert all(a.size == 0 for a in one.query_circles([], [], []))

    def test_mismatched_lengths_rejected(self, grid):
        with pytest.raises(ValueError, match="equal length"):
            GridBuckets(grid, [1.0, 2.0], [1.0])
        buckets = GridBuckets(grid, [1.0], [1.0])
        with pytest.raises(ValueError, match="equal length"):
            buckets.query_circles([1.0, 2.0], [1.0, 2.0], [1.0])

    def test_callable_metric_points_at_all_pairs_scan(self, grid):
        buckets = GridBuckets(grid, [1.0], [1.0])
        with pytest.raises(ValueError, match=r"build_bipartite_graph\(grid=None\)"):
            buckets.query_circles([1.0], [1.0], [1.0], metric=euclidean_distance)


class TestDynamicGridBuckets:
    def test_insert_returns_ascending_slots(self, grid):
        plane = DynamicGridBuckets(grid)
        assert plane.insert([1.0, 2.0], [1.0, 2.0]).tolist() == [0, 1]
        assert plane.insert([3.0], [3.0]).tolist() == [2]
        assert len(plane) == 3
        assert all(plane.is_live(slot) for slot in range(3))
        assert not plane.is_live(-1)
        assert not plane.is_live(3)

    def test_removed_slot_leaves_queries_and_is_never_recycled(self, grid):
        plane = DynamicGridBuckets(grid)
        plane.insert([10.0, 11.0, 12.0], [10.0, 10.0, 10.0])
        plane.remove(1)
        assert not plane.is_live(1)
        assert len(plane) == 2
        _, slots, _ = plane.query_circles([11.0, 11.0], [10.0, 10.0], [5.0, 5.0])
        assert sorted(set(slots.tolist())) == [0, 2]
        assert plane.insert([11.0], [10.0]).tolist() == [3]

    def test_remove_dead_slot_raises(self, grid):
        plane = DynamicGridBuckets(grid)
        plane.insert([1.0], [1.0])
        plane.remove(0)
        with pytest.raises(ValueError, match="not live"):
            plane.remove(0)

    def test_crowded_cell_survives_segment_relocation(self, grid):
        """Far more points than a cell's seed capacity, in one cell, with
        removals in between: relocated and reused storage segments must
        hold exactly the live slots."""
        rng = np.random.default_rng(3)
        plane = DynamicGridBuckets(grid)
        live = {}
        for _ in range(6):
            xs = rng.uniform(0.0, 9.0, 7)
            ys = rng.uniform(0.0, 9.0, 7)
            for slot, x, y in zip(plane.insert(xs, ys).tolist(), xs, ys):
                live[slot] = (x, y)
            for slot in rng.choice(sorted(live), size=3, replace=False).tolist():
                plane.remove(slot)
                del live[slot]
        _, slots, _ = plane.query_circles([4.5, 4.5], [4.5, 4.5], [20.0, 20.0])
        assert len(plane) == len(live)
        assert sorted(set(slots.tolist())) == sorted(live)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_matches_static_buckets_over_live_points(self, metric):
        grid, points, centers, radii = _random_case(metric, 5)
        plane = DynamicGridBuckets(grid)
        plane.insert(points[:, 0], points[:, 1])
        removed = set(range(0, len(points), 3))
        for slot in sorted(removed):
            plane.remove(slot)
        center_idx, slots, _ = plane.query_circles(
            centers[:, 0], centers[:, 1], radii, metric
        )
        survivors = [p for p in range(len(points)) if p not in removed]
        static = GridBuckets(grid, points[survivors, 0], points[survivors, 1])
        ref_centers, ref_points, _ = static.query_circles(
            centers[:, 0], centers[:, 1], radii, metric
        )
        expected = {
            (q, survivors[p]) for q, p in zip(ref_centers.tolist(), ref_points.tolist())
        }
        assert set(zip(center_idx.tolist(), slots.tolist())) == expected

    def test_query_own_radius_uses_each_points_radius(self, grid):
        plane = DynamicGridBuckets(grid, track_radii=True)
        plane.insert([10.0, 20.0], [10.0, 10.0], radii=[5.0, 1.0])
        assert plane.max_radius == 5.0
        _, slots, distances = plane.query_own_radius([15.0, 15.0], [10.0, 10.0])
        # Both queries sit 5 away from point 0 (radius 5, inclusive) and
        # 5 away from point 1 (radius 1): only point 0 covers them.
        assert slots.tolist() == [0, 0]
        assert distances.tolist() == [5.0, 5.0]

    def test_max_radius_is_grow_only(self, grid):
        plane = DynamicGridBuckets(grid, track_radii=True)
        plane.insert([1.0], [1.0], radii=[7.0])
        plane.insert([2.0], [2.0], radii=[2.0])
        plane.remove(0)
        assert plane.max_radius == 7.0

    def test_radius_bookkeeping_is_validated(self, grid):
        tracked = DynamicGridBuckets(grid, track_radii=True)
        with pytest.raises(ValueError, match="pass them on insert"):
            tracked.insert([1.0], [1.0])
        with pytest.raises(ValueError, match="non-negative"):
            tracked.insert([1.0], [1.0], radii=[-1.0])
        untracked = DynamicGridBuckets(grid)
        with pytest.raises(ValueError, match="does not track radii"):
            untracked.insert([1.0], [1.0], radii=[1.0])
        with pytest.raises(ValueError, match="does not track radii"):
            untracked.query_own_radius([1.0], [1.0])

    def test_negative_query_radius_rejected(self, grid):
        plane = DynamicGridBuckets(grid)
        plane.insert([1.0], [1.0])
        with pytest.raises(ValueError, match="non-negative"):
            plane.query_circles([1.0], [1.0], [-1.0])

    def test_callable_metric_points_at_all_pairs_scan(self, grid):
        plane = DynamicGridBuckets(grid)
        plane.insert([1.0, 2.0], [1.0, 2.0])
        for cx, cy, rr in (([1.0], [1.0], [1.0]), ([1.0, 2.0], [1.0, 2.0], [1.0, 1.0])):
            with pytest.raises(
                ValueError, match=r"build_bipartite_graph\(grid=None\)"
            ):
                plane.query_circles(cx, cy, rr, metric=euclidean_distance)
