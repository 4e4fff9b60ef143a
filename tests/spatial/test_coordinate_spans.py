"""Metric-aware candidate rectangles of the grid-bucketed range queries.

:func:`repro.spatial.geometry.coordinate_spans` sizes each query's cell
rectangle in coordinate units.  A haversine radius is kilometres on
lon/lat degrees, so its rectangle is the spherical cap's bounding box
(full longitude range near a pole, on the +-180 degree seam or off the
globe).  The rectangle only bounds the candidates: every query path must
return exactly the pairs, order and bitwise distances of an all-pairs
scan, on any lon/lat box.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market.entities import Task, Worker
from repro.matching.bipartite import build_bipartite_graph
from repro.simulation.config import BeijingConfig
from repro.spatial import index as index_module
from repro.spatial.geometry import (
    EARTH_RADIUS_KM,
    BoundingBox,
    Point,
    coordinate_spans,
    haversine_distances_batch,
)
from repro.spatial.grid import Grid
from repro.spatial.index import DynamicGridBuckets, GridBuckets


class TestSpans:
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_planar_spans_are_the_radii_themselves(self, metric):
        radii = np.array([0.0, 1.5, 30.0])
        dx, dy = coordinate_spans(metric, np.zeros(3), np.zeros(3), radii)
        assert dx is radii and dy is radii
        assert coordinate_spans(metric, 1.0, 2.0, 3.0) == (3.0, 3.0)

    def test_haversine_spans_bound_the_cap(self):
        dx, dy = coordinate_spans("haversine", 116.4, 40.0, 3.0)
        delta = 3.0 / EARTH_RADIUS_KM
        assert math.degrees(delta) < dy < math.degrees(delta) * 1.001
        exact = math.degrees(math.asin(math.sin(delta) / math.cos(math.radians(40.0))))
        assert exact < dx < exact * 1.01

    def test_scalars_and_arrays_agree(self):
        dx, dy = coordinate_spans(
            "haversine", np.array([116.4]), np.array([40.0]), np.array([3.0])
        )
        assert (float(dx[0]), float(dy[0])) == coordinate_spans(
            "haversine", 116.4, 40.0, 3.0
        )

    @pytest.mark.parametrize(
        "x, y, r",
        [
            (0.0, 89.99, 3.0),  # the cap reaches the pole
            (0.0, 0.0, 10_008.0),  # past a quarter circumference
            (179.99, 0.0, 3.0),  # crosses the +-180 degree seam
            (-179.99, 0.0, 3.0),
            (200.0, 0.0, 3.0),  # center off the globe
        ],
    )
    def test_haversine_falls_back_to_the_full_longitude_range(self, x, y, r):
        dx, _ = coordinate_spans("haversine", x, y, r)
        assert dx == math.inf

    def test_points_off_the_globe_widen_both_spans(self):
        assert coordinate_spans("haversine", 116.4, 40.0, 3.0, False) == (
            math.inf,
            math.inf,
        )


class TestBeijingNeighbourhood:
    """A 3 km query at Beijing's latitude scans its neighbourhood only.

    The 10 x 8 grid of 0.02 degree cells holds one point per cell, so
    the distance evaluations of a query count the cells of its
    rectangle.  A 3 km rectangle spans 0.07 degrees of longitude and
    0.054 of latitude: at most 5 columns and 4 rows.  Sizing it as
    +-3 coordinate units would cover all 80 cells.
    """

    @pytest.fixture
    def beijing(self, monkeypatch):
        config = BeijingConfig()
        grid = Grid(
            BoundingBox(*config.bounding_box), config.grid_rows, config.grid_cols
        )
        centers = [cell.box.center for cell in grid.cells()]
        xs = np.array([c.x for c in centers])
        ys = np.array([c.y for c in centers])
        evaluated = []
        resolve = index_module.resolve_batch_metric

        def counting(metric):
            batch_metric = resolve(metric)

            def metric_fn(ax, ay, bx, by):
                evaluated.append(int(np.size(ax)))
                return batch_metric(ax, ay, bx, by)

            return metric_fn

        monkeypatch.setattr(index_module, "resolve_batch_metric", counting)
        return grid, xs, ys, config.worker_radius_km, evaluated

    def _queries(self, grid):
        rng = np.random.default_rng(0)
        region = grid.region
        return zip(
            rng.uniform(region.min_x, region.max_x, 25).tolist(),
            rng.uniform(region.min_y, region.max_y, 25).tolist(),
        )

    def test_grid_buckets_query_covers_at_most_5_by_4_cells(self, beijing):
        grid, xs, ys, radius, evaluated = beijing
        buckets = GridBuckets(grid, xs, ys)
        for x, y in self._queries(grid):
            evaluated.clear()
            buckets.query_circles([x], [y], [radius], "haversine")
            assert sum(evaluated) <= 5 * 4

    @pytest.mark.parametrize("own_radius", [False, True])
    def test_live_plane_queries_cover_at_most_5_by_4_cells(self, beijing, own_radius):
        grid, xs, ys, radius, evaluated = beijing
        plane = DynamicGridBuckets(grid, track_radii=True)
        plane.insert(xs, ys, np.full(xs.shape, radius))
        for x, y in self._queries(grid):
            for batch in ([x], [x, x]):  # the scalar and the batched path
                evaluated.clear()
                if own_radius:
                    plane.query_own_radius(batch, [y] * len(batch), "haversine")
                else:
                    plane.query_circles(
                        batch, [y] * len(batch), [radius] * len(batch), "haversine"
                    )
                assert sum(evaluated) <= 5 * 4 * len(batch)


# ----------------------------------------------------------------------
# any lon/lat box: every query path equals an all-pairs scan
# ----------------------------------------------------------------------
_LON = st.floats(-180.0, 180.0)
_LAT = st.floats(-90.0, 90.0)
_RADIUS = st.one_of(
    st.floats(0.0, 50.0),  # city scale
    st.floats(0.0, 20_100.0),  # up to past half the circumference
    st.just(0.0),
)


@st.composite
def lonlat_cases(draw):
    """A lon/lat grid, points in and around it, query centers and radii."""
    min_x = draw(st.one_of(st.just(-180.0), st.floats(-180.0, 179.0)))
    max_x = draw(st.one_of(st.just(180.0), st.floats(min_x + 0.01, 180.0)))
    min_y = draw(st.one_of(st.just(-90.0), st.floats(-90.0, 89.0)))
    max_y = draw(st.one_of(st.just(90.0), st.floats(min_y + 0.01, 90.0)))
    grid = Grid(
        BoundingBox(min_x, min_y, max_x, max_y),
        draw(st.integers(1, 8)),
        draw(st.integers(1, 8)),
    )
    # Mostly inside the region, some anywhere on the globe (outside it),
    # some within a few kilometres of the +-180 degree seam or of a pole,
    # and rarely a longitude one turn off the globe.
    inside = st.tuples(st.floats(min_x, max_x), st.floats(min_y, max_y))
    anywhere = st.tuples(_LON, _LAT)
    seam = st.tuples(st.one_of(st.floats(-180.0, -179.9), st.floats(179.9, 180.0)), _LAT)
    polar = st.tuples(_LON, st.one_of(st.floats(-90.0, -89.9), st.floats(89.9, 90.0)))
    off_globe = st.tuples(st.floats(180.0, 540.0), _LAT)
    located = st.one_of(inside, inside, anywhere, seam, polar, off_globe)
    points = draw(st.lists(st.tuples(located, _RADIUS), min_size=1, max_size=30))
    queries = draw(st.lists(st.tuples(located, _RADIUS), min_size=1, max_size=6))
    px = np.array([p[0][0] for p in points])
    py = np.array([p[0][1] for p in points])
    pr = np.array([p[1] for p in points])
    qx = np.array([q[0][0] for q in queries])
    qy = np.array([q[0][1] for q in queries])
    qr = np.array([q[1] for q in queries])
    return grid, px, py, pr, qx, qy, qr


def _storage(grid, px, py):
    """Cell -> point indices in insertion order, as the buckets store them."""
    cells = grid.locate_many(px, py) - 1
    return {cell: np.flatnonzero(cells == cell).tolist() for cell in range(grid.num_cells)}


def _all_pairs(grid, px, py, qx, qy, limit, storage, points_first):
    """Every (query, point) pair within ``limit(query, point)``, in the
    buckets' order: query, then row-major cell, then ``storage`` order."""
    centers, points, distances = [], [], []
    for q in range(qx.shape[0]):
        for cell in range(grid.num_cells):
            for p in storage[cell]:
                point, center = (px[p : p + 1], py[p : p + 1]), (qx[q : q + 1], qy[q : q + 1])
                args = point + center if points_first else center + point
                d = haversine_distances_batch(*args)[0]
                if d <= limit(q, p):
                    centers.append(q)
                    points.append(p)
                    distances.append(d)
    return centers, points, np.array(distances, dtype=np.float64)


def _assert_same(got, want):
    assert got[0].tolist() == want[0]
    assert got[1].tolist() == want[1]
    assert got[2].tobytes() == want[2].tobytes()


class TestAllPairsIdentity:
    @given(case=lonlat_cases())
    @settings(deadline=None, max_examples=150)
    def test_grid_buckets_query_circles(self, case):
        grid, px, py, _, qx, qy, qr = case
        got = GridBuckets(grid, px, py).query_circles(qx, qy, qr, "haversine")
        want = _all_pairs(
            grid, px, py, qx, qy, lambda q, p: qr[q], _storage(grid, px, py), points_first=False
        )
        _assert_same(got, want)

    @given(case=lonlat_cases(), removals=st.lists(st.integers(0, 29), max_size=10))
    @settings(deadline=None, max_examples=150)
    def test_live_plane_query_paths(self, case, removals):
        grid, px, py, pr, qx, qy, qr = case
        plane = DynamicGridBuckets(grid, track_radii=True)
        # Two insert batches, then swap-pop removals mirrored on a
        # per-cell reference storage.
        half = px.shape[0] // 2
        plane.insert(px[:half], py[:half], pr[:half])
        plane.insert(px[half:], py[half:], pr[half:])
        cells = grid.locate_many(px, py) - 1
        storage = _storage(grid, px, py)
        for slot in dict.fromkeys(removals):  # distinct, in drawn order
            if slot < px.shape[0]:
                plane.remove(slot)
                segment = storage[int(cells[slot])]
                segment[segment.index(slot)] = segment[-1]
                segment.pop()
        circles = _all_pairs(
            grid, px, py, qx, qy, lambda q, p: qr[q], storage, points_first=False
        )
        own = _all_pairs(
            grid, px, py, qx, qy, lambda q, p: pr[p], storage, points_first=True
        )
        _assert_same(plane.query_circles(qx, qy, qr, "haversine"), circles)
        _assert_same(plane.query_own_radius(qx, qy, "haversine"), own)
        # The scalar path of each query, one center at a time.
        for q in range(qx.shape[0]):
            keep = [i for i, c in enumerate(circles[0]) if c == q]
            single = plane.query_circles(qx[q : q + 1], qy[q : q + 1], qr[q : q + 1], "haversine")
            _assert_same(
                single,
                ([0] * len(keep), [circles[1][i] for i in keep], circles[2][keep]),
            )
            keep = [i for i, c in enumerate(own[0]) if c == q]
            single = plane.query_own_radius(qx[q : q + 1], qy[q : q + 1], "haversine")
            _assert_same(
                single, ([0] * len(keep), [own[1][i] for i in keep], own[2][keep])
            )

    @given(case=lonlat_cases())
    @settings(deadline=None, max_examples=100)
    def test_vectorised_builder_matches_the_all_pairs_scan(self, case):
        """The graph builder (tasks bucketed, workers query) against the
        all-pairs scan (``grid=None``)."""
        grid, px, py, _, qx, qy, qr = case
        tasks = [
            Task(task_id=i, period=0, origin=Point(x, y), destination=Point(x, y))
            for i, (x, y) in enumerate(zip(px.tolist(), py.tolist()))
        ]
        workers = [
            Worker(worker_id=i, period=0, location=Point(x, y), radius=r)
            for i, (x, y, r) in enumerate(zip(qx.tolist(), qy.tolist(), qr.tolist()))
        ]
        vectorised = build_bipartite_graph(tasks, workers, "haversine", grid)
        scan = build_bipartite_graph(tasks, workers, "haversine", grid=None)
        assert vectorised.task_neighbors == scan.task_neighbors
        assert vectorised.worker_neighbors == scan.worker_neighbors
