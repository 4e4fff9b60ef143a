"""Equivalence tests for the vectorised bipartite-graph builder.

The vectorised builder changes *how* the range-constrained graph is
built, never *what* it contains: across fuzzed radii, densities, metrics
and grids it must produce an edge-identical CSR to the all-pairs scan
(``grid=None``, the oracle), with and without the degree cap.  The lazy CSR-backed
:class:`BipartiteGraph` views must in turn agree with the materialised
adjacency lists.

The batched range query under the builder scans one contiguous storage
run per (query, cell row) of :class:`GridBuckets`, and one per (query,
cell) of :class:`DynamicGridBuckets`.  :func:`_per_cell_query` is the
earlier expansion — one row per (query, cell), coordinates read by point
id — kept as the oracle both must equal in pairs, order and distance
bytes.
"""

from __future__ import annotations

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market.entities import Task, Worker
from repro.matching.bipartite import (
    BipartiteGraph,
    CSRGraph,
    build_bipartite_graph,
    build_graph_from_arrays,
)
import repro.spatial.index as index_module
from repro.spatial.geometry import (
    BoundingBox,
    Point,
    coordinate_spans,
    on_globe,
    resolve_batch_metric,
)
from repro.spatial.grid import Grid
from repro.spatial.index import DynamicGridBuckets, GridBuckets


def _entities(rng, side, num_tasks, num_workers, max_radius):
    tasks = [
        Task(
            task_id=i,
            period=0,
            origin=Point(float(rng.uniform(0, side)), float(rng.uniform(0, side))),
            destination=Point(float(rng.uniform(0, side)), float(rng.uniform(0, side))),
        )
        for i in range(num_tasks)
    ]
    workers = [
        Worker(
            worker_id=j,
            period=0,
            location=Point(float(rng.uniform(0, side)), float(rng.uniform(0, side))),
            radius=float(rng.uniform(0, max_radius)),
        )
        for j in range(num_workers)
    ]
    return tasks, workers


def _per_cell_query(
    grid,
    xs,
    ys,
    cell_starts,
    cell_counts,
    slot_order,
    cx,
    cy,
    rr,
    metric,
    point_radii=None,
    points_first=False,
    points_on_globe=True,
):
    """The per-cell batched circle query: the oracle of the row runs.

    One expansion row per (query, candidate cell) of the query's cell
    rectangle, empty cells dropped, then one row per candidate point,
    read by point id through ``slot_order``; monolithic, no chunks.
    ``cell_starts[cell]`` / ``cell_counts[cell]`` locate each cell's
    segment of ``slot_order``.
    """
    batch_metric = resolve_batch_metric(metric)
    empty = (
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.float64),
    )
    if not cx.size or not slot_order.size:
        return empty
    region = grid.region
    dx, dy = coordinate_spans(metric, cx, cy, rr, points_on_globe)
    min_col = np.clip(
        np.floor((cx - dx - region.min_x) / grid.cell_width), 0, grid.cols - 1
    ).astype(np.int64)
    max_col = np.clip(
        np.floor((cx + dx - region.min_x) / grid.cell_width), 0, grid.cols - 1
    ).astype(np.int64)
    min_row = np.clip(
        np.floor((cy - dy - region.min_y) / grid.cell_height), 0, grid.rows - 1
    ).astype(np.int64)
    max_row = np.clip(
        np.floor((cy + dy - region.min_y) / grid.cell_height), 0, grid.rows - 1
    ).astype(np.int64)
    col_span = max_col - min_col + 1
    ncells = (max_row - min_row + 1) * col_span
    center_rep = np.repeat(np.arange(cx.size, dtype=np.int64), ncells)
    local = np.arange(int(ncells.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(ncells) - ncells, ncells
    )
    span = col_span[center_rep]
    cell = (min_row[center_rep] + local // span) * grid.cols + (
        min_col[center_rep] + local % span
    )
    counts = cell_counts[cell]
    nonempty = counts > 0
    center_rep, cell, counts = center_rep[nonempty], cell[nonempty], counts[nonempty]
    if not counts.size:
        return empty
    ends = np.cumsum(counts)
    offsets = np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(ends - counts, counts)
    point_idx = slot_order[np.repeat(cell_starts[cell], counts) + offsets]
    center_idx = np.repeat(center_rep, counts)
    if points_first:
        distances = batch_metric(xs[point_idx], ys[point_idx], cx[center_idx], cy[center_idx])
    else:
        distances = batch_metric(cx[center_idx], cy[center_idx], xs[point_idx], ys[point_idx])
    if point_radii is not None:
        within = distances <= point_radii[point_idx]
    else:
        within = distances <= rr[center_idx]
    return center_idx[within], point_idx[within], distances[within]


def _static_oracle(grid, xs, ys, cx, cy, rr, metric="euclidean"):
    """:func:`_per_cell_query` over the cell-sorted storage of ``(xs, ys)``."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    cells = grid.locate_many(xs, ys) - 1
    counts = np.bincount(cells, minlength=grid.num_cells)
    globe = metric != "haversine" or on_globe(xs, ys)
    return _per_cell_query(
        grid,
        xs,
        ys,
        np.cumsum(counts) - counts,
        counts,
        np.argsort(cells, kind="stable"),
        np.asarray(cx, dtype=np.float64),
        np.asarray(cy, dtype=np.float64),
        np.asarray(rr, dtype=np.float64),
        metric,
        points_on_globe=globe,
    )


def _assert_identical(got, want):
    """Same pairs, same order, same dtypes and distance bytes."""
    for got_part, want_part in zip(got, want):
        assert got_part.dtype == want_part.dtype
        assert got_part.tobytes() == want_part.tobytes()


class TestBuilderEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        num_tasks=st.integers(min_value=0, max_value=60),
        num_workers=st.integers(min_value=0, max_value=40),
        cells=st.integers(min_value=1, max_value=8),
        max_radius=st.floats(min_value=0.0, max_value=80.0),
        metric=st.sampled_from(["euclidean", "manhattan", "haversine"]),
    )
    @settings(deadline=None)
    def test_vectorized_csr_is_edge_identical_to_all_pairs_scan(
        self, seed, num_tasks, num_workers, cells, max_radius, metric
    ):
        """Identical ``indptr``/``indices`` arrays to the oracle's."""
        rng = np.random.default_rng(seed)
        side = 50.0
        grid = Grid.square(side, cells)
        tasks, workers = _entities(rng, side, num_tasks, num_workers, max_radius)
        vectorized = build_bipartite_graph(tasks, workers, metric=metric, grid=grid)
        scan = build_bipartite_graph(tasks, workers, metric=metric, grid=None)
        assert vectorized.csr().indptr.tolist() == scan.csr().indptr.tolist()
        assert vectorized.csr().indices.tolist() == scan.csr().indices.tolist()

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        max_degree=st.integers(min_value=1, max_value=10),
    )
    @settings(deadline=None)
    def test_degree_cap_parity_between_builders(self, seed, max_degree):
        """Both paths apply the identical k-nearest capping rule."""
        rng = np.random.default_rng(seed)
        side = 30.0
        grid = Grid.square(side, 4)
        tasks, workers = _entities(rng, side, 40, 25, 25.0)
        vectorized = build_bipartite_graph(
            tasks, workers, grid=grid, max_degree=max_degree
        )
        scan = build_bipartite_graph(tasks, workers, grid=None, max_degree=max_degree)
        assert vectorized.task_neighbors == scan.task_neighbors
        assert vectorized.worker_neighbors == scan.worker_neighbors

    def test_metric_callable_takes_the_all_pairs_scan(self):
        """A callable has no array form, so even with a grid it is scanned."""
        rng = np.random.default_rng(3)
        tasks, workers = _entities(rng, 30.0, 40, 25, 12.0)
        grid = Grid.square(30.0, 4)
        calls = []

        def metric(a, b):
            calls.append(1)
            return a.distance_to(b)

        scanned = build_bipartite_graph(tasks, workers, metric=metric, grid=grid)
        assert len(calls) == len(tasks) * len(workers)
        named = build_bipartite_graph(tasks, workers, grid=grid)
        assert scanned.task_neighbors == named.task_neighbors

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None)
    def test_degree_cap_keeps_the_nearest_workers(self, seed):
        """The cap keeps exactly the k nearest (ties by worker position)."""
        rng = np.random.default_rng(seed)
        side = 20.0
        grid = Grid.square(side, 3)
        tasks, workers = _entities(rng, side, 15, 12, 30.0)
        k = 3
        capped = build_bipartite_graph(tasks, workers, grid=grid, max_degree=k)
        exact = build_bipartite_graph(tasks, workers, grid=grid)
        for task_pos, adjacency in enumerate(exact.task_neighbors):
            origin = tasks[task_pos].origin
            expected = sorted(
                sorted(
                    adjacency,
                    key=lambda w: (
                        origin.distance_to(workers[w].location),
                        w,
                    ),
                )[:k]
            )
            assert capped.task_neighbors[task_pos] == expected
            assert len(capped.task_neighbors[task_pos]) <= k


class TestCSRBackedGraph:
    def _csr_graph(self):
        tasks = [
            Task(task_id=i, period=0, origin=Point(i, 0), destination=Point(i, 1))
            for i in range(3)
        ]
        workers = [
            Worker(worker_id=j, period=0, location=Point(j, 0), radius=1.5)
            for j in range(3)
        ]
        csr = CSRGraph.from_edge_arrays(
            np.array([0, 0, 1, 2], dtype=np.int64),
            np.array([0, 1, 1, 2], dtype=np.int64),
            num_tasks=3,
            num_workers=3,
        )
        return BipartiteGraph.from_csr(tasks, workers, csr)

    def test_lazy_adjacency_matches_csr(self):
        graph = self._csr_graph()
        assert graph.num_edges == 4
        assert graph.has_edge(0, 1) and not graph.has_edge(1, 0)
        assert graph.degree_of_task(0) == 2
        assert graph.task_neighbors == [[0, 1], [1], [2]]
        assert graph.worker_neighbors == [[0], [0, 1], [2]]
        assert graph.degree_of_worker(1) == 2

    def test_add_edge_after_csr_backing_invalidates_cache(self):
        graph = self._csr_graph()
        first = graph.csr()
        graph.add_edge(1, 0)
        assert graph.csr() is not first
        assert graph.csr().num_edges == 5
        assert sorted(graph.task_neighbors[1]) == [0, 1]

    def test_empty_csr_backed_graph_has_empty_adjacency(self):
        empty = CSRGraph.from_edge_arrays(
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            num_tasks=0,
            num_workers=0,
        )
        graph = BipartiteGraph.from_csr([], [], empty)
        assert graph.task_neighbors == []
        assert graph.worker_neighbors == []
        assert graph == BipartiteGraph(tasks=[], workers=[])

    def test_from_csr_dimension_mismatch_rejected(self):
        graph = self._csr_graph()
        with pytest.raises(ValueError):
            BipartiteGraph.from_csr(graph.tasks[:1], graph.workers, graph.csr())

    def test_max_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            build_bipartite_graph([], [], max_degree=0)

    @pytest.mark.parametrize("max_degree", [0, -1])
    def test_array_builder_rejects_non_positive_cap(self, max_degree):
        # The columnar engines build through this entry point; a zero cap
        # used to yield edgeless graphs and a silent zero-revenue run.
        tasks = [Task(task_id=0, period=0, origin=Point(1, 1), destination=Point(2, 2))]
        workers = [Worker(worker_id=0, period=0, location=Point(1, 1), radius=5.0)]
        one = np.ones(1)
        with pytest.raises(ValueError, match="max_degree"):
            build_graph_from_arrays(
                tasks, workers, one, one, one, one, 5.0 * one, "euclidean",
                Grid.square(10.0, 2), max_degree=max_degree,
            )


class TestGridBuckets:
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        num_points=st.integers(min_value=0, max_value=50),
        num_queries=st.integers(min_value=0, max_value=10),
    )
    @settings(deadline=None)
    def test_batched_queries_match_brute_force(self, seed, num_points, num_queries):
        rng = np.random.default_rng(seed)
        side = 40.0
        grid = Grid.square(side, 4)
        xs = rng.uniform(0, side, num_points)
        ys = rng.uniform(0, side, num_points)
        cx = rng.uniform(0, side, num_queries)
        cy = rng.uniform(0, side, num_queries)
        radii = rng.uniform(0, 30.0, num_queries)
        buckets = GridBuckets(grid, xs, ys)
        centers, points, distances = buckets.query_circles(cx, cy, radii)
        got = set(zip(centers.tolist(), points.tolist()))
        expected = {
            (q, p)
            for q in range(num_queries)
            for p in range(num_points)
            if np.hypot(cx[q] - xs[p], cy[q] - ys[p]) <= radii[q]
        }
        assert got == expected
        assert np.allclose(
            distances, np.hypot(cx[centers] - xs[points], cy[centers] - ys[points])
        )

    def test_chunked_expansion_matches_monolithic(self, monkeypatch):
        """Tiny chunk bounds force both chunk loops through many rounds
        and must not change the results or their ordering, which equal
        the per-cell oracle's."""
        rng = np.random.default_rng(7)
        side = 40.0
        grid = Grid.square(side, 4)
        xs, ys = rng.uniform(0, side, 80), rng.uniform(0, side, 80)
        cx, cy = rng.uniform(0, side, 15), rng.uniform(0, side, 15)
        radii = rng.uniform(0, 30.0, 15)
        buckets = GridBuckets(grid, xs, ys)
        reference = buckets.query_circles(cx, cy, radii)
        monkeypatch.setattr(index_module, "_CELL_CHUNK", 3)
        monkeypatch.setattr(index_module, "_POINT_CHUNK", 5)
        chunked = buckets.query_circles(cx, cy, radii)
        for ref, got in zip(reference, chunked):
            assert ref.tolist() == got.tolist()
        oracle = _static_oracle(grid, xs, ys, cx, cy, radii)
        _assert_identical(reference, oracle)
        _assert_identical(chunked, oracle)

    def test_negative_radius_rejected(self):
        buckets = GridBuckets(Grid.square(10.0, 2), [1.0], [1.0])
        with pytest.raises(ValueError):
            buckets.query_circles([1.0], [1.0], [-1.0])

    def test_callable_metric_rejected(self):
        buckets = GridBuckets(Grid.square(10.0, 2), [1.0], [1.0])
        with pytest.raises(ValueError):
            buckets.query_circles([1.0], [1.0], [1.0], metric=lambda a, b: 0.0)


# ----------------------------------------------------------------------
# row runs against the per-cell oracle
# ----------------------------------------------------------------------
_PLANAR_REGION = BoundingBox(0.0, 0.0, 100.0, 60.0)
_LONLAT_REGIONS = [
    BoundingBox(116.2, 39.8, 116.6, 40.1),  # central Beijing
    BoundingBox(-30.0, 80.0, 30.0, 90.0),  # up to the north pole
    BoundingBox(170.0, -10.0, 180.0, 10.0),  # on the +-180 degree seam
    BoundingBox(-180.0, -90.0, 180.0, 90.0),  # the whole globe
]
_INF = float("inf")


@st.composite
def row_run_cases(draw):
    """A metric, a grid, points and queries in and around its region.

    Coordinates fall inside the region, on a cell boundary (the region's
    edges included) or up to a quarter of its size outside it — off the
    globe, for the polar and the whole-globe boxes, which makes every
    haversine span infinite.  Radii include zero and infinity; at most
    forty points over up to nine rows leave many rows and cells empty.
    """
    metric = draw(st.sampled_from(["euclidean", "manhattan", "haversine"]))
    if metric == "haversine":
        region = draw(st.sampled_from(_LONLAT_REGIONS))
        radius = st.one_of(st.floats(0.0, 60.0), st.floats(0.0, 20_100.0), st.just(_INF))
    else:
        region = _PLANAR_REGION
        radius = st.one_of(st.floats(0.0, 40.0), st.just(0.0), st.just(_INF))
    grid = Grid(region, draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    width = region.max_x - region.min_x
    height = region.max_y - region.min_y
    x = st.one_of(
        st.floats(region.min_x, region.max_x),
        st.sampled_from(
            [region.min_x + col * grid.cell_width for col in range(grid.cols)]
            + [region.max_x]
        ),
        st.floats(region.min_x - width / 4, region.max_x + width / 4),
    )
    y = st.one_of(
        st.floats(region.min_y, region.max_y),
        st.sampled_from(
            [region.min_y + row * grid.cell_height for row in range(grid.rows)]
            + [region.max_y]
        ),
        st.floats(region.min_y - height / 4, region.max_y + height / 4),
    )
    points = draw(st.lists(st.tuples(x, y, radius), max_size=40))
    queries = draw(st.lists(st.tuples(x, y, radius), max_size=8))
    px, py, pr = (np.array([p[k] for p in points], dtype=np.float64) for k in range(3))
    qx, qy, qr = (np.array([q[k] for q in queries], dtype=np.float64) for k in range(3))
    return metric, grid, px, py, pr, qx, qy, qr


#: Chunk bounds to run under: the defaults, or tiny ones that split the
#: expansions into many rounds.
_CHUNKS = st.tuples(
    st.sampled_from([None, 1, 2, 3, 7]), st.sampled_from([None, 1, 2, 5, 13])
)


def _under(chunks, query):
    """Run ``query`` with ``_CELL_CHUNK`` / ``_POINT_CHUNK`` patched to
    ``chunks`` (``None`` keeps a bound)."""
    with ExitStack() as stack:
        for name, value in zip(("_CELL_CHUNK", "_POINT_CHUNK"), chunks):
            if value is not None:
                stack.enter_context(mock.patch.object(index_module, name, value))
        return query()


class TestRowRunsEqualPerCellOracle:
    @given(case=row_run_cases(), chunks=_CHUNKS)
    @settings(deadline=None, max_examples=200)
    def test_grid_buckets_equal_per_cell_oracle(self, case, chunks):
        metric, grid, px, py, _, qx, qy, qr = case
        buckets = GridBuckets(grid, px, py)
        got = _under(chunks, lambda: buckets.query_circles(qx, qy, qr, metric))
        _assert_identical(got, _static_oracle(grid, px, py, qx, qy, qr, metric))

    @given(
        case=row_run_cases(),
        chunks=_CHUNKS,
        removals=st.lists(st.integers(0, 39), max_size=12),
    )
    @settings(deadline=None, max_examples=200)
    def test_live_plane_per_cell_runs_equal_oracle(self, case, chunks, removals):
        metric, grid, px, py, pr, qx, qy, qr = case
        plane = DynamicGridBuckets(grid, track_radii=True)
        half = px.shape[0] // 2
        plane.insert(px[:half], py[:half], pr[:half])
        plane.insert(px[half:], py[half:], pr[half:])
        for slot in sorted(set(removals)):
            if plane.is_live(slot):
                plane.remove(slot)
        globe = plane._points_on_globe(metric)
        layout = (plane._xs, plane._ys, plane._cell_start, plane._cell_count, plane._storage)
        got = _under(chunks, lambda: plane.query_circles(qx, qy, qr, metric))
        want = _per_cell_query(grid, *layout, qx, qy, qr, metric, points_on_globe=globe)
        _assert_identical(got, want)
        got = _under(chunks, lambda: plane.query_own_radius(qx, qy, metric))
        want = _per_cell_query(
            grid,
            *layout,
            qx,
            qy,
            np.full(qx.shape, plane.max_radius),
            metric,
            point_radii=plane._radii,
            points_first=True,
            points_on_globe=globe,
        )
        _assert_identical(got, want)

    def test_row_run_spans_empty_rows_and_cells(self):
        """Points in two cells of one row; a query over the whole grid
        scans one run per row, most of them empty."""
        grid = Grid.square(40.0, 4)
        xs = [1.0, 25.0, 2.0, 26.0, 39.0]
        ys = [21.0, 22.0, 23.0, 21.5, 1.0]
        cx, cy, rr = [20.0, 20.0, 5.0], [20.0, 20.0, 35.0], [_INF, 10.0, 3.0]
        got = GridBuckets(grid, xs, ys).query_circles(cx, cy, rr)
        want = _static_oracle(grid, xs, ys, cx, cy, rr)
        _assert_identical(got, want)
        # Row-major cell order, insertion order within a cell.
        assert list(zip(got[0].tolist(), got[1].tolist())) == [
            (0, 4), (0, 0), (0, 2), (0, 1), (0, 3), (1, 1), (1, 3),
        ]
