"""Grid-bucketed spatial indexes for circular range queries.

Building the task–worker bipartite graph requires, for every worker ``w``,
the set of tasks whose origin lies within the worker's service radius
``a_w`` (Definition 4).  A naive all-pairs scan costs ``O(|R| x |W|)``
distance evaluations per time period; the scalability experiment of the
paper runs up to 500k tasks and workers, where that becomes the dominant
cost.

Two structures share the grid-bucketing idea:

* :class:`GridBuckets` — a read-only, array-native bucketing of a point
  set that answers *batches* of circular queries with numpy broadcasting
  (candidate rectangle → one contiguous run of cell-ordered storage per
  cell row → ragged gather → one vectorised distance filter).
  This is what the vectorised bipartite-graph builder runs on: it emits
  flat candidate arrays instead of per-query Python lists, and reuses
  grow-only scratch buffers across periods so the hot loop allocates a
  near-constant amount per period.
* :class:`DynamicGridBuckets` — the *mutable* counterpart of
  :class:`GridBuckets`: slot-addressed points under insert/remove, kept
  in grow-only per-cell storage segments so the same batched query runs
  against the live population without rebucketing.  It backs
  :class:`IncrementalAdjacencyIndex`, which answers "which live workers
  can serve this arriving task" in ``O(neighbourhood)`` — the update-cost
  (not epoch-cost) adjacency plane of the warm matching paths.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.spatial.geometry import (
    DistanceMetric,
    coordinate_spans,
    on_globe,
    resolve_batch_metric,
)
from repro.spatial.grid import Grid


class _BuilderScratch:
    """Grow-only buffers reused across batched queries (and periods).

    The ragged gathers of :meth:`GridBuckets.query_circles` repeatedly
    need ``0..n-1`` ramps whose length varies per period; re-allocating
    them dominates small-period overhead.  The scratch keeps one
    monotonically grown ``arange`` and hands out read-only views.  Not
    thread-safe — the simulation's concurrency unit is the process
    (sharded / parallel runners), which each get their own copy.
    """

    def __init__(self) -> None:
        self._iota = np.zeros(0, dtype=np.int64)

    def iota(self, n: int) -> np.ndarray:
        """A read-only ``[0, 1, ..., n-1]`` view backed by a reused buffer."""
        if self._iota.shape[0] < n:
            self._iota = np.arange(max(n, 2 * self._iota.shape[0]), dtype=np.int64)
            self._iota.setflags(write=False)
        return self._iota[:n]


#: Module-level scratch shared by every GridBuckets instance of a process.
_SCRATCH = _BuilderScratch()

#: Chunk bounds for the batched query's two ragged expansions.  Peak
#: transient memory is proportional to these (a few numpy rows per
#: (query, run) row or candidate point), independent of how many
#: candidate pairs the whole batch would generate — which matters when
#: candidate rectangles are large: radii wide against the cell size, or
#: haversine queries whose rectangle falls back to the full longitude
#: range (near a pole, on the +-180 degree seam; see
#: :func:`coordinate_spans`).
_CELL_CHUNK = 1 << 20
_POINT_CHUNK = 4 << 20

#: A batch of query rectangles: ``(min_row, max_row, min_col, max_col)``
#: cell bounds per query, inclusive.
_Rectangles = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _cell_rectangles(
    grid: Grid,
    metric: Union[str, DistanceMetric],
    cx: np.ndarray,
    cy: np.ndarray,
    rr: np.ndarray,
    points_on_globe: bool,
) -> _Rectangles:
    """Per query, the cell rectangle covering its disc of radius ``rr``.

    A superset of every cell holding an in-range point; the exact metric
    filter of :func:`_batched_circle_query` makes the result independent
    of the rectangle.  The half-widths come from :func:`coordinate_spans`:
    euclidean and manhattan spans are ``rr`` itself, a haversine query in
    kilometres scans only its neighbourhood's cells of a lon/lat grid,
    and an infinite span clips to the whole row or column.
    """
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
    return min_row, max_row, min_col, max_col


def _batched_circle_query(
    layout: Union["GridBuckets", "DynamicGridBuckets"],
    cx: np.ndarray,
    cy: np.ndarray,
    rr: np.ndarray,
    metric: Union[str, DistanceMetric],
    point_radii: Optional[np.ndarray] = None,
    points_first: bool = False,
    points_on_globe: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared chunked run expansion behind the batched circle queries.

    Gathers, for every query center, the points bucketed in the cell
    rectangle covering its disc (:func:`_cell_rectangles`), computes the
    exact metric distance per (center, point) candidate and keeps the
    pairs within range.  The rectangle's points come as *runs*: slices
    ``[start, start + count)`` of the layout's cell-ordered storage,
    which the layout supplies (``_run_counts`` / ``_run_bounds``).
    :class:`GridBuckets` stores whole cell rows contiguously, so each
    (query, cell row) is one run; the per-cell segments of
    :class:`DynamicGridBuckets` give one run per (query, cell).  Storage
    positions map to coordinate keys (``_entry_keys``) and, for the pairs
    in range only, to point ids (``_point_ids``).

    Args:
        layout: The bucketing whose points are queried.
        point_radii: When given, the inclusive filter is
            ``distance <= point_radii[key]`` (each *point* carries the
            radius, e.g. a worker's service range) while ``rr`` only
            sizes the candidate rectangles — callers pass a per-query
            upper bound such as the plane's maximum live radius.
            When ``None``, the filter is ``distance <= rr[center]``.
        points_first: Pass the point coordinates as the metric's first
            argument pair.  Distances of the supported metrics are
            symmetric bit-for-bit, but keeping the argument roles of
            :func:`repro.matching.bipartite.build_graph_from_arrays`
            (workers first) makes the bitwise contract self-evident.
        points_on_globe: ``False`` when some point is not a lon/lat pair
            on the globe; haversine rectangles then cover the full grid.

    Returns:
        ``(center_idx, point_idx, distance)`` flat arrays ordered by
        center, then row-major candidate cell, then within-cell storage
        order — the same for either run shape.
    """
    batch_metric = resolve_batch_metric(metric)
    if batch_metric is None:
        raise ValueError(
            f"metric {metric!r} has no vectorised implementation; "
            "build the graph with build_bipartite_graph(grid=None) instead"
        )
    empty = (
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.float64),
    )
    if not cx.size or not len(layout):
        return empty

    rectangles = _cell_rectangles(layout.grid, metric, cx, cy, rr, points_on_globe)
    nruns = layout._run_counts(rectangles)
    xs, ys = layout._xs, layout._ys

    # Both ragged expansions run in bounded chunks (see _CELL_CHUNK /
    # _POINT_CHUNK): peak transient memory stays proportional to the
    # chunk size however loose the candidate rectangles are, and the
    # chunks are processed in order so the output ordering is the
    # same as one monolithic expansion.
    out_centers: list = []
    out_points: list = []
    out_distances: list = []
    run_cum = np.cumsum(nruns)
    center_start = 0
    while center_start < cx.size:
        base = int(run_cum[center_start - 1]) if center_start else 0
        center_end = max(
            int(np.searchsorted(run_cum, base + _CELL_CHUNK, side="right")),
            center_start + 1,
        )
        chunk_nruns = nruns[center_start:center_end]
        chunk_total = int(run_cum[center_end - 1]) - base
        center_start_next = center_end
        if not chunk_total:
            center_start = center_start_next
            continue

        # Ragged expansion: one row per (query, run).
        center_rep = np.repeat(
            np.arange(center_start, center_end, dtype=np.int64), chunk_nruns
        )
        local = _SCRATCH.iota(chunk_total) - np.repeat(
            np.cumsum(chunk_nruns) - chunk_nruns, chunk_nruns
        )
        starts, counts = layout._run_bounds(rectangles, center_rep, local)
        nonempty = counts > 0
        center_rep, starts, counts = (
            center_rep[nonempty],
            starts[nonempty],
            counts[nonempty],
        )
        if not counts.size:
            center_start = center_start_next
            continue

        # Second ragged expansion: one row per (query, candidate
        # point), again in bounded chunks of (query, run) rows.
        point_cum = np.cumsum(counts)
        pair_start = 0
        while pair_start < counts.size:
            pair_base = int(point_cum[pair_start - 1]) if pair_start else 0
            pair_end = max(
                int(
                    np.searchsorted(
                        point_cum, pair_base + _POINT_CHUNK, side="right"
                    )
                ),
                pair_start + 1,
            )
            sub_counts = counts[pair_start:pair_end]
            sub_total = int(point_cum[pair_end - 1]) - pair_base
            # Storage position of candidate i of run j: its offset in the
            # flat expansion, shifted by (run start - run's first offset).
            shift = starts[pair_start:pair_end] - (
                point_cum[pair_start:pair_end] - pair_base - sub_counts
            )
            keys = layout._entry_keys(
                _SCRATCH.iota(sub_total) + np.repeat(shift, sub_counts)
            )
            center_idx = np.repeat(center_rep[pair_start:pair_end], sub_counts)

            if points_first:
                distances = batch_metric(
                    xs[keys], ys[keys], cx[center_idx], cy[center_idx]
                )
            else:
                distances = batch_metric(
                    cx[center_idx], cy[center_idx], xs[keys], ys[keys]
                )
            if point_radii is not None:
                within = np.flatnonzero(distances <= point_radii[keys])
            else:
                within = np.flatnonzero(distances <= rr[center_idx])
            out_centers.append(center_idx[within])
            out_points.append(layout._point_ids(keys[within]))
            out_distances.append(distances[within])
            pair_start = pair_end
        center_start = center_start_next

    if not out_centers:
        return empty
    return (
        np.concatenate(out_centers),
        np.concatenate(out_points),
        np.concatenate(out_distances),
    )


def checked_degree_cap(max_degree: Optional[int]) -> Optional[int]:
    """``max_degree`` as an ``int`` (``None`` passes); a cap below one raises.

    A zero cap would keep no edge at all and silently zero a run, so
    every entry point that takes a degree cap rejects it up front.
    """
    if max_degree is None:
        return None
    if max_degree < 1:
        raise ValueError("max_degree must be a positive integer when given")
    return int(max_degree)


def cap_edges_per_center(
    center_idx: np.ndarray,
    point_idx: np.ndarray,
    distances: np.ndarray,
    num_centers: int,
    max_degree: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Keep the ``max_degree`` nearest points per center (vectorised).

    Ties on distance break by ascending point index, so the kept set is
    deterministic and identical to the scalar capping rule.  Inputs may
    arrive in any order (the selection keys order them fully); outputs
    are in canonical ascending ``(center, point)`` order.  Doing the
    ranking sort on the raw arrays and the canonical sort on the *capped*
    set keeps the expensive three-key sort to one pass over the full
    edge list.

    The ranking sort packs the center, the distance's dense rank and the
    point into one ``int64`` key (:func:`_ranking_order`).  The canonical
    sort is a chain of stable ``argsort`` passes, least significant key
    first — the order ``np.lexsort`` gives — over index keys cast to the
    narrowest unsigned type that holds them: numpy radix-sorts 8- and
    16-bit keys, so the capped rows sort in linear time.

    This is the degree-cap rule of the batch graph builder
    (:func:`repro.matching.bipartite.build_graph_from_arrays` delegates
    here) and of :class:`IncrementalAdjacencyIndex` — one implementation,
    so capped rows agree bit-for-bit wherever the same keys are used.
    """
    centers = _narrow(center_idx)
    points = _narrow(point_idx)
    order = _ranking_order(centers, points, distances)
    sorted_centers = center_idx[order]
    counts = np.bincount(sorted_centers, minlength=num_centers)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    rank = np.arange(sorted_centers.size, dtype=np.int64) - starts
    keep = order[rank < max_degree]
    canonical = _stable_order(points[keep], centers[keep])
    keep = keep[canonical]
    return center_idx[keep], point_idx[keep]


def canonical_edge_order(center_idx: np.ndarray, point_idx: np.ndarray) -> np.ndarray:
    """The permutation ``np.lexsort((point_idx, center_idx))``.

    Edges in ascending ``(center, point)`` order, ties in input order, as
    two stable passes over the (non-negative) keys cast to the narrowest
    unsigned type that holds them, which numpy radix-sorts when they fit
    in 16 bits.
    """
    return _stable_order(_narrow(point_idx), _narrow(center_idx))


def _narrow(idx: np.ndarray) -> np.ndarray:
    """Non-negative index keys in the narrowest unsigned type holding them."""
    return idx.astype(np.min_scalar_type(int(idx.max(initial=0))), copy=False)


def _ranking_order(
    centers: np.ndarray, points: np.ndarray, distances: np.ndarray
) -> np.ndarray:
    """Edges by ``(center, distance, point)``: ``np.lexsort`` of the three.

    A stable float sort is the slow pass of the three-key chain, so the
    distances are replaced by their dense rank (equal distances share a
    rank, so an unstable sort finds the same ranks) and the three keys
    are packed into one ``int64`` whose values order exactly like the
    tuples.  Sorting those is one unstable pass; keys that tie are equal
    ``(center, point)`` pairs, which leave the caller's gathered values
    unchanged.  Keys too wide for 63 bits take the chain of stable sorts.
    """
    by_distance = np.argsort(distances)
    if not by_distance.size:
        return by_distance
    ordered = distances[by_distance]
    dense = np.empty(ordered.size, dtype=np.int64)
    dense[0] = 0
    np.cumsum(ordered[1:] != ordered[:-1], out=dense[1:])
    point_bits = int(points.max()).bit_length()
    rank_bits = int(dense[-1]).bit_length()
    center_bits = int(centers.max()).bit_length()
    if center_bits + rank_bits + point_bits > 63:
        return _stable_order(points, distances, centers)
    rank = np.empty_like(dense)
    rank[by_distance] = dense
    key = centers.astype(np.int64) << (rank_bits + point_bits)
    key |= rank << point_bits
    key |= points.astype(np.int64)
    return np.argsort(key)


def _stable_order(*keys: np.ndarray) -> np.ndarray:
    """``np.lexsort(keys)`` as chained stable argsorts (last key primary)."""
    order = np.argsort(keys[0], kind="stable")
    for key in keys[1:]:
        order = order[np.argsort(key[order], kind="stable")]
    return order


class GridBuckets:
    """Array-native cell bucketing of a fixed point set.

    Args:
        grid: The grid used for bucketing (and for candidate-cell
            enumeration).
        xs: x coordinates of the points.
        ys: y coordinates of the points (same length).

    The constructor sorts the points by their (0-based) grid cell once,
    stably, and keeps their coordinates in that cell order.  Cells are
    numbered row-major, so the cells ``min_col..max_col`` of one cell row
    are one contiguous slice of the storage,
    ``cell_ptr[row * cols + min_col] : cell_ptr[row * cols + max_col + 1]``:
    :meth:`query_circles` scans one such *row run* per (query, cell row)
    of its rectangle, reads the coordinates by storage position, and maps
    storage positions to point ids only for the pairs in range — a whole
    batch of circular range queries in a handful of numpy passes with
    **no Python per-point work**.
    """

    def __init__(self, grid: Grid, xs: Sequence[float], ys: Sequence[float]) -> None:
        self._grid = grid
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be 1-D arrays of equal length")
        cells = grid.locate_many(xs, ys) - 1
        # Stable sort keeps same-cell points in insertion order.
        self._order = np.argsort(cells, kind="stable")
        self._xs = xs[self._order]
        self._ys = ys[self._order]
        self._cell_ptr = np.zeros(grid.num_cells + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(cells, minlength=grid.num_cells), out=self._cell_ptr[1:]
        )
        # Whether every point is a lon/lat pair, checked on the first
        # haversine query (see coordinate_spans).
        self._on_globe: Optional[bool] = None

    def __len__(self) -> int:
        return int(self._xs.shape[0])

    @property
    def grid(self) -> Grid:
        return self._grid

    def query_circles(
        self,
        centers_x: Sequence[float],
        centers_y: Sequence[float],
        radii: Sequence[float],
        metric: Union[str, DistanceMetric] = "euclidean",
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched inclusive circular range queries.

        Args:
            centers_x: Query center x coordinates.
            centers_y: Query center y coordinates (same length).
            radii: Query radius per center (same length, non-negative).
            metric: Metric *name* (``euclidean`` / ``manhattan`` /
                ``haversine``); callables have no vectorised form.

        Returns:
            ``(center_idx, point_idx, distance)`` flat arrays: one entry
            per (query, point) pair with ``distance <= radius``.  Pairs
            are ordered by center, then by the point's cell, then by
            point insertion order — callers needing a canonical edge
            order sort once afterwards.

        Raises:
            ValueError: for negative radii or a metric without a batch
                implementation.

        The row runs find exactly the pairs of an all-pairs filter:

        >>> grid = Grid.square(10.0, 3)
        >>> xs = np.array([1.0, 5.0, 9.0, 2.0, 8.0, 4.0, 3.0])
        >>> ys = np.array([1.0, 5.0, 9.0, 8.0, 2.0, 6.0, 4.0])
        >>> cx, cy, rr = np.array([4.0, 9.0]), np.array([5.0, 1.0]), np.array([3.0, 2.0])
        >>> centers, points, _ = GridBuckets(grid, xs, ys).query_circles(cx, cy, rr)
        >>> list(zip(centers.tolist(), points.tolist()))
        [(0, 6), (0, 1), (0, 5), (1, 4)]
        >>> within = np.hypot(cx[:, None] - xs, cy[:, None] - ys) <= rr[:, None]
        >>> sorted(zip(centers.tolist(), points.tolist())) == sorted(
        ...     zip(*(side.tolist() for side in np.nonzero(within)))
        ... )
        True
        """
        cx = np.ascontiguousarray(centers_x, dtype=np.float64)
        cy = np.ascontiguousarray(centers_y, dtype=np.float64)
        rr = np.ascontiguousarray(radii, dtype=np.float64)
        if not (cx.shape == cy.shape == rr.shape) or cx.ndim != 1:
            raise ValueError("centers_x, centers_y and radii must have equal length")
        if rr.size and float(rr.min()) < 0:
            raise ValueError("radius must be non-negative")
        return _batched_circle_query(
            self, cx, cy, rr, metric, points_on_globe=self._points_on_globe(metric)
        )

    # Storage layout of _batched_circle_query: one run per (query, cell
    # row); storage positions index the cell-ordered coordinates.
    def _run_counts(self, rectangles: _Rectangles) -> np.ndarray:
        min_row, max_row, _, _ = rectangles
        return max_row - min_row + 1

    def _run_bounds(
        self, rectangles: _Rectangles, center_rep: np.ndarray, local: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        min_row, _, min_col, max_col = rectangles
        row_base = (min_row[center_rep] + local) * self._grid.cols
        starts = self._cell_ptr[row_base + min_col[center_rep]]
        return starts, self._cell_ptr[row_base + max_col[center_rep] + 1] - starts

    def _entry_keys(self, positions: np.ndarray) -> np.ndarray:
        return positions

    def _point_ids(self, keys: np.ndarray) -> np.ndarray:
        return self._order[keys]

    def _points_on_globe(self, metric: Union[str, DistanceMetric]) -> bool:
        if metric != "haversine":
            return True
        if self._on_globe is None:
            self._on_globe = on_globe(self._xs, self._ys)
        return self._on_globe


class DynamicGridBuckets:
    """Mutable, array-native cell bucketing of a slot-addressed point set.

    The incremental counterpart of :class:`GridBuckets`: points are
    inserted and removed one batch at a time, each receiving a
    monotonically increasing *slot* (slots are never recycled, so slot
    order is arrival order — the property the warm matchers' traversal
    contracts lean on).  Per-cell membership lives in grow-only storage
    segments: each cell owns a contiguous ``[start, start + count)``
    window of one flat array, doubled by relocation when it fills, with
    abandoned windows kept in per-capacity free lists for reuse.  Inserts
    and removes are ``O(1)`` amortised, and the batched circle query runs
    the same chunked numpy run expansion as :class:`GridBuckets` over the
    live population — no per-update rebucketing, no Python per-point work
    at query time.  The segments of neighbouring cells are not adjacent,
    so its runs are one per (query, cell), not one per cell row.

    Args:
        grid: The grid used for bucketing and candidate-cell enumeration.
        track_radii: Store a service radius per point (worker planes);
            enables :meth:`query_own_radius`.
    """

    #: Initial capacity handed to a cell on its first insertion.
    _SEGMENT_SEED = 4

    def __init__(self, grid: Grid, track_radii: bool = False) -> None:
        self._grid = grid
        self._track_radii = track_radii
        capacity = 16
        self._xs = np.zeros(capacity, dtype=np.float64)
        self._ys = np.zeros(capacity, dtype=np.float64)
        self._radii = np.zeros(capacity, dtype=np.float64) if track_radii else None
        self._slot_cell = np.full(capacity, -1, dtype=np.int64)
        self._slot_offset = np.zeros(capacity, dtype=np.int64)
        self._next_slot = 0
        self._live = 0
        self._cell_start = np.zeros(grid.num_cells, dtype=np.int64)
        self._cell_cap = np.zeros(grid.num_cells, dtype=np.int64)
        self._cell_count = np.zeros(grid.num_cells, dtype=np.int64)
        self._storage = np.zeros(64, dtype=np.int64)
        self._storage_used = 0
        self._free_segments: Dict[int, List[int]] = {}
        # Grow-only maximum over every radius ever inserted: an upper
        # bound on live radii that sizes candidate rectangles without
        # having to maintain an exact max under removals.
        self._max_radius = 0.0
        # Whether slots [0, _globe_checked) are all lon/lat pairs,
        # extended on each haversine query (see coordinate_spans).
        self._on_globe = True
        self._globe_checked = 0

    def __len__(self) -> int:
        return self._live

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def max_radius(self) -> float:
        """Grow-only upper bound on the radius of any live point."""
        return self._max_radius

    def is_live(self, slot: int) -> bool:
        return 0 <= slot < self._next_slot and self._slot_cell[slot] >= 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _grow_slots(self, need: int) -> None:
        capacity = self._xs.shape[0]
        if need <= capacity:
            return
        new_cap = max(need, 2 * capacity)
        for name in ("_xs", "_ys", "_radii", "_slot_cell", "_slot_offset"):
            old = getattr(self, name)
            if old is None:
                continue
            grown = np.full(new_cap, -1, dtype=old.dtype) if name == "_slot_cell" \
                else np.zeros(new_cap, dtype=old.dtype)
            grown[:capacity] = old
            setattr(self, name, grown)

    def _cell_append(self, cell: int, slot: int) -> None:
        count = int(self._cell_count[cell])
        if count == int(self._cell_cap[cell]):
            new_cap = max(self._SEGMENT_SEED, 2 * count)
            free = self._free_segments.get(new_cap)
            if free:
                start = free.pop()
            else:
                start = self._storage_used
                need = start + new_cap
                if need > self._storage.shape[0]:
                    grown = np.zeros(
                        max(need, 2 * self._storage.shape[0]), dtype=np.int64
                    )
                    grown[: self._storage_used] = self._storage[: self._storage_used]
                    self._storage = grown
                self._storage_used = need
            old_start = int(self._cell_start[cell])
            old_cap = int(self._cell_cap[cell])
            if count:
                self._storage[start : start + count] = self._storage[
                    old_start : old_start + count
                ]
            if old_cap:
                self._free_segments.setdefault(old_cap, []).append(old_start)
            self._cell_start[cell] = start
            self._cell_cap[cell] = new_cap
        self._storage[int(self._cell_start[cell]) + count] = slot
        self._slot_cell[slot] = cell
        self._slot_offset[slot] = count
        self._cell_count[cell] = count + 1

    def insert(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        radii: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        """Insert a batch of points; returns their (new, ascending) slots."""
        px = np.ascontiguousarray(xs, dtype=np.float64)
        py = np.ascontiguousarray(ys, dtype=np.float64)
        if px.shape != py.shape or px.ndim != 1:
            raise ValueError("xs and ys must be 1-D arrays of equal length")
        if self._track_radii:
            if radii is None:
                raise ValueError("this plane tracks radii; pass them on insert")
            pr = np.ascontiguousarray(radii, dtype=np.float64)
            if pr.shape != px.shape:
                raise ValueError("radii must match xs/ys length")
            if pr.size and float(pr.min()) < 0:
                raise ValueError("radius must be non-negative")
        elif radii is not None:
            raise ValueError("this plane does not track radii")
        count = px.shape[0]
        first = self._next_slot
        self._grow_slots(first + count)
        self._xs[first : first + count] = px
        self._ys[first : first + count] = py
        if self._track_radii:
            self._radii[first : first + count] = pr
            if count:
                self._max_radius = max(self._max_radius, float(pr.max()))
        cells = (self._grid.locate_many(px, py) - 1) if count else px.astype(np.int64)
        for offset in range(count):
            self._cell_append(int(cells[offset]), first + offset)
        self._next_slot = first + count
        self._live += count
        return np.arange(first, first + count, dtype=np.int64)

    def remove(self, slot: int) -> None:
        """Remove a live slot (its storage entry is swap-popped in place)."""
        cell = int(self._slot_cell[slot])
        if cell < 0:
            raise ValueError(f"slot {slot} is not live")
        start = int(self._cell_start[cell])
        count = int(self._cell_count[cell])
        offset = int(self._slot_offset[slot])
        last = count - 1
        if offset != last:
            moved = int(self._storage[start + last])
            self._storage[start + offset] = moved
            self._slot_offset[moved] = offset
        self._cell_count[cell] = last
        self._slot_cell[slot] = -1
        self._live -= 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query_circles(
        self,
        centers_x: Sequence[float],
        centers_y: Sequence[float],
        radii: Sequence[float],
        metric: Union[str, DistanceMetric] = "euclidean",
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched inclusive circular range queries over the live points.

        Same contract as :meth:`GridBuckets.query_circles`; point indices
        in the result are slots.  Within a cell, storage order is
        insertion order disturbed only by removal swap-pops.
        """
        cx = np.ascontiguousarray(centers_x, dtype=np.float64)
        cy = np.ascontiguousarray(centers_y, dtype=np.float64)
        rr = np.ascontiguousarray(radii, dtype=np.float64)
        if not (cx.shape == cy.shape == rr.shape) or cx.ndim != 1:
            raise ValueError("centers_x, centers_y and radii must have equal length")
        if rr.size and float(rr.min()) < 0:
            raise ValueError("radius must be non-negative")
        if not self._live:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.float64),
            )
        if cx.shape[0] == 1:
            return self._single_circle_query(
                float(cx[0]), float(cy[0]), float(rr[0]), metric, own_radius=False
            )
        return _batched_circle_query(
            self, cx, cy, rr, metric, points_on_globe=self._points_on_globe(metric)
        )

    def query_own_radius(
        self,
        centers_x: Sequence[float],
        centers_y: Sequence[float],
        metric: Union[str, DistanceMetric] = "euclidean",
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live points whose *own* radius covers each query center.

        The range-constraint query of the adjacency plane: a worker
        (point) serves a task (center) when the task lies within the
        worker's service radius.  Candidate rectangles are sized by the
        plane's grow-only :attr:`max_radius`; the exact per-point filter
        makes the result independent of that bound.  Distances are
        computed with the point (worker) coordinates as the metric's
        first argument pair — the same roles as the batch graph builder,
        so shared edges carry bit-identical distances.
        """
        if not self._track_radii:
            raise ValueError("this plane does not track radii")
        cx = np.ascontiguousarray(centers_x, dtype=np.float64)
        cy = np.ascontiguousarray(centers_y, dtype=np.float64)
        if cx.shape != cy.shape or cx.ndim != 1:
            raise ValueError("centers_x and centers_y must have equal length")
        if not self._live:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.float64),
            )
        if cx.shape[0] == 1:
            return self._single_circle_query(
                float(cx[0]), float(cy[0]), self._max_radius, metric, own_radius=True
            )
        rr = np.full(cx.shape[0], self._max_radius, dtype=np.float64)
        return _batched_circle_query(
            self,
            cx,
            cy,
            rr,
            metric,
            point_radii=self._radii,
            points_first=True,
            points_on_globe=self._points_on_globe(metric),
        )

    # Storage layout of _batched_circle_query: cells own separate
    # segments, so one run per (query, cell); storage entries are slots,
    # which index the coordinates and are the point ids.
    def _run_counts(self, rectangles: _Rectangles) -> np.ndarray:
        min_row, max_row, min_col, max_col = rectangles
        return (max_row - min_row + 1) * (max_col - min_col + 1)

    def _run_bounds(
        self, rectangles: _Rectangles, center_rep: np.ndarray, local: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        min_row, _, min_col, max_col = rectangles
        first_col = min_col[center_rep]
        span = max_col[center_rep] - first_col + 1
        cell = (min_row[center_rep] + local // span) * self._grid.cols + (
            first_col + local % span
        )
        return self._cell_start[cell], self._cell_count[cell]

    def _entry_keys(self, positions: np.ndarray) -> np.ndarray:
        return self._storage[positions]

    def _point_ids(self, keys: np.ndarray) -> np.ndarray:
        return keys

    def _points_on_globe(self, metric: Union[str, DistanceMetric]) -> bool:
        if metric != "haversine":
            return True
        if self._globe_checked < self._next_slot:
            fresh = slice(self._globe_checked, self._next_slot)
            self._on_globe = self._on_globe and on_globe(self._xs[fresh], self._ys[fresh])
            self._globe_checked = self._next_slot
        return self._on_globe

    def _single_circle_query(
        self,
        x: float,
        y: float,
        r: float,
        metric: Union[str, DistanceMetric],
        own_radius: bool,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scalar fast path for one query center.

        The event-at-a-time hot loop (one task arrival, one worker
        arrival) pays the batched expansion's fixed numpy ceremony for a
        single row; gathering the candidate slots with a plain cell-
        rectangle walk is an order of magnitude cheaper at service
        densities.  Distances still come from the *same* vectorised
        metric over the gathered candidates — elementwise float64 ops do
        not depend on batch shape, so results are bit-identical to
        :func:`_batched_circle_query`, in the identical (cell-rectangle,
        then within-cell storage) order.
        """
        batch_metric = resolve_batch_metric(metric)
        if batch_metric is None:
            raise ValueError(
                f"metric {metric!r} has no vectorised implementation; "
                "build the graph with build_bipartite_graph(grid=None) instead"
            )
        empty = (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )
        grid = self._grid
        region = grid.region
        # The batched rectangle's spans and float expressions (for
        # euclidean and manhattan bit-identical cell bounds; any haversine
        # rectangle holds every in-range cell, so results agree anyway).
        # Clipping before the floor gives the same integers and lets an
        # infinite span clip to the grid.
        dx, dy = coordinate_spans(metric, x, y, r, self._points_on_globe(metric))
        last_col = grid.cols - 1
        last_row = grid.rows - 1
        min_col = math.floor(min(max((x - dx - region.min_x) / grid.cell_width, 0), last_col))
        max_col = math.floor(min(max((x + dx - region.min_x) / grid.cell_width, 0), last_col))
        min_row = math.floor(min(max((y - dy - region.min_y) / grid.cell_height, 0), last_row))
        max_row = math.floor(min(max((y + dy - region.min_y) / grid.cell_height, 0), last_row))
        candidates: List[int] = []
        storage = self._storage
        starts = self._cell_start
        counts = self._cell_count
        for row in range(min_row, max_row + 1):
            base = row * grid.cols
            for col in range(min_col, max_col + 1):
                cell = base + col
                count = counts[cell]
                if count:
                    start = starts[cell]
                    candidates.extend(storage[start : start + count].tolist())
        if not candidates:
            return empty
        point_idx = np.asarray(candidates, dtype=np.int64)
        px = self._xs[point_idx]
        py = self._ys[point_idx]
        qx = np.full(point_idx.shape[0], x, dtype=np.float64)
        qy = np.full(point_idx.shape[0], y, dtype=np.float64)
        if own_radius:
            distances = batch_metric(px, py, qx, qy)
            within = distances <= self._radii[point_idx]
        else:
            distances = batch_metric(qx, qy, px, py)
            within = distances <= r
        point_idx = point_idx[within]
        return (
            np.zeros(point_idx.shape[0], dtype=np.int64),
            point_idx,
            distances[within],
        )


class IncrementalAdjacencyIndex:
    """Live task/worker planes answering per-arrival candidate-edge queries.

    The adjacency side of the live dynamic matching paths: instead of one
    epoch-wide graph build, arrivals and departures update two
    :class:`DynamicGridBuckets` planes and each new task's candidate row
    is computed on demand against the *currently live* workers — cost
    proportional to the arrival's spatial neighbourhood.  The edge rule
    is exactly the batch builder's (inclusive radius, same metric
    argument roles, same degree-cap selection via
    :func:`cap_edges_per_center`), so at any instant the index's edges
    over the live population equal
    :func:`repro.matching.bipartite.build_graph_from_arrays` on that
    population — the fuzzed contract of
    ``tests/spatial/test_incremental_index.py``.

    Slots are arrival-ordered and never recycled, on both sides; callers
    that allocate their own ids in arrival order (the lazy matcher) can
    therefore use index slots verbatim.

    Args:
        grid: Bucketing grid.
        metric: Distance metric name (must have a vectorised form).
        max_degree: Optional per-task cap — each task keeps its
            ``max_degree`` nearest live workers *at query time* (ties by
            worker key).  Note this is the realised-population cap, not
            the batch builder's whole-universe cap: capping does not
            commute with arrival order.
    """

    def __init__(
        self,
        grid: Grid,
        metric: Union[str, DistanceMetric] = "euclidean",
        max_degree: Optional[int] = None,
    ) -> None:
        self._metric = metric
        self._max_degree = checked_degree_cap(max_degree)
        self._workers = DynamicGridBuckets(grid, track_radii=True)
        self._tasks = DynamicGridBuckets(grid)

    @property
    def grid(self) -> Grid:
        return self._workers.grid

    @property
    def max_degree(self) -> Optional[int]:
        return self._max_degree

    @property
    def num_live_workers(self) -> int:
        return len(self._workers)

    @property
    def num_live_tasks(self) -> int:
        return len(self._tasks)

    # ------------------------------------------------------------------
    # population updates
    # ------------------------------------------------------------------
    def insert_workers(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        radii: Sequence[float],
    ) -> np.ndarray:
        """Bring a batch of workers live; returns their slots (ascending)."""
        return self._workers.insert(xs, ys, radii)

    def insert_tasks(self, xs: Sequence[float], ys: Sequence[float]) -> np.ndarray:
        """Bring a batch of tasks live; returns their slots (ascending)."""
        return self._tasks.insert(xs, ys)

    def remove_worker(self, slot: int) -> None:
        self._workers.remove(slot)

    def remove_task(self, slot: int) -> None:
        self._tasks.remove(slot)

    # ------------------------------------------------------------------
    # candidate-edge queries
    # ------------------------------------------------------------------
    def candidate_edges(
        self,
        task_x: Sequence[float],
        task_y: Sequence[float],
        worker_keys: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Capped candidate edges from query tasks to the live workers.

        Args:
            task_x / task_y: Query task coordinates (the tasks need not
                be inserted in the task plane).
            worker_keys: Optional ``int64`` array mapping worker slot →
                non-negative caller id (e.g. a period-local position); the cap's
                distance-tie rule and the canonical output order both use
                the caller id, mirroring the batch builder capping over
                period-local worker positions.  Defaults to the identity
                (slots are the ids).

        Returns:
            ``(task_idx, worker_ids)`` in canonical ascending
            ``(task, id)`` order, one entry per surviving edge.
        """
        cx = np.ascontiguousarray(task_x, dtype=np.float64)
        cy = np.ascontiguousarray(task_y, dtype=np.float64)
        task_idx, worker_slots, distances = self._workers.query_own_radius(
            cx, cy, self._metric
        )
        ids = worker_slots if worker_keys is None else worker_keys[worker_slots]
        if self._max_degree is not None and task_idx.size:
            return cap_edges_per_center(
                task_idx, ids, distances, cx.shape[0], self._max_degree
            )
        order = canonical_edge_order(task_idx, ids)
        return task_idx[order], ids[order]

    def task_rows(
        self,
        task_x: Sequence[float],
        task_y: Sequence[float],
        worker_keys: Optional[np.ndarray] = None,
    ) -> List[List[int]]:
        """Per-task candidate rows (ascending worker ids), as plain lists."""
        cx = np.ascontiguousarray(task_x, dtype=np.float64)
        task_idx, worker_ids = self.candidate_edges(cx, task_y, worker_keys)
        rows: List[List[int]] = [[] for _ in range(cx.shape[0])]
        ids = worker_ids.tolist()
        for at, task in enumerate(task_idx.tolist()):
            rows[task].append(ids[at])
        return rows

    def worker_rows(self, worker_slots: Sequence[int]) -> List[List[int]]:
        """Live task slots within each worker's radius (ascending rows).

        The edge set a worker *arrival* contributes against the live
        tasks; the lazy matcher appends these edges so rows stay the
        arrival-ordered subsequence of the batch universe rows.  One
        plane query serves a whole batch of arriving workers: the rows
        are independent of each other (worker arrivals do not change
        the task plane).
        """
        slots = np.ascontiguousarray(worker_slots, dtype=np.int64)
        workers = self._workers
        if slots.size and not bool(np.all(workers._slot_cell[slots] >= 0)):
            dead = slots[workers._slot_cell[slots] < 0]
            raise ValueError(f"worker slot {int(dead[0])} is not live")
        worker_idx, task_slots, _ = self._tasks.query_circles(
            workers._xs[slots], workers._ys[slots], workers._radii[slots], self._metric
        )
        order = canonical_edge_order(worker_idx, task_slots)
        rows: List[List[int]] = [[] for _ in range(slots.shape[0])]
        ordered_tasks = task_slots[order].tolist()
        for at, worker in enumerate(worker_idx[order].tolist()):
            rows[worker].append(ordered_tasks[at])
        return rows


__all__ = [
    "DynamicGridBuckets",
    "GridBuckets",
    "IncrementalAdjacencyIndex",
    "canonical_edge_order",
    "cap_edges_per_center",
    "checked_degree_cap",
]
