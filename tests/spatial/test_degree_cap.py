"""The vectorised degree cap against its ``np.lexsort`` oracle.

:func:`repro.spatial.index.cap_edges_per_center` ranks edges by one
packed ``int64`` key (center, dense distance rank, point), or by chained
stable ``argsort`` passes when the keys are too wide to pack, over index
keys narrowed to the smallest unsigned type that holds them.  The oracle
is the earlier two-``lexsort`` formulation; outputs must be array-equal
(values and dtype) across distance ties, empty input, caps above every
degree, index keys on both sides of the 8-, 16- and 32-bit boundaries
and keys too wide to pack.  :func:`canonical_edge_order`, the uncapped
builders' canonical sort over the same narrowed keys, is held to
``np.lexsort`` the same way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.index import canonical_edge_order, cap_edges_per_center


def _lexsort_cap(center_idx, point_idx, distances, num_centers, max_degree):
    order = np.lexsort((point_idx, distances, center_idx))
    sorted_centers = center_idx[order]
    counts = np.bincount(sorted_centers, minlength=num_centers)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    rank = np.arange(sorted_centers.size, dtype=np.int64) - starts
    keep = order[rank < max_degree]
    kept_centers = center_idx[keep]
    kept_points = point_idx[keep]
    canonical = np.lexsort((kept_points, kept_centers))
    return kept_centers[canonical], kept_points[canonical]


def _assert_same_cap(center_idx, point_idx, distances, num_centers, max_degree):
    got = cap_edges_per_center(center_idx, point_idx, distances, num_centers, max_degree)
    want = _lexsort_cap(center_idx, point_idx, distances, num_centers, max_degree)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def _edges(rng, num_edges, num_centers, num_points, distinct_distances):
    """Unique random ``(center, point)`` edges with tie-heavy distances."""
    pairs = rng.integers(0, [num_centers, num_points], size=(num_edges, 2))
    pairs = np.unique(pairs, axis=0)
    rng.shuffle(pairs)
    distances = rng.integers(0, distinct_distances, size=len(pairs)) * 0.5
    return pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64), distances


class TestDegreeCapOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_edges=st.integers(0, 300),
        num_centers=st.integers(1, 40),
        num_points=st.integers(1, 40),
        distinct_distances=st.integers(1, 6),
        max_degree=st.integers(1, 12),
    )
    def test_random_edges_with_ties(
        self, seed, num_edges, num_centers, num_points, distinct_distances, max_degree
    ):
        rng = np.random.default_rng(seed)
        centers, points, distances = _edges(
            rng, num_edges, num_centers, num_points, distinct_distances
        )
        _assert_same_cap(centers, points, distances, num_centers, max_degree)

    def test_empty_input(self):
        empty = np.zeros(0, dtype=np.int64)
        _assert_same_cap(empty, empty, np.zeros(0), 5, 3)

    def test_cap_above_every_degree_keeps_every_edge(self):
        rng = np.random.default_rng(7)
        centers, points, distances = _edges(rng, 200, 10, 30, 3)
        _assert_same_cap(centers, points, distances, 10, 1000)
        kept_centers, _ = cap_edges_per_center(centers, points, distances, 10, 1000)
        assert kept_centers.size == centers.size

    def test_all_distances_tied(self):
        rng = np.random.default_rng(3)
        centers, points, distances = _edges(rng, 400, 12, 60, 1)
        _assert_same_cap(centers, points, distances, 12, 4)

    @pytest.mark.parametrize("num_centers", [255, 256, 257, 65535, 65536, 65537])
    @pytest.mark.parametrize("point_bound", [255, 256, 65535, 65536, 70000])
    def test_key_width_boundaries(self, num_centers, point_bound):
        """Center counts and point ids straddle the uint8/16/32 widths."""
        rng = np.random.default_rng(num_centers * 7 + point_bound)
        centers = rng.integers(num_centers - 40, num_centers, size=600)
        centers[0] = num_centers - 1
        points = rng.integers(max(point_bound - 50, 0), point_bound + 1, size=600)
        points[0] = point_bound
        pairs = np.unique(np.stack([centers, points], axis=1), axis=0)
        rng.shuffle(pairs)
        distances = rng.integers(0, 3, size=len(pairs)).astype(np.float64)
        _assert_same_cap(
            pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64), distances, num_centers, 5
        )

    @pytest.mark.parametrize("point_base", [2**50, 2**58])
    def test_wide_point_ids(self, point_base):
        """Ids near 2**50 still pack; near 2**58 the chained sorts rank."""
        rng = np.random.default_rng(11)
        centers, points, distances = _edges(rng, 400, 12, 60, 4)
        _assert_same_cap(centers, points + point_base, distances, 12, 3)


class TestCanonicalEdgeOrder:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_edges=st.integers(0, 300),
        center_bound=st.sampled_from([1, 40, 256, 65536, 2**40]),
        point_bound=st.sampled_from([1, 40, 256, 65536, 2**40]),
    )
    def test_equals_lexsort(self, seed, num_edges, center_bound, point_bound):
        """The same permutation, duplicate pairs included (input order
        breaks their ties), for keys on both sides of every width."""
        rng = np.random.default_rng(seed)
        centers = rng.integers(0, center_bound, size=num_edges)
        points = rng.integers(0, point_bound, size=num_edges)
        if num_edges:
            centers[rng.integers(0, num_edges, size=num_edges // 3)] = centers[0]
            points[rng.integers(0, num_edges, size=num_edges // 3)] = points[0]
        got = canonical_edge_order(centers, points)
        want = np.lexsort((points, centers))
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
