"""Tests for geometry primitives and distance metrics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.geometry import (
    BoundingBox,
    Point,
    as_point,
    euclidean_distance,
    haversine_distance,
    manhattan_distance,
    resolve_metric,
)

coords = st.floats(min_value=-1000, max_value=1000, allow_nan=False)


class TestPoint:
    def test_iteration_and_tuple(self):
        p = Point(3.0, 4.0)
        assert tuple(p) == (3.0, 4.0)
        assert p.as_tuple() == (3.0, 4.0)

    def test_translate(self):
        assert Point(1.0, 2.0).translate(2.0, -1.0) == Point(3.0, 1.0)

    def test_distance_to_named_metric(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)
        assert Point(0, 0).distance_to(Point(3, 4), "manhattan") == pytest.approx(7.0)

    def test_as_point_coercion(self):
        assert as_point((1, 2)) == Point(1.0, 2.0)
        p = Point(1.0, 2.0)
        assert as_point(p) is p


class TestMetrics:
    def test_euclidean_known_value(self):
        assert euclidean_distance(Point(0, 0), Point(3, 4)) == pytest.approx(5.0)

    def test_manhattan_known_value(self):
        assert manhattan_distance(Point(1, 1), Point(4, 5)) == pytest.approx(7.0)

    def test_haversine_known_value(self):
        """Beijing city centre to the airport is roughly 25 km."""
        tiananmen = Point(116.3975, 39.9087)
        capital_airport = Point(116.5871, 40.0799)
        distance = haversine_distance(tiananmen, capital_airport)
        assert 20.0 < distance < 30.0

    def test_haversine_zero(self):
        p = Point(116.4, 39.9)
        assert haversine_distance(p, p) == pytest.approx(0.0)

    def test_resolve_metric_by_name_and_callable(self):
        assert resolve_metric("euclidean") is euclidean_distance
        custom = lambda a, b: 42.0
        assert resolve_metric(custom) is custom
        with pytest.raises(KeyError):
            resolve_metric("chebyshev")

    @given(coords, coords, coords, coords)
    @settings(max_examples=100, deadline=None)
    def test_metric_axioms(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        for metric in (euclidean_distance, manhattan_distance):
            assert metric(a, b) >= 0
            assert metric(a, b) == pytest.approx(metric(b, a))
            assert metric(a, a) == pytest.approx(0.0)

    @given(coords, coords, coords, coords, coords, coords)
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, x1, y1, x2, y2, x3, y3):
        a, b, c = Point(x1, y1), Point(x2, y2), Point(x3, y3)
        assert euclidean_distance(a, c) <= euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-9

    @given(coords, coords, coords, coords)
    @settings(max_examples=100, deadline=None)
    def test_manhattan_dominates_euclidean(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        assert manhattan_distance(a, b) >= euclidean_distance(a, b) - 1e-9


class TestBoundingBox:
    def test_invalid_extent(self):
        with pytest.raises(ValueError):
            BoundingBox(1.0, 0.0, 0.0, 1.0)

    def test_properties(self):
        box = BoundingBox(0.0, 0.0, 4.0, 2.0)
        assert box.width == 4.0
        assert box.height == 2.0
        assert box.area == 8.0
        assert box.center == Point(2.0, 1.0)

    def test_contains_boundary_inclusive(self):
        box = BoundingBox(0.0, 0.0, 1.0, 1.0)
        assert box.contains(Point(0.0, 0.0))
        assert box.contains(Point(1.0, 1.0))
        assert box.contains(Point(0.5, 0.5))
        assert not box.contains(Point(1.1, 0.5))

    def test_clamp(self):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        assert box.clamp(Point(-5.0, 4.0)) == Point(0.0, 4.0)
        assert box.clamp(Point(15.0, 12.0)) == Point(10.0, 10.0)
        assert box.clamp(Point(3.0, 3.0)) == Point(3.0, 3.0)

    def test_square_constructor(self):
        box = BoundingBox.square(100.0)
        assert box.width == 100.0
        assert box.height == 100.0
        with pytest.raises(ValueError):
            BoundingBox.square(-1.0)
