"""Tests for the grid partitioning (Definition 1 / Example 2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.geometry import BoundingBox, Point
from repro.spatial.grid import Grid


class TestConstruction:
    def test_square_grid(self):
        grid = Grid.square(100.0, 10)
        assert grid.num_cells == 100
        assert grid.rows == 10
        assert grid.cols == 10
        assert grid.cell_width == pytest.approx(10.0)
        assert grid.cell_height == pytest.approx(10.0)

    def test_rectangular_grid(self):
        region = BoundingBox(116.30, 39.84, 116.50, 40.0)
        grid = Grid(region, rows=8, cols=10)
        assert grid.num_cells == 80
        assert grid.cell_width == pytest.approx(0.02)
        assert grid.cell_height == pytest.approx(0.02)

    def test_from_cell_count(self):
        grid = Grid.from_cell_count(BoundingBox.square(100.0), 225)
        assert grid.rows == 15 and grid.cols == 15
        with pytest.raises(ValueError):
            Grid.from_cell_count(BoundingBox.square(100.0), 26)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Grid(BoundingBox.square(10.0), 0, 5)

    def test_len_and_iter(self):
        grid = Grid.square(10.0, 3)
        assert len(grid) == 9
        indices = [cell.index for cell in grid]
        assert indices == list(range(1, 10))


class TestPaperExample2:
    """Example 2: 8x8 region, side-2 cells, bottom-left row-major indexing."""

    @pytest.fixture
    def grid(self):
        return Grid(BoundingBox.square(8.0), 4, 4)

    def test_w3_is_in_grid_7(self, grid):
        assert grid.locate(Point(5.0, 3.0)) == 7

    def test_r2_is_in_grid_9(self, grid):
        assert grid.locate(Point(1.0, 5.0)) == 9

    def test_w1_is_in_grid_10(self, grid):
        # (3, 5): row 2, col 1 -> 2*4 + 1 + 1 = 10
        assert grid.locate(Point(3.0, 5.0)) == 10

    def test_bottom_left_is_grid_1(self, grid):
        assert grid.locate(Point(0.1, 0.1)) == 1

    def test_top_right_is_last_grid(self, grid):
        assert grid.locate(Point(7.9, 7.9)) == 16


class TestLocate:
    def test_cell_index_bounds(self):
        grid = Grid.square(100.0, 5)
        with pytest.raises(IndexError):
            grid.cell(0)
        with pytest.raises(IndexError):
            grid.cell(26)
        assert grid.cell(1).index == 1
        assert grid.cell(25).index == 25

    def test_points_outside_region_are_clamped(self):
        grid = Grid.square(100.0, 10)
        assert grid.locate(Point(-5.0, -5.0)) == 1
        assert grid.locate(Point(150.0, 150.0)) == 100

    def test_locate_cell_consistent_with_locate(self):
        grid = Grid.square(100.0, 10)
        point = Point(37.0, 81.0)
        assert grid.locate_cell(point).index == grid.locate(point)

    @given(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_located_cell_contains_point(self, x, y, side):
        grid = Grid.square(100.0, side)
        cell = grid.locate_cell(Point(x, y))
        assert cell.box.contains(Point(x, y))

    @given(st.integers(min_value=1, max_value=15))
    @settings(max_examples=30, deadline=None)
    def test_cell_centers_locate_to_their_own_cell(self, side):
        grid = Grid.square(60.0, side)
        for cell in grid:
            assert grid.locate(cell.center) == cell.index


class TestNeighbors:
    def test_corner_cell_neighbors(self):
        grid = Grid.square(30.0, 3)
        assert sorted(grid.neighbors(1, diagonal=False)) == [2, 4]
        assert sorted(grid.neighbors(1, diagonal=True)) == [2, 4, 5]

    def test_center_cell_neighbors(self):
        grid = Grid.square(30.0, 3)
        assert sorted(grid.neighbors(5, diagonal=False)) == [2, 4, 6, 8]
        assert sorted(grid.neighbors(5, diagonal=True)) == [1, 2, 3, 4, 6, 7, 8, 9]


class TestGridTiling:
    def test_single_shard_covers_everything(self):
        from repro.spatial.grid import GridTiling

        grid = Grid.square(100.0, 4)
        tiling = GridTiling(grid, 1)
        assert tiling.num_shards == 1
        assert tiling.cells_of_shard(0) == list(range(1, 17))
        assert not tiling.boundary_cells(halo=3).any()

    def test_shards_partition_the_cells(self):
        from repro.spatial.grid import GridTiling

        grid = Grid.square(100.0, 16)
        for num_shards in (2, 4, 8):
            tiling = GridTiling(grid, num_shards)
            seen = []
            for shard in range(num_shards):
                cells = tiling.cells_of_shard(shard)
                assert cells, f"shard {shard} owns no cells"
                seen.extend(cells)
            assert sorted(seen) == list(range(1, grid.num_cells + 1))

    def test_shards_are_rectangular_bands(self):
        from repro.spatial.grid import GridTiling

        grid = Grid.square(100.0, 8)
        tiling = GridTiling(grid, 4)
        assert tiling.shard_rows * tiling.shard_cols == 4
        for shard in range(4):
            cells = [grid.cell(index) for index in tiling.cells_of_shard(shard)]
            rows = sorted({cell.row for cell in cells})
            cols = sorted({cell.col for cell in cells})
            assert rows == list(range(rows[0], rows[-1] + 1))
            assert cols == list(range(cols[0], cols[-1] + 1))
            assert len(cells) == len(rows) * len(cols)

    def test_vectorised_mapping_matches_scalar(self):
        from repro.spatial.grid import GridTiling

        grid = Grid.square(100.0, 10)
        tiling = GridTiling(grid, 4)
        indices = list(range(1, grid.num_cells + 1))
        vectorised = tiling.shards_of_cells(indices).tolist()
        assert vectorised == [tiling.shard_of_cell(index) for index in indices]

    def test_boundary_cells_touch_a_foreign_shard(self):
        from repro.spatial.grid import GridTiling

        grid = Grid.square(100.0, 8)
        tiling = GridTiling(grid, 4)
        boundary = tiling.boundary_cells(halo=1)
        for index in range(1, grid.num_cells + 1):
            cell = grid.cell(index)
            shard = tiling.shard_of_cell(index)
            foreign = any(
                tiling.shard_of_cell(neighbor) != shard
                for neighbor in grid.neighbors(index, diagonal=True)
            )
            assert bool(boundary[index - 1]) == foreign

    def test_wider_halo_marks_more_cells(self):
        from repro.spatial.grid import GridTiling

        tiling = GridTiling(Grid.square(100.0, 16), 8)
        narrow = tiling.boundary_cells(halo=1)
        wide = tiling.boundary_cells(halo=3)
        assert wide[narrow].all()
        assert wide.sum() > narrow.sum()

    def test_infeasible_shard_counts_are_rejected(self):
        from repro.spatial.grid import GridTiling

        grid = Grid.square(100.0, 4)
        with pytest.raises(ValueError):
            GridTiling(grid, 0)
        with pytest.raises(ValueError, match="tile"):
            GridTiling(grid, 7)  # 7 = 1x7 does not fit a 4x4 grid
        with pytest.raises(ValueError):
            tiling = GridTiling(grid, 2)
            tiling.boundary_cells(halo=-1)

    def test_out_of_range_indices_are_rejected(self):
        from repro.spatial.grid import GridTiling

        tiling = GridTiling(Grid.square(100.0, 4), 4)
        with pytest.raises(IndexError):
            tiling.shard_of_cell(0)
        with pytest.raises(IndexError):
            tiling.shards_of_cells([1, 17])
        with pytest.raises(IndexError):
            tiling.cells_of_shard(4)
