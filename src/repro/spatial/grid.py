"""Grid partitioning of the region of interest (Definition 1 of the paper).

The platform quotes one unit price per grid cell per time period.  The
paper indexes cells "from the bottom-left" (Example 2: with a 8x8 region
and cell side 2, worker ``w3`` at ``(5, 3)`` is in grid 7 and requests at
``(1, 5)`` / ``(2, 6)`` fall into grid 9), i.e. row-major order starting
at 1 from the bottom-left corner.  :class:`Grid` reproduces exactly that
indexing (1-based) while also exposing 0-based ``(row, col)`` coordinates
for internal use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.spatial.geometry import BoundingBox, Point


@dataclass(frozen=True)
class GridCell:
    """A single rectangular cell of the partition.

    Attributes:
        index: 1-based index following the paper's bottom-left, row-major
            numbering.
        row: 0-based row (0 = bottom row).
        col: 0-based column (0 = leftmost column).
        box: The cell's bounding box in region coordinates.
    """

    index: int
    row: int
    col: int
    box: BoundingBox

    @property
    def center(self) -> Point:
        return self.box.center


class Grid:
    """A uniform rectangular grid over a bounding box.

    Args:
        region: The bounding box of the region of interest.
        rows: Number of rows (along the y axis).
        cols: Number of columns (along the x axis).

    The paper writes ``G = rows x cols`` for the total number of cells
    (e.g. ``G = 10 x 10`` in the synthetic default and ``G = 10 x 8 = 80``
    for the Beijing data).
    """

    def __init__(self, region: BoundingBox, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        self._region = region
        self._rows = int(rows)
        self._cols = int(cols)
        self._cell_width = region.width / self._cols
        self._cell_height = region.height / self._rows
        if self._cell_width <= 0 or self._cell_height <= 0:
            raise ValueError("region must have positive extent")
        self._cells: List[GridCell] = []
        for row in range(self._rows):
            for col in range(self._cols):
                index = row * self._cols + col + 1
                box = BoundingBox(
                    region.min_x + col * self._cell_width,
                    region.min_y + row * self._cell_height,
                    region.min_x + (col + 1) * self._cell_width,
                    region.min_y + (row + 1) * self._cell_height,
                )
                self._cells.append(GridCell(index=index, row=row, col=col, box=box))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def square(cls, side: float, cells_per_side: int) -> "Grid":
        """A square region of side ``side`` split into ``n x n`` cells."""
        return cls(BoundingBox.square(side), cells_per_side, cells_per_side)

    @classmethod
    def from_cell_count(cls, region: BoundingBox, num_cells: int) -> "Grid":
        """Create an (approximately) square grid with ``num_cells`` cells.

        ``num_cells`` must be a perfect square (the paper sweeps
        G in {25, 100, 225, 400, 625}, all perfect squares).
        """
        side = int(round(num_cells ** 0.5))
        if side * side != num_cells:
            raise ValueError(f"num_cells={num_cells} is not a perfect square")
        return cls(region, side, side)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def region(self) -> BoundingBox:
        return self._region

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def num_cells(self) -> int:
        """The paper's ``G``."""
        return self._rows * self._cols

    @property
    def cell_width(self) -> float:
        return self._cell_width

    @property
    def cell_height(self) -> float:
        return self._cell_height

    def __len__(self) -> int:
        return self.num_cells

    def __iter__(self) -> Iterator[GridCell]:
        return iter(self._cells)

    def cells(self) -> Sequence[GridCell]:
        return tuple(self._cells)

    def cell(self, index: int) -> GridCell:
        """Return the cell with 1-based ``index``.

        Raises:
            IndexError: if ``index`` is outside ``[1, G]``.
        """
        if not 1 <= index <= self.num_cells:
            raise IndexError(f"grid index {index} outside [1, {self.num_cells}]")
        return self._cells[index - 1]

    # ------------------------------------------------------------------
    # point -> cell mapping
    # ------------------------------------------------------------------
    def locate(self, point: Point) -> int:
        """Return the 1-based index of the cell containing ``point``.

        Points on the shared edge of two cells belong to the cell with the
        larger coordinates (half-open cells), except on the region's outer
        maximum boundary which maps to the last row/column.  Points outside
        the region are clamped onto it, which mirrors how real platforms
        bucket slightly out-of-range GPS fixes.
        """
        clamped = self._region.clamp(point)
        col = int((clamped.x - self._region.min_x) / self._cell_width)
        row = int((clamped.y - self._region.min_y) / self._cell_height)
        col = min(col, self._cols - 1)
        row = min(row, self._rows - 1)
        return row * self._cols + col + 1

    def locate_many(self, xs: Sequence[float], ys: Sequence[float]) -> np.ndarray:
        """Vectorised :meth:`locate` for coordinate arrays.

        Args:
            xs: x coordinates of the points.
            ys: y coordinates of the points (same length).

        Returns:
            ``int64`` array of 1-based cell indices, elementwise equal to
            calling :meth:`locate` on each point (clamping onto the region
            and half-open cell assignment included).
        """
        x = np.clip(np.asarray(xs, dtype=float), self._region.min_x, self._region.max_x)
        y = np.clip(np.asarray(ys, dtype=float), self._region.min_y, self._region.max_y)
        if x.shape != y.shape:
            raise ValueError("xs and ys must have the same length")
        # After clamping the offsets are non-negative, so truncation towards
        # zero (what ``locate`` does with int()) equals floor.
        col = ((x - self._region.min_x) / self._cell_width).astype(np.int64)
        row = ((y - self._region.min_y) / self._cell_height).astype(np.int64)
        np.minimum(col, self._cols - 1, out=col)
        np.minimum(row, self._rows - 1, out=row)
        return row * self._cols + col + 1

    def locate_cell(self, point: Point) -> GridCell:
        """Return the :class:`GridCell` containing ``point``."""
        return self.cell(self.locate(point))

    def contains(self, point: Point) -> bool:
        return self._region.contains(point)

    # ------------------------------------------------------------------
    # neighbourhood queries
    # ------------------------------------------------------------------
    def neighbors(self, index: int, diagonal: bool = True) -> List[int]:
        """Return the indices of cells adjacent to ``index``.

        Args:
            index: 1-based cell index.
            diagonal: Include the 4 diagonal neighbours (8-neighbourhood)
                when True, otherwise only the 4-neighbourhood.
        """
        cell = self.cell(index)
        offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
        if diagonal:
            offsets += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        result = []
        for dr, dc in offsets:
            row, col = cell.row + dr, cell.col + dc
            if 0 <= row < self._rows and 0 <= col < self._cols:
                result.append(row * self._cols + col + 1)
        return result


class GridTiling:
    """A rectangular tiling of a grid's cells into ``num_shards`` shards.

    The sharded engine partitions the city into contiguous rectangular
    regions so most task–worker edges stay shard-local: ``num_shards`` is
    factored into ``shard_rows x shard_cols`` bands (the feasible pair
    whose shards are closest to square in cell units), and every grid cell
    belongs to exactly one shard.  Shards are numbered row-major from the
    bottom-left, mirroring the paper's cell numbering.

    Args:
        grid: The grid whose cells are tiled.
        num_shards: Number of shards (``>= 1``).  Must admit a
            factorisation ``a x b = num_shards`` with ``a <= grid.rows``
            and ``b <= grid.cols`` so every shard owns at least one full
            row band and column band of cells.

    Raises:
        ValueError: if no such factorisation exists.
    """

    def __init__(self, grid: Grid, num_shards: int) -> None:
        num_shards = int(num_shards)
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self._grid = grid
        self._num_shards = num_shards
        self._shard_rows, self._shard_cols = self._choose_bands(
            grid.rows, grid.cols, num_shards
        )
        # 0-based shard id per 0-based cell position (index - 1), row-major.
        row_band = np.arange(grid.rows, dtype=np.int64) * self._shard_rows // grid.rows
        col_band = np.arange(grid.cols, dtype=np.int64) * self._shard_cols // grid.cols
        self._cell_shards = (
            row_band[:, None] * self._shard_cols + col_band[None, :]
        ).reshape(-1)

    @staticmethod
    def _choose_bands(rows: int, cols: int, num_shards: int) -> Tuple[int, int]:
        """Pick the feasible ``(shard_rows, shard_cols)`` factor pair.

        Among all factorisations that fit the grid, prefer the one whose
        shards are closest to square in cell units (ties go to the fewer
        row bands, keeping the choice deterministic).
        """
        best: Optional[Tuple[float, int, int]] = None
        for a in range(1, num_shards + 1):
            if num_shards % a:
                continue
            b = num_shards // a
            if a > rows or b > cols:
                continue
            squareness = abs(rows / a - cols / b)
            if best is None or (squareness, a) < (best[0], best[1]):
                best = (squareness, a, b)
        if best is None:
            raise ValueError(
                f"cannot tile a {rows}x{cols} grid into {num_shards} "
                "rectangular shards; pick a shard count with a factor pair "
                f"(a, b) where a <= {rows} and b <= {cols}"
            )
        return best[1], best[2]

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def num_shards(self) -> int:
        return self._num_shards

    @property
    def shard_rows(self) -> int:
        """Number of horizontal shard bands."""
        return self._shard_rows

    @property
    def shard_cols(self) -> int:
        """Number of vertical shard bands."""
        return self._shard_cols

    # ------------------------------------------------------------------
    # cell -> shard mapping
    # ------------------------------------------------------------------
    def shard_of_cell(self, index: int) -> int:
        """0-based shard id of the cell with 1-based ``index``."""
        if not 1 <= index <= self._grid.num_cells:
            raise IndexError(
                f"grid index {index} outside [1, {self._grid.num_cells}]"
            )
        return int(self._cell_shards[index - 1])

    def shards_of_cells(self, indices: Sequence[int]) -> np.ndarray:
        """Vectorised :meth:`shard_of_cell` for 1-based cell index arrays."""
        cells = np.asarray(indices, dtype=np.int64)
        if cells.size and (cells.min() < 1 or cells.max() > self._grid.num_cells):
            raise IndexError("grid index outside the grid")
        return self._cell_shards[cells - 1]

    def cells_of_shard(self, shard: int) -> List[int]:
        """1-based cell indices owned by ``shard``, ascending."""
        if not 0 <= shard < self._num_shards:
            raise IndexError(f"shard {shard} outside [0, {self._num_shards})")
        return (np.flatnonzero(self._cell_shards == shard) + 1).tolist()

    # ------------------------------------------------------------------
    # boundary / halo queries
    # ------------------------------------------------------------------
    def boundary_cells(self, halo: int = 1) -> np.ndarray:
        """Boolean mask (by 0-based cell position) of halo-boundary cells.

        A cell is a boundary cell when some cell within Chebyshev distance
        ``halo`` (in cell units) belongs to a *different* shard — exactly
        the cells whose tasks and workers take part in the sharded
        engine's halo-exchange reconciliation.  ``halo=0`` (or a single
        shard) marks nothing.
        """
        if halo < 0:
            raise ValueError("halo must be non-negative")
        rows, cols = self._grid.rows, self._grid.cols
        shards = self._cell_shards.reshape(rows, cols)
        boundary = np.zeros((rows, cols), dtype=bool)
        if halo == 0 or self._num_shards == 1:
            return boundary.reshape(-1)
        for dr in range(-halo, halo + 1):
            for dc in range(-halo, halo + 1):
                if dr == 0 and dc == 0:
                    continue
                src_r = slice(max(0, -dr), rows - max(0, dr))
                src_c = slice(max(0, -dc), cols - max(0, dc))
                dst_r = slice(max(0, dr), rows - max(0, -dr))
                dst_c = slice(max(0, dc), cols - max(0, -dc))
                boundary[dst_r, dst_c] |= shards[dst_r, dst_c] != shards[src_r, src_c]
        return boundary.reshape(-1)


__all__ = ["Grid", "GridCell", "GridTiling"]
