"""Columnar period data plane: structure-of-arrays chunks and views.

City-scale horizons move millions of tiny :class:`~repro.market.entities.Task`
/ :class:`~repro.market.entities.Worker` records through the engine; at
that volume the Python objects themselves — construction, attribute
reads, pickling across process boundaries — dominate the runtime.  This
module keeps each period **columnar**: one :class:`TaskColumns` /
:class:`WorkerColumns` pair of flat numpy arrays per chunk, produced
natively by the generators, partitioned by shard with array ops, handed
to the pipeline as :class:`~repro.core.gdp.PeriodArrays` without a
per-task detour through objects, and shareable across processes through
:class:`~repro.utils.shm.ShmArena` segments (see
:class:`WorkloadArena`).

Objects do not disappear — the halo-exchange pass and the public
``PeriodInstance.tasks`` API still speak ``Task`` — they become *lazy*:
:class:`LazyTasks` / :class:`LazyWorkers` materialise (and cache) a
record only when some consumer actually indexes it, and materialised
records are value-identical to the ones the object pipeline would have
built, which is what keeps columnar runs bit-identical to object runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.market.entities import Task, Worker
from repro.spatial.geometry import Point
from repro.spatial.grid import Grid
from repro.utils.shm import ArenaHandle, ShmArena

#: Sentinel in ``WorkerColumns.durations`` for "available until matched".
NO_DURATION = -1


@dataclass(frozen=True, eq=False)
class TaskColumns:
    """One period's tasks as flat arrays (struct-of-arrays).

    Attributes:
        period: The period every task of the chunk belongs to.
        task_ids: ``int64`` task identifiers.
        xs / ys: ``float64`` origin coordinates.
        dest_xs / dest_ys: ``float64`` destination coordinates.
        distances: ``float64`` travel distance per task (``d_r``).
        valuations: ``float64`` private valuations (``NaN`` where the
            task has none and acceptance is model-driven).
        has_valuation: Boolean mask mirroring ``Task.valuation is None``
            (an explicit ``NaN`` valuation keeps ``True``; see
            :class:`~repro.core.gdp.PeriodArrays`).
        cells: ``int64`` 1-based grid cell of each origin.
    """

    period: int
    task_ids: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    dest_xs: np.ndarray
    dest_ys: np.ndarray
    distances: np.ndarray
    valuations: np.ndarray
    has_valuation: np.ndarray
    cells: np.ndarray

    def __len__(self) -> int:
        return int(self.task_ids.shape[0])

    @classmethod
    def from_tasks(cls, tasks: Sequence[Task], grid: Optional[Grid] = None) -> "TaskColumns":
        """Extract columns from task objects (annotating cells if needed)."""
        count = len(tasks)
        period = tasks[0].period if count else 0
        cells = np.empty(count, dtype=np.int64)
        for pos, task in enumerate(tasks):
            if task.grid_index is not None:
                cells[pos] = task.grid_index
            elif grid is not None:
                cells[pos] = grid.locate(task.origin)
            else:
                raise ValueError(
                    f"task {task.task_id} has no grid index and no grid was given"
                )
        return cls(
            period=int(period),
            task_ids=np.fromiter((t.task_id for t in tasks), dtype=np.int64, count=count),
            xs=np.fromiter((t.origin.x for t in tasks), dtype=np.float64, count=count),
            ys=np.fromiter((t.origin.y for t in tasks), dtype=np.float64, count=count),
            dest_xs=np.fromiter(
                (t.destination.x for t in tasks), dtype=np.float64, count=count
            ),
            dest_ys=np.fromiter(
                (t.destination.y for t in tasks), dtype=np.float64, count=count
            ),
            distances=np.fromiter(
                (t.distance for t in tasks), dtype=np.float64, count=count
            ),
            valuations=np.fromiter(
                (np.nan if t.valuation is None else t.valuation for t in tasks),
                dtype=np.float64,
                count=count,
            ),
            has_valuation=np.fromiter(
                (t.valuation is not None for t in tasks), dtype=bool, count=count
            ),
            cells=cells,
        )

    def take(self, positions: np.ndarray) -> "TaskColumns":
        """Columns restricted to ``positions`` (fancy-indexed copy)."""
        return TaskColumns(
            period=self.period,
            task_ids=self.task_ids[positions],
            xs=self.xs[positions],
            ys=self.ys[positions],
            dest_xs=self.dest_xs[positions],
            dest_ys=self.dest_ys[positions],
            distances=self.distances[positions],
            valuations=self.valuations[positions],
            has_valuation=self.has_valuation[positions],
            cells=self.cells[positions],
        )

    def task_at(self, pos: int) -> Task:
        """Materialise one :class:`Task`, value-identical to the object path."""
        return Task(
            task_id=int(self.task_ids[pos]),
            period=self.period,
            origin=Point(float(self.xs[pos]), float(self.ys[pos])),
            destination=Point(float(self.dest_xs[pos]), float(self.dest_ys[pos])),
            distance=float(self.distances[pos]),
            valuation=(
                float(self.valuations[pos]) if bool(self.has_valuation[pos]) else None
            ),
            grid_index=int(self.cells[pos]),
        )

    def to_tasks(self) -> List[Task]:
        """Materialise every task (small scales / compatibility paths)."""
        return [self.task_at(pos) for pos in range(len(self))]


@dataclass(frozen=True, eq=False)
class WorkerColumns:
    """One period's arriving workers as flat arrays.

    Attributes mirror :class:`~repro.market.entities.Worker`; a
    ``durations`` entry of :data:`NO_DURATION` encodes ``None``
    ("available until matched").
    """

    worker_ids: np.ndarray
    periods: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    radii: np.ndarray
    durations: np.ndarray

    def __len__(self) -> int:
        return int(self.worker_ids.shape[0])

    @classmethod
    def from_workers(cls, workers: Sequence[Worker]) -> "WorkerColumns":
        count = len(workers)
        return cls(
            worker_ids=np.fromiter(
                (w.worker_id for w in workers), dtype=np.int64, count=count
            ),
            periods=np.fromiter((w.period for w in workers), dtype=np.int64, count=count),
            xs=np.fromiter((w.location.x for w in workers), dtype=np.float64, count=count),
            ys=np.fromiter((w.location.y for w in workers), dtype=np.float64, count=count),
            radii=np.fromiter((w.radius for w in workers), dtype=np.float64, count=count),
            durations=np.fromiter(
                (NO_DURATION if w.duration is None else w.duration for w in workers),
                dtype=np.int64,
                count=count,
            ),
        )

    def take(self, positions: np.ndarray) -> "WorkerColumns":
        return WorkerColumns(
            worker_ids=self.worker_ids[positions],
            periods=self.periods[positions],
            xs=self.xs[positions],
            ys=self.ys[positions],
            radii=self.radii[positions],
            durations=self.durations[positions],
        )

    @classmethod
    def concatenate(cls, parts: Sequence["WorkerColumns"]) -> "WorkerColumns":
        if not parts:
            return cls.from_workers([])
        return cls(
            worker_ids=np.concatenate([p.worker_ids for p in parts]),
            periods=np.concatenate([p.periods for p in parts]),
            xs=np.concatenate([p.xs for p in parts]),
            ys=np.concatenate([p.ys for p in parts]),
            radii=np.concatenate([p.radii for p in parts]),
            durations=np.concatenate([p.durations for p in parts]),
        )

    def available_mask(self, period: int) -> np.ndarray:
        """Vectorised ``Worker.available_in(period)`` over the columns."""
        mask = self.periods <= period
        timed = self.durations != NO_DURATION
        mask &= ~timed | (period < self.periods + self.durations)
        return mask

    def worker_at(self, pos: int) -> Worker:
        duration = int(self.durations[pos])
        return Worker(
            worker_id=int(self.worker_ids[pos]),
            period=int(self.periods[pos]),
            location=Point(float(self.xs[pos]), float(self.ys[pos])),
            radius=float(self.radii[pos]),
            duration=None if duration == NO_DURATION else duration,
        )

    def to_workers(self) -> List[Worker]:
        return [self.worker_at(pos) for pos in range(len(self))]


class _LazyRecords(Sequence):
    """Shared machinery of :class:`LazyTasks` / :class:`LazyWorkers`."""

    __slots__ = ("_columns", "_cache")

    def __init__(self, columns) -> None:
        self._columns = columns
        self._cache: List[Optional[object]] = [None] * len(columns)

    def __len__(self) -> int:
        return len(self._cache)

    def _materialize(self, pos: int):
        raise NotImplementedError

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[pos] for pos in range(*index.indices(len(self)))]
        pos = index if index >= 0 else len(self) + index
        if not 0 <= pos < len(self):
            raise IndexError(index)
        record = self._cache[pos]
        if record is None:
            record = self._cache[pos] = self._materialize(pos)
        return record

    @property
    def columns(self):
        return self._columns


class LazyTasks(_LazyRecords):
    """A ``Sequence[Task]`` materialising records from columns on demand."""

    def _materialize(self, pos: int) -> Task:
        return self._columns.task_at(pos)


class LazyWorkers(_LazyRecords):
    """A ``Sequence[Worker]`` materialising records from columns on demand."""

    def _materialize(self, pos: int) -> Worker:
        return self._columns.worker_at(pos)


class PoolView(Sequence):
    """A ``Sequence[Worker]`` view of pool positions, materialised lazily.

    Materialised records are cached *in the pool*, so every view of the
    same position shares one object — exactly what the object pipeline's
    shared ``Worker`` instances provide.
    """

    __slots__ = ("_pool", "_positions")

    def __init__(self, pool: "ColumnarWorkerPool", positions: np.ndarray) -> None:
        self._pool = pool
        self._positions = positions

    def __len__(self) -> int:
        return int(self._positions.shape[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[pos] for pos in range(*index.indices(len(self)))]
        return self._pool.worker(int(self._positions[index]))

    @property
    def positions(self) -> np.ndarray:
        return self._positions


class ColumnarWorkerPool:
    """The engine's live worker pool kept as columns.

    Mirrors the object engine's ``List[Worker]`` pool — same ordering,
    same availability filtering — while exposing the coordinate arrays
    the vectorised dispatch wants and materialising ``Worker`` records
    only where some consumer (strategy, halo pass) reads one.
    """

    def __init__(self) -> None:
        self._columns = WorkerColumns.from_workers([])
        self._cache: List[Optional[Worker]] = []

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def columns(self) -> WorkerColumns:
        return self._columns

    def extend(self, arriving: WorkerColumns) -> None:
        """Append an arrival chunk (the object pool's ``extend``)."""
        if not len(arriving):
            return
        self._columns = WorkerColumns.concatenate([self._columns, arriving])
        self._cache.extend([None] * len(arriving))

    def retain(self, positions: np.ndarray) -> None:
        """Keep exactly ``positions`` (ascending), dropping the rest."""
        self._columns = self._columns.take(positions)
        self._cache = [self._cache[pos] for pos in positions.tolist()]

    def retain_available(self, period: int) -> None:
        """The object pool's ``[w for w in pool if w.available_in(period)]``."""
        mask = self._columns.available_mask(period)
        if not bool(mask.all()):
            self.retain(np.flatnonzero(mask))

    def worker(self, pos: int) -> Worker:
        record = self._cache[pos]
        if record is None:
            record = self._cache[pos] = self._columns.worker_at(pos)
        return record

    def view(self, positions: np.ndarray) -> PoolView:
        return PoolView(self, positions)


# ---------------------------------------------------------------------------
# shared-memory materialisation
# ---------------------------------------------------------------------------
_TASK_FIELDS = (
    "task_ids",
    "xs",
    "ys",
    "dest_xs",
    "dest_ys",
    "distances",
    "valuations",
    "has_valuation",
    "cells",
)
_WORKER_FIELDS = ("worker_ids", "periods", "xs", "ys", "radii", "durations")


@dataclass(frozen=True)
class WorkloadArenaHandle:
    """Picklable reference to a workload materialised in shared memory.

    Attributes:
        arena: The underlying segment handle.
        num_periods: Horizon length.
    """

    arena: ArenaHandle
    num_periods: int


class WorkloadArena:
    """A whole horizon of period columns packed into one shm segment.

    The owner packs one horizon-ordered ``[(TaskColumns, WorkerColumns),
    ...]`` chunk list into a single :class:`~repro.utils.shm.ShmArena`;
    worker processes :meth:`attach` by handle and read the chunks as
    zero-copy views.  :class:`~repro.experiments.parallel.ParallelRunner`
    uses it to ship a workload to its pool as a handle instead of a
    pickle.
    """

    def __init__(self, arena: ShmArena, handle: WorkloadArenaHandle) -> None:
        self._arena = arena
        self._handle = handle

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, chunks: Sequence[Tuple[TaskColumns, WorkerColumns]]
    ) -> "WorkloadArena":
        """Pack horizon-ordered period chunks into a fresh owned segment."""
        arrays: Dict[str, np.ndarray] = {}
        for period, (task_cols, worker_cols) in enumerate(chunks):
            for field in _TASK_FIELDS:
                arrays[f"p{period}/t/{field}"] = getattr(task_cols, field)
            for field in _WORKER_FIELDS:
                arrays[f"p{period}/w/{field}"] = getattr(worker_cols, field)
        arena = ShmArena.create(arrays)
        return cls(arena, WorkloadArenaHandle(arena=arena.handle, num_periods=len(chunks)))

    @classmethod
    def attach(cls, handle: WorkloadArenaHandle) -> "WorkloadArena":
        return cls(ShmArena.attach(handle.arena), handle)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def handle(self) -> WorkloadArenaHandle:
        return self._handle

    def iter_period_columns(self) -> Iterator[Tuple[TaskColumns, WorkerColumns]]:
        """Zero-copy column views of every period's chunk, in horizon order."""
        for period in range(self._handle.num_periods):
            task_cols = TaskColumns(
                period=period,
                **{field: self._arena[f"p{period}/t/{field}"] for field in _TASK_FIELDS},
            )
            worker_cols = WorkerColumns(
                **{field: self._arena[f"p{period}/w/{field}"] for field in _WORKER_FIELDS}
            )
            yield task_cols, worker_cols

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._arena.close()

    def unlink(self) -> None:
        self._arena.unlink()

    def __enter__(self) -> "WorkloadArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self._arena.__exit__(*exc_info)


__all__ = [
    "NO_DURATION",
    "TaskColumns",
    "WorkerColumns",
    "LazyTasks",
    "LazyWorkers",
    "ColumnarWorkerPool",
    "PoolView",
    "WorkloadArena",
    "WorkloadArenaHandle",
]
