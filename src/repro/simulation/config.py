"""Simulation configuration mirroring Tables 3 and 4 of the paper.

Synthetic defaults (bold entries of Table 3): 5 000 workers, 20 000 tasks,
temporal mean 0.5, spatial mean 0.5, demand (valuation) distribution
``Normal(2.0, 1.0)`` truncated to ``[1, 5]``, ``T = 400`` periods,
``G = 10 x 10`` grids, worker radius ``a_w = 10`` on a 100 x 100 region.

The Beijing configuration (Table 4) covers a 10 x 8 grid over the
``(116.30, 39.84) – (116.50, 40.0)`` rectangle, 120 one-minute periods,
worker radius 3 km and worker duration swept over {5, 10, 15, 20, 25}
periods; the two dataset variants model the 5–7 pm rush hour (heavy
demand) and the 0–2 am window (light demand).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.market.acceptance import PerGridAcceptance
from repro.market.entities import Task, Worker
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import Grid


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic workload (Table 3).

    Attributes:
        num_workers: ``|W|`` — total workers over the whole horizon.
        num_tasks: ``|R|`` — total tasks over the whole horizon.
        temporal_mu: Mean of the tasks' start-time distribution as a
            fraction of the horizon (workers are centred at 0.5).
        temporal_sigma: Standard deviation of the start-time distribution,
            as a fraction of the horizon.
        spatial_mean: Mean of the tasks'/workers' origin distribution as a
            fraction of the region side (0.5 = region centre).
        spatial_sigma: Standard deviation of the origin distribution as a
            fraction of the region side.
        demand_mu: Mean of the valuation (demand) normal distribution.
        demand_sigma: Standard deviation of the valuation distribution.
        demand_distribution: ``"normal"`` (default) or ``"exponential"``
            (Appendix D); exponential uses ``demand_rate``.
        demand_rate: Rate parameter of the exponential demand distribution.
        num_periods: ``T`` — number of one-minute time periods.
        grid_side: Number of grid cells per side (``G = grid_side^2``).
        worker_radius: ``a_w`` — service radius of every worker.
        region_side: Side length of the square region (paper: 100).
        valuation_bounds: Truncation interval of the valuations (paper: [1, 5]).
        price_bounds: Quotable price interval ``[p_min, p_max]``.
        seed: Root seed of the workload.
    """

    num_workers: int = 5000
    num_tasks: int = 20000
    temporal_mu: float = 0.5
    temporal_sigma: float = 0.2
    spatial_mean: float = 0.5
    spatial_sigma: float = 0.2
    demand_mu: float = 2.0
    demand_sigma: float = 1.0
    demand_distribution: str = "normal"
    demand_rate: float = 1.0
    num_periods: int = 400
    grid_side: int = 10
    worker_radius: float = 10.0
    region_side: float = 100.0
    valuation_bounds: Tuple[float, float] = (1.0, 5.0)
    price_bounds: Tuple[float, float] = (1.0, 5.0)
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_workers <= 0 or self.num_tasks <= 0:
            raise ValueError("num_workers and num_tasks must be positive")
        if not 0.0 <= self.temporal_mu <= 1.0:
            raise ValueError("temporal_mu must lie in [0, 1]")
        if not 0.0 <= self.spatial_mean <= 1.0:
            raise ValueError("spatial_mean must lie in [0, 1]")
        if self.temporal_sigma <= 0 or self.spatial_sigma <= 0:
            raise ValueError("temporal_sigma and spatial_sigma must be positive")
        if self.demand_sigma <= 0 or self.demand_rate <= 0:
            raise ValueError("demand_sigma and demand_rate must be positive")
        if self.demand_distribution not in ("normal", "exponential"):
            raise ValueError("demand_distribution must be 'normal' or 'exponential'")
        if self.num_periods <= 0 or self.grid_side <= 0:
            raise ValueError("num_periods and grid_side must be positive")
        if self.worker_radius <= 0 or self.region_side <= 0:
            raise ValueError("worker_radius and region_side must be positive")
        low, high = self.valuation_bounds
        if high <= low:
            raise ValueError("valuation_bounds must be increasing")
        p_min, p_max = self.price_bounds
        if p_min <= 0 or p_max < p_min:
            raise ValueError("price_bounds must satisfy 0 < p_min <= p_max")

    # ------------------------------------------------------------------
    # derived objects
    # ------------------------------------------------------------------
    @property
    def num_grids(self) -> int:
        return self.grid_side * self.grid_side

    def build_grid(self) -> Grid:
        return Grid(BoundingBox.square(self.region_side), self.grid_side, self.grid_side)

    def scaled(self, factor: float) -> "SyntheticConfig":
        """Scale task and worker counts (used by the scalability sweep)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(
            self,
            num_workers=max(1, int(round(self.num_workers * factor))),
            num_tasks=max(1, int(round(self.num_tasks * factor))),
        )

    @classmethod
    def paper_default(cls, **overrides) -> "SyntheticConfig":
        """The bold default setting of Table 3, with optional overrides."""
        return cls(**overrides)


@dataclass(frozen=True)
class BeijingConfig:
    """Parameters of the Beijing-style taxi workload (Table 4).

    The real DiDi data is proprietary; :class:`BeijingTaxiGenerator`
    synthesises a workload with the same published aggregate shape (see
    :mod:`repro.simulation.taxi` and ``docs/scenarios.md`` for the
    substitution rationale).

    Attributes:
        variant: ``"rush_hour"`` (5–7 pm, dataset #1) or ``"late_night"``
            (0–2 am, dataset #2).
        num_workers: Total workers (paper: 28 210 / 19 006). Defaults are
            scaled down by ``scale`` to keep CI-sized runs tractable.
        num_tasks: Total tasks (paper: 113 372 / 55 659).
        num_periods: ``T = 120`` one-minute periods.
        worker_duration: ``delta_w`` — periods a worker stays available
            (the swept parameter of Fig. 8c–8d).
        worker_radius_km: ``a_w = 3`` km.
        grid_cols: 10 longitude cells of 0.02 degrees.
        grid_rows: 8 latitude cells of 0.02 degrees.
        bounding_box: The paper's lon/lat rectangle.
        price_bounds: Quotable price interval.
        num_hotspots: Number of demand hot spots (rush hour concentrates
            demand; late night scatters it).
        seed: Root seed.
    """

    variant: str = "rush_hour"
    num_workers: int = 28210
    num_tasks: int = 113372
    num_periods: int = 120
    worker_duration: int = 15
    worker_radius_km: float = 3.0
    grid_cols: int = 10
    grid_rows: int = 8
    bounding_box: Tuple[float, float, float, float] = (116.30, 39.84, 116.50, 40.0)
    price_bounds: Tuple[float, float] = (1.0, 5.0)
    num_hotspots: int = 6
    seed: int = 11

    def __post_init__(self) -> None:
        if self.variant not in ("rush_hour", "late_night"):
            raise ValueError("variant must be 'rush_hour' or 'late_night'")
        if self.num_workers <= 0 or self.num_tasks <= 0:
            raise ValueError("num_workers and num_tasks must be positive")
        if self.num_periods <= 0 or self.worker_duration <= 0:
            raise ValueError("num_periods and worker_duration must be positive")
        if self.worker_radius_km <= 0:
            raise ValueError("worker_radius_km must be positive")
        if self.grid_cols <= 0 or self.grid_rows <= 0:
            raise ValueError("grid dimensions must be positive")

    @classmethod
    def dataset_1(cls, **overrides) -> "BeijingConfig":
        """Dataset #1 of Table 4: 5 pm – 7 pm, heavy demand."""
        params = dict(variant="rush_hour", num_workers=28210, num_tasks=113372, seed=11)
        params.update(overrides)
        return cls(**params)

    @classmethod
    def dataset_2(cls, **overrides) -> "BeijingConfig":
        """Dataset #2 of Table 4: 0 am – 2 am, light demand."""
        params = dict(variant="late_night", num_workers=19006, num_tasks=55659, seed=13)
        params.update(overrides)
        return cls(**params)

    def scaled(self, factor: float) -> "BeijingConfig":
        """Scale worker/task counts (benchmarks run scaled-down instances)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(
            self,
            num_workers=max(1, int(round(self.num_workers * factor))),
            num_tasks=max(1, int(round(self.num_tasks * factor))),
        )

    def build_grid(self) -> Grid:
        min_lon, min_lat, max_lon, max_lat = self.bounding_box
        region = BoundingBox(min_lon, min_lat, max_lon, max_lat)
        return Grid(region, self.grid_rows, self.grid_cols)


@dataclass
class WorkloadBundle:
    """A fully generated workload ready for the simulation engine.

    Attributes:
        grid: The pricing grid.
        tasks_by_period: Tasks issued in each period (index 0 .. T-1).
        workers_by_period: Workers *appearing* in each period (the engine
            keeps unmatched workers available in later periods).
        acceptance: Ground-truth per-grid acceptance models.
        metric: Distance metric name used by the workload (``euclidean`` or
            ``haversine``).
        price_bounds: The quotable price interval for this workload.
        description: Human-readable label for reports.
    """

    grid: Grid
    tasks_by_period: List[List[Task]]
    workers_by_period: List[List[Worker]]
    acceptance: PerGridAcceptance
    metric: str = "euclidean"
    price_bounds: Tuple[float, float] = (1.0, 5.0)
    description: str = "workload"

    @property
    def num_periods(self) -> int:
        return len(self.tasks_by_period)

    @property
    def total_tasks(self) -> int:
        return sum(len(tasks) for tasks in self.tasks_by_period)

    @property
    def total_workers(self) -> int:
        return sum(len(workers) for workers in self.workers_by_period)

    def validate(self) -> None:
        """Sanity checks used by tests and the engine."""
        if len(self.tasks_by_period) != len(self.workers_by_period):
            raise ValueError("tasks_by_period and workers_by_period lengths differ")
        for period, tasks in enumerate(self.tasks_by_period):
            for task in tasks:
                if task.period != period:
                    raise ValueError(
                        f"task {task.task_id} stored in period {period} but labelled {task.period}"
                    )

    def demand_grids(self) -> List[int]:
        """Sorted cells holding at least one task anywhere in the horizon.

        The grid list base-price calibration probes for a bundle, and the
        ``demand_grids`` metadata of its
        :func:`~repro.simulation.streaming.workload_to_stream` stream.
        """
        return sorted(
            {
                task.grid_index
                for tasks in self.tasks_by_period
                for task in tasks
                if task.grid_index is not None
            }
        )

    def iter_periods(self) -> Iterator[Tuple[List[Task], List[Worker]]]:
        """Yield ``(tasks, workers)`` per period, in period order.

        The object-level protocol pre-materialised and lazily generated
        workloads share (see :class:`ChunkedWorkload`); the batch period
        loop consumes :meth:`iter_period_columns`.
        """
        for tasks, workers in zip(self.tasks_by_period, self.workers_by_period):
            yield tasks, workers

    def iter_period_columns(self) -> Iterator[Tuple["TaskColumns", "WorkerColumns"]]:
        """Columnar view of the horizon, derived from the object chunks.

        What the batch period loop consumes (and what packs a bundle into
        a :class:`~repro.simulation.arena.WorkloadArena`); bundles have no
        native columns, so this converts period by period.
        """
        from repro.simulation.arena import TaskColumns, WorkerColumns

        for tasks, workers in self.iter_periods():
            yield (
                TaskColumns.from_tasks(tasks, self.grid),
                WorkerColumns.from_workers(workers),
            )


#: Factory returning a fresh per-period ``(tasks, workers)`` iterator.
PeriodChunkSource = Callable[[], Iterator[Tuple[List[Task], List[Worker]]]]


@dataclass
class ChunkedWorkload:
    """A workload generated lazily, one period chunk at a time.

    City-scale horizons (millions of tasks) cannot be pre-materialised the
    way :class:`WorkloadBundle` stores them without holding every task
    object in memory at once.  A chunked workload instead carries a
    *factory* of per-period ``(tasks, workers)`` chunks: each call to
    :meth:`iter_periods` re-generates the horizon deterministically, and
    only one period chunk (plus the engine's worker pool) is alive at any
    time.  It exposes the same market-context fields as
    :class:`WorkloadBundle`, so the batch period loop consumes both
    interchangeably.

    Attributes:
        grid: The pricing grid.
        periods: Zero-argument factory returning a fresh iterator of
            ``(tasks, workers)`` chunks, one per period, in period order.
            Must be deterministic for reproducible runs.
        num_periods: Horizon length (the factory must yield exactly this
            many chunks).
        acceptance: Ground-truth per-grid acceptance models.
        metric: Distance metric name.
        price_bounds: The quotable price interval.
        description: Human-readable label for reports.
        total_tasks_hint: Optional advertised total task count (used by
            throughput reports; the true count is only known after a full
            pass).
        column_periods: Optional zero-argument factory yielding the same
            horizon as columnar ``(TaskColumns, WorkerColumns)`` chunks
            (see :mod:`repro.simulation.arena`).  Generators that build
            arrays natively set this so the engines can skip per-task
            object churn; the object chunks stay available (and must stay
            value-identical) through ``periods``.
    """

    grid: Grid
    periods: PeriodChunkSource
    num_periods: int
    acceptance: PerGridAcceptance
    metric: str = "euclidean"
    price_bounds: Tuple[float, float] = (1.0, 5.0)
    description: str = "chunked workload"
    total_tasks_hint: Optional[int] = None
    column_periods: Optional[Callable[[], Iterator[Tuple["TaskColumns", "WorkerColumns"]]]] = None

    def validate(self) -> None:
        """Cheap structural checks (the chunks themselves stay lazy)."""
        if self.num_periods <= 0:
            raise ValueError("num_periods must be positive")
        if not callable(self.periods):
            raise ValueError("periods must be a zero-argument factory")

    def iter_periods(self) -> Iterator[Tuple[List[Task], List[Worker]]]:
        """Yield ``(tasks, workers)`` per period from a fresh generator pass.

        Raises:
            ValueError: if the factory yields a different number of chunks
                than ``num_periods`` advertises.
        """
        produced = 0
        for chunk in self.periods():
            tasks, workers = chunk
            produced += 1
            if produced > self.num_periods:
                raise ValueError(
                    f"chunk source yielded more than num_periods={self.num_periods} chunks"
                )
            yield tasks, workers
        if produced != self.num_periods:
            raise ValueError(
                f"chunk source yielded {produced} chunks, expected {self.num_periods}"
            )

    def iter_period_columns(self) -> Iterator[Tuple["TaskColumns", "WorkerColumns"]]:
        """Yield columnar ``(TaskColumns, WorkerColumns)`` chunks per period.

        Native columns when the generator provides them, otherwise a
        per-period conversion of the object chunks.  Either way the
        values are identical to :meth:`iter_periods`'s.

        Raises:
            ValueError: if a native column source yields a different
                number of chunks than ``num_periods`` advertises.
        """
        if self.column_periods is None:
            from repro.simulation.arena import TaskColumns, WorkerColumns

            for tasks, workers in self.iter_periods():
                yield (
                    TaskColumns.from_tasks(tasks, self.grid),
                    WorkerColumns.from_workers(workers),
                )
            return
        produced = 0
        for chunk in self.column_periods():
            produced += 1
            if produced > self.num_periods:
                raise ValueError(
                    f"column source yielded more than num_periods={self.num_periods} chunks"
                )
            yield chunk
        if produced != self.num_periods:
            raise ValueError(
                f"column source yielded {produced} chunks, expected {self.num_periods}"
            )

    def materialize(self) -> WorkloadBundle:
        """Expand into a pre-materialised :class:`WorkloadBundle`.

        Intended for small scales (tests, CLI batch runs); at city scale
        this holds the entire horizon in memory, which is exactly what
        chunked generation avoids.
        """
        tasks_by_period: List[List[Task]] = []
        workers_by_period: List[List[Worker]] = []
        for tasks, workers in self.iter_periods():
            tasks_by_period.append(list(tasks))
            workers_by_period.append(list(workers))
        bundle = WorkloadBundle(
            grid=self.grid,
            tasks_by_period=tasks_by_period,
            workers_by_period=workers_by_period,
            acceptance=self.acceptance,
            metric=self.metric,
            price_bounds=self.price_bounds,
            description=self.description,
        )
        bundle.validate()
        return bundle


__all__ = ["SyntheticConfig", "BeijingConfig", "WorkloadBundle", "ChunkedWorkload"]
