"""Synthetic workload generation (Table 3 of the paper).

The generator reproduces the paper's synthetic setup:

* all locations live in a ``region_side x region_side`` square
  (paper: 100 x 100);
* start times of tasks and workers follow a normal distribution over the
  horizon — the *temporal distribution*; the experiments vary the tasks'
  mean while the workers' mean stays at the middle of the horizon;
* origins of tasks and workers follow a two-dimensional Gaussian — the
  *spatial distribution* — whose mean is ``spatial_mean * (side, side)``;
* task destinations are uniform over the region;
* private valuations follow the *demand distribution*: a normal
  distribution (mean 1.0–3.0, std 0.5–2.5) conditioned on ``[1, 5]``, or an
  exponential distribution for the Appendix D experiment; every grid uses
  a slightly perturbed mean so grids genuinely differ, matching the paper's
  statement that "the valuations v_r are drawn from each normal
  distribution w.r.t. the mean of g".  Valuations have their own RNG
  stream: one ``uniform`` per task in task order, mapped through each
  task's grid inverse CDF in one call
  (:meth:`~repro.market.acceptance.PerGridAcceptance.valuation_quantiles`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.market.acceptance import DistributionAcceptanceModel, PerGridAcceptance
from repro.market.entities import Task, Worker
from repro.market.valuation import (
    ExponentialValuation,
    TruncatedNormalValuation,
    ValuationDistribution,
)
from repro.simulation.config import SyntheticConfig, WorkloadBundle
from repro.spatial.geometry import Point
from repro.spatial.grid import Grid
from repro.utils.rng import derive_seed


class SyntheticWorkloadGenerator:
    """Generates :class:`WorkloadBundle` objects from a :class:`SyntheticConfig`."""

    def __init__(self, config: SyntheticConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(self) -> WorkloadBundle:
        """Generate the full workload (tasks, workers, acceptance models)."""
        config = self.config
        grid = config.build_grid()
        acceptance = self._build_acceptance(grid)

        task_rng = np.random.default_rng(derive_seed(config.seed, "tasks"))
        worker_rng = np.random.default_rng(derive_seed(config.seed, "workers"))
        valuation_rng = np.random.default_rng(derive_seed(config.seed, "valuations"))

        tasks_by_period: List[List[Task]] = [[] for _ in range(config.num_periods)]
        workers_by_period: List[List[Worker]] = [[] for _ in range(config.num_periods)]

        task_periods = self._sample_periods(task_rng, config.num_tasks, config.temporal_mu)
        task_origins = self._sample_locations(task_rng, config.num_tasks, config.spatial_mean)
        task_destinations = self._sample_uniform_locations(task_rng, config.num_tasks)

        task_grids = [grid.locate(origin) for origin in task_origins]
        valuations = acceptance.valuation_quantiles(
            task_grids, valuation_rng.uniform(size=config.num_tasks)
        ).tolist()
        for task_id in range(config.num_tasks):
            period = task_periods[task_id]
            task = Task(
                task_id=task_id,
                period=period,
                origin=task_origins[task_id],
                destination=task_destinations[task_id],
                valuation=valuations[task_id],
                grid_index=task_grids[task_id],
            )
            tasks_by_period[period].append(task)

        # Worker start times are centred at the middle of the horizon
        # (the experiments only shift the task distribution's mean).
        worker_periods = self._sample_periods(worker_rng, config.num_workers, 0.5)
        worker_locations = self._sample_locations(worker_rng, config.num_workers, 0.5)
        for worker_id in range(config.num_workers):
            worker = Worker(
                worker_id=worker_id,
                period=worker_periods[worker_id],
                location=worker_locations[worker_id],
                radius=config.worker_radius,
            )
            workers_by_period[worker_periods[worker_id]].append(worker)

        bundle = WorkloadBundle(
            grid=grid,
            tasks_by_period=tasks_by_period,
            workers_by_period=workers_by_period,
            acceptance=acceptance,
            metric="euclidean",
            price_bounds=config.price_bounds,
            description=self._describe(),
        )
        bundle.validate()
        return bundle

    # ------------------------------------------------------------------
    # sampling helpers
    # ------------------------------------------------------------------
    def _sample_periods(self, rng: np.random.Generator, count: int, mu_fraction: float) -> np.ndarray:
        """Start periods from a normal distribution over the horizon."""
        config = self.config
        mean = mu_fraction * (config.num_periods - 1)
        std = max(1e-6, config.temporal_sigma * config.num_periods)
        raw = rng.normal(mean, std, size=count)
        periods = np.clip(np.rint(raw), 0, config.num_periods - 1).astype(int)
        return periods

    def _sample_locations(self, rng: np.random.Generator, count: int, mean_fraction: float) -> List[Point]:
        """Origins from a 2-D Gaussian clipped to the region."""
        config = self.config
        side = config.region_side
        mean = mean_fraction * side
        std = max(1e-6, config.spatial_sigma * side)
        xs = np.clip(rng.normal(mean, std, size=count), 0.0, side)
        ys = np.clip(rng.normal(mean, std, size=count), 0.0, side)
        return [Point(float(x), float(y)) for x, y in zip(xs, ys)]

    def _sample_uniform_locations(self, rng: np.random.Generator, count: int) -> List[Point]:
        side = self.config.region_side
        xs = rng.uniform(0.0, side, size=count)
        ys = rng.uniform(0.0, side, size=count)
        return [Point(float(x), float(y)) for x, y in zip(xs, ys)]

    def _build_acceptance(self, grid: Grid) -> PerGridAcceptance:
        """One valuation distribution per grid, perturbed around the config mean."""
        config = self.config
        low, high = config.valuation_bounds
        rng = np.random.default_rng(derive_seed(config.seed, "grid-demand"))
        models: Dict[int, DistributionAcceptanceModel] = {}
        for cell in grid.cells():
            distribution = self._grid_distribution(rng, low, high)
            models[cell.index] = DistributionAcceptanceModel(distribution)
        default = DistributionAcceptanceModel(self._grid_distribution(rng, low, high))
        return PerGridAcceptance(models=models, default=default)

    def _grid_distribution(
        self, rng: np.random.Generator, low: float, high: float
    ) -> ValuationDistribution:
        config = self.config
        if config.demand_distribution == "exponential":
            # Perturb the rate mildly so grids differ but stay comparable.
            rate = max(0.05, config.demand_rate * float(rng.uniform(0.9, 1.1)))
            return ExponentialValuation(rate=rate, shift=low, upper=high)
        mean = float(
            np.clip(config.demand_mu + rng.normal(0.0, 0.15 * config.demand_sigma), low, high)
        )
        return TruncatedNormalValuation(
            mean=mean, std=config.demand_sigma, lower=low, upper=high
        )

    def _describe(self) -> str:
        config = self.config
        return (
            f"synthetic(|W|={config.num_workers}, |R|={config.num_tasks}, "
            f"T={config.num_periods}, G={config.num_grids}, a_w={config.worker_radius}, "
            f"demand={config.demand_distribution})"
        )


__all__ = ["SyntheticWorkloadGenerator"]
