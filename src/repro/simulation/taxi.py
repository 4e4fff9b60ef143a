"""Synthetic Beijing-style taxi workload (substitute for the DiDi data).

The paper's real-data experiments use proprietary taxi-calling records from
a large Chinese ride-hailing platform (July–December 2016, Beijing).  The
records themselves are not available, but the paper documents their
aggregate shape (Table 4 and Section 5.1):

* bounding box ``(116.30, 39.84) – (116.50, 40.0)``, 10 x 8 grid of
  0.02° x 0.02° cells, 120 one-minute periods, worker radius 3 km;
* dataset #1 (5–7 pm): heavy demand — 113 372 requests vs. 28 210 drivers,
  demand concentrated around business/transport hot spots;
* dataset #2 (0–2 am): light demand — 55 659 requests vs. 19 006 drivers,
  demand sparse and scattered (night-life areas, airport);
* valuations are *censored*: the platform only knows whether the requester
  accepted the historical price, so valuations must be reconstructed as
  "a random value greater than the set price" on acceptance and below it
  on rejection;
* the swept parameter is the worker availability duration
  ``delta_w ∈ {5, 10, 15, 20, 25}`` periods.

:class:`BeijingTaxiGenerator` synthesises a workload with exactly these
aggregate characteristics, which preserves the behaviour the experiment
demonstrates (spatially fragmented markets, limited and dependent supply,
heavier shortages at night), while being fully reproducible offline.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.market.acceptance import DistributionAcceptanceModel, PerGridAcceptance
from repro.market.entities import Task, Worker
from repro.market.valuation import TruncatedNormalValuation
from repro.simulation.config import BeijingConfig, WorkloadBundle
from repro.spatial.geometry import Point
from repro.spatial.grid import Grid
from repro.utils.rng import derive_seed

#: Approximate kilometres per degree of longitude at Beijing's latitude
#: (40° N) and per degree of latitude.  The generator uses them to place
#: hotspot spreads and trip destinations given in kilometres.  They are
#: planar approximations, not bounds on the haversine metric: range
#: queries size their cell rectangles with
#: :func:`repro.spatial.geometry.coordinate_spans` instead.
KM_PER_DEGREE_LAT = 111.32
KM_PER_DEGREE_LON = 111.32 * math.cos(math.radians(40.0))


class BeijingTaxiGenerator:
    """Generates Beijing-style taxi workloads matching Table 4's aggregates."""

    def __init__(self, config: BeijingConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(self) -> WorkloadBundle:
        """Generate the workload.

        Geography and timing come from one RNG stream; valuations come
        from their own stream, one ``uniform`` per task in task order,
        mapped through each task's grid inverse CDF in one call once every
        task's grid is known (:meth:`PerGridAcceptance.valuation_quantiles`).
        """
        config = self.config
        grid = config.build_grid()
        rng = np.random.default_rng(derive_seed(config.seed, "beijing", config.variant))

        hotspots = self._demand_hotspots(rng, grid)
        acceptance = self._build_acceptance(grid, hotspots, rng)
        weights = np.array([w for _, w in hotspots])
        weights = weights / weights.sum()

        tasks_by_period: List[List[Task]] = [[] for _ in range(config.num_periods)]
        workers_by_period: List[List[Worker]] = [[] for _ in range(config.num_periods)]

        task_periods = self._task_periods(rng)
        trips: List[Tuple[Point, Point, int]] = []
        for _ in range(config.num_tasks):
            origin = self._sample_demand_location(rng, hotspots, weights)
            destination = self._sample_destination(rng, origin)
            trips.append((origin, destination, grid.locate(origin)))
        valuation_rng = np.random.default_rng(derive_seed(config.seed, "beijing-valuations"))
        valuations = acceptance.valuation_quantiles(
            [grid_index for _, _, grid_index in trips],
            valuation_rng.uniform(size=config.num_tasks),
        ).tolist()
        for task_id, (origin, destination, grid_index) in enumerate(trips):
            period = int(task_periods[task_id])
            task = Task(
                task_id=task_id,
                period=period,
                origin=origin,
                destination=destination,
                distance=self._trip_distance_km(origin, destination),
                valuation=valuations[task_id],
                grid_index=grid_index,
            )
            tasks_by_period[period].append(task)

        worker_periods = rng.integers(0, config.num_periods, size=config.num_workers)
        for worker_id in range(config.num_workers):
            location = self._sample_supply_location(rng, hotspots, weights)
            worker = Worker(
                worker_id=worker_id,
                period=int(worker_periods[worker_id]),
                location=location,
                radius=config.worker_radius_km,
                duration=config.worker_duration,
            )
            workers_by_period[int(worker_periods[worker_id])].append(worker)

        bundle = WorkloadBundle(
            grid=grid,
            tasks_by_period=tasks_by_period,
            workers_by_period=workers_by_period,
            acceptance=acceptance,
            metric="haversine",
            price_bounds=config.price_bounds,
            description=f"beijing-{config.variant}(|W|={config.num_workers}, |R|={config.num_tasks})",
        )
        bundle.validate()
        return bundle

    # ------------------------------------------------------------------
    # demand / supply geography
    # ------------------------------------------------------------------
    def _demand_hotspots(self, rng: np.random.Generator, grid: Grid) -> List[Tuple[Point, float]]:
        """Hot spot centres and weights.

        Rush hour concentrates most demand in a few strong hot spots
        (office districts, railway stations); late night spreads demand
        thinly with weak hot spots (night-life areas).
        """
        config = self.config
        region = grid.region
        count = config.num_hotspots
        centers = [
            Point(
                float(rng.uniform(region.min_x, region.max_x)),
                float(rng.uniform(region.min_y, region.max_y)),
            )
            for _ in range(count)
        ]
        if config.variant == "rush_hour":
            weights = rng.dirichlet(np.full(count, 0.5))
        else:
            weights = rng.dirichlet(np.full(count, 2.0))
        return list(zip(centers, [float(w) for w in weights]))

    def _sample_demand_location(
        self,
        rng: np.random.Generator,
        hotspots: List[Tuple[Point, float]],
        weights: np.ndarray,
    ) -> Point:
        config = self.config
        min_lon, min_lat, max_lon, max_lat = config.bounding_box
        # Rush hour: 85% of demand from hot spots; late night: 50%.
        hotspot_share = 0.85 if config.variant == "rush_hour" else 0.5
        if rng.random() < hotspot_share:
            choice = int(rng.choice(len(hotspots), p=weights))
            center, _ = hotspots[choice]
            spread_km = 1.0 if self.config.variant == "rush_hour" else 2.0
            lon = center.x + rng.normal(0.0, spread_km / KM_PER_DEGREE_LON)
            lat = center.y + rng.normal(0.0, spread_km / KM_PER_DEGREE_LAT)
        else:
            lon = rng.uniform(min_lon, max_lon)
            lat = rng.uniform(min_lat, max_lat)
        return Point(min(max(lon, min_lon), max_lon), min(max(lat, min_lat), max_lat))

    def _sample_supply_location(
        self,
        rng: np.random.Generator,
        hotspots: List[Tuple[Point, float]],
        weights: np.ndarray,
    ) -> Point:
        """Drivers roughly follow demand but more diffusely (they cruise)."""
        config = self.config
        min_lon, min_lat, max_lon, max_lat = config.bounding_box
        if rng.random() < 0.5:
            choice = int(rng.choice(len(hotspots), p=weights))
            center, _ = hotspots[choice]
            lon = center.x + rng.normal(0.0, 3.0 / KM_PER_DEGREE_LON)
            lat = center.y + rng.normal(0.0, 3.0 / KM_PER_DEGREE_LAT)
        else:
            lon = rng.uniform(min_lon, max_lon)
            lat = rng.uniform(min_lat, max_lat)
        return Point(min(max(lon, min_lon), max_lon), min(max(lat, min_lat), max_lat))

    def _sample_destination(self, rng: np.random.Generator, origin: Point) -> Point:
        """Trip destinations: log-normal trip length in a random direction."""
        config = self.config
        min_lon, min_lat, max_lon, max_lat = config.bounding_box
        trip_km = min(max(rng.lognormal(mean=1.2, sigma=0.5), 0.5), 20.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        lon = origin.x + (trip_km * math.cos(angle)) / KM_PER_DEGREE_LON
        lat = origin.y + (trip_km * math.sin(angle)) / KM_PER_DEGREE_LAT
        return Point(min(max(lon, min_lon), max_lon), min(max(lat, min_lat), max_lat))

    def _trip_distance_km(self, origin: Point, destination: Point) -> float:
        dlon_km = (destination.x - origin.x) * KM_PER_DEGREE_LON
        dlat_km = (destination.y - origin.y) * KM_PER_DEGREE_LAT
        return max(0.1, math.hypot(dlon_km, dlat_km))

    # ------------------------------------------------------------------
    # temporal and demand models
    # ------------------------------------------------------------------
    def _task_periods(self, rng: np.random.Generator) -> np.ndarray:
        """Request arrival times.

        Rush hour demand ramps up towards the second hour (people leaving
        work); late-night demand decays over the window (bars closing).
        """
        config = self.config
        if config.variant == "rush_hour":
            raw = rng.beta(2.0, 1.5, size=config.num_tasks)
        else:
            raw = rng.beta(1.2, 2.5, size=config.num_tasks)
        periods = np.clip(
            (raw * config.num_periods).astype(int), 0, config.num_periods - 1
        )
        return periods

    def _build_acceptance(
        self,
        grid: Grid,
        hotspots: List[Tuple[Point, float]],
        rng: np.random.Generator,
    ) -> PerGridAcceptance:
        """Per-grid valuation distributions.

        Riders in under-served late-night areas tolerate higher prices;
        rush-hour riders in well-served areas are more price sensitive.
        The per-grid mean valuation grows with the grid's distance from the
        strongest hot spot (a proxy for scarcity of alternatives), which
        reproduces the paper's observation that valuations reconstructed
        from accept/reject logs vary across the city.
        """
        config = self.config
        low, high = 1.0, 5.0
        strongest = max(hotspots, key=lambda pair: pair[1])[0]
        min_lon, min_lat, max_lon, max_lat = config.bounding_box
        diag = math.hypot(
            (max_lon - min_lon) * KM_PER_DEGREE_LON, (max_lat - min_lat) * KM_PER_DEGREE_LAT
        )
        base_mean = 2.6 if config.variant == "late_night" else 2.2
        models: Dict[int, DistributionAcceptanceModel] = {}
        for cell in grid.cells():
            center = cell.center
            distance_km = math.hypot(
                (center.x - strongest.x) * KM_PER_DEGREE_LON,
                (center.y - strongest.y) * KM_PER_DEGREE_LAT,
            )
            mean = base_mean + 0.8 * (distance_km / max(diag, 1e-9))
            mean = min(max(mean + rng.normal(0.0, 0.1), low), high)
            models[cell.index] = DistributionAcceptanceModel(
                TruncatedNormalValuation(mean=mean, std=1.0, lower=low, upper=high)
            )
        default = DistributionAcceptanceModel(
            TruncatedNormalValuation(mean=base_mean, std=1.0, lower=low, upper=high)
        )
        return PerGridAcceptance(models=models, default=default)


__all__ = ["BeijingTaxiGenerator", "KM_PER_DEGREE_LAT", "KM_PER_DEGREE_LON"]
