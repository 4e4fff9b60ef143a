"""Unified scenario registry: every workload family behind one name.

The repository grew three workload families wired up ad hoc — the
synthetic Table-3 generator, the Beijing-style taxi generator and the
hand-assembled food-delivery example.  This module puts them (plus a
natively streaming flash-crowd scenario) behind one decorator-based
registry, mirroring :mod:`repro.pricing.registry`: the CLI,
:class:`ParallelRunner` and the docs all enumerate the same single
source of truth.

Every scenario produces **both** execution modes:

* :meth:`Scenario.bundle` — a pre-materialised :class:`WorkloadBundle`
  for the batch :class:`~repro.simulation.engine.SimulationEngine`;
* :meth:`Scenario.stream` — a timestamped
  :class:`~repro.simulation.streaming.ArrivalStream` for the
  :class:`~repro.simulation.streaming.StreamingEngine`.

Batch-first scenarios derive their stream by unrolling the bundle
(:func:`~repro.simulation.streaming.workload_to_stream`); stream-first
scenarios derive their bundle by binning the stream
(:func:`~repro.simulation.streaming.stream_to_workload`).

Valuations follow one sampling contract everywhere: each request's
valuation consumes exactly one ``uniform`` double of the RNG stream, at
the request's place in that stream, and a batch of uniforms (a bundle,
a period or a chunk) maps through each request's grid inverse CDF in one
:meth:`~repro.market.acceptance.PerGridAcceptance.valuation_quantiles`
call.

Registering a new scenario takes one class::

    @register_scenario
    class MyScenario(Scenario):
        name = "my_scenario"
        description = "what it models"
        paper_ref = "none (original)"

        def bundle(self, scale=1.0, seed=None, **params):
            ...build and return a WorkloadBundle...

Keep ``docs/scenarios.md`` in sync — ``tests/docs`` fails if a registered
name is missing from the doc.

Runnable doctest (the registry itself, no workload generation):

>>> from repro.simulation.scenarios import available_scenarios, get_scenario
>>> available_scenarios()
['beijing_night', 'beijing_rush', 'churn_city', 'city_scale', 'food_delivery', 'hotspot_burst', 'synthetic']
>>> get_scenario("synthetic").paper_ref
'Table 3'
>>> get_scenario("hotspot_burst").native_stream
True
>>> get_scenario("no_such_scenario")
Traceback (most recent call last):
    ...
ValueError: unknown scenario 'no_such_scenario'; registered scenarios: \
beijing_night, beijing_rush, churn_city, city_scale, food_delivery, hotspot_burst, synthetic
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Type

import numpy as np

from repro.market.acceptance import DistributionAcceptanceModel, PerGridAcceptance
from repro.market.entities import Task, Worker
from repro.market.valuation import TruncatedNormalValuation
from repro.simulation.arena import TaskColumns, WorkerColumns
from repro.simulation.config import (
    BeijingConfig,
    ChunkedWorkload,
    SyntheticConfig,
    WorkloadBundle,
)
from repro.simulation.generator import SyntheticWorkloadGenerator
from repro.simulation.streaming import (
    ArrivalEvent,
    ArrivalStream,
    TaskArrival,
    WorkerArrival,
    stream_to_workload,
    workload_to_stream,
)
from repro.simulation.taxi import BeijingTaxiGenerator
from repro.spatial.geometry import BoundingBox, Point
from repro.spatial.grid import Grid
from repro.utils.rng import derive_seed


class Scenario:
    """Base class for registered scenarios.

    Subclasses set the class attributes and implement :meth:`bundle`
    and/or :meth:`stream`; whichever mode is not implemented natively is
    derived from the other, so every scenario supports both.

    Attributes:
        name: Registry key (``--scenario`` value).
        description: One-line summary for ``--help`` and the docs.
        paper_ref: Paper provenance (table/figure/section, or
            ``"none (original)"`` for scenarios beyond the paper).
        native_stream: Whether the scenario generates arrivals as a true
            event stream (as opposed to unrolling a batch workload).
        default_scale: Scale used when the caller does not pick one; the
            paper-sized families default small so CLI runs stay tractable.
        parameters: Extra keyword parameters accepted by
            :meth:`bundle`/:meth:`stream`, documented name -> meaning.
    """

    name: str = ""
    description: str = ""
    paper_ref: str = ""
    native_stream: bool = False
    default_scale: float = 1.0
    parameters: Dict[str, str] = {}

    def bundle(
        self, scale: float = 1.0, seed: Optional[int] = None, **params: object
    ) -> WorkloadBundle:
        """Pre-materialised workload (bin the native stream by default)."""
        if type(self).stream is Scenario.stream:
            raise NotImplementedError(
                f"scenario {self.name!r} must implement bundle() or stream()"
            )
        return stream_to_workload(self.stream(scale=scale, seed=seed, **params))

    def stream(
        self, scale: float = 1.0, seed: Optional[int] = None, **params: object
    ) -> ArrivalStream:
        """Arrival stream (unroll the batch workload by default)."""
        if type(self).bundle is Scenario.bundle:
            raise NotImplementedError(
                f"scenario {self.name!r} must implement bundle() or stream()"
            )
        return workload_to_stream(self.bundle(scale=scale, seed=seed, **params))


_SCENARIOS: Dict[str, Type[Scenario]] = {}


def register_scenario(cls: Type[Scenario]) -> Type[Scenario]:
    """Class decorator registering a :class:`Scenario` under ``cls.name``.

    Re-registering a name overwrites the previous scenario, which lets
    tests swap in instrumented variants.
    """
    key = cls.name.strip().lower()
    if not key:
        raise ValueError("scenario name must be non-empty")
    _SCENARIOS[key] = cls
    return cls


def get_scenario(name: str) -> Scenario:
    """Instantiate a registered scenario by (case-insensitive) name.

    Raises:
        ValueError: for unknown names; the message lists the registered
            scenarios so callers can self-correct.
    """
    key = str(name).strip().lower()
    if key not in _SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; "
            f"registered scenarios: {', '.join(available_scenarios())}"
        )
    return _SCENARIOS[key]()


def available_scenarios() -> List[str]:
    """Names of all registered scenarios, sorted alphabetically."""
    return sorted(_SCENARIOS)


# ---------------------------------------------------------------------------
# paper workload families
# ---------------------------------------------------------------------------
@register_scenario
class SyntheticScenario(Scenario):
    """The paper's synthetic setup (bold entries of Table 3)."""

    name = "synthetic"
    description = "Table-3 synthetic market (Gaussian spatiotemporal demand)"
    paper_ref = "Table 3"
    default_scale = 0.01
    parameters = {
        "temporal_mu": "mean of the tasks' start-time distribution (fraction of horizon)",
        "demand_distribution": "'normal' (default) or 'exponential' (Appendix D)",
    }

    def bundle(
        self, scale: float = 1.0, seed: Optional[int] = None, **params: object
    ) -> WorkloadBundle:
        if not scale > 0:
            raise ValueError("scale must be positive")
        base = SyntheticConfig.paper_default()
        overrides = dict(
            num_workers=max(10, int(round(base.num_workers * scale))),
            num_tasks=max(20, int(round(base.num_tasks * scale))),
            num_periods=max(5, int(round(base.num_periods * scale))),
        )
        if seed is not None:
            overrides["seed"] = int(seed)
        overrides.update(params)
        return SyntheticWorkloadGenerator(replace(base, **overrides)).generate()


class _BeijingScenario(Scenario):
    """Shared machinery of the two Table-4 taxi variants."""

    variant_dataset: int = 1
    default_scale = 0.01
    parameters = {
        "worker_duration": "delta_w, periods a driver stays available (Fig. 8c-8d sweep)",
    }

    def bundle(
        self, scale: float = 1.0, seed: Optional[int] = None, **params: object
    ) -> WorkloadBundle:
        base = (
            BeijingConfig.dataset_1() if self.variant_dataset == 1 else BeijingConfig.dataset_2()
        )
        config = base.scaled(scale)
        overrides = dict(
            num_periods=max(10, int(round(base.num_periods * min(1.0, max(4 * scale, 0.25)))))
        )
        if seed is not None:
            overrides["seed"] = int(seed)
        overrides.update(params)
        return BeijingTaxiGenerator(replace(config, **overrides)).generate()


@register_scenario
class BeijingRushScenario(_BeijingScenario):
    name = "beijing_rush"
    description = "Beijing taxi rush hour, heavy hotspot demand (Table 4 #1)"
    paper_ref = "Table 4, dataset #1 (5-7 pm)"
    variant_dataset = 1


@register_scenario
class BeijingNightScenario(_BeijingScenario):
    name = "beijing_night"
    description = "Beijing taxi late night, sparse scattered demand (Table 4 #2)"
    paper_ref = "Table 4, dataset #2 (0-2 am)"
    variant_dataset = 2


# ---------------------------------------------------------------------------
# beyond-the-paper scenarios
# ---------------------------------------------------------------------------
@register_scenario
class FoodDeliveryScenario(Scenario):
    """A food-delivery lunch rush (the paper's Section 1 motivation).

    Demand concentrates around office districts mid-window and is highly
    price-sensitive; couriers start near restaurant clusters with a short
    service radius.  A library-level port of
    ``examples/food_delivery_campaign.py``.
    """

    name = "food_delivery"
    description = "lunch-rush food delivery: office-district demand, courier supply"
    paper_ref = "Section 1 motivation (Seamless-style platform); none (original workload)"
    parameters = {
        "num_periods": "delivery batches in the 90-minute rush (default 24)",
    }

    CITY_SIDE_KM = 12.0
    NUM_ORDERS = 1800
    NUM_COURIERS = 260
    OFFICE_DISTRICTS = (Point(3.0, 9.0), Point(8.5, 8.0), Point(6.0, 4.0))
    RESTAURANT_CLUSTERS = (
        Point(3.5, 8.0),
        Point(8.0, 7.0),
        Point(6.5, 5.0),
        Point(2.0, 3.0),
    )

    def bundle(
        self, scale: float = 1.0, seed: Optional[int] = None, **params: object
    ) -> WorkloadBundle:
        num_periods = int(params.pop("num_periods", 24))
        if params:
            raise TypeError(f"unexpected scenario parameters: {sorted(params)}")
        if num_periods <= 0 or scale <= 0:
            raise ValueError("num_periods and scale must be positive")
        side = self.CITY_SIDE_KM
        num_orders = max(40, int(round(self.NUM_ORDERS * scale)))
        num_couriers = max(8, int(round(self.NUM_COURIERS * scale)))
        rng = np.random.default_rng(derive_seed(23 if seed is None else int(seed), "food"))
        grid = Grid(BoundingBox.square(side), 6, 6)

        models = {}
        for cell in grid.cells():
            distance_to_center = cell.center.distance_to(Point(side / 2, side / 2))
            mean = 2.4 - 0.08 * distance_to_center + float(rng.normal(0.0, 0.05))
            models[cell.index] = DistributionAcceptanceModel(
                TruncatedNormalValuation(mean=float(np.clip(mean, 1.2, 3.5)), std=0.8)
            )
        acceptance = PerGridAcceptance(
            models=models,
            default=DistributionAcceptanceModel(TruncatedNormalValuation(mean=2.0, std=0.8)),
        )

        tasks_by_period: List[List[Task]] = [[] for _ in range(num_periods)]
        order_periods = np.clip(
            rng.normal(num_periods * 0.55, num_periods * 0.2, size=num_orders),
            0,
            num_periods - 1,
        ).astype(int)
        orders = []
        for _ in range(num_orders):
            district = self.OFFICE_DISTRICTS[int(rng.integers(len(self.OFFICE_DISTRICTS)))]
            origin = Point(
                float(np.clip(district.x + rng.normal(0, 0.8), 0, side)),
                float(np.clip(district.y + rng.normal(0, 0.8), 0, side)),
            )
            hop = rng.uniform(0.5, 3.0)
            angle = rng.uniform(0, 2 * np.pi)
            destination = Point(
                float(np.clip(origin.x + hop * np.cos(angle), 0, side)),
                float(np.clip(origin.y + hop * np.sin(angle), 0, side)),
            )
            # The valuation's uniform is drawn at this point of the stream;
            # every order's uniform maps to its valuation in one call below.
            orders.append((origin, destination, grid.locate(origin), rng.uniform()))
        valuations = acceptance.valuation_quantiles(
            [order[2] for order in orders], [order[3] for order in orders]
        ).tolist()
        for order_id, (origin, destination, grid_index, _) in enumerate(orders):
            period = int(order_periods[order_id])
            tasks_by_period[period].append(
                Task(
                    task_id=order_id,
                    period=period,
                    origin=origin,
                    destination=destination,
                    valuation=valuations[order_id],
                    grid_index=grid_index,
                )
            )

        workers_by_period: List[List[Worker]] = [[] for _ in range(num_periods)]
        courier_periods = np.clip(
            rng.normal(num_periods * 0.3, num_periods * 0.25, size=num_couriers),
            0,
            num_periods - 1,
        ).astype(int)
        for courier_id in range(num_couriers):
            cluster = self.RESTAURANT_CLUSTERS[int(rng.integers(len(self.RESTAURANT_CLUSTERS)))]
            location = Point(
                float(np.clip(cluster.x + rng.normal(0, 1.0), 0, side)),
                float(np.clip(cluster.y + rng.normal(0, 1.0), 0, side)),
            )
            period = int(courier_periods[courier_id])
            workers_by_period[period].append(
                Worker(
                    worker_id=courier_id,
                    period=period,
                    location=location,
                    radius=2.0,
                    duration=10,
                )
            )

        return WorkloadBundle(
            grid=grid,
            tasks_by_period=tasks_by_period,
            workers_by_period=workers_by_period,
            acceptance=acceptance,
            metric="euclidean",
            price_bounds=(1.0, 4.0),
            description=f"food-delivery(|orders|={num_orders}, |couriers|={num_couriers})",
        )


@register_scenario
class HotspotBurstScenario(Scenario):
    """A flash crowd: quiet baseline arrivals, then a demand burst.

    A concert lets out / a storm hits: task arrivals multiply around one
    hotspot cell for a contiguous stretch of the horizon while worker
    supply reacts with a lag.  Natively streaming — events are generated
    on the fly with per-event timestamps — and exposed in batch mode by
    binning the stream at the period length.
    """

    name = "hotspot_burst"
    description = "flash-crowd stream: baseline arrivals with a hotspot demand burst"
    paper_ref = "none (original; stresses the heavy-traffic north star)"
    native_stream = True
    parameters = {
        "num_periods": "horizon length in periods (default 60)",
        "burst_factor": "task-rate multiplier during the burst (default 6.0)",
    }

    REGION_SIDE = 100.0
    GRID_SIDE = 8
    BASE_TASK_RATE = 60.0  # per period at scale 1.0
    BASE_WORKER_RATE = 18.0
    WORKER_RADIUS = 12.0
    WORKER_DURATION = 15

    def stream(
        self, scale: float = 1.0, seed: Optional[int] = None, **params: object
    ) -> ArrivalStream:
        num_periods = int(params.pop("num_periods", 60))
        burst_factor = float(params.pop("burst_factor", 6.0))
        if params:
            raise TypeError(f"unexpected scenario parameters: {sorted(params)}")
        if num_periods <= 0 or burst_factor <= 0 or scale <= 0:
            raise ValueError("num_periods, burst_factor and scale must be positive")
        root_seed = 31 if seed is None else int(seed)
        side = self.REGION_SIDE
        grid = Grid(BoundingBox.square(side), self.GRID_SIDE, self.GRID_SIDE)

        setup_rng = np.random.default_rng(derive_seed(root_seed, "burst-setup"))
        hotspot = Point(
            float(setup_rng.uniform(0.25 * side, 0.75 * side)),
            float(setup_rng.uniform(0.25 * side, 0.75 * side)),
        )
        models = {}
        for cell in grid.cells():
            distance = cell.center.distance_to(hotspot)
            # Captive demand near the hotspot tolerates higher prices.
            mean = 2.0 + 1.2 * np.exp(-distance / (0.3 * side))
            mean = float(np.clip(mean + setup_rng.normal(0.0, 0.1), 1.0, 5.0))
            models[cell.index] = DistributionAcceptanceModel(
                TruncatedNormalValuation(mean=mean, std=1.0, lower=1.0, upper=5.0)
            )
        acceptance = PerGridAcceptance(
            models=models,
            default=DistributionAcceptanceModel(
                TruncatedNormalValuation(mean=2.0, std=1.0, lower=1.0, upper=5.0)
            ),
        )

        burst_start = int(num_periods * 0.4)
        burst_end = int(num_periods * 0.6)
        task_rate = self.BASE_TASK_RATE * scale
        worker_rate = self.BASE_WORKER_RATE * scale

        def _events() -> Iterator[ArrivalEvent]:
            rng = np.random.default_rng(derive_seed(root_seed, "burst-events"))
            task_id = 0
            worker_id = 0
            for period in range(num_periods):
                bursting = burst_start <= period < burst_end
                lagged_burst = burst_start + 2 <= period < burst_end + 4
                num_tasks = int(rng.poisson(task_rate * (burst_factor if bursting else 1.0)))
                num_workers = int(
                    rng.poisson(worker_rate * (1.0 + 0.5 * burst_factor if lagged_burst else 1.0))
                )
                stamped: List[ArrivalEvent] = []
                for _ in range(num_workers):
                    location = Point(
                        float(rng.uniform(0.0, side)), float(rng.uniform(0.0, side))
                    )
                    stamped.append(
                        WorkerArrival(
                            time=period + float(rng.uniform(0.0, 1.0)),
                            worker=Worker(
                                worker_id=worker_id,
                                period=period,
                                location=location,
                                radius=self.WORKER_RADIUS,
                                duration=self.WORKER_DURATION,
                            ),
                        )
                    )
                    worker_id += 1
                requests = []
                for _ in range(num_tasks):
                    # During the burst, 80% of demand erupts near the hotspot.
                    if bursting and rng.random() < 0.8:
                        origin = Point(
                            float(np.clip(hotspot.x + rng.normal(0.0, 0.05 * side), 0.0, side)),
                            float(np.clip(hotspot.y + rng.normal(0.0, 0.05 * side), 0.0, side)),
                        )
                    else:
                        origin = Point(
                            float(rng.uniform(0.0, side)), float(rng.uniform(0.0, side))
                        )
                    destination = Point(
                        float(rng.uniform(0.0, side)), float(rng.uniform(0.0, side))
                    )
                    time = period + float(rng.uniform(0.0, 1.0))
                    # The valuation's uniform is drawn at this point of the
                    # stream; the period's uniforms map in one call below.
                    requests.append((origin, destination, grid.locate(origin), rng.uniform(), time))
                valuations = acceptance.valuation_quantiles(
                    [request[2] for request in requests], [request[3] for request in requests]
                ).tolist()
                for (origin, destination, grid_index, _, time), valuation in zip(
                    requests, valuations
                ):
                    stamped.append(
                        TaskArrival(
                            time=time,
                            task=Task(
                                task_id=task_id,
                                period=period,
                                origin=origin,
                                destination=destination,
                                valuation=valuation,
                                grid_index=grid_index,
                            ),
                        )
                    )
                    task_id += 1
                stamped.sort(key=lambda event: event.time)
                for event in stamped:
                    yield event

        def _demand_grids() -> List[int]:
            # One deterministic pass over the event factory: the same
            # demand-cell set a batch pre-scan would find, computed only
            # when calibration asks for it.
            return sorted(
                {
                    event.task.grid_index
                    for event in _events()
                    if isinstance(event, TaskArrival)
                    and event.task.grid_index is not None
                }
            )

        return ArrivalStream(
            grid=grid,
            acceptance=acceptance,
            events=_events,
            metric="euclidean",
            price_bounds=(1.0, 5.0),
            description=(
                f"hotspot-burst(T={num_periods}, rate={task_rate:.1f}/period, "
                f"burst x{burst_factor:g})"
            ),
            horizon=float(num_periods),
            demand_grids=_demand_grids,
        )


@register_scenario
class ChurnCityScenario(Scenario):
    """A high-churn market: long-lived requests, short-lived workers.

    The stress workload for the dynamic (delta-repair) dispatch engine:
    tasks stay open for several dispatch windows (each carries an
    explicit ``Task.duration``), workers come online for short shifts and
    depart again, so every window the standing population both gains and
    loses members — the churn delta the
    :class:`~repro.simulation.streaming.DynamicStreamingEngine` repairs
    around.  With the defaults roughly ``2 / task_lifetime`` (~20%) of
    the standing task population turns over per unit window.  Natively
    streaming; the batch view bins arrivals like any other stream-first
    scenario (batch engines ignore task durations).
    """

    name = "churn_city"
    description = "high-churn stream: multi-window task lifetimes, short worker shifts"
    paper_ref = "none (original; stresses dynamic delta-repair dispatch)"
    native_stream = True
    parameters = {
        "num_periods": "horizon length in periods (default 50)",
        "task_lifetime": "mean periods a request stays open (default 8.0)",
        "worker_lifetime": "mean periods a worker shift lasts (default 6.0)",
    }

    REGION_SIDE = 80.0
    GRID_SIDE = 8
    BASE_TASK_RATE = 40.0  # per period at scale 1.0
    BASE_WORKER_RATE = 30.0
    WORKER_RADIUS = 14.0
    NUM_DISTRICTS = 6

    def stream(
        self, scale: float = 1.0, seed: Optional[int] = None, **params: object
    ) -> ArrivalStream:
        num_periods = int(params.pop("num_periods", 50))
        task_lifetime = float(params.pop("task_lifetime", 8.0))
        worker_lifetime = float(params.pop("worker_lifetime", 6.0))
        if params:
            raise TypeError(f"unexpected scenario parameters: {sorted(params)}")
        if min(num_periods, task_lifetime, worker_lifetime, scale) <= 0:
            raise ValueError(
                "num_periods, task_lifetime, worker_lifetime and scale "
                "must be positive"
            )
        root_seed = 53 if seed is None else int(seed)
        side = self.REGION_SIDE
        grid = Grid(BoundingBox.square(side), self.GRID_SIDE, self.GRID_SIDE)

        setup_rng = np.random.default_rng(derive_seed(root_seed, "churn-setup"))
        districts = [
            Point(
                float(setup_rng.uniform(0.2 * side, 0.8 * side)),
                float(setup_rng.uniform(0.2 * side, 0.8 * side)),
            )
            for _ in range(self.NUM_DISTRICTS)
        ]
        models = {}
        for cell in grid.cells():
            distance = min(cell.center.distance_to(spot) for spot in districts)
            mean = 2.0 + 1.0 * np.exp(-distance / (0.25 * side))
            mean = float(np.clip(mean + setup_rng.normal(0.0, 0.08), 1.2, 4.5))
            models[cell.index] = DistributionAcceptanceModel(
                TruncatedNormalValuation(mean=mean, std=1.0, lower=1.0, upper=5.0)
            )
        acceptance = PerGridAcceptance(
            models=models,
            default=DistributionAcceptanceModel(
                TruncatedNormalValuation(mean=2.0, std=1.0, lower=1.0, upper=5.0)
            ),
        )

        task_rate = self.BASE_TASK_RATE * scale
        worker_rate = self.BASE_WORKER_RATE * scale

        def _events() -> Iterator[ArrivalEvent]:
            rng = np.random.default_rng(derive_seed(root_seed, "churn-events"))
            task_id = 0
            worker_id = 0
            for period in range(num_periods):
                stamped: List[ArrivalEvent] = []
                num_workers = int(rng.poisson(worker_rate))
                for _ in range(num_workers):
                    # Shifts jitter around the mean but always span at
                    # least one period, so departures spread over the
                    # horizon instead of synchronising.
                    shift = max(
                        1, int(round(worker_lifetime * rng.uniform(0.5, 1.5)))
                    )
                    stamped.append(
                        WorkerArrival(
                            time=period + float(rng.uniform(0.0, 1.0)),
                            worker=Worker(
                                worker_id=worker_id,
                                period=period,
                                location=Point(
                                    float(rng.uniform(0.0, side)),
                                    float(rng.uniform(0.0, side)),
                                ),
                                radius=self.WORKER_RADIUS,
                                duration=shift,
                            ),
                        )
                    )
                    worker_id += 1
                num_tasks = int(rng.poisson(task_rate))
                requests = []
                for _ in range(num_tasks):
                    district = districts[int(rng.integers(len(districts)))]
                    origin = Point(
                        float(np.clip(district.x + rng.normal(0.0, 0.1 * side), 0.0, side)),
                        float(np.clip(district.y + rng.normal(0.0, 0.1 * side), 0.0, side)),
                    )
                    destination = Point(
                        float(rng.uniform(0.0, side)), float(rng.uniform(0.0, side))
                    )
                    time = period + float(rng.uniform(0.0, 1.0))
                    # The valuation's uniform is drawn at this point of the
                    # stream; the period's uniforms map in one call below.
                    uniform = rng.uniform()
                    duration = float(task_lifetime * rng.uniform(0.5, 1.5))
                    requests.append((origin, destination, grid.locate(origin), uniform, time, duration))
                valuations = acceptance.valuation_quantiles(
                    [request[2] for request in requests], [request[3] for request in requests]
                ).tolist()
                for (origin, destination, grid_index, _, time, duration), valuation in zip(
                    requests, valuations
                ):
                    stamped.append(
                        TaskArrival(
                            time=time,
                            task=Task(
                                task_id=task_id,
                                period=period,
                                origin=origin,
                                destination=destination,
                                valuation=valuation,
                                grid_index=grid_index,
                                duration=duration,
                            ),
                        )
                    )
                    task_id += 1
                stamped.sort(key=lambda event: event.time)
                for event in stamped:
                    yield event

        def _demand_grids() -> List[int]:
            return sorted(
                {
                    event.task.grid_index
                    for event in _events()
                    if isinstance(event, TaskArrival)
                    and event.task.grid_index is not None
                }
            )

        return ArrivalStream(
            grid=grid,
            acceptance=acceptance,
            events=_events,
            metric="euclidean",
            price_bounds=(1.0, 5.0),
            description=(
                f"churn-city(T={num_periods}, rate={task_rate:.1f}/period, "
                f"lifetime~{task_lifetime:g}, shift~{worker_lifetime:g})"
            ),
            horizon=float(num_periods),
            demand_grids=_demand_grids,
        )


@register_scenario
class CityScaleScenario(Scenario):
    """A city-scale horizon: one million tasks at scale 1.0.

    The ROADMAP's "heavy traffic" north star made concrete: a dense city
    where every period carries thousands of tasks whose demand mixes a
    uniform background with a handful of hotspot districts (captive
    demand near hotspots tolerates higher prices).  Per-period *density*
    is a property of the city, so ``scale`` stretches or shrinks the
    **horizon length** instead of thinning the traffic — benchmarks at
    any scale exercise the same per-period market the sharded engine is
    built for.

    The workload is generated **lazily in period chunks**
    (:meth:`chunked` returns a
    :class:`~repro.simulation.config.ChunkedWorkload`): each period
    derives its own RNG stream from ``(seed, "city-period", period)``,
    so a full 1M-task pass holds only one chunk plus the worker pool in
    memory and any chunk can be regenerated independently.
    :meth:`bundle` materialises the chunks (small scales only) and
    :meth:`stream` unrolls them into timestamped arrivals without ever
    materialising the horizon.
    """

    name = "city_scale"
    description = "city-scale dense market, ~1M tasks at scale 1.0 (sharding stress)"
    paper_ref = "none (original; the ROADMAP 'heavy traffic' north star)"
    default_scale = 0.01
    parameters = {
        "num_periods": "horizon override in periods (default round(400 * scale))",
        "tasks_per_period": "mean task arrivals per period (default 2500)",
        "workers_per_period": "mean worker arrivals per period (default 1200)",
    }

    REGION_SIDE = 100.0
    GRID_SIDE = 16
    NUM_PERIODS = 400
    TASKS_PER_PERIOD = 2500
    WORKERS_PER_PERIOD = 1200
    WORKER_RADIUS = 15.0
    WORKER_DURATION = 8
    NUM_HOTSPOTS = 12

    def chunked(
        self, scale: float = 1.0, seed: Optional[int] = None, **params: object
    ) -> ChunkedWorkload:
        """The lazily generated workload (the sharded engine's native input)."""
        tasks_per_period = int(params.pop("tasks_per_period", self.TASKS_PER_PERIOD))
        workers_per_period = int(
            params.pop("workers_per_period", self.WORKERS_PER_PERIOD)
        )
        num_periods = params.pop("num_periods", None)
        if params:
            raise TypeError(f"unexpected scenario parameters: {sorted(params)}")
        if scale <= 0:
            raise ValueError("scale must be positive")
        if num_periods is None:
            num_periods = max(2, int(round(self.NUM_PERIODS * scale)))
        num_periods = int(num_periods)
        if num_periods <= 0 or tasks_per_period <= 0 or workers_per_period <= 0:
            raise ValueError(
                "num_periods, tasks_per_period and workers_per_period must be positive"
            )
        root_seed = 47 if seed is None else int(seed)
        side = self.REGION_SIDE
        grid = Grid(BoundingBox.square(side), self.GRID_SIDE, self.GRID_SIDE)

        setup_rng = np.random.default_rng(derive_seed(root_seed, "city-setup"))
        hotspots = [
            Point(
                float(setup_rng.uniform(0.15 * side, 0.85 * side)),
                float(setup_rng.uniform(0.15 * side, 0.85 * side)),
            )
            for _ in range(self.NUM_HOTSPOTS)
        ]
        models = {}
        for cell in grid.cells():
            distance = min(cell.center.distance_to(spot) for spot in hotspots)
            mean = 2.0 + 1.0 * np.exp(-distance / (0.25 * side))
            mean = float(np.clip(mean + setup_rng.normal(0.0, 0.08), 1.2, 4.5))
            models[cell.index] = DistributionAcceptanceModel(
                TruncatedNormalValuation(mean=mean, std=1.0, lower=1.0, upper=5.0)
            )
        acceptance = PerGridAcceptance(
            models=models,
            default=DistributionAcceptanceModel(
                TruncatedNormalValuation(mean=2.0, std=1.0, lower=1.0, upper=5.0)
            ),
        )
        hotspot_xs = np.array([spot.x for spot in hotspots])
        hotspot_ys = np.array([spot.y for spot in hotspots])
        radius = self.WORKER_RADIUS
        duration = self.WORKER_DURATION

        def _column_chunks() -> Iterator[tuple]:
            for period in range(num_periods):
                rng = np.random.default_rng(
                    derive_seed(root_seed, "city-period", period)
                )
                num_tasks = int(rng.poisson(tasks_per_period))
                num_workers = int(rng.poisson(workers_per_period))
                # Half the demand erupts around the hotspot districts,
                # the rest is uniform background traffic: dense everywhere
                # (the whole city is busy), denser near the districts.
                spot_choice = rng.integers(len(hotspots), size=num_tasks)
                near_spot = rng.random(num_tasks) < 0.5
                xs = np.where(
                    near_spot,
                    hotspot_xs[spot_choice] + rng.normal(0.0, 0.12 * side, num_tasks),
                    rng.uniform(0.0, side, num_tasks),
                )
                ys = np.where(
                    near_spot,
                    hotspot_ys[spot_choice] + rng.normal(0.0, 0.12 * side, num_tasks),
                    rng.uniform(0.0, side, num_tasks),
                )
                xs = np.clip(xs, 0.0, side)
                ys = np.clip(ys, 0.0, side)
                hops = rng.uniform(0.5, 8.0, num_tasks)
                angles = rng.uniform(0.0, 2.0 * np.pi, num_tasks)
                dest_xs = np.clip(xs + hops * np.cos(angles), 0.0, side)
                dest_ys = np.clip(ys + hops * np.sin(angles), 0.0, side)
                cells = grid.locate_many(xs, ys)
                # Valuations by batched inverse-transform sampling: the
                # scalar path drew `uniform(size=n)` per demanded cell in
                # ascending cell order and mapped through that cell's
                # truncnorm ppf, so one uniform draw in cell-sorted task
                # order plus one array-parameter inverse-CDF call consumes
                # the same stream and yields bit-identical valuations.
                valuations = np.empty(num_tasks, dtype=np.float64)
                order = np.argsort(cells, kind="stable")
                valuations[order] = acceptance.valuation_quantiles(
                    cells[order], rng.uniform(size=num_tasks)
                )
                task_base = period * 10_000_000
                task_cols = TaskColumns(
                    period=period,
                    task_ids=np.arange(task_base, task_base + num_tasks, dtype=np.int64),
                    xs=xs,
                    ys=ys,
                    dest_xs=dest_xs,
                    dest_ys=dest_ys,
                    # Scalar math.hypot per task: np.hypot drifts by 1 ulp
                    # from the libm hypot Task.__post_init__ would call,
                    # and the distances feed matching weights that must be
                    # bit-identical to the object path.  The differences
                    # are exact float64 either way; only hypot is scalar.
                    distances=np.fromiter(
                        map(
                            math.hypot,
                            (xs - dest_xs).tolist(),
                            (ys - dest_ys).tolist(),
                        ),
                        dtype=np.float64,
                        count=num_tasks,
                    ),
                    valuations=valuations,
                    has_valuation=np.ones(num_tasks, dtype=bool),
                    cells=cells,
                )
                worker_cols = WorkerColumns(
                    worker_ids=np.arange(
                        task_base, task_base + num_workers, dtype=np.int64
                    ),
                    periods=np.full(num_workers, period, dtype=np.int64),
                    xs=rng.uniform(0.0, side, num_workers),
                    ys=rng.uniform(0.0, side, num_workers),
                    radii=np.full(num_workers, radius, dtype=np.float64),
                    durations=np.full(num_workers, duration, dtype=np.int64),
                )
                yield task_cols, worker_cols

        def _chunks() -> Iterator[tuple]:
            for task_cols, worker_cols in _column_chunks():
                yield task_cols.to_tasks(), worker_cols.to_workers()

        return ChunkedWorkload(
            grid=grid,
            periods=_chunks,
            column_periods=_column_chunks,
            num_periods=num_periods,
            acceptance=acceptance,
            metric="euclidean",
            price_bounds=(1.0, 5.0),
            description=(
                f"city-scale(T={num_periods}, ~{tasks_per_period}/period, "
                f"~{num_periods * tasks_per_period} tasks)"
            ),
            total_tasks_hint=num_periods * tasks_per_period,
        )

    def bundle(
        self, scale: float = 1.0, seed: Optional[int] = None, **params: object
    ) -> WorkloadBundle:
        """Materialised chunks — small scales only (1M tasks won't fit)."""
        return self.chunked(scale=scale, seed=seed, **params).materialize()

    def stream(
        self, scale: float = 1.0, seed: Optional[int] = None, **params: object
    ) -> ArrivalStream:
        """Unroll the chunks into timestamped arrivals, staying lazy."""
        chunked = self.chunked(scale=scale, seed=seed, **params)

        def _demand_grids() -> List[int]:
            # Columnar pass: cells come straight off the generated
            # arrays, so the scan never materialises task objects.
            seen: set = set()
            for task_cols, _ in chunked.column_periods():
                seen.update(int(cell) for cell in np.unique(task_cols.cells))
            return sorted(seen)

        return replace(workload_to_stream(chunked), demand_grids=_demand_grids)


__all__ = [
    "Scenario",
    "available_scenarios",
    "get_scenario",
    "register_scenario",
    "BeijingNightScenario",
    "BeijingRushScenario",
    "ChurnCityScenario",
    "CityScaleScenario",
    "FoodDeliveryScenario",
    "HotspotBurstScenario",
    "SyntheticScenario",
]
