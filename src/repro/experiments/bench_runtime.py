"""End-to-end runtime measurement: the compounded shard × matching × plane.

PR 3 (spatial sharding) and PR 4 (array-native matching) each bought a
multiplier in isolation; the zero-copy columnar runtime exists to make
them *compound*.  This protocol measures exactly that: full end-to-end
``city_scale`` throughput — lazy generation, partitioning, quoting,
deciding, matching, halo reconciliation, feedback — for the compound
configuration ``--shards 8 --max-degree 16`` across two configurations:

* ``pr4-baseline`` — the frozen pre-columnar generation cost model:
  per-cell scipy valuation sampling and object chunks (the generation
  loop below is a verbatim copy of the object ``city_scale`` generator,
  kept as the measurement reference), exact ``matroid`` matching on the
  capped graph.  Only that frozen generator remains of the old plane:
  its object chunks are converted to columns period by period and
  dispatched through the engine's one shard loop.  Values produced are
  bit-identical to the shipping generator's, so revenue comparisons
  are apples-to-apples;
* ``columnar`` — the same algorithms over the native columnar
  generator (struct-of-arrays chunks, batched valuation sampling);
  **bit-identical revenue** to the baseline by construction.

Two consumers share it: ``benchmarks/test_bench_runtime.py`` (CI smoke
gate at a small horizon — the columnar plane must beat the PR 4
baseline by the required factor at bit-identical revenue) and
``tools/bench_to_json.py --benchmark runtime`` (the full 1M-task
``BENCH_runtime.json`` trajectory point).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.experiments.host import host_fingerprint
from repro.pricing.registry import create_strategy
from repro.simulation.config import ChunkedWorkload
from repro.simulation.scenarios import get_scenario
from repro.simulation.sharded import ShardedEngine
from repro.market.entities import Task, Worker
from repro.spatial.geometry import Point
from repro.utils.rng import derive_seed

#: Measurement configurations, in presentation order.  Each maps to
#: whether it runs the frozen object generator.
RUNTIME_CONFIGS: Dict[str, bool] = {
    "pr4-baseline": True,
    "columnar": False,
}


@dataclass(frozen=True)
class RuntimeBenchPoint:
    """One measured end-to-end configuration."""

    config: str
    shards: int
    halo: int
    max_degree: Optional[int]
    seconds: float
    total_tasks: int
    tasks_per_second: float
    revenue: float
    served: int


def _pr4_workload(scale: float, seed: int, **params: object) -> ChunkedWorkload:
    """The ``city_scale`` workload under the frozen PR 4 generation model.

    Reconstructs the scenario's market (same grid, hotspots and
    acceptance models — the setup RNG stream is unchanged) and replays
    the PR 3/PR 4 chunk loop verbatim: one scipy ``truncnorm`` dispatch
    per demanded cell per period and fully materialised ``Task`` /
    ``Worker`` objects.  The produced values are bit-identical to the
    shipping generator's (the batched sampler consumes the same RNG
    stream), so this workload isolates the *cost* of the old data plane
    without changing the market.
    """
    scenario = get_scenario("city_scale")
    # Density overrides must reach BOTH the shipped setup and the replay
    # loop below, or the baseline would measure a different market.
    tasks_per_period = int(params.get("tasks_per_period", scenario.TASKS_PER_PERIOD))
    workers_per_period = int(
        params.get("workers_per_period", scenario.WORKERS_PER_PERIOD)
    )
    shipped = scenario.chunked(scale=scale, seed=seed, **params)
    grid = shipped.grid
    side = scenario.REGION_SIDE
    root_seed = 47 if seed is None else int(seed)

    setup_rng = np.random.default_rng(derive_seed(root_seed, "city-setup"))
    hotspots = [
        Point(
            float(setup_rng.uniform(0.15 * side, 0.85 * side)),
            float(setup_rng.uniform(0.15 * side, 0.85 * side)),
        )
        for _ in range(scenario.NUM_HOTSPOTS)
    ]
    hotspot_xs = np.array([spot.x for spot in hotspots])
    hotspot_ys = np.array([spot.y for spot in hotspots])
    models = {
        cell.index: shipped.acceptance.model_for(cell.index)
        for cell in grid.cells()
    }
    num_periods = shipped.num_periods
    radius = scenario.WORKER_RADIUS
    duration = scenario.WORKER_DURATION

    def _chunks() -> Iterator[tuple]:
        for period in range(num_periods):
            rng = np.random.default_rng(derive_seed(root_seed, "city-period", period))
            num_tasks = int(rng.poisson(tasks_per_period))
            num_workers = int(rng.poisson(workers_per_period))
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
            valuations = np.empty(num_tasks, dtype=np.float64)
            for grid_index in np.unique(cells).tolist():
                positions = np.flatnonzero(cells == grid_index)
                valuations[positions] = models[grid_index].distribution.sample(
                    rng, size=int(positions.size)
                )
            tasks = []
            task_base = period * 10_000_000
            for pos in range(num_tasks):
                tasks.append(
                    Task(
                        task_id=task_base + pos,
                        period=period,
                        origin=Point(float(xs[pos]), float(ys[pos])),
                        destination=Point(float(dest_xs[pos]), float(dest_ys[pos])),
                        valuation=float(valuations[pos]),
                        grid_index=int(cells[pos]),
                    )
                )
            worker_xs = rng.uniform(0.0, side, num_workers)
            worker_ys = rng.uniform(0.0, side, num_workers)
            workers = [
                Worker(
                    worker_id=task_base + pos,
                    period=period,
                    location=Point(float(worker_xs[pos]), float(worker_ys[pos])),
                    radius=radius,
                    duration=duration,
                )
                for pos in range(num_workers)
            ]
            yield tasks, workers

    return ChunkedWorkload(
        grid=grid,
        periods=_chunks,
        num_periods=num_periods,
        acceptance=shipped.acceptance,
        metric=shipped.metric,
        price_bounds=shipped.price_bounds,
        description=f"{shipped.description} [pr4 plane]",
        total_tasks_hint=shipped.total_tasks_hint,
    )


def measure_runtime_throughput(
    scale: float,
    configs: Sequence[str] = tuple(RUNTIME_CONFIGS),
    shards: int = 8,
    halo: int = 1,
    max_degree: Optional[int] = 16,
    seed: int = 0,
    strategy: str = "BaseP",
    base_price: float = 2.0,
    num_periods: Optional[int] = None,
) -> Dict[str, object]:
    """Measure compound end-to-end throughput across data planes.

    Args:
        scale: ``city_scale`` horizon scale (1.0 = the ~1M-task horizon).
        configs: Configuration names from :data:`RUNTIME_CONFIGS`.
        shards: Shard count of the compound configuration.
        halo: Halo band width for boundary reconciliation.
        max_degree: Per-task adjacency cap (the compound default is 16).
        seed: Workload and engine seed.
        strategy: Pricing strategy driving every run.
        base_price: Base price handed to the strategy.
        num_periods: Optional horizon override forwarded to the scenario.

    Returns:
        A JSON-ready payload: per-configuration measurements plus speedup
        and revenue ratios relative to the first configuration.
    """
    unknown = [name for name in configs if name not in RUNTIME_CONFIGS]
    if unknown:
        raise ValueError(
            f"unknown runtime configs {unknown}; choose from {sorted(RUNTIME_CONFIGS)}"
        )
    scenario = get_scenario("city_scale")
    params = {} if num_periods is None else {"num_periods": num_periods}
    results: List[RuntimeBenchPoint] = []
    for name in configs:
        if RUNTIME_CONFIGS[name]:
            workload = _pr4_workload(scale, seed, **params)
        else:
            workload = scenario.chunked(scale=scale, seed=seed, **params)
        engine = ShardedEngine(
            workload,
            num_shards=shards,
            halo=halo if shards > 1 else 0,
            seed=seed,
            max_degree=max_degree,
        )
        start = time.perf_counter()
        run = engine.run(create_strategy(strategy, base_price=base_price))
        elapsed = time.perf_counter() - start
        results.append(
            RuntimeBenchPoint(
                config=name,
                shards=int(shards),
                halo=int(halo if shards > 1 else 0),
                max_degree=max_degree,
                seconds=elapsed,
                total_tasks=run.metrics.total_tasks,
                tasks_per_second=run.metrics.total_tasks / elapsed,
                revenue=run.metrics.total_revenue,
                served=run.metrics.served_tasks,
            )
        )

    baseline = results[0]
    speedups = {
        point.config: point.tasks_per_second / baseline.tasks_per_second
        for point in results
    }
    revenue_ratios = {
        point.config: (point.revenue / baseline.revenue if baseline.revenue else 1.0)
        for point in results
    }
    return {
        "benchmark": "end_to_end_runtime",
        "scenario": "city_scale",
        "scale": float(scale),
        "seed": int(seed),
        "strategy": strategy,
        "shards": int(shards),
        "halo": int(halo),
        "max_degree": max_degree,
        "baseline_config": baseline.config,
        "total_tasks": baseline.total_tasks,
        "results": [asdict(point) for point in results],
        "speedup_vs_baseline": speedups,
        "revenue_ratio_vs_baseline": revenue_ratios,
        "host": host_fingerprint(),
    }


__all__ = [
    "RuntimeBenchPoint",
    "RUNTIME_CONFIGS",
    "measure_runtime_throughput",
]
