"""Matching hot-path throughput measurement, shared by bench and tooling.

One measurement protocol feeds two consumers:

* ``benchmarks/test_bench_matching.py`` — the tier-1 gate asserting the
  degree-capped hot path beats the exact path by the required factor at
  bounded revenue loss (small horizon, CI-sized);
* ``tools/bench_to_json.py --benchmark matching`` — the writer that
  records the full-size trajectory point (``BENCH_matching.json``), so
  future perf PRs have a baseline to be measured against.

The measured quantity is end-to-end **single-shard** system throughput in
tasks per second on the ``city_scale`` scenario — the same protocol as
``BENCH_sharded.json``'s 1-shard row, so the two files compose: shard
speedups multiply the per-shard constants measured here.

Each measured *configuration* names one point on the exactness/speed
curve:

* ``vectorized`` — the array-native graph builder (the engines' only
  builder), exact matroid matching: the baseline;
* ``capped-<K>`` — vectorized builder with ``max_degree=K`` (K nearest
  workers per task), exact matching on the capped graph.

Parts combine with ``+`` (e.g. ``vectorized+capped-8``).  Points recorded
before the scalar loop builder was deleted also carry a ``loop`` row.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.host import host_fingerprint
from repro.pricing.registry import create_strategy
from repro.simulation.scenarios import get_scenario
from repro.simulation.sharded import ShardedEngine

#: Configurations the CI gate measures (baseline first).
DEFAULT_CONFIGS = ("vectorized", "capped-16", "capped-8")


@dataclass(frozen=True)
class MatchingBenchPoint:
    """One measured hot-path configuration."""

    config: str
    max_degree: Optional[int]
    seconds: float
    total_tasks: int
    tasks_per_second: float
    revenue: float
    served: int


@dataclass(frozen=True)
class _ConfigSpec:
    name: str
    max_degree: Optional[int]


def parse_config(name: str) -> _ConfigSpec:
    """Parse a configuration name like ``vectorized+capped-8`` (see module doc)."""
    max_degree: Optional[int] = None
    for part in name.split("+"):
        part = part.strip()
        if part == "vectorized":
            pass
        elif part.startswith("capped-"):
            max_degree = int(part[len("capped-") :])
        else:
            raise ValueError(
                f"unknown hot-path configuration part {part!r} in {name!r}"
            )
    return _ConfigSpec(name=name, max_degree=max_degree)


def measure_matching_throughput(
    scale: float,
    configs: Sequence[str] = DEFAULT_CONFIGS,
    seed: int = 0,
    strategy: str = "BaseP",
    base_price: float = 2.0,
    num_periods: Optional[int] = None,
) -> Dict[str, object]:
    """Measure single-shard city-scale throughput across configurations.

    Args:
        scale: ``city_scale`` horizon scale (1.0 = the 1M-task horizon).
        configs: Configuration names (see :func:`parse_config`); the
            first one is the speedup baseline.
        seed: Workload and engine seed.
        strategy: Pricing strategy name (a cheap non-learning strategy
            keeps the measurement graph/matching-dominated).
        base_price: Base price handed to the strategy.
        num_periods: Optional horizon override forwarded to the scenario.

    Returns:
        A JSON-ready payload: per-configuration measurements plus speedup
        and revenue ratios relative to the baseline configuration.
    """
    scenario = get_scenario("city_scale")
    params = {} if num_periods is None else {"num_periods": num_periods}
    results: List[MatchingBenchPoint] = []
    for name in configs:
        spec = parse_config(name)
        workload = scenario.chunked(scale=scale, seed=seed, **params)
        engine = ShardedEngine(
            workload,
            num_shards=1,
            halo=0,
            seed=seed,
            max_degree=spec.max_degree,
        )
        start = time.perf_counter()
        run = engine.run(create_strategy(strategy, base_price=base_price))
        elapsed = time.perf_counter() - start
        results.append(
            MatchingBenchPoint(
                config=spec.name,
                max_degree=spec.max_degree,
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
        point.config: (
            point.revenue / baseline.revenue if baseline.revenue else 1.0
        )
        for point in results
    }
    return {
        "benchmark": "matching_hot_path_throughput",
        "host": host_fingerprint(),
        "scenario": "city_scale",
        "scale": float(scale),
        "seed": int(seed),
        "strategy": strategy,
        "shards": 1,
        "baseline_config": baseline.config,
        "total_tasks": baseline.total_tasks,
        "results": [asdict(point) for point in results],
        "speedup_vs_baseline": speedups,
        "revenue_ratio_vs_baseline": revenue_ratios,
    }


__all__ = [
    "DEFAULT_CONFIGS",
    "MatchingBenchPoint",
    "measure_matching_throughput",
    "parse_config",
]
