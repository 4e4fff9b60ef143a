#!/usr/bin/env python
"""Sharded dispatch over a city-scale workload.

One global bipartite matching per period stops scaling long before a
real city does: the graph spans every district and augmenting paths
wander across all of them.  This example uses the lazily generated
``city_scale`` scenario (one million tasks at scale 1.0; a short slice
of the same per-period density here) to show:

1. driving the ``ShardedEngine`` from a chunked workload — the horizon
   is generated one period chunk at a time, so memory stays bounded at
   any length;
2. the exactness anchor — one shard *is* the batch engine, so the
   chunked one-shard run reproduces the materialised bundle's batch run
   bit for bit;
3. the locality trade — sweeping the shard count and watching
   throughput climb while the halo exchange keeps the boundary revenue
   loss to a few percent.

Run it with::

    python examples/city_scale.py
"""

from __future__ import annotations

import time

from repro import ShardedEngine, SimulationEngine, create_strategy, get_scenario

SCALE = 0.01  # ~4 periods x ~2500 tasks; raise towards 1.0 for the full city
SEED = 0


def run_sharded(workload, num_shards: int, halo: int):
    engine = ShardedEngine(workload, num_shards=num_shards, halo=halo, seed=SEED)
    strategy = create_strategy("BaseP", base_price=2.0)
    start = time.perf_counter()
    result = engine.run(strategy)
    elapsed = time.perf_counter() - start
    return result, elapsed


def main() -> None:
    scenario = get_scenario("city_scale")
    chunked = scenario.chunked(scale=SCALE, seed=SEED)
    print(f"workload: {chunked.description}")

    # 1) one shard == the batch engine, bit for bit -------------------------
    bundle = chunked.materialize()  # fine at this scale; never at scale 1.0
    batch = SimulationEngine(bundle, seed=SEED).run(
        create_strategy("BaseP", base_price=2.0)
    )
    single, _ = run_sharded(chunked, num_shards=1, halo=0)
    assert single.metrics.total_revenue == batch.metrics.total_revenue
    assert single.metrics.served_tasks == batch.metrics.served_tasks
    print(
        f"one shard == batch engine: revenue {single.metrics.total_revenue:.0f}, "
        f"served {single.metrics.served_tasks} (bit-identical)"
    )

    # 2) shard-count sweep --------------------------------------------------
    print()
    print(f"{'shards':>6s} {'halo':>5s} {'seconds':>8s} {'tasks/s':>9s} "
          f"{'revenue':>10s} {'vs global':>9s}")
    baseline_revenue = single.metrics.total_revenue
    for num_shards, halo in ((1, 0), (4, 1), (8, 1)):
        result, elapsed = run_sharded(chunked, num_shards=num_shards, halo=halo)
        metrics = result.metrics
        print(
            f"{num_shards:6d} {halo:5d} {elapsed:8.2f} "
            f"{metrics.total_tasks / elapsed:9.0f} {metrics.total_revenue:10.0f} "
            f"{metrics.total_revenue / baseline_revenue:8.1%}"
        )

    # 3) the halo knob ------------------------------------------------------
    print()
    for halo in (0, 1, 2):
        result, _ = run_sharded(chunked, num_shards=8, halo=halo)
        print(
            f"halo={halo}: served {result.metrics.served_tasks}, "
            f"revenue {result.metrics.total_revenue:.0f}"
        )
    print()
    print("wider halos recover boundary matches; see docs/sharding.md")


if __name__ == "__main__":
    main()
