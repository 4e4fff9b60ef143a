"""Ablation benchmarks for the reproduction's design choices.

These are not paper figures; they quantify the contribution of individual
components of the reproduction:

* ``matching`` — the exact matroid-greedy matching vs. the dense SciPy
  solver;
* ``UCB vs. exploitation`` — MAPS with the UCB confidence radius of
  Algorithm 3 vs. a pure-exploitation variant;
* ``Eq. (1) approximation quality`` — the planner's L-approximation of the
  per-grid expected revenue vs. an exact possible-world evaluation on small
  instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import effective_scale
from repro.core.maximizer import exploitation_demand_table
from repro.experiments.figures import scaled_synthetic_config
from repro.market.curves import revenue_approximation
from repro.market.entities import Task, Worker
from repro.matching.bipartite import build_bipartite_graph
from repro.matching.possible_worlds import exact_expected_revenue
from repro.matching.weighted import max_weight_matching, scipy_max_weight_matching
from repro.pricing.maps_strategy import MAPSStrategy
from repro.simulation.engine import SimulationEngine
from repro.simulation.generator import SyntheticWorkloadGenerator
from repro.spatial.geometry import Point
from repro.spatial.grid import Grid


def _workload(scale: float, seed: int = 21):
    config = scaled_synthetic_config(scale, seed=seed)
    return SyntheticWorkloadGenerator(config).generate()


@pytest.mark.benchmark(group="ablation")
def test_ablation_matching_backends(benchmark):
    """The matroid greedy agrees with the dense exact solver."""
    rng = np.random.default_rng(0)
    grid = Grid.square(100.0, 10)
    tasks = [
        Task(
            task_id=i,
            period=0,
            origin=Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            destination=Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
        )
        for i in range(120)
    ]
    workers = [
        Worker(
            worker_id=j,
            period=0,
            location=Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            radius=15.0,
        )
        for j in range(60)
    ]
    graph = build_bipartite_graph(tasks, workers, grid=grid)
    weights = [task.distance * 2.0 for task in tasks]

    def run_matroid():
        return max_weight_matching(graph, weights)[1]

    matroid_total = benchmark(run_matroid)
    scipy_total = scipy_max_weight_matching(graph, weights)[1]

    print("\n### Ablation: matching (total matched weight)")
    print(f"matroid greedy+augmentation : {matroid_total:10.2f}  (exact, used by the engine)")
    print(f"scipy linear_sum_assignment : {scipy_total:10.2f}  (exact, dense oracle)")

    assert matroid_total == pytest.approx(scipy_total, rel=1e-9)


#: (UCB, exploitation) revenue of the ablation at its default scale.
ABLATION_PIN = (4283.202595259875, 4230.516699941374)


@pytest.mark.benchmark(group="ablation")
def test_ablation_ucb_vs_exploitation(benchmark):
    """The UCB exploration term of Algorithm 3 vs. pure exploitation."""
    scale = effective_scale(0.01)
    workload = _workload(scale)
    engine = SimulationEngine(workload, seed=3)
    calibration = engine.calibrate_base_price()

    def run_both():
        ucb = engine.run(MAPSStrategy.from_calibration(calibration))
        greedy = engine.run(
            MAPSStrategy.from_calibration(
                calibration, demand_table=exploitation_demand_table
            )
        )
        return ucb.total_revenue, greedy.total_revenue

    ucb_revenue, greedy_revenue = benchmark.pedantic(run_both, rounds=1, iterations=1)

    print("\n### Ablation: UCB index vs. pure exploitation in Algorithm 3")
    print(f"MAPS with UCB index      : {ucb_revenue:10.1f}")
    print(f"MAPS without exploration : {greedy_revenue:10.1f}")
    # Exploitation-only can get stuck on stale estimates; it must not be
    # dramatically better than the UCB variant (and is usually worse).
    assert ucb_revenue >= 0.9 * greedy_revenue
    if scale == 0.01:
        # Exact: swapping the demand table must not move one plan.
        assert (ucb_revenue, greedy_revenue) == ABLATION_PIN


@pytest.mark.benchmark(group="ablation")
def test_ablation_revenue_approximation_quality(benchmark):
    """Eq. (1)'s L-approximation vs. exact possible-world expected revenue."""
    rng = np.random.default_rng(5)
    errors = []

    def evaluate():
        errors.clear()
        for _ in range(20):
            num_tasks = int(rng.integers(2, 9))
            distances = sorted(rng.uniform(0.5, 3.0, size=num_tasks), reverse=True)
            supply = int(rng.integers(1, num_tasks + 1))
            price = float(rng.choice([1.0, 2.0, 3.0]))
            ratio = float(rng.uniform(0.3, 0.95))
            # Exact computation on a graph with `supply` interchangeable workers.
            tasks = [
                Task(
                    task_id=i,
                    period=0,
                    origin=Point(0.0, 0.0),
                    destination=Point(float(d), 0.0),
                    distance=float(d),
                )
                for i, d in enumerate(distances)
            ]
            workers = [
                Worker(worker_id=j, period=0, location=Point(0.0, 0.0), radius=10.0)
                for j in range(supply)
            ]
            graph = build_bipartite_graph(tasks, workers)
            exact = exact_expected_revenue(graph, [price] * num_tasks, [ratio] * num_tasks)
            approx = revenue_approximation(distances, supply, price, ratio)
            errors.append(abs(approx - exact) / max(exact, 1e-9))
        return float(np.mean(errors))

    mean_relative_error = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    print("\n### Ablation: Eq. (1) approximation vs. exact expected revenue")
    print(f"mean relative error over 20 random local markets: {mean_relative_error:.3f}")
    # Theorem 10 bounds the gap; on small markets the approximation should
    # stay within ~35% of the exact expectation on average.
    assert mean_relative_error < 0.35
