"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section at a reduced scale (each module states its default scale;
``docs/paper_map.md`` maps figures to benchmarks).  The scale can be raised with the
``REPRO_BENCH_SCALE`` environment variable, e.g.::

    REPRO_BENCH_SCALE=0.05 pytest benchmarks/ --benchmark-only -s

``-s`` shows the regenerated revenue/time/memory tables on stdout.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence

import pytest

from repro.experiments.figures import get_figure
from repro.experiments.report import format_series, format_winner_summary
from repro.experiments.sweeps import ExperimentResult, run_sweep

#: Multiplier applied to each benchmark's default scale.
SCALE_MULTIPLIER = float(os.environ.get("REPRO_BENCH_SCALE_MULTIPLIER", "1.0"))

#: Hard override of the scale for every benchmark (takes precedence).
SCALE_OVERRIDE = os.environ.get("REPRO_BENCH_SCALE")


def effective_scale(default_scale: float) -> float:
    """The scale a benchmark should run at, honouring the env overrides."""
    if SCALE_OVERRIDE is not None:
        return float(SCALE_OVERRIDE)
    return default_scale * SCALE_MULTIPLIER


def run_figure(
    figure_id: str,
    default_scale: float,
    benchmark,
    seed: int = 0,
    values: Optional[Sequence[object]] = None,
    track_memory: bool = True,
) -> ExperimentResult:
    """Run one figure's sweep inside pytest-benchmark and print its tables."""
    spec = get_figure(figure_id)
    sweep = spec.build_sweep(
        scale=effective_scale(default_scale),
        values=values,
        seed=seed,
        track_memory=track_memory,
    )
    result_holder: Dict[str, ExperimentResult] = {}

    def run_once() -> None:
        result_holder["result"] = run_sweep(sweep)

    benchmark.pedantic(run_once, rounds=1, iterations=1)
    result = result_holder["result"]
    print()
    print(f"### {spec.title}")
    print(f"### expectation: {spec.expectation}")
    print(format_series(result, metrics=("revenue", "time", "memory")))
    print(format_winner_summary(result))
    return result


def assert_maps_competitive(
    result: ExperimentResult,
    slack: float = 0.82,
    aggregate_slack: float = 0.95,
) -> None:
    """MAPS must match the paper's qualitative claim of being on top.

    Two checks are applied:

    * per parameter value, MAPS stays within ``slack`` of the best strategy
      (at benchmark scale — hundreds of tasks rather than tens of thousands
      — sampling noise can let a heuristic edge ahead at isolated extreme
      settings, so the per-point band is generous);
    * summed over the whole sweep, MAPS stays within ``aggregate_slack`` of
      the best aggregate strategy, which is the paper's headline shape.
    """
    for value in result.parameter_values:
        maps_revenue = result.cell(value, "MAPS").revenue
        best = max(result.cell(value, name).revenue for name in result.strategies)
        assert maps_revenue >= slack * best, (
            f"MAPS not competitive at {result.parameter_name}={value}: "
            f"{maps_revenue:.1f} vs best {best:.1f}"
        )
    maps_total = sum(result.revenue_series("MAPS"))
    best_total = max(sum(result.revenue_series(name)) for name in result.strategies)
    assert maps_total >= aggregate_slack * best_total, (
        f"MAPS aggregate revenue {maps_total:.1f} below "
        f"{aggregate_slack:.0%} of the best aggregate {best_total:.1f}"
    )


def assert_series_increasing(
    result: ExperimentResult, strategy: str = "MAPS", slack: float = 0.85
) -> None:
    """The strategy's revenue should (weakly) grow along the sweep."""
    series = result.revenue_series(strategy)
    for earlier, later in zip(series, series[1:]):
        assert later >= slack * earlier, f"series not increasing: {series}"
