"""Benchmarks regenerating Fig. 8 of the paper.

Fig. 8 covers the effect of the worker radius ``a_w``, the scalability test
with ``|W| = |R|`` up to 500k, and the two Beijing taxi datasets (rush hour
and late night) while varying the worker availability duration ``delta_w``.
The Beijing data itself is proprietary; the synthetic Beijing-style
generator of ``repro.simulation.taxi`` (see ``docs/scenarios.md``)
reproduces its published aggregate shape.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import (
    assert_maps_competitive,
    assert_series_increasing,
    run_figure,
)


@pytest.mark.benchmark(group="fig8")
def test_fig8_vary_radius(benchmark):
    """Fig. 8 col. 1: varying the worker service radius a_w."""
    result = run_figure("fig8-aw", default_scale=0.01, benchmark=benchmark, seed=9)
    assert_maps_competitive(result)
    # A larger radius adds edges to the bipartite graph: revenue rises and
    # saturates, so the largest radius must beat the smallest one.
    for strategy in ("MAPS", "BaseP"):
        series = result.revenue_series(strategy)
        assert series[-1] >= series[0]


@pytest.mark.benchmark(group="fig8")
def test_fig8_scalability(benchmark):
    """Fig. 8 col. 2: scalability with |W| = |R| growing to 500k (scaled down)."""
    result = run_figure("fig8-scale", default_scale=0.002, benchmark=benchmark, seed=10)
    assert_maps_competitive(result)
    # Revenue grows with the market size; MAPS pricing time grows with it
    # (it computes a matching) while BaseP stays essentially flat.
    assert_series_increasing(result, "MAPS")
    maps_time = result.time_series("MAPS")
    assert maps_time[-1] >= maps_time[0]


@pytest.mark.benchmark(group="fig8")
def test_fig8_beijing_rush_hour(benchmark):
    """Fig. 8 col. 3: Beijing dataset #1 (5pm-7pm), varying worker duration."""
    result = run_figure("fig8-real1", default_scale=0.004, benchmark=benchmark, seed=11)
    assert_maps_competitive(result)
    # Longer availability = more supply = more revenue (saturating).
    assert_series_increasing(result, "MAPS")


@pytest.mark.benchmark(group="fig8")
def test_fig8_beijing_late_night(benchmark):
    """Fig. 8 col. 4: Beijing dataset #2 (0am-2am), varying worker duration."""
    result = run_figure("fig8-real2", default_scale=0.004, benchmark=benchmark, seed=12)
    assert_maps_competitive(result)
    assert_series_increasing(result, "MAPS")
    # Late-night supply is tight: dynamic strategies that model limited
    # supply (MAPS, CappedUCB) must not lose to naive SDR here.
    for value in result.parameter_values:
        assert result.cell(value, "MAPS").revenue >= result.cell(value, "SDR").revenue
