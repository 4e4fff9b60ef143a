"""Golden pin of MAPS on a many-grid synthetic workload.

The other MAPS pins run on grids of a few dozen cells, so the planner's
queue never holds more than a handful of entries.  ``fig7-G`` at
``G = 625`` (a 25 x 25 pricing grid) keeps up to about a hundred grids
with demand in one period.  The whole-horizon revenue ``repr`` and the
served and accepted counts of MAPS through the simulation engine are
pinned exactly, as recorded before the planner's queue moved to
:mod:`heapq`.  Equal gains are rare on this workload, so the tie-break
itself is fuzzed in ``tests/property/test_maps_planner.py``.
"""

from __future__ import annotations

from repro.experiments.figures import FIGURES
from repro.pricing.registry import calibrated_kwargs, create_strategy
from repro.simulation.engine import SimulationEngine

#: ``fig7-G`` sweep value (the number of grids) and the workload scale.
GRIDS = 625
SCALE = 0.25
#: (revenue repr, served tasks, accepted tasks, total tasks) at seed 0.
PINNED = ("104991.11003553079", 1237, 3839, 5000)


def test_maps_on_625_grids_is_pinned():
    workload = FIGURES["fig7-G"].factory(GRIDS, SCALE)
    assert workload.grid.num_cells == GRIDS
    engine = SimulationEngine(workload, seed=0)
    calibration = engine.calibrate_base_price()
    p_min, p_max = workload.price_bounds
    strategy = create_strategy(
        "MAPS", **calibrated_kwargs("MAPS", calibration, p_min=p_min, p_max=p_max)
    )
    metrics = engine.run(strategy).metrics
    assert (
        repr(metrics.total_revenue),
        metrics.served_tasks,
        metrics.accepted_tasks,
        metrics.total_tasks,
    ) == PINNED
