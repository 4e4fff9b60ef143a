"""The match stage over accepted rows equals the match over the full graph.

A deferred period graph (:meth:`PeriodInstance.from_columns` with
``build_graph=False``) is built by the match stage over the accepted
tasks' rows only.  Renumbering task positions to accepted rows is
monotone, so on random instances — capped and uncapped, with rejected
tasks, ties in weight and empty sides — the pairing (``task_to_worker``,
in order) and the ``repr`` of the total must equal the match over the
eagerly built full graph with the rejected rows masked out.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.gdp import PeriodInstance
from repro.market.entities import Worker
from repro.simulation.arena import TaskColumns
from repro.simulation.pipeline import DecideResult, PeriodPipeline
from repro.spatial.geometry import BoundingBox, Point
from repro.spatial.grid import Grid

SIDE = 6.0
GRID = Grid(BoundingBox.square(SIDE), 3, 3)
#: Coarse coordinates and distances make equal weights and equidistant
#: workers (degree-cap ties) common.
COORD = st.integers(0, 12).map(lambda k: k * SIDE / 12)


@st.composite
def period_instances(draw):
    num_tasks = draw(st.integers(0, 12))
    num_workers = draw(st.integers(0, 8))
    xs = np.array(draw(st.lists(COORD, min_size=num_tasks, max_size=num_tasks)))
    ys = np.array(draw(st.lists(COORD, min_size=num_tasks, max_size=num_tasks)))
    distances = np.array(
        draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=num_tasks, max_size=num_tasks))
    )
    prices = np.array(
        draw(st.lists(st.sampled_from([1.0, 1.5, 2.0]), min_size=num_tasks, max_size=num_tasks))
    )
    accepted = np.array(
        draw(st.lists(st.booleans(), min_size=num_tasks, max_size=num_tasks)), dtype=bool
    )
    workers = [
        Worker(
            worker_id=pos,
            period=0,
            location=Point(draw(COORD), draw(COORD)),
            radius=draw(st.sampled_from([1.0, 2.5, 6.0])),
        )
        for pos in range(num_workers)
    ]
    columns = TaskColumns(
        period=0,
        task_ids=np.arange(num_tasks, dtype=np.int64),
        xs=xs.astype(np.float64),
        ys=ys.astype(np.float64),
        dest_xs=xs.astype(np.float64),
        dest_ys=ys.astype(np.float64),
        distances=distances.astype(np.float64),
        valuations=np.full(num_tasks, np.nan),
        has_valuation=np.zeros(num_tasks, dtype=bool),
        cells=GRID.locate_many(xs, ys) if num_tasks else np.zeros(0, dtype=np.int64),
    )
    max_degree = draw(st.sampled_from([None, 1, 2, 3]))
    decision = DecideResult(prices=prices.astype(np.float64), accepted=accepted)
    return columns, workers, max_degree, decision


def _instance(columns, workers, max_degree, build_graph):
    return PeriodInstance.from_columns(
        period=0,
        grid=GRID,
        task_columns=columns,
        workers=workers,
        max_degree=max_degree,
        build_graph=build_graph,
    )


@given(period_instances())
def test_accepted_row_match_equals_full_graph_match(case):
    columns, workers, max_degree, decision = case
    pipeline = PeriodPipeline(price_bounds=(1.0, 2.0), acceptance=None)
    full = _instance(columns, workers, max_degree, build_graph=True)
    deferred = _instance(columns, workers, max_degree, build_graph=False)

    expected, expected_total = pipeline.match(full, decision)
    matching, total = pipeline.match(deferred, decision)

    # The deferred instance matched on its accepted rows, never building
    # the full graph.
    assert not deferred.graph.materialised
    assert list(matching.items()) == list(expected.items())
    assert repr(total) == repr(expected_total)


@given(period_instances())
def test_accepted_rows_are_the_full_graphs_rows(case):
    columns, workers, max_degree, decision = case
    full = _instance(columns, workers, max_degree, build_graph=True).graph.csr()
    rows = decision.accepted_positions
    graph = _instance(columns, workers, max_degree, build_graph=False).rows_graph(rows)
    assert graph.num_tasks == rows.size
    assert graph.num_workers == len(workers)
    csr = graph.csr()
    for row, task_pos in enumerate(rows.tolist()):
        assert csr.neighbors(row).tolist() == full.neighbors(task_pos).tolist()
