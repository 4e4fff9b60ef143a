"""MAPS's demand tables, pinned to the array forms they replaced.

:func:`~repro.core.maximizer.ucb_demand_table` and
:func:`~repro.core.maximizer.exploitation_demand_table` read the
estimator's ladder in one plain-Python pass.  The functions below are
the earlier numpy bodies, kept verbatim as oracles over the estimator's
public :meth:`~repro.learning.estimator.GridAcceptanceEstimator.snapshots`;
every table must be ``repr``-equal to theirs, prices and values, for
untested rungs, an estimator with no offers at all (``N = 0``) and one
with a single offer (``ln N = 0``) included.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.maximizer import exploitation_demand_table, ucb_demand_table
from repro.learning.estimator import GridAcceptanceEstimator
from repro.learning.sampling import price_ladder


def _arrays(estimator):
    snaps = estimator.snapshots()
    ladder = np.array([snap.price for snap in snaps], dtype=np.float64)
    means = np.array([snap.sample_mean for snap in snaps], dtype=np.float64)
    offers = np.array([snap.offers for snap in snaps], dtype=np.float64)
    return ladder, means, offers, int(offers.sum())


def _oracle_ucb_table(estimator):
    ladder, means, offers, total = _arrays(estimator)
    if total == 0:
        demand_side = ladder * means
    else:
        ln_total = math.log(total)
        with np.errstate(divide="ignore", invalid="ignore"):
            radius = ladder * np.sqrt(2.0 * ln_total / offers)
        radius[offers == 0.0] = math.inf
        demand_side = ladder * means + radius
    return ladder[::-1].tolist(), demand_side[::-1].tolist()


def _oracle_exploitation_table(estimator):
    ladder, means, _, _ = _arrays(estimator)
    return ladder[::-1].tolist(), (ladder * means)[::-1].tolist()


LADDERS = st.one_of(
    st.just(price_ladder(1.0, 5.0, 0.5)),
    st.lists(
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=8,
        unique=True,
    ),
)


@st.composite
def estimators(draw):
    ladder = draw(LADDERS)
    estimator = GridAcceptanceEstimator(1, ladder)
    for price in ladder:
        # Zero offers leave the rung untested.
        offers = draw(st.sampled_from([0, 0, 1, 2, 3, 7, 50, 1234]))
        if offers:
            estimator.record_batch(
                price, offers, draw(st.integers(min_value=0, max_value=offers))
            )
    return estimator


@settings(max_examples=300, deadline=None)
@given(estimators())
def test_tables_repr_equal_to_array_oracles(estimator):
    assert repr(ucb_demand_table(estimator)) == repr(_oracle_ucb_table(estimator))
    assert repr(exploitation_demand_table(estimator)) == repr(
        _oracle_exploitation_table(estimator)
    )


def test_single_offer_and_no_offer_edges():
    ladder = price_ladder(1.0, 5.0, 0.5)
    fresh = GridAcceptanceEstimator(1, ladder)
    assert ucb_demand_table(fresh) == (ladder[::-1], [0.0] * len(ladder))
    single = GridAcceptanceEstimator(1, ladder)
    single.record_batch(ladder[0], 1, 1)
    prices, values = ucb_demand_table(single)
    # ln N = 0: the tested rung has a zero radius, the others an infinite one.
    assert values == [math.inf] * (len(ladder) - 1) + [ladder[0]]
    assert repr((prices, values)) == repr(_oracle_ucb_table(single))
