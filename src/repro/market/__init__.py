"""Market substrate: tasks, workers, valuations and acceptance behaviour.

This subpackage models the economic side of the GDP problem:

* :mod:`repro.market.entities` — the :class:`Task` (spatial task issued by
  a requester, Definition 2) and :class:`Worker` (Definition 4) records
  used throughout the library;
* :mod:`repro.market.valuation` — demand (private-valuation) distributions
  with the monotone-hazard-rate property the paper assumes: truncated
  normal, exponential, uniform, plus empirical distributions; all expose
  the acceptance ratio ``S(p) = Pr[v > p]`` and the revenue curve
  ``p * S(p)`` together with the exact Myerson reserve price for testing;
* :mod:`repro.market.acceptance` — per-grid acceptance behaviour of
  requesters: draw private valuations, answer price offers, and a tabular
  acceptance model used for the paper's running example (Table 1);
* :mod:`repro.market.curves` — the demand and supply curves of Eq. (1)
  and the ``L^g(n, p)`` approximation of the per-grid expected revenue.
"""

from repro.market.entities import Task, Worker
from repro.market.valuation import (
    EmpiricalValuationDistribution,
    ExponentialValuation,
    ParametricValuation,
    TruncatedNormalValuation,
    UniformValuation,
    ValuationDistribution,
)
from repro.market.acceptance import (
    AcceptanceModel,
    DistributionAcceptanceModel,
    TabularAcceptanceModel,
)
from repro.market.curves import (
    GridMarket,
    demand_curve_value,
    revenue_approximation,
    supply_curve_value,
)

__all__ = [
    "Task",
    "Worker",
    "ValuationDistribution",
    "ParametricValuation",
    "TruncatedNormalValuation",
    "ExponentialValuation",
    "UniformValuation",
    "EmpiricalValuationDistribution",
    "AcceptanceModel",
    "DistributionAcceptanceModel",
    "TabularAcceptanceModel",
    "GridMarket",
    "demand_curve_value",
    "supply_curve_value",
    "revenue_approximation",
]
