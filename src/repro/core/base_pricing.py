"""Base Pricing (Algorithm 1 of the paper).

Base pricing assumes sufficient supply and looks for the price that
maximises the per-grid revenue curve ``p * S^g(p)`` — the Myerson reserve
price of the grid — using only accept/reject feedback:

1. build the geometric candidate ladder ``p_min, (1+alpha) p_min, ...``;
2. offer each candidate price ``p`` to ``h(p)`` requesters of the grid,
   where ``h(p)`` is the Hoeffding sample size that makes the empirical
   revenue point accurate to ``eps/2`` with probability ``1 - delta/k``;
3. keep the candidate maximising ``p * S_hat(p)`` (ties towards the
   smaller price) as the grid's estimate ``p^g_m``;
4. return the base price ``p_b`` as the arithmetic mean of all ``p^g_m``.

The interaction with requesters is abstracted behind the
:class:`ProbeOracle` protocol, which the simulator implements against the
ground-truth acceptance models (representing offers to historical
requesters), and which tests implement with deterministic tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.learning.estimator import GridAcceptanceEstimator
from repro.learning.sampling import (
    hoeffding_sample_size,
    num_candidate_prices,
    price_ladder,
)


class ProbeOracle(Protocol):
    """Source of accept/reject feedback used during calibration.

    The oracle represents offering a price to requesters of a grid (in the
    paper: "use the price p for h(p) times and observe the acceptance
    ratio").  Implementations may be backed by a simulator, by replayed
    historical logs, or by a fixed table in tests.

    An oracle that answers faster in bulk may also define
    ``prepare(grid_indices, prices)``: :func:`run_base_pricing` calls it
    once with every grid and the whole candidate ladder before the first
    :meth:`offer`, which must still return what it would have returned
    without it.
    """

    def offer(self, grid_index: int, price: float, count: int) -> int:
        """Offer ``price`` to ``count`` requesters of ``grid_index``.

        Returns:
            The number of requesters who accepted.
        """
        ...


@dataclass(frozen=True)
class BasePricingConfig:
    """Parameters of Algorithm 1.

    Attributes:
        p_min: Lower bound of the candidate prices.
        p_max: Upper bound of the candidate prices.
        alpha: Ladder multiplier; successive candidates differ by ``1+alpha``.
        epsilon: Target accuracy of the revenue-curve estimates.
        delta: Failure probability budget of the Hoeffding sampling.
        max_samples_per_price: Optional cap on ``h(p)``; real platforms
            cannot probe hundreds of requesters per price in every grid, so
            experiments may cap the calibration budget.  ``None`` (the
            engines' default) uses the uncapped Hoeffding size.
    """

    p_min: float = 1.0
    p_max: float = 5.0
    alpha: float = 0.5
    epsilon: float = 0.2
    delta: float = 0.01
    max_samples_per_price: Optional[int] = None

    def __post_init__(self) -> None:
        if self.p_min <= 0:
            raise ValueError("p_min must be positive")
        if self.p_max < self.p_min:
            raise ValueError("p_max must be at least p_min")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.max_samples_per_price is not None and self.max_samples_per_price <= 0:
            raise ValueError("max_samples_per_price must be positive when given")

    @property
    def candidate_prices(self) -> List[float]:
        return price_ladder(self.p_min, self.p_max, self.alpha)

    @property
    def num_candidates(self) -> int:
        return num_candidate_prices(self.p_min, self.p_max, self.alpha)

    def samples_for(self, price: float) -> int:
        """``h(p)`` with the optional cap applied."""
        size = hoeffding_sample_size(price, self.epsilon, self.num_candidates, self.delta)
        if self.max_samples_per_price is not None:
            size = min(size, self.max_samples_per_price)
        return size


@dataclass
class BasePricingResult:
    """Output of Algorithm 1.

    Attributes:
        base_price: ``p_b`` — the arithmetic mean of the per-grid estimates.
        grid_reserve_prices: Estimated Myerson reserve price per grid.
        estimators: The acceptance statistics gathered per grid (reusable
            by MAPS as a warm start for its UCB index).
        total_probes: Total number of price offers issued by calibration.
    """

    base_price: float
    grid_reserve_prices: Dict[int, float]
    estimators: Dict[int, GridAcceptanceEstimator] = field(default_factory=dict)
    total_probes: int = 0

    def reserve_price(self, grid_index: int) -> float:
        return self.grid_reserve_prices[grid_index]


def estimate_grid_reserve_price(
    grid_index: int,
    oracle: ProbeOracle,
    config: BasePricingConfig,
) -> Tuple[float, GridAcceptanceEstimator, int]:
    """Estimate the Myerson reserve price of one grid (Alg. 1 lines 3–9).

    Returns:
        ``(reserve_price, estimator, probes_used)``.
    """
    ladder = config.candidate_prices
    estimator = GridAcceptanceEstimator(grid_index, ladder)
    probes = 0
    for price in ladder:
        count = config.samples_for(price)
        acceptances = oracle.offer(grid_index, price, count)
        if not 0 <= acceptances <= count:
            raise ValueError(
                f"oracle returned {acceptances} acceptances for {count} offers"
            )
        estimator.record_batch(price, count, acceptances)
        probes += count
    reserve_price, _ = estimator.best_revenue_price()
    # The algorithm clamps the estimate into [p_min, p_max]; the ladder is
    # already inside that interval, so clamping is a no-op kept for clarity.
    reserve_price = min(config.p_max, max(config.p_min, reserve_price))
    return reserve_price, estimator, probes


def run_base_pricing(
    grid_indices: Sequence[int],
    oracle: ProbeOracle,
    config: Optional[BasePricingConfig] = None,
) -> BasePricingResult:
    """Run Algorithm 1 over all grids and return the base price ``p_b``.

    Args:
        grid_indices: The grids to calibrate (typically every grid that has
            historical demand; grids never observed simply inherit the
            average).
        oracle: Accept/reject feedback source.
        config: Algorithm parameters (paper defaults when omitted).

    Returns:
        The :class:`BasePricingResult` with ``p_b`` and per-grid detail.

    Raises:
        ValueError: if ``grid_indices`` is empty.
    """
    if not grid_indices:
        raise ValueError("grid_indices must be non-empty")
    config = config or BasePricingConfig()
    prepare = getattr(oracle, "prepare", None)
    if prepare is not None:
        prepare(list(grid_indices), config.candidate_prices)
    reserve_prices: Dict[int, float] = {}
    estimators: Dict[int, GridAcceptanceEstimator] = {}
    total_probes = 0
    for grid_index in grid_indices:
        reserve, estimator, probes = estimate_grid_reserve_price(
            grid_index, oracle, config
        )
        reserve_prices[grid_index] = reserve
        estimators[grid_index] = estimator
        total_probes += probes
    base_price = sum(reserve_prices.values()) / len(reserve_prices)
    return BasePricingResult(
        base_price=base_price,
        grid_reserve_prices=reserve_prices,
        estimators=estimators,
        total_probes=total_probes,
    )


__all__ = [
    "ProbeOracle",
    "BasePricingConfig",
    "BasePricingResult",
    "estimate_grid_reserve_price",
    "run_base_pricing",
]
