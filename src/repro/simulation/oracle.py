"""The probe oracle that backs Base Pricing calibration in simulations.

Algorithm 1 "uses the price p for h(p) times and observes the acceptance
ratio" — i.e. it interacts with (historical) requesters.  In the simulator
those interactions are answered by the ground-truth per-grid acceptance
models: offering a price to ``count`` requesters of a grid draws ``count``
Bernoulli samples with success probability ``S^g(p)``.  Calibration knows
every (grid, ladder price) pair up front, so :meth:`SimulatedProbeOracle.prepare`
evaluates ``S^g(p)`` for all of them in one array call before the draws;
the draws themselves keep their order.

The oracle also keeps a ledger of how many probes were issued per grid,
which the experiment reports use to document the calibration budget.

:func:`calibrate_base_price_for_context` is the one calibration recipe
every engine runs: Algorithm 1 over an explicit grid list, probing an
oracle seeded from ``(seed, "calibration")``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.base_pricing import BasePricingConfig, BasePricingResult, run_base_pricing
from repro.market.acceptance import PerGridAcceptance
from repro.utils.rng import RandomState, as_generator, derive_seed


class SimulatedProbeOracle:
    """Accept/reject probe oracle backed by ground-truth acceptance models.

    Args:
        acceptance: Ground-truth per-grid acceptance models.
        rng: Random generator (or seed) for the Bernoulli draws.
    """

    def __init__(self, acceptance: PerGridAcceptance, rng: Optional[RandomState] = None, seed: int = 0) -> None:
        self._acceptance = acceptance
        self._rng = rng if isinstance(rng, np.random.Generator) else as_generator(seed if rng is None else rng)
        self._probes: Dict[Tuple[int, float], int] = {}
        self._ratios: Dict[Tuple[int, float], float] = {}

    def prepare(self, grid_indices: Sequence[int], prices: Sequence[float]) -> None:
        """Evaluate ``S^g(p)`` for every grid/price pair in one array call.

        :meth:`offer` then reads the probability from this table; each
        value equals the scalar ``acceptance_ratio(grid, price)`` bit for
        bit, so the Binomial draws are unchanged.  Pairs not prepared fall
        back to the scalar call.
        """
        grids = np.repeat(np.asarray(grid_indices, dtype=np.int64), len(prices))
        price_column = np.tile(np.asarray(prices, dtype=np.float64), len(grid_indices))
        ratios = self._acceptance.acceptance_ratios(grids, price_column)
        self._ratios.update(zip(zip(grids.tolist(), price_column.tolist()), ratios.tolist()))

    def offer(self, grid_index: int, price: float, count: int) -> int:
        """Offer ``price`` to ``count`` requesters of ``grid_index``.

        Returns:
            The number of acceptances (a Binomial(count, S^g(price)) draw).
        """
        if count <= 0:
            raise ValueError("count must be positive")
        key = (int(grid_index), float(price))
        probability = self._ratios.get(key)
        if probability is None:
            probability = self._acceptance.acceptance_ratio(grid_index, price)
        probability = min(1.0, max(0.0, probability))
        acceptances = int(self._rng.binomial(count, probability))
        self._probes[key] = self._probes.get(key, 0) + count
        return acceptances

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    @property
    def total_probes(self) -> int:
        return sum(self._probes.values())

    def probes_for_grid(self, grid_index: int) -> int:
        return sum(
            count for (grid, _price), count in self._probes.items() if grid == grid_index
        )


def calibrate_base_price_for_context(
    acceptance: PerGridAcceptance,
    price_bounds: Tuple[float, float],
    seed: int,
    grids: Sequence[int],
    config: Optional[BasePricingConfig] = None,
) -> BasePricingResult:
    """Run Algorithm 1 for ``grids`` against the ground-truth acceptance.

    Represents the historical calibration phase that precedes dynamic
    pricing.  The default config is the full Hoeffding probe budget of
    Algorithm 1: MAPS re-uses the calibration statistics as its UCB warm
    start, and a truncated budget leaves the confidence radii so wide
    that MAPS over-prices well-supplied grids.
    """
    if not grids:
        raise ValueError("need at least one grid to calibrate")
    p_min, p_max = price_bounds
    config = config or BasePricingConfig(p_min=p_min, p_max=p_max)
    oracle = SimulatedProbeOracle(acceptance, seed=derive_seed(seed, "calibration"))
    return run_base_pricing(list(grids), oracle, config)


__all__ = ["SimulatedProbeOracle", "calibrate_base_price_for_context"]
