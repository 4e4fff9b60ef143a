"""Strategy registry used by the experiment harness.

The benchmark harness iterates over strategy names ("MAPS", "BaseP", ...)
and needs to instantiate each with a consistent set of shared parameters
(base price, price bounds, ladder step).  :func:`create_strategy` is the
single factory the harness uses; :func:`available_strategies` lists the
names of the five strategies compared in the paper (Section 5.1), in the
paper's plotting order.

This registry predates the decorator-based scenario registry
(:mod:`repro.simulation.scenarios`) and keeps an explicit factory instead, because the five strategies share a
calibration hand-off: ``create_strategy`` threads the Algorithm 1 result
into MAPS as a UCB warm start while the heuristics only consume its base
price.  Name matching is case-insensitive and tolerant of common aliases
(``base_price``, ``capped-ucb``, ...).

Runnable doctest (also exercised by the CI docs job):

>>> from repro.pricing.registry import available_strategies, create_strategy
>>> available_strategies()
['MAPS', 'BaseP', 'SDR', 'SDE', 'CappedUCB']
>>> strategy = create_strategy("BaseP", base_price=2.0)
>>> strategy.name
'BaseP'
>>> create_strategy("sdr", base_price=2.0).name  # case-insensitive
'SDR'
>>> create_strategy("martingale", base_price=2.0)
Traceback (most recent call last):
    ...
ValueError: unknown strategy 'martingale'; available: MAPS, BaseP, SDR, SDE, CappedUCB
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.base_pricing import BasePricingResult
from repro.pricing.base_price import BasePriceStrategy
from repro.pricing.capped_ucb import CappedUCBStrategy
from repro.pricing.maps_strategy import MAPSStrategy
from repro.pricing.sde import SDEStrategy
from repro.pricing.sdr import SDRStrategy
from repro.pricing.strategy import PricingStrategy

#: The five strategies of Section 5.1, in the paper's plotting order.
PAPER_STRATEGIES: List[str] = ["MAPS", "BaseP", "SDR", "SDE", "CappedUCB"]


def available_strategies() -> List[str]:
    """Names of the strategies compared in the paper's evaluation."""
    return list(PAPER_STRATEGIES)


def create_strategy(
    name: str,
    base_price: float,
    p_min: float = 1.0,
    p_max: float = 5.0,
    alpha: float = 0.5,
    calibration: Optional[BasePricingResult] = None,
    **overrides,
) -> PricingStrategy:
    """Instantiate a strategy by name with shared parameters.

    Args:
        name: One of ``MAPS``, ``BaseP``, ``SDR``, ``SDE``, ``CappedUCB``
            (case-insensitive).
        base_price: The calibrated base price ``p_b`` shared by BaseP, SDR,
            SDE and MAPS.
        p_min: Lower price bound.
        p_max: Upper price bound.
        alpha: Ladder step for UCB-based strategies.
        calibration: Optional full Algorithm 1 result; when given, MAPS is
            warm-started from its statistics.
        **overrides: Extra keyword arguments forwarded to the strategy
            constructor (e.g. ``coefficient`` for SDR).

    Raises:
        ValueError: for unknown strategy names.
    """
    key = name.strip().lower()
    if key == "maps":
        if calibration is not None and "warm_start" not in overrides:
            overrides["warm_start"] = calibration
        return MAPSStrategy(
            base_price=base_price, p_min=p_min, p_max=p_max, alpha=alpha, **overrides
        )
    if key in ("basep", "base", "base_price"):
        return BasePriceStrategy(base_price=base_price, p_min=p_min, p_max=p_max, **overrides)
    if key == "sdr":
        return SDRStrategy(base_price=base_price, p_min=p_min, p_max=p_max, **overrides)
    if key == "sde":
        return SDEStrategy(base_price=base_price, p_min=p_min, p_max=p_max, **overrides)
    if key in ("cappeducb", "capped_ucb", "capped-ucb"):
        return CappedUCBStrategy(p_min=p_min, p_max=p_max, alpha=alpha, **overrides)
    raise ValueError(
        f"unknown strategy {name!r}; available: {', '.join(PAPER_STRATEGIES)}"
    )


def calibrated_kwargs(
    name: str,
    calibration: BasePricingResult,
    p_min: float = 1.0,
    p_max: float = 5.0,
) -> Dict[str, object]:
    """Shared :func:`create_strategy` kwargs after an Algorithm 1 run.

    The single place encoding the calibration hand-off the paper's
    evaluation uses: every strategy receives the calibrated base price and
    the price bounds, and MAPS alone is warm-started from the full
    calibration statistics.  Used by the figure sweeps, the CLI scenario
    runner and the examples so the recipe cannot drift between surfaces.
    """
    return dict(
        base_price=calibration.base_price,
        p_min=p_min,
        p_max=p_max,
        calibration=calibration if name.strip().lower() == "maps" else None,
    )


__all__ = [
    "PAPER_STRATEGIES",
    "available_strategies",
    "calibrated_kwargs",
    "create_strategy",
]
