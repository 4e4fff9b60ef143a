"""Acceptance behaviour of requesters.

The platform never observes private valuations; it only observes, per
offered price, whether the requester accepted.  For the algorithms we
therefore need two views of the same phenomenon:

* the *ground-truth* view used by the simulator, which knows the per-grid
  valuation distribution (or an explicit acceptance table as in the
  running example's Table 1) and answers price offers; and
* the *estimated* view used by the pricing strategies, which learn
  acceptance ratios from observations (see :mod:`repro.learning`).

This module implements the ground-truth view as :class:`AcceptanceModel`
implementations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.market.entities import Task
from repro.market.valuation import ParametricValuation, ValuationDistribution
from repro.utils.rng import RandomState, bernoulli


class AcceptanceModel(ABC):
    """Ground-truth acceptance behaviour of the requesters in one grid."""

    @abstractmethod
    def acceptance_ratio(self, price: float) -> float:
        """True acceptance probability ``S(p)`` for a price ``p``."""

    @abstractmethod
    def sample_valuation(self, rng: RandomState) -> float:
        """Draw one private valuation ``v_r``."""

    def decide(self, task: Task, price: float, rng: RandomState) -> bool:
        """Whether the requester of ``task`` accepts ``price``.

        If the task carries a private valuation the decision is the
        deterministic comparison ``price <= v_r``; otherwise a Bernoulli
        draw with probability ``S(price)`` is used.
        """
        if task.valuation is not None:
            return task.accepts(price)
        return bernoulli(rng, self.acceptance_ratio(price))

    def assign_valuations(self, tasks: Sequence[Task], rng: RandomState) -> list:
        """Return copies of ``tasks`` with freshly sampled valuations."""
        return [task.with_valuation(self.sample_valuation(rng)) for task in tasks]


class DistributionAcceptanceModel(AcceptanceModel):
    """Acceptance driven by a :class:`ValuationDistribution`.

    This is the model used in all synthetic experiments: the per-grid
    distribution is a truncated normal (or exponential in Appendix D) and
    ``S(p) = 1 - F(p)``.
    """

    def __init__(self, distribution: ValuationDistribution) -> None:
        self._distribution = distribution

    @property
    def distribution(self) -> ValuationDistribution:
        return self._distribution

    def acceptance_ratio(self, price: float) -> float:
        return self._distribution.acceptance_ratio(price)

    def sample_valuation(self, rng: RandomState) -> float:
        return float(self._distribution.sample(rng, size=1)[0])

    def __repr__(self) -> str:
        return f"DistributionAcceptanceModel({self._distribution!r})"


class TabularAcceptanceModel(AcceptanceModel):
    """Acceptance ratios given explicitly at a few price points.

    This reproduces Table 1 of the paper (``S(1)=0.9, S(2)=0.8, S(3)=0.5``)
    for the running example and is also handy in unit tests.  Prices
    between table entries are interpolated linearly; prices below the
    smallest entry use its ratio, prices above the largest entry use the
    largest entry's ratio (so the table is a step-wise conservative model
    rather than dropping to zero, matching how Example 3 evaluates the
    prices {3, 3, 2}).

    Valuation sampling inverts the implied CDF, so a task population drawn
    from this model reproduces the tabulated acceptance frequencies.
    """

    def __init__(self, table: Mapping[float, float]) -> None:
        if not table:
            raise ValueError("acceptance table must be non-empty")
        items = sorted((float(p), float(s)) for p, s in table.items())
        for price, ratio in items:
            if price < 0:
                raise ValueError("prices must be non-negative")
            if not 0.0 <= ratio <= 1.0:
                raise ValueError("acceptance ratios must lie in [0, 1]")
        ratios = [s for _, s in items]
        if any(b > a + 1e-12 for a, b in zip(ratios, ratios[1:])):
            raise ValueError("acceptance ratios must be non-increasing in price")
        self._prices = np.array([p for p, _ in items])
        self._ratios = np.array(ratios)

    def acceptance_ratio(self, price: float) -> float:
        if price <= self._prices[0]:
            return float(self._ratios[0])
        if price >= self._prices[-1]:
            return float(self._ratios[-1])
        return float(np.interp(price, self._prices, self._ratios))

    def sample_valuation(self, rng: RandomState) -> float:
        """Sample a valuation consistent with the table.

        We draw ``u ~ Uniform(0, 1)`` and return the largest tabulated
        price ``p`` with ``S(p) > u`` (the requester accepts every price up
        to that point).  If even the smallest price would be rejected we
        return half the smallest price, representing a requester that
        rejects all tabulated prices.
        """
        u = rng.random()
        accepted = self._prices[self._ratios > u]
        if accepted.size == 0:
            return float(self._prices[0]) / 2.0
        return float(accepted[-1])

    @property
    def prices(self) -> np.ndarray:
        return self._prices.copy()

    @property
    def ratios(self) -> np.ndarray:
        return self._ratios.copy()

    def __repr__(self) -> str:
        pairs = ", ".join(f"{p:g}: {s:g}" for p, s in zip(self._prices, self._ratios))
        return f"TabularAcceptanceModel({{{pairs}}})"


class PerGridAcceptance:
    """Convenience container mapping grid index -> acceptance model.

    Falls back to a default model for grids without an explicit entry,
    which matches the synthetic generator where every grid shares the
    same family of distributions but possibly different parameters.

    Two array methods evaluate many grids at once.  Both group the
    requested positions by distribution family
    (:class:`~repro.market.valuation.ParametricValuation` subclass),
    stack each position's grid parameters into columns and make one
    family call per group — for the shipped generators, where every grid
    is a truncated normal, one scipy call in all:

    * :meth:`valuation_quantiles` maps per-task uniforms through each
      task's grid inverse CDF.  It is the generators' sampling contract:
      draw one uniform per task in the order the per-task sampler drew
      them, then map them in one call — the stream advances as before
      and every valuation keeps its bits;
    * :meth:`acceptance_ratios` evaluates ``S^g(p)`` for parallel
      grid/price arrays (calibration evaluates every grid-price pair of
      the ladder with it before probing).
    """

    def __init__(
        self,
        models: Optional[Dict[int, AcceptanceModel]] = None,
        default: Optional[AcceptanceModel] = None,
    ) -> None:
        self._models: Dict[int, AcceptanceModel] = dict(models or {})
        self._default = default
        if not self._models and self._default is None:
            raise ValueError("provide at least one model or a default")
        # grid -> (family, (lower, upper, *params)) for the array methods.
        self._family_rows: Dict[int, Tuple[Optional[type], Optional[Tuple[float, ...]]]] = {}

    def model_for(self, grid_index: int) -> AcceptanceModel:
        model = self._models.get(grid_index, self._default)
        if model is None:
            raise KeyError(f"no acceptance model for grid {grid_index} and no default")
        return model

    def acceptance_ratio(self, grid_index: int, price: float) -> float:
        return self.model_for(grid_index).acceptance_ratio(price)

    def acceptance_ratios(
        self, grid_indices: Sequence[int], prices: Sequence[float]
    ) -> np.ndarray:
        """Vectorised ``S^g(p)`` for parallel grid/price arrays.

        Each element equals the scalar :meth:`acceptance_ratio` bit for
        bit: parametric grids go through their family's array CDF, and
        any other model answers one scalar call per unique
        ``(grid, price)`` pair.
        """
        grids, price_arr = _parallel_arrays(grid_indices, prices, "prices")
        ratios = np.empty(grids.size, dtype=np.float64)
        for family, positions, columns in self._by_family(grids):
            if family is None:
                ratios[positions] = self._scalar_ratios(grids[positions], price_arr[positions])
            else:
                cdf = family.cdf_of(price_arr[positions], *columns)
                ratios[positions] = np.clip(1.0 - cdf, 0.0, 1.0)
        return ratios

    def valuation_quantiles(
        self, grid_indices: Sequence[int], uniforms: Sequence[float]
    ) -> np.ndarray:
        """Each task's valuation: its uniform through its grid's inverse CDF.

        Args:
            grid_indices: Grid of each task.
            uniforms: One ``uniform`` double per task, drawn in the order
                a per-task sampler would have drawn them.

        Raises:
            TypeError: when a grid's model has no parametric valuation
                distribution (nothing to invert).
        """
        grids, u = _parallel_arrays(grid_indices, uniforms, "uniforms")
        valuations = np.empty(grids.size, dtype=np.float64)
        for family, positions, columns in self._by_family(grids):
            if family is None:
                raise TypeError(
                    "inverse-CDF sampling needs a parametric valuation "
                    f"distribution in every grid; grids {sorted(set(grids[positions].tolist()))} "
                    "have none"
                )
            # Columns are (lower, upper, *params); the inverse CDF takes params.
            valuations[positions] = family.quantile_of(u[positions], *columns[2:])
        return valuations

    def _by_family(
        self, grids: np.ndarray
    ) -> Iterator[Tuple[Optional[type], np.ndarray, Optional[np.ndarray]]]:
        """Group positions of ``grids`` by parametric family.

        Yields ``(family, positions, columns)``: the family class (``None``
        for models without a parametric distribution), the positions of
        ``grids`` whose grid belongs to it, and for a family the
        per-position parameter columns ``lower, upper, *params``.
        """
        unique, inverse = np.unique(grids, return_inverse=True)
        inverse = inverse.reshape(-1)
        members: Dict[Optional[type], List[int]] = {}
        rows: List[Optional[Tuple[float, ...]]] = []
        for slot, grid_index in enumerate(unique.tolist()):
            family, row = self._family_row(grid_index)
            rows.append(row)
            members.setdefault(family, []).append(slot)
        for family, slots in members.items():
            local = np.full(unique.size, -1, dtype=np.int64)
            local[slots] = np.arange(len(slots))
            per_position = local[inverse]
            positions = np.flatnonzero(per_position >= 0)
            if family is None:
                yield None, positions, None
                continue
            table = np.array([rows[slot] for slot in slots], dtype=np.float64)
            yield family, positions, table[per_position[positions]].T

    def _family_row(self, grid_index: int) -> Tuple[Optional[type], Optional[Tuple[float, ...]]]:
        cached = self._family_rows.get(grid_index)
        if cached is None:
            distribution = getattr(self.model_for(grid_index), "distribution", None)
            if isinstance(distribution, ParametricValuation):
                cached = (
                    type(distribution),
                    (distribution.lower, distribution.upper) + distribution.params,
                )
            else:
                cached = (None, None)
            self._family_rows[grid_index] = cached
        return cached

    def _scalar_ratios(self, grids: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """One scalar :meth:`acceptance_ratio` call per unique pair."""
        pairs = np.stack([grids.astype(np.float64), prices], axis=1)
        unique_pairs, inverse = np.unique(pairs, axis=0, return_inverse=True)
        ratios = np.fromiter(
            (
                self.acceptance_ratio(int(pair[0]), float(pair[1]))
                for pair in unique_pairs
            ),
            dtype=np.float64,
            count=unique_pairs.shape[0],
        )
        return ratios[inverse.reshape(-1)]

    def set_model(self, grid_index: int, model: AcceptanceModel) -> None:
        self._models[grid_index] = model
        self._family_rows.pop(grid_index, None)

    def grids(self) -> Sequence[int]:
        return tuple(self._models.keys())


def _parallel_arrays(
    grid_indices: Sequence[int], values: Sequence[float], name: str
) -> Tuple[np.ndarray, np.ndarray]:
    grids = np.asarray(grid_indices, dtype=np.int64)
    array = np.asarray(values, dtype=np.float64)
    if grids.shape != array.shape or grids.ndim != 1:
        raise ValueError(f"grid_indices and {name} must be 1-D and equal length")
    return grids, array


__all__ = [
    "AcceptanceModel",
    "DistributionAcceptanceModel",
    "TabularAcceptanceModel",
    "PerGridAcceptance",
]
