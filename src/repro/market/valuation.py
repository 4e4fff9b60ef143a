"""Private-valuation (demand) distributions.

The paper assumes private valuations ``v_r`` in a grid are i.i.d. samples
from an unknown distribution with a monotone hazard rate (MHR), so that
the revenue curve ``p * S(p)`` with ``S(p) = 1 - F(p)`` is unimodal and
the Myerson reserve price ``p_m = argmax_p p * S(p)`` is its unique
maximiser (Section 3.1.1).  The synthetic experiments draw valuations from
a normal distribution truncated to ``[1, 5]`` with the mean swept in
``{1.0, ..., 3.0}`` and the standard deviation in ``{0.5, ..., 2.5}``;
Appendix D repeats the experiment with an exponential distribution.

Every distribution exposes:

* ``cdf(p)`` — ``F(p) = Pr[v <= p]``; a float for a scalar price, an
  array for an array of prices;
* ``acceptance_ratio(p)`` — ``S(p) = Pr[v > p]`` (Definition 3);
* ``revenue_curve(p)`` — ``p * S(p)``;
* ``sample(rng, size)`` — draw valuations;
* ``myerson_reserve_price(...)`` — numeric maximiser of the revenue curve,
  used by tests and by the oracle pricing strategy.

The parametric families (:class:`ParametricValuation`: truncated normal,
exponential, uniform) also expose ``quantile(u)``, the inverse CDF over
an array, and sample by inverse transform:
``sample(rng, size) == quantile(rng.uniform(size=size))``.  Each family
states its CDF and inverse CDF once, as functions of parameter arrays,
so :class:`~repro.market.acceptance.PerGridAcceptance` can evaluate many
grids' distributions in one call.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from scipy import stats

from repro.utils.rng import RandomState

#: A price (or uniform) argument: a scalar, or an array of them.
ArrayLike = Union[float, np.ndarray]


class ValuationDistribution(ABC):
    """Interface of a private-valuation distribution on ``[lower, upper]``."""

    #: Inclusive support bounds; ``math.inf`` allowed for the upper bound.
    lower: float = 0.0
    upper: float = math.inf

    # ------------------------------------------------------------------
    # distribution interface
    # ------------------------------------------------------------------
    @abstractmethod
    def cdf(self, price: ArrayLike) -> ArrayLike:
        """``F(p) = Pr[v <= p]``, element-wise over an array of prices."""

    @abstractmethod
    def sample(self, rng: RandomState, size: int = 1) -> np.ndarray:
        """Draw ``size`` valuations."""

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def acceptance_ratio(self, price: ArrayLike) -> ArrayLike:
        """``S(p) = Pr[v > p] = 1 - F(p)`` (Definition 3), element-wise."""
        if np.ndim(price) == 0:
            return max(0.0, min(1.0, 1.0 - self.cdf(price)))
        return np.clip(1.0 - self.cdf(price), 0.0, 1.0)

    def revenue_curve(self, price: ArrayLike) -> ArrayLike:
        """Expected per-unit-distance revenue ``p * S(p)``, element-wise."""
        if np.ndim(price) == 0:
            if price < 0:
                raise ValueError("price must be non-negative")
            return price * self.acceptance_ratio(price)
        prices = np.asarray(price, dtype=np.float64)
        if (prices < 0).any():
            raise ValueError("price must be non-negative")
        return prices * self.acceptance_ratio(prices)

    def myerson_reserve_price(
        self,
        price_range: Optional[Tuple[float, float]] = None,
        resolution: int = 4096,
    ) -> float:
        """Numerically maximise ``p * S(p)`` over ``price_range``.

        The revenue curve is evaluated over the whole candidate grid in
        one array :meth:`cdf` call; every element equals the scalar
        ``revenue_curve(p)`` bit for bit, so the arg-max is the one a
        per-price loop would find.

        Args:
            price_range: Search interval; defaults to the distribution's
                support (capped for unbounded supports).
            resolution: Number of evenly spaced candidate prices.

        Returns:
            The price that maximises ``p * S(p)`` on the grid; for MHR
            distributions this converges to the Myerson reserve price as
            ``resolution`` grows.
        """
        if price_range is None:
            upper = self.upper if math.isfinite(self.upper) else max(10.0, self.lower * 10 + 10.0)
            price_range = (max(self.lower, 1e-9), upper)
        low, high = price_range
        if high <= low:
            raise ValueError("price_range must have positive width")
        prices = np.linspace(low, high, int(resolution))
        revenues = self.revenue_curve(prices)
        return float(prices[int(np.argmax(revenues))])

    def is_mhr(self, price_range: Optional[Tuple[float, float]] = None, resolution: int = 512) -> bool:
        """Numerically check the monotone-hazard-rate property.

        Evaluates the hazard rate ``f(p) / (1 - F(p))`` on a grid (with the
        density estimated by central differences of the CDF) up to the
        first price whose survival drops to ``1e-9``, and checks it is
        non-decreasing up to a small tolerance.  Used by tests to verify
        that the shipped distributions satisfy the paper's assumption.
        """
        if price_range is None:
            upper = self.upper if math.isfinite(self.upper) else self.lower + 10.0
            price_range = (self.lower, upper)
        low, high = price_range
        prices = np.linspace(low + 1e-6, high - 1e-6, resolution)
        step = (high - low) / (resolution * 8)
        survival = 1.0 - self.cdf(prices)
        exhausted = np.flatnonzero(survival <= 1e-9)
        if exhausted.size:
            prices = prices[: exhausted[0]]
            survival = survival[: exhausted[0]]
        density = (self.cdf(prices + step) - self.cdf(prices - step)) / (2 * step)
        hazards_arr = density / survival
        if len(hazards_arr) < 3:
            return True
        diffs = np.diff(hazards_arr)
        tolerance = 1e-6 + 1e-3 * np.abs(hazards_arr[:-1])
        return bool(np.all(diffs >= -tolerance))


class ParametricValuation(ValuationDistribution):
    """A closed-form family with an inverse CDF.

    A subclass states its parameter tuple (:attr:`params`) and two maps
    that act element-wise on broadcastable parameter arrays:
    ``_cdf_of(prices, *params)`` for prices inside ``[lower, upper)`` and
    ``quantile_of(u, *params)``.  An instance evaluates them with its own
    scalars; :class:`~repro.market.acceptance.PerGridAcceptance` stacks
    many instances' parameters into columns and evaluates every grid of
    a bundle in one call.  Both give the same bits per element.
    """

    @property
    @abstractmethod
    def params(self) -> Tuple[float, ...]:
        """The family parameters ``_cdf_of``/``quantile_of`` take."""

    @staticmethod
    @abstractmethod
    def _cdf_of(prices: ArrayLike, *params: ArrayLike) -> ArrayLike:
        """``F`` on the support's interior (``lower <= p < upper``)."""

    @staticmethod
    @abstractmethod
    def quantile_of(u: np.ndarray, *params: ArrayLike) -> np.ndarray:
        """The inverse CDF ``F^-1(u)``, parameters as scalars or columns."""

    @classmethod
    def cdf_of(cls, prices: np.ndarray, lower, upper, *params) -> np.ndarray:
        """``F(p)`` element-wise, support bounds and parameters as columns.

        0 below ``lower``, 1 from ``upper`` on, ``_cdf_of`` in between —
        the branches of the scalar :meth:`cdf`, so each element is that
        scalar's value.
        """
        prices, lower, upper, *params = np.broadcast_arrays(
            np.asarray(prices, dtype=np.float64), lower, upper, *params
        )
        out = np.where(prices < lower, 0.0, 1.0)
        inside = (prices >= lower) & (prices < upper)
        if inside.any():
            out[inside] = cls._cdf_of(prices[inside], *(column[inside] for column in params))
        return out

    def cdf(self, price: ArrayLike) -> ArrayLike:
        if np.ndim(price) == 0:
            if price < self.lower:
                return 0.0
            if price >= self.upper:
                return 1.0
            return float(self._cdf_of(price, *self.params))
        return self.cdf_of(price, self.lower, self.upper, *self.params)

    def quantile(self, u: ArrayLike) -> np.ndarray:
        """The inverse CDF ``F^-1(u)`` over an array of ``u`` in ``[0, 1)``."""
        return self.quantile_of(np.asarray(u, dtype=np.float64), *self.params)

    def sample(self, rng: RandomState, size: int = 1) -> np.ndarray:
        """Inverse-transform sampling: one ``uniform`` double per value."""
        return self.quantile(rng.uniform(size=size))


class TruncatedNormalValuation(ParametricValuation):
    """Normal valuations conditioned on an interval (the paper's default).

    The synthetic experiments draw ``v_r`` from ``Normal(mu, sigma)``
    restricted to ``[1, 5]``, i.e. a conditional (truncated) distribution.

    The instance keeps only ``a, b, mean, std`` and calls scipy's
    class-level ``truncnorm.cdf``/``truncnorm.ppf`` with them, so no
    frozen scipy object is built per grid.  :meth:`sample` makes the same
    single ``uniform`` draw per value as scipy's ``rvs`` and maps it
    through the same ``ppf``, so it returns scipy's ``rvs`` values bit for
    bit — except at ``u == 0.0`` exactly (probability ``2**-53`` per
    draw), where ``rvs`` lands 1–2 ulp below ``lower`` and :meth:`quantile`
    returns the support's lower end ``a * std + mean``.

    Args:
        mean: Mean of the underlying normal distribution (the paper sweeps
            1.0–3.0).
        std: Standard deviation (the paper sweeps 0.5–2.5).
        lower: Lower truncation bound (paper: 1).
        upper: Upper truncation bound (paper: 5).
    """

    def __init__(self, mean: float, std: float, lower: float = 1.0, upper: float = 5.0) -> None:
        if std <= 0:
            raise ValueError("std must be positive")
        if upper <= lower:
            raise ValueError("upper must exceed lower")
        self.mean = float(mean)
        self.std = float(std)
        self.lower = float(lower)
        self.upper = float(upper)
        self.a = (self.lower - self.mean) / self.std
        self.b = (self.upper - self.mean) / self.std

    @property
    def params(self) -> Tuple[float, ...]:
        return (self.a, self.b, self.mean, self.std)

    @staticmethod
    def _cdf_of(prices, a, b, mean, std):
        return stats.truncnorm.cdf(prices, a, b, loc=mean, scale=std)

    @staticmethod
    def quantile_of(u, a, b, mean, std):
        return stats.truncnorm.ppf(u, a, b, loc=mean, scale=std)

    def __repr__(self) -> str:
        return (
            f"TruncatedNormalValuation(mean={self.mean}, std={self.std}, "
            f"lower={self.lower}, upper={self.upper})"
        )


class ExponentialValuation(ParametricValuation):
    """Exponentially distributed valuations (Appendix D), optionally truncated.

    Args:
        rate: Rate parameter ``alpha`` (the appendix sweeps 0.5–1.5).
        shift: Lower bound of the support (valuations below it never occur).
        upper: Optional truncation upper bound; ``None`` keeps the full tail.
    """

    def __init__(self, rate: float, shift: float = 1.0, upper: Optional[float] = 5.0) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.shift = float(shift)
        self.lower = self.shift
        self.upper = float(upper) if upper is not None else math.inf
        if math.isfinite(self.upper) and self.upper <= self.lower:
            raise ValueError("upper must exceed shift")
        # Mass of the untruncated exponential inside [shift, upper].
        if math.isfinite(self.upper):
            self._norm = 1.0 - math.exp(-self.rate * (self.upper - self.shift))
        else:
            self._norm = 1.0

    @property
    def params(self) -> Tuple[float, ...]:
        return (self.rate, self.shift, self._norm)

    @staticmethod
    def _cdf_of(prices, rate, shift, norm):
        # libm exp element by element: numpy's SIMD exp differs from it by
        # an ulp on some inputs, and the scalar CDF has always used libm.
        exponents = -rate * (prices - shift)
        if np.ndim(exponents) == 0:
            return (1.0 - math.exp(exponents)) / norm
        raw = 1.0 - np.array([math.exp(x) for x in exponents.tolist()])
        return raw / norm

    @staticmethod
    def quantile_of(u, rate, shift, norm):
        # Inverse transform of the truncated exponential.
        return shift - np.log(1.0 - u * norm) / rate

    def __repr__(self) -> str:
        return f"ExponentialValuation(rate={self.rate}, shift={self.shift}, upper={self.upper})"


class UniformValuation(ParametricValuation):
    """Uniform valuations on ``[lower, upper]`` (an MHR distribution).

    With uniform valuations the Myerson reserve price has the closed form
    ``max(lower, upper / 2)``, which makes this distribution convenient for
    exact assertions in tests.
    """

    def __init__(self, lower: float = 1.0, upper: float = 5.0) -> None:
        if upper <= lower:
            raise ValueError("upper must exceed lower")
        self.lower = float(lower)
        self.upper = float(upper)

    @property
    def params(self) -> Tuple[float, ...]:
        return (self.lower, self.upper)

    @staticmethod
    def _cdf_of(prices, lower, upper):
        return (prices - lower) / (upper - lower)

    @staticmethod
    def quantile_of(u, lower, upper):
        # numpy's ``uniform(low, high)`` computes ``low + (high - low) * u``.
        return lower + (upper - lower) * u

    def exact_myerson_reserve_price(self) -> float:
        """Closed-form maximiser of ``p (upper - p)/(upper - lower)`` on the support."""
        unconstrained = self.upper / 2.0
        return min(self.upper, max(self.lower, unconstrained))

    def __repr__(self) -> str:
        return f"UniformValuation(lower={self.lower}, upper={self.upper})"


class EmpiricalValuationDistribution(ValuationDistribution):
    """A distribution backed by observed valuation samples.

    The Beijing-style experiments cannot observe exact valuations, only the
    accept/reject outcome against historical prices; the taxi trace
    generator reconstructs censored valuations and wraps them in this
    class so the same pricing machinery applies.
    """

    def __init__(self, samples: Sequence[float]) -> None:
        values = np.sort(np.asarray(list(samples), dtype=float))
        if values.size == 0:
            raise ValueError("samples must be non-empty")
        self._values = values
        self.lower = float(values[0])
        self.upper = float(values[-1])

    def cdf(self, price: ArrayLike) -> ArrayLike:
        counts = np.searchsorted(self._values, price, side="right")
        if np.ndim(counts) == 0:
            return float(counts) / self._values.size
        return counts / self._values.size

    def sample(self, rng: RandomState, size: int = 1) -> np.ndarray:
        return rng.choice(self._values, size=size, replace=True)

    @property
    def num_samples(self) -> int:
        return int(self._values.size)

    def __repr__(self) -> str:
        return f"EmpiricalValuationDistribution(n={self._values.size})"


__all__ = [
    "ValuationDistribution",
    "ParametricValuation",
    "TruncatedNormalValuation",
    "ExponentialValuation",
    "UniformValuation",
    "EmpiricalValuationDistribution",
]
