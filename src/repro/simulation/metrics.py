"""Metrics collection: revenue, running time and memory.

The paper reports three metrics per strategy and parameter setting: total
revenue across the horizon, total running time of the pricing strategy
(excluding workload generation), and peak memory.  Python cannot reproduce
the absolute C++ numbers, but the *relative* ordering (MAPS slowest but
still cheap, CappedUCB most memory-hungry, heuristics constant-time) is
what :class:`MetricsCollector` captures: it accumulates per-period pricing
time with ``time.perf_counter`` and tracks peak memory with ``tracemalloc``
when enabled.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class StrategyMetrics:
    """Aggregated metrics of one strategy over one simulation run.

    Attributes:
        strategy: Strategy name.
        total_revenue: Sum of realized revenue over all periods.
        pricing_time_seconds: Time spent inside the strategy (pricing +
            learning updates), summed over periods.
        decide_time_seconds: Time spent realising the requesters'
            accept/reject decisions and packing the feedback batch (the
            platform-side vectorised decide/feedback stages).
        matching_time_seconds: Time spent computing the realized matching
            (the platform-side assignment; identical workload for every
            strategy).
        peak_memory_bytes: Peak traced allocation during the run (0 when
            memory tracking is disabled).
        served_tasks: Number of tasks actually served.
        accepted_tasks: Number of tasks whose requester accepted the price.
        total_tasks: Number of tasks offered a price.
        revenue_by_period: Realized revenue per period (for time series
            plots and tests).
    """

    strategy: str
    total_revenue: float = 0.0
    pricing_time_seconds: float = 0.0
    decide_time_seconds: float = 0.0
    matching_time_seconds: float = 0.0
    peak_memory_bytes: int = 0
    served_tasks: int = 0
    accepted_tasks: int = 0
    total_tasks: int = 0
    revenue_by_period: List[float] = field(default_factory=list)

    @property
    def acceptance_rate(self) -> float:
        if self.total_tasks == 0:
            return 0.0
        return self.accepted_tasks / self.total_tasks

    @property
    def service_rate(self) -> float:
        if self.total_tasks == 0:
            return 0.0
        return self.served_tasks / self.total_tasks

    @property
    def peak_memory_mb(self) -> float:
        return self.peak_memory_bytes / (1024.0 * 1024.0)

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary used by the experiment report writers."""
        return {
            "strategy": self.strategy,
            "total_revenue": self.total_revenue,
            "pricing_time_seconds": self.pricing_time_seconds,
            "decide_time_seconds": self.decide_time_seconds,
            "matching_time_seconds": self.matching_time_seconds,
            "peak_memory_mb": self.peak_memory_mb,
            "served_tasks": float(self.served_tasks),
            "accepted_tasks": float(self.accepted_tasks),
            "total_tasks": float(self.total_tasks),
            "acceptance_rate": self.acceptance_rate,
            "service_rate": self.service_rate,
        }


class _Stopwatch:
    """Adds the wall time of a ``with`` block to one metrics field.

    A plain class rather than a generator context manager: the batch
    loop opens several per shard and period.
    """

    __slots__ = ("_metrics", "_field", "_start")

    def __init__(self, metrics: StrategyMetrics, field_name: str) -> None:
        self._metrics = metrics
        self._field = field_name
        self._start = 0.0

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        total = getattr(self._metrics, self._field) + elapsed
        setattr(self._metrics, self._field, total)


class MetricsCollector:
    """Accumulates :class:`StrategyMetrics` during a simulation run.

    Args:
        strategy: Strategy name for labelling.
        track_memory: Enable ``tracemalloc`` peak tracking.  Off by default
            because tracing slows allocation-heavy code noticeably; the
            memory benchmarks switch it on explicitly.
    """

    def __init__(self, strategy: str, track_memory: bool = False) -> None:
        self.metrics = StrategyMetrics(strategy=strategy)
        self._track_memory = bool(track_memory)
        self._memory_started_here = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._track_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._memory_started_here = True

    def finish(self) -> StrategyMetrics:
        if self._track_memory and tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            self.metrics.peak_memory_bytes = max(self.metrics.peak_memory_bytes, int(peak))
            if self._memory_started_here:
                tracemalloc.stop()
        return self.metrics

    # ------------------------------------------------------------------
    # timed sections
    # ------------------------------------------------------------------
    def time_pricing(self) -> "_Stopwatch":
        return _Stopwatch(self.metrics, "pricing_time_seconds")

    def time_decide(self) -> "_Stopwatch":
        return _Stopwatch(self.metrics, "decide_time_seconds")

    def time_matching(self) -> "_Stopwatch":
        return _Stopwatch(self.metrics, "matching_time_seconds")

    # ------------------------------------------------------------------
    # per-period accounting
    # ------------------------------------------------------------------
    def record_period(
        self,
        revenue: float,
        served_tasks: int,
        accepted_tasks: int,
        total_tasks: int,
    ) -> None:
        if revenue < 0:
            raise ValueError("revenue must be non-negative")
        self.metrics.total_revenue += revenue
        self.metrics.revenue_by_period.append(revenue)
        self.metrics.served_tasks += served_tasks
        self.metrics.accepted_tasks += accepted_tasks
        self.metrics.total_tasks += total_tasks
        if self._track_memory and tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            self.metrics.peak_memory_bytes = max(self.metrics.peak_memory_bytes, int(peak))


__all__ = ["MetricsCollector", "StrategyMetrics"]
