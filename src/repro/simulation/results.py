"""Result types shared by every engine.

The batch, sharded and streaming engines all return a
:class:`SimulationResult`, so reports, sweeps and tests consume them
interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.simulation.metrics import StrategyMetrics


@dataclass
class PeriodOutcome:
    """Details of one simulated period (kept only when requested)."""

    period: int
    num_tasks: int
    num_workers: int
    prices: Dict[int, float]
    accepted_tasks: int
    served_tasks: int
    revenue: float


@dataclass
class SimulationResult:
    """Outcome of one strategy over one workload.

    Attributes:
        metrics: Aggregated revenue / time / memory metrics.
        outcomes: Per-period details (empty unless ``keep_details=True``).
        description: The workload description for reporting.
    """

    metrics: StrategyMetrics
    outcomes: List[PeriodOutcome] = field(default_factory=list)
    description: str = ""

    @property
    def total_revenue(self) -> float:
        return self.metrics.total_revenue


__all__ = ["PeriodOutcome", "SimulationResult"]
