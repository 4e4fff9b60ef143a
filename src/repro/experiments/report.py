"""Plain-text reporting of experiment results.

The benchmark harness prints, for every reproduced figure, the same series
the paper plots: one row per parameter value and one column per strategy,
for each of the three metrics (``docs/paper_map.md`` lists the figures).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.sweeps import ExperimentResult

_METRIC_ACCESSORS = {
    "revenue": lambda cell: cell.revenue,
    "time": lambda cell: cell.pricing_time_seconds,
    "total_time": lambda cell: cell.total_time_seconds,
    "memory": lambda cell: cell.peak_memory_mb,
    "served": lambda cell: float(cell.served_tasks),
    "accepted": lambda cell: float(cell.accepted_tasks),
}


def result_to_series(
    result: ExperimentResult, metric: str = "revenue"
) -> Dict[str, List[float]]:
    """Extract ``{strategy: [value per parameter]}`` for one metric."""
    if metric not in _METRIC_ACCESSORS:
        raise ValueError(
            f"unknown metric {metric!r}; available: {', '.join(_METRIC_ACCESSORS)}"
        )
    accessor = _METRIC_ACCESSORS[metric]
    series: Dict[str, List[float]] = {}
    for strategy in result.strategies:
        series[strategy] = [
            accessor(result.cell(value, strategy)) for value in result.parameter_values
        ]
    return series


def format_table(
    result: ExperimentResult,
    metric: str = "revenue",
    precision: int = 2,
    title: Optional[str] = None,
) -> str:
    """Render one metric of a sweep as a fixed-width text table."""
    series = result_to_series(result, metric)
    header_cells = [result.parameter_name] + list(result.strategies)
    rows: List[List[str]] = []
    for index, value in enumerate(result.parameter_values):
        row = [str(value)]
        for strategy in result.strategies:
            row.append(f"{series[strategy][index]:.{precision}f}")
        rows.append(row)

    widths = [
        max(len(header_cells[col]), *(len(row[col]) for row in rows))
        for col in range(len(header_cells))
    ]
    lines: List[str] = []
    if title is None:
        title = f"{result.experiment_id} — {metric}"
    lines.append(title)
    lines.append(
        "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(header_cells))
    )
    lines.append("  ".join("-" * widths[col] for col in range(len(header_cells))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    result: ExperimentResult, metrics: Sequence[str] = ("revenue", "time", "memory")
) -> str:
    """Render several metrics of a sweep, separated by blank lines."""
    blocks = [format_table(result, metric) for metric in metrics]
    return "\n\n".join(blocks)


def format_winner_summary(result: ExperimentResult) -> str:
    """One line per parameter value naming the revenue winner."""
    lines = [f"{result.experiment_id}: revenue winners"]
    for value in result.parameter_values:
        winner = result.winner_by_revenue(value)
        revenue = result.cell(value, winner).revenue
        lines.append(f"  {result.parameter_name}={value}: {winner} ({revenue:.2f})")
    return "\n".join(lines)


__all__ = [
    "result_to_series",
    "format_table",
    "format_series",
    "format_winner_summary",
]
