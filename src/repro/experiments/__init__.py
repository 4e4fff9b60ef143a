"""Experiment harness reproducing the paper's evaluation (Section 5).

* :mod:`repro.experiments.sweeps` — generic machinery to sweep one
  parameter, run every strategy on each setting and collect the three
  metrics of the paper (revenue, time, memory);
* :mod:`repro.experiments.figures` — the registry of experiments, one per
  table/figure of the paper (Figs. 6, 7, 8 and 10), each mapping a figure
  id to a parameter sweep over the appropriate workload generator;
* :mod:`repro.experiments.parallel` — the :class:`ParallelRunner` that
  fans (strategy, seed) simulation runs across processes with results
  identical to a sequential sweep;
* :mod:`repro.experiments.report` — plain-text table/series rendering used
  by the benchmark harness and the experiment CLI.

The system's own speed from one commit to the next is judged by the
repository benchmark in ``perf/`` (see ``perf/README.md``).
"""

from repro.experiments.parallel import ParallelRunner, StrategySpec, StreamSpec
from repro.experiments.sweeps import (
    ExperimentResult,
    ParameterSweep,
    SweepCell,
    run_sweep,
)
from repro.experiments.figures import (
    FIGURES,
    FigureSpec,
    build_figure_sweep,
    figure_ids,
    get_figure,
)
from repro.experiments.report import (
    format_series,
    format_table,
    result_to_series,
)

__all__ = [
    "ParameterSweep",
    "SweepCell",
    "ExperimentResult",
    "run_sweep",
    "ParallelRunner",
    "StrategySpec",
    "StreamSpec",
    "FigureSpec",
    "FIGURES",
    "figure_ids",
    "get_figure",
    "build_figure_sweep",
    "format_table",
    "format_series",
    "result_to_series",
]
