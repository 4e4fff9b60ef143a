"""Registry of the paper's evaluation experiments (Figs. 6, 7, 8 and 10).

Every figure of the evaluation section is registered as a
:class:`FigureSpec`: the swept parameter, the values the paper uses, and a
workload factory.  Because the paper's full-size instances (up to 500 000
tasks and workers over hundreds of periods, times five strategies) are
sized for the authors' C++ implementation, each spec accepts a ``scale``
factor that shrinks the task/worker/period counts proportionally while
preserving the per-period demand/supply density — the quantity that
determines which strategy wins.  The benchmark harness uses a small scale
by default (each ``benchmarks/test_bench_fig*.py`` states its own, and
``docs/paper_map.md`` maps figures to benchmarks); passing ``scale=1.0``
reproduces the paper-sized instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.simulation.config import BeijingConfig, SyntheticConfig, WorkloadBundle
from repro.simulation.generator import SyntheticWorkloadGenerator
from repro.simulation.taxi import BeijingTaxiGenerator
from repro.experiments.sweeps import ParameterSweep

#: A factory building the workload for one (parameter value, scale) pair.
ScaledFactory = Callable[[object, float], WorkloadBundle]


@dataclass(frozen=True)
class FigureSpec:
    """One experiment of the paper's evaluation.

    Attributes:
        figure_id: Identifier used by benchmarks, the CLI and
            ``docs/paper_map.md`` (e.g. ``"fig6-W"``).
        title: Human-readable description.
        parameter_name: Name of the swept parameter as the paper labels it.
        parameter_values: The paper's sweep values.
        factory: Workload factory ``(value, scale) -> WorkloadBundle``.
        metrics: The metrics the paper reports for this figure.
        expectation: One-line statement of the expected qualitative shape,
            checked (loosely) by the benchmark assertions.
    """

    figure_id: str
    title: str
    parameter_name: str
    parameter_values: List[object]
    factory: ScaledFactory
    metrics: List[str] = field(default_factory=lambda: ["revenue", "time", "memory"])
    expectation: str = ""

    def build_sweep(
        self,
        scale: float = 0.05,
        strategies: Optional[Sequence[str]] = None,
        values: Optional[Sequence[object]] = None,
        seed: int = 0,
        track_memory: bool = False,
    ) -> ParameterSweep:
        """Materialise a :class:`ParameterSweep` at the requested scale."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        chosen_values = list(values) if values is not None else list(self.parameter_values)
        sweep_kwargs = dict(
            experiment_id=self.figure_id,
            parameter_name=self.parameter_name,
            parameter_values=chosen_values,
            workload_factory=lambda value: self.factory(value, scale),
            seed=seed,
            track_memory=track_memory,
        )
        if strategies is not None:
            sweep_kwargs["strategies"] = list(strategies)
        return ParameterSweep(**sweep_kwargs)


# ---------------------------------------------------------------------------
# synthetic workload helpers
# ---------------------------------------------------------------------------
#: Default synthetic parameters (bold entries of Table 3).
PAPER_DEFAULTS = dict(
    num_workers=5000,
    num_tasks=20000,
    temporal_mu=0.5,
    spatial_mean=0.5,
    demand_mu=2.0,
    demand_sigma=1.0,
    num_periods=400,
    grid_side=10,
    worker_radius=10.0,
)


def scaled_synthetic_config(scale: float, **overrides) -> SyntheticConfig:
    """Build a :class:`SyntheticConfig` at ``scale`` of the paper's size.

    Worker count, task count and the number of periods are all multiplied
    by ``scale`` (subject to small minimums), so the per-period density of
    tasks and workers — which drives the supply/demand conditions — is
    preserved.  Explicit overrides are applied *after* scaling, so a sweep
    that fixes ``num_periods`` (e.g. the T sweep) can do so.
    """
    params = dict(PAPER_DEFAULTS)
    scaled = dict(
        num_workers=max(10, int(round(params["num_workers"] * scale))),
        num_tasks=max(20, int(round(params["num_tasks"] * scale))),
        num_periods=max(5, int(round(params["num_periods"] * scale))),
    )
    params.update(scaled)
    params.update(overrides)
    return SyntheticConfig(**params)


def _synthetic_workload(scale: float, **overrides) -> WorkloadBundle:
    config = scaled_synthetic_config(scale, **overrides)
    return SyntheticWorkloadGenerator(config).generate()


def _beijing_workload(dataset: int, duration: int, scale: float) -> WorkloadBundle:
    base = BeijingConfig.dataset_1() if dataset == 1 else BeijingConfig.dataset_2()
    config = base.scaled(scale)
    config = replace(
        config,
        worker_duration=int(duration),
        num_periods=max(10, int(round(base.num_periods * max(scale * 4, 0.25)))),
    )
    return BeijingTaxiGenerator(config).generate()


# ---------------------------------------------------------------------------
# figure registry
# ---------------------------------------------------------------------------
FIGURES: Dict[str, FigureSpec] = {}


def _register(spec: FigureSpec) -> FigureSpec:
    FIGURES[spec.figure_id] = spec
    return spec


_register(
    FigureSpec(
        figure_id="fig6-W",
        title="Fig. 6 col. 1: effect of the number of workers |W|",
        parameter_name="|W|",
        parameter_values=[1250, 2500, 5000, 7500, 10000],
        factory=lambda value, scale: _synthetic_workload(
            scale, num_workers=max(5, int(round(int(value) * scale)))
        ),
        expectation="Revenue increases with |W| for every strategy; MAPS is highest.",
    )
)

_register(
    FigureSpec(
        figure_id="fig6-R",
        title="Fig. 6 col. 2: effect of the number of requests |R|",
        parameter_name="|R|",
        parameter_values=[5000, 10000, 20000, 30000, 40000],
        factory=lambda value, scale: _synthetic_workload(
            scale, num_tasks=max(10, int(round(int(value) * scale)))
        ),
        expectation="Revenue increases with |R| and saturates; MAPS is highest.",
    )
)

_register(
    FigureSpec(
        figure_id="fig6-tmu",
        title="Fig. 6 col. 3: effect of the temporal distribution mean of requests",
        parameter_name="mu",
        parameter_values=[0.1, 0.3, 0.5, 0.7, 0.9],
        factory=lambda value, scale: _synthetic_workload(scale, temporal_mu=float(value)),
        expectation="Revenue peaks when the task mean aligns with the workers' (mu=0.5).",
    )
)

_register(
    FigureSpec(
        figure_id="fig6-smean",
        title="Fig. 6 col. 4: effect of the spatial distribution mean of requests",
        parameter_name="mean",
        parameter_values=[0.1, 0.3, 0.5, 0.7, 0.9],
        factory=lambda value, scale: _synthetic_workload(scale, spatial_mean=float(value)),
        expectation="Revenue peaks when task origins overlap the workers' (mean=0.5).",
    )
)

_register(
    FigureSpec(
        figure_id="fig7-dmu",
        title="Fig. 7 col. 1: effect of the demand distribution mean",
        parameter_name="mu",
        parameter_values=[1.0, 1.5, 2.0, 2.5, 3.0],
        factory=lambda value, scale: _synthetic_workload(scale, demand_mu=float(value)),
        expectation="Revenue increases with the valuation mean; MAPS is highest.",
    )
)

_register(
    FigureSpec(
        figure_id="fig7-dsigma",
        title="Fig. 7 col. 2: effect of the demand distribution standard deviation",
        parameter_name="sigma",
        parameter_values=[0.5, 1.0, 1.5, 2.0, 2.5],
        factory=lambda value, scale: _synthetic_workload(scale, demand_sigma=float(value)),
        expectation="Revenue increases with sigma (truncation raises the mean); MAPS is highest.",
    )
)

_register(
    FigureSpec(
        figure_id="fig7-T",
        title="Fig. 7 col. 3: effect of the number of time periods T",
        parameter_name="T",
        parameter_values=[200, 400, 600, 800, 1000],
        factory=lambda value, scale: _synthetic_workload(
            scale, num_periods=max(5, int(round(int(value) * scale)))
        ),
        expectation="Revenue decreases slightly as T grows (thinner per-period markets).",
    )
)

_register(
    FigureSpec(
        figure_id="fig7-G",
        title="Fig. 7 col. 4: effect of the number of grids G",
        parameter_name="G",
        parameter_values=[25, 100, 225, 400, 625],
        factory=lambda value, scale: _synthetic_workload(
            scale, grid_side=int(round(int(value) ** 0.5))
        ),
        expectation="Revenue first rises with G then flattens; memory grows with G.",
    )
)

_register(
    FigureSpec(
        figure_id="fig8-aw",
        title="Fig. 8 col. 1: effect of the worker radius a_w",
        parameter_name="a_w",
        parameter_values=[5, 10, 15, 20, 25],
        factory=lambda value, scale: _synthetic_workload(scale, worker_radius=float(value)),
        expectation="Revenue increases with a_w and saturates; MAPS time grows with edges.",
    )
)

_register(
    FigureSpec(
        figure_id="fig8-scale",
        title="Fig. 8 col. 2: scalability with |W| = |R|",
        parameter_name="|W|=|R|",
        parameter_values=[100000, 200000, 300000, 400000, 500000],
        factory=lambda value, scale: _synthetic_workload(
            scale,
            num_workers=max(10, int(round(int(value) * scale))),
            num_tasks=max(10, int(round(int(value) * scale))),
        ),
        expectation="MAPS time grows roughly linearly; other strategies stay flat.",
    )
)

_register(
    FigureSpec(
        figure_id="fig8-real1",
        title="Fig. 8 col. 3: Beijing dataset #1 (5pm-7pm), varying worker duration",
        parameter_name="delta_w",
        parameter_values=[5, 10, 15, 20, 25],
        factory=lambda value, scale: _beijing_workload(1, int(value), scale),
        expectation="Revenue grows with worker duration and saturates; MAPS is highest.",
    )
)

_register(
    FigureSpec(
        figure_id="fig8-real2",
        title="Fig. 8 col. 4: Beijing dataset #2 (0am-2am), varying worker duration",
        parameter_name="delta_w",
        parameter_values=[5, 10, 15, 20, 25],
        factory=lambda value, scale: _beijing_workload(2, int(value), scale),
        expectation="MAPS highest; CappedUCB competitive with BaseP under tight supply.",
    )
)

_register(
    FigureSpec(
        figure_id="fig10-alpha",
        title="Fig. 10 (Appendix D): exponential demand distribution, varying alpha",
        parameter_name="alpha",
        parameter_values=[0.5, 0.75, 1.0, 1.25, 1.5],
        factory=lambda value, scale: _synthetic_workload(
            scale, demand_distribution="exponential", demand_rate=float(value)
        ),
        expectation="MAPS highest for every alpha, mirroring the normal-demand results.",
    )
)


def figure_ids() -> List[str]:
    """All registered experiment identifiers, in registration order."""
    return list(FIGURES.keys())


def get_figure(figure_id: str) -> FigureSpec:
    """Look up a figure spec by id.

    Raises:
        KeyError: for unknown ids; the message lists the available ones.
    """
    if figure_id not in FIGURES:
        raise KeyError(
            f"unknown figure id {figure_id!r}; available: {', '.join(figure_ids())}"
        )
    return FIGURES[figure_id]


def build_figure_sweep(figure_id: str, **kwargs) -> ParameterSweep:
    """Shortcut: ``get_figure(figure_id).build_sweep(**kwargs)``."""
    return get_figure(figure_id).build_sweep(**kwargs)


__all__ = [
    "FigureSpec",
    "FIGURES",
    "figure_ids",
    "get_figure",
    "build_figure_sweep",
    "scaled_synthetic_config",
    "PAPER_DEFAULTS",
]
