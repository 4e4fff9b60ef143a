"""Command-line interface for the experiment harness.

Regenerate any figure of the paper's evaluation, or run any registered
scenario in batch or streaming mode, from a shell::

    python -m repro.experiments.cli --list
    python -m repro.experiments.cli --figure fig6-W --scale 0.02
    python -m repro.experiments.cli --figure fig8-real2 --scale 0.005 \
        --strategies MAPS BaseP --metrics revenue time
    python -m repro.experiments.cli --scenario hotspot_burst --streaming \
        --window 0.5 --jobs 4
    python -m repro.experiments.cli --scenario city_scale --scale 0.02 \
        --shards 8 --halo 1 --strategies BaseP

Figure runs print the same plain-text tables the benchmark harness prints
(one row per swept parameter value, one column per strategy, one table per
metric) plus a one-line revenue-winner summary; scenario runs print one
row per strategy.  The ``--help`` epilog enumerates the registered
pricing strategies, matching backends and scenarios straight from their
registries.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional, Sequence

from repro.experiments.figures import FIGURES, figure_ids, get_figure
from repro.experiments.parallel import (
    ParallelRunner,
    ShardSpec,
    StrategySpec,
    StreamSpec,
)
from repro.experiments.report import format_table, format_winner_summary
from repro.experiments.sweeps import run_sweep
from repro.matching.registry import available_backends
from repro.pricing.registry import available_strategies, calibrated_kwargs
from repro.simulation.scenarios import available_scenarios, get_scenario
from repro.simulation.sharded import ShardedEngine

# Importing the backend implementations registers them; keep this import
# even though nothing references the module directly.
import repro.matching.weighted  # noqa: F401


class _UsageError(Exception):
    """Arguments that parse but describe an impossible run.

    :func:`main` reports it through ``parser.error`` (one ``error:``
    line, exit status 2) instead of a traceback.
    """


def _registry_epilog() -> str:
    """The ``--help`` epilog, sourced from the live registries."""
    return "\n".join(
        [
            "registered pricing strategies: " + ", ".join(available_strategies()),
            "registered matching backends:  " + ", ".join(available_backends()),
            "registered scenarios:          " + ", ".join(available_scenarios()),
        ]
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the evaluation figures of the SIGMOD'18 dynamic "
        "pricing paper at a configurable scale, or run a registered scenario "
        "in batch or streaming mode.",
        epilog=_registry_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the available experiment ids and scenarios, then exit",
    )
    parser.add_argument(
        "--figure",
        choices=figure_ids(),
        help="experiment id to run (see --list)",
    )
    parser.add_argument(
        "--scenario",
        choices=available_scenarios(),
        help="registered scenario to run (single setting, every strategy)",
    )
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="dispatch the scenario through the event-driven streaming "
        "engine instead of the batch engine (requires --scenario)",
    )
    parser.add_argument(
        "--window",
        type=float,
        default=None,
        help="streaming dispatch window length in period units (requires "
        "--streaming; default 1.0 = the paper's one-minute period)",
    )
    parser.add_argument(
        "--dynamic",
        action="store_true",
        help="dispatch through the dynamic streaming engine, which "
        "maintains one matching under churn via delta repair (tasks stay "
        "tentatively matched until their deadline; requires --streaming)",
    )
    parser.add_argument(
        "--task-lifetime",
        type=float,
        default=None,
        metavar="T",
        help="periods an accepted task stays open before its tentative "
        "assignment commits or expires (requires --dynamic --streaming; "
        "per-task Task.duration overrides it; default 4.0)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="partition the grid into this many rectangular shards and "
        "dispatch them through the sharded engine (batch --scenario runs "
        "only; 1 reproduces the batch engine bit-for-bit)",
    )
    parser.add_argument(
        "--halo",
        type=int,
        default=None,
        help="width, in grid cells, of the halo-exchange reconciliation "
        "band between shards (requires --shards; default 1, 0 disables "
        "reconciliation)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="fraction of the paper-sized workload to generate (figure "
        "default 0.01; scenario default varies per scenario; 1.0 "
        "reproduces the nominal instance sizes)",
    )
    parser.add_argument(
        "--max-degree",
        type=int,
        default=None,
        metavar="K",
        help="keep only the K nearest workers per task in the bipartite "
        "graph (scenario runs only; speeds dense periods at a small, "
        "bounded revenue cost — see docs/performance.md; default: exact "
        "uncapped graph)",
    )
    parser.add_argument(
        "--profile",
        type=int,
        nargs="?",
        const=25,
        default=None,
        metavar="N",
        help="run under cProfile and print the top N cumulative hotspots "
        "after the tables (default N=25; see also tools/profile_run.py)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="root random seed for the run"
    )
    parser.add_argument(
        "--strategies",
        nargs="+",
        default=None,
        metavar="NAME",
        help=f"strategies to compare (default: {' '.join(available_strategies())})",
    )
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default="matroid",
        help="matching backend for the realized matching (default matroid)",
    )
    parser.add_argument(
        "--metrics",
        nargs="+",
        default=None,
        choices=["revenue", "time", "total_time", "memory", "served", "accepted"],
        help="metrics to print in figure mode (default: revenue time "
        "memory); scenario runs always print the full per-strategy table",
    )
    parser.add_argument(
        "--values",
        nargs="+",
        default=None,
        help="override the swept parameter values in figure mode (numbers)",
    )
    parser.add_argument(
        "--no-memory-tracking",
        action="store_true",
        help="disable tracemalloc peak-memory tracking (faster)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the per-value strategy runs (1 = "
        "sequential, 0 = one per effective core); results are "
        "identical to a sequential run for the same seed.  Combined with "
        "--shards the shard dispatch stays inside each run's process, so "
        "the total process count is --jobs",
    )
    return parser


def _parse_values(raw_values: Optional[Sequence[str]]) -> Optional[List[float]]:
    if raw_values is None:
        return None
    parsed: List[float] = []
    for value in raw_values:
        number = float(value)
        parsed.append(int(number) if number.is_integer() else number)
    return parsed


def _run_figure(args: argparse.Namespace) -> int:
    spec = get_figure(args.figure)
    scale = 0.01 if args.scale is None else args.scale
    sweep = spec.build_sweep(
        scale=scale,
        strategies=args.strategies,
        values=_parse_values(args.values),
        seed=args.seed,
        track_memory=not args.no_memory_tracking,
    )
    print(f"# {spec.title}")
    print(f"# expectation: {spec.expectation}")
    print(f"# scale = {scale}, seed = {args.seed}")
    result = run_sweep(sweep, jobs=args.jobs)
    for metric in args.metrics or ["revenue", "time", "memory"]:
        print()
        print(format_table(result, metric))
    print()
    print(format_winner_summary(result))
    return 0


def _run_scenario(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.scenario)
    scale = scenario.default_scale if args.scale is None else args.scale
    window = 1.0 if args.window is None else args.window
    halo = 1 if args.halo is None else args.halo
    # Sharded runs over a lazily chunked scenario stay chunked end to end:
    # materialising a city-scale horizon is exactly what ChunkedWorkload
    # exists to avoid, and the sharded engine consumes it natively.
    use_chunked = args.shards is not None and hasattr(scenario, "chunked")
    if use_chunked:
        workload = scenario.chunked(scale=scale, seed=args.seed)
    else:
        workload = scenario.bundle(scale=scale, seed=args.seed)
        if workload.total_tasks == 0:
            raise _UsageError(
                f"scenario {args.scenario!r} at --scale {scale:g} generates no "
                "tasks; raise --scale"
            )
    p_min, p_max = workload.price_bounds

    # Calibrate once (Algorithm 1 probes the same ground-truth acceptance
    # models every mode dispatches against).  Chunked workloads calibrate
    # every grid cell; bundles calibrate the grids that have demand.
    calibration = ShardedEngine(workload, seed=args.seed).calibrate_base_price()
    strategies = args.strategies or available_strategies()
    specs = [
        StrategySpec(name, calibrated_kwargs(name, calibration, p_min=p_min, p_max=p_max))
        for name in strategies
    ]
    if args.streaming:
        mode = f"streaming (window={window:g})"
        if args.dynamic:
            lifetime = 4.0 if args.task_lifetime is None else args.task_lifetime
            mode = f"dynamic streaming (window={window:g}, lifetime={lifetime:g})"
    elif args.shards is not None:
        mode = f"sharded (shards={args.shards}, halo={halo})"
    else:
        mode = "batch"
    if args.max_degree is not None:
        mode += f", max-degree={args.max_degree}"
    print(f"# scenario {args.scenario}: {scenario.description}")
    print(f"# workload: {workload.description}")
    print(
        f"# mode = {mode}, scale = {scale:g}, seed = {args.seed}, "
        f"backend = {args.backend}, base price = {calibration.base_price:.3f}"
    )
    if use_chunked:
        # Chunk factories are process-local (unpicklable closures), so the
        # strategies run sequentially through one sharded engine; results
        # are identical to fanned-out runs for the same seed anyway.
        if args.jobs not in (0, 1):
            print("# note: --jobs is ignored for chunked sharded runs")
        engine = ShardedEngine(
            workload,
            num_shards=args.shards,
            halo=halo,
            seed=args.seed,
            matching_backend=args.backend,
            track_memory=not args.no_memory_tracking,
            max_degree=args.max_degree,
        )
        results = {
            (spec.key, args.seed): engine.run(spec.build()) for spec in specs
        }
    else:
        runner = ParallelRunner(
            workload=None if args.streaming else workload,
            specs=specs,
            seeds=[args.seed],
            matching_backend=args.backend,
            max_workers=None if args.jobs <= 0 else args.jobs,
            track_memory=not args.no_memory_tracking,
            stream=(
                StreamSpec(
                    scenario=args.scenario,
                    scale=scale,
                    seed=args.seed,
                    window=window,
                    dynamic=args.dynamic,
                    task_lifetime=args.task_lifetime,
                )
                if args.streaming
                else None
            ),
            shards=(
                ShardSpec(num_shards=args.shards, halo=halo)
                if args.shards is not None
                else None
            ),
            max_degree=args.max_degree,
        )
        results = runner.run()
    print()
    print(
        f"{'strategy':>10s} {'revenue':>12s} {'served':>8s} {'accepted':>9s} "
        f"{'accept %':>9s} {'pricing s':>10s} {'matching s':>11s} {'peak MB':>8s}"
    )
    for (name, _seed), result in results.items():
        metrics = result.metrics
        print(
            f"{name:>10s} {metrics.total_revenue:12.1f} {metrics.served_tasks:8d} "
            f"{metrics.accepted_tasks:9d} {100 * metrics.acceptance_rate:9.1f} "
            f"{metrics.pricing_time_seconds:10.3f} {metrics.matching_time_seconds:11.3f} "
            f"{metrics.peak_memory_mb:8.1f}"
        )
    best = max(results.items(), key=lambda item: item[1].metrics.total_revenue)
    print()
    print(f"revenue winner: {best[0][0]} ({best[1].metrics.total_revenue:.1f})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    arglist = list(sys.argv[1:] if argv is None else argv)
    # The dispatch-service subcommands live in their own parser so the
    # legacy flag interface stays untouched (see docs/service.md).
    if arglist and arglist[0] in ("serve", "replay"):
        from repro.service.cli import service_main

        return service_main(arglist)
    parser = build_parser()
    args = parser.parse_args(arglist)

    if args.list:
        for figure_id in figure_ids():
            spec = FIGURES[figure_id]
            print(f"{figure_id:12s}  {spec.title}")
        for name in available_scenarios():
            scenario = get_scenario(name)
            modes = "batch+streaming"
            print(f"{name:12s}  [scenario, {modes}] {scenario.description}")
        return 0

    if args.figure is not None and args.scenario is not None:
        parser.error("--figure and --scenario are mutually exclusive")
    if args.streaming and args.scenario is None:
        parser.error("--streaming requires --scenario")
    if args.scale is not None and not args.scale > 0:
        parser.error("--scale must be positive")
    if args.window is not None and not args.streaming:
        parser.error("--window requires --streaming")
    if args.window is not None and not (math.isfinite(args.window) and args.window > 0):
        parser.error("--window must be positive and finite")
    if args.shards is not None and args.scenario is None:
        parser.error("--shards requires --scenario")
    if args.shards is not None and args.streaming:
        parser.error("--shards is batch-mode; drop --streaming")
    if args.shards is not None and args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.halo is not None and args.shards is None:
        parser.error("--halo requires --shards")
    if args.halo is not None and args.halo < 0:
        parser.error("--halo must be non-negative")
    if args.dynamic and not args.streaming:
        parser.error("--dynamic requires --streaming")
    if args.dynamic and args.backend != "matroid":
        parser.error(
            "--dynamic --streaming maintains the matroid-equivalent "
            "matching; --backend cannot override it"
        )
    if args.task_lifetime is not None:
        if not args.dynamic:
            parser.error("--task-lifetime requires --dynamic --streaming")
        if not (math.isfinite(args.task_lifetime) and args.task_lifetime > 0):
            parser.error("--task-lifetime must be positive and finite")
    if args.scenario is None and args.backend != "matroid":
        parser.error("--backend is only honored with --scenario")
    if args.scenario is not None and args.values is not None:
        parser.error("--values is only honored with --figure")
    if args.scenario is not None and args.metrics is not None:
        parser.error(
            "--metrics is only honored with --figure "
            "(scenario runs print the full per-strategy table)"
        )
    if args.max_degree is not None and args.scenario is None:
        parser.error("--max-degree requires --scenario")
    if args.max_degree is not None and args.max_degree < 1:
        parser.error("--max-degree must be a positive integer")
    if args.profile is not None and args.profile < 1:
        parser.error("--profile must be a positive integer")

    if args.scenario is not None:
        runner = _run_scenario
    elif args.figure is not None:
        runner = _run_figure
    else:
        parser.error("--figure or --scenario is required unless --list is given")

    try:
        if args.profile is None:
            return runner(args)

        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            status = runner(args)
        finally:
            profiler.disable()
            print()
            print(f"# top {args.profile} hotspots (cumulative time)")
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(args.profile)
        return status
    except _UsageError as error:
        parser.error(str(error))


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
