#!/usr/bin/env python
"""cProfile harness over any scenario / strategy / dispatch mode combination.

Perf PRs should start from evidence, not intuition: this tool runs one
simulation under ``cProfile`` and prints the top-N hotspots, so "where
does the time go?" is one command::

    PYTHONPATH=src python tools/profile_run.py                       # defaults
    PYTHONPATH=src python tools/profile_run.py --scenario city_scale \
        --scale 0.02 --strategy BaseP
    PYTHONPATH=src python tools/profile_run.py --scenario city_scale \
        --scale 0.02 --shards 8 --halo 1 --sort tottime --top 40
    PYTHONPATH=src python tools/profile_run.py --scenario hotspot_burst \
        --streaming --window 0.5
    PYTHONPATH=src python tools/profile_run.py --scenario hotspot_burst \
        --service --scale 0.05  # event-at-a-time DispatchSession quoting
    PYTHONPATH=src python tools/profile_run.py --max-degree 8 \
        --output hotpath.pstats   # dump for snakeviz/pstats browsing

The same measurement is available inline as ``repro-experiments
--scenario ... --profile [N]``; this standalone harness adds sort-order
control, ``.pstats`` dumps and a calibration-free fast path (the strategy
is built directly, skipping Algorithm 1, so the profile isolates the
dispatch loop).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.pricing.registry import available_strategies, create_strategy  # noqa: E402
from repro.simulation.scenarios import available_scenarios, get_scenario  # noqa: E402
from repro.simulation.sharded import ShardedEngine  # noqa: E402
from repro.simulation.streaming import EventStreamingEngine, StreamingEngine  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Profile one simulation run and print the top hotspots."
    )
    parser.add_argument(
        "--scenario",
        choices=available_scenarios(),
        default="city_scale",
        help="registered scenario to run (default city_scale)",
    )
    parser.add_argument(
        "--strategy",
        choices=available_strategies(),
        default="BaseP",
        help="pricing strategy (default BaseP: cheap quoting keeps the "
        "profile dominated by the dispatch hot path)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.01, help="scenario scale (default 0.01)"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload/engine seed")
    parser.add_argument(
        "--base-price", type=float, default=2.0, help="strategy base price"
    )
    parser.add_argument(
        "--shards", type=int, default=1, help="shard count (default 1 = global solve)"
    )
    parser.add_argument("--halo", type=int, default=1, help="halo band width in cells")
    parser.add_argument(
        "--max-degree",
        type=int,
        default=None,
        metavar="K",
        help="cap each task at its K nearest workers (default: exact graph)",
    )
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="drive the event-driven streaming engine instead of the batch one",
    )
    parser.add_argument(
        "--window",
        type=float,
        default=1.0,
        help="streaming dispatch window length (requires --streaming)",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="profile the event-at-a-time DispatchSession quote path "
        "(the service hot loop, without the socket layer)",
    )
    parser.add_argument(
        "--task-lifetime",
        type=float,
        default=4.0,
        help="quote validity horizon in stream time units (requires "
        "--service; default 4.0)",
    )
    parser.add_argument(
        "--top", type=int, default=30, help="hotspot rows to print (default 30)"
    )
    parser.add_argument(
        "--sort",
        choices=["cumulative", "tottime", "ncalls"],
        default="cumulative",
        help="pstats sort order (default cumulative)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="FILE.pstats",
        help="also dump the raw profile for pstats/snakeviz browsing",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.top < 1:
        raise SystemExit("--top must be a positive integer")
    if args.window <= 0:
        raise SystemExit("--window must be positive")
    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    if args.task_lifetime <= 0:
        raise SystemExit("--task-lifetime must be positive")
    if args.service and args.streaming:
        raise SystemExit("--service and --streaming are mutually exclusive")

    scenario = get_scenario(args.scenario)
    strategy = create_strategy(args.strategy, base_price=args.base_price)
    if args.service:
        stream = scenario.stream(scale=args.scale, seed=args.seed)
        engine = EventStreamingEngine(
            stream,
            seed=args.seed,
            task_lifetime=args.task_lifetime,
            max_degree=args.max_degree,
        )
        backend_name = "live-plane" if args.max_degree is None else "universe"
        mode = f"service session ({backend_name} matcher)"
    elif args.streaming:
        stream = scenario.stream(scale=args.scale, seed=args.seed)
        engine = StreamingEngine(
            stream,
            seed=args.seed,
            window=args.window,
            max_degree=args.max_degree,
        )
        mode = f"streaming (window={args.window:g})"
    else:
        if hasattr(scenario, "chunked"):
            workload = scenario.chunked(scale=args.scale, seed=args.seed)
        else:
            workload = scenario.bundle(scale=args.scale, seed=args.seed)
        engine = ShardedEngine(
            workload,
            num_shards=args.shards,
            halo=args.halo if args.shards > 1 else 0,
            seed=args.seed,
            max_degree=args.max_degree,
        )
        mode = f"sharded (shards={args.shards})" if args.shards > 1 else "batch"

    print(
        f"# profiling {args.scenario} [{mode}] strategy={args.strategy} "
        f"scale={args.scale:g} seed={args.seed} "
        f"max_degree={args.max_degree}"
    )
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = engine.run(strategy)
    profiler.disable()
    elapsed = time.perf_counter() - start

    metrics = result.metrics
    tasks_per_second = metrics.total_tasks / elapsed if elapsed else float("inf")
    print(
        f"# {elapsed:.2f}s wall  {metrics.total_tasks} tasks  "
        f"{tasks_per_second:.0f} tasks/s  revenue={metrics.total_revenue:.1f}  "
        f"served={metrics.served_tasks}"
    )
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(args.sort).print_stats(args.top)
    print(buffer.getvalue())
    if args.output is not None:
        stats.dump_stats(str(args.output))
        print(f"# raw profile dumped to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
