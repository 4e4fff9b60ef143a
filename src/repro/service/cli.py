"""Command-line front end of the dispatch service.

Two subcommands, reachable both as ``python -m repro.service`` and
through the experiment CLI (``python -m repro.experiments.cli serve`` /
``... replay``)::

    # terminal 1: own the hotspot_burst universe, serve on a fixed port
    python -m repro.service serve --scenario hotspot_burst --port 7431 \
        --slo-ms 50 --admission reject

    # terminal 2: replay the same stream at 6 period-units/second
    python -m repro.service replay --port 7431 --scenario hotspot_burst \
        --strategy SDR --rate 6

``serve --port 0`` binds an ephemeral port and prints it, which is how
the CI job and the benchmark harness boot throwaway servers.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional, Sequence

from repro.service.client import run_replay
from repro.service.server import DispatchServer, ServiceConfig


def build_service_parser() -> argparse.ArgumentParser:
    from repro.pricing.registry import available_strategies
    from repro.simulation.scenarios import available_scenarios

    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Run or exercise the event-at-a-time dispatch service.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="own a scenario universe and quote arrivals over a socket"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port (printed)"
    )
    serve.add_argument(
        "--scenario", choices=available_scenarios(), default="hotspot_burst"
    )
    serve.add_argument("--scale", type=float, default=0.05)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--strategy",
        choices=[name for name in available_strategies() if name != "MAPS"],
        default="BaseP",
        help="default pricing strategy (a hello may override; MAPS needs "
        "window-batched supply and cannot quote event-at-a-time)",
    )
    serve.add_argument("--task-lifetime", type=float, default=4.0)
    serve.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help="per-task adjacency cap over the scenario universe; sessions "
        "then run the universe matcher instead of the live plane",
    )
    serve.add_argument(
        "--slo-ms",
        type=float,
        default=None,
        help="per-quote latency objective; queue waits beyond "
        "degrade-fraction of it switch the quote to the greedy insert "
        "path (default: no SLO, never degrade)",
    )
    serve.add_argument("--degrade-fraction", type=float, default=0.5)
    serve.add_argument("--queue-size", type=int, default=1024)
    serve.add_argument(
        "--admission",
        choices=["block", "reject"],
        default="block",
        help="full-queue policy: block the reader (lossless TCP "
        "backpressure) or shed task arrivals with reject replies",
    )
    serve.add_argument(
        "--once",
        action="store_true",
        help="exit after the first session's connection closes",
    )

    replay = commands.add_parser(
        "replay", help="replay a scenario's arrival stream against a server"
    )
    replay.add_argument("--host", default="127.0.0.1")
    replay.add_argument("--port", type=int, required=True)
    replay.add_argument(
        "--scenario", choices=available_scenarios(), default="hotspot_burst"
    )
    replay.add_argument("--scale", type=float, default=0.05)
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--strategy", default="BaseP")
    replay.add_argument("--task-lifetime", type=float, default=None)
    replay.add_argument(
        "--rate",
        type=float,
        default=None,
        help="stream time units per wall second (default: offline, "
        "as fast as backpressure allows)",
    )
    return parser


def _serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        config = ServiceConfig(
            scenario=args.scenario,
            scale=args.scale,
            seed=args.seed,
            strategy=args.strategy,
            task_lifetime=args.task_lifetime,
            max_degree=args.max_degree,
            slo_ms=args.slo_ms,
            degrade_fraction=args.degrade_fraction,
            queue_size=args.queue_size,
            admission=args.admission,
            once=args.once,
        )
    except ValueError as exc:
        parser.error(str(exc))

    async def _run() -> None:
        server = DispatchServer(config)
        port = await server.start(host=args.host, port=args.port)
        print(
            f"# dispatch service: {config.scenario} scale={config.scale:g} "
            f"seed={config.seed} on {args.host}:{port} "
            f"(admission={config.admission}, slo_ms={config.slo_ms}, "
            f"GET /stats for observability)",
            flush=True,
        )
        try:
            await server.serve_until_stopped()
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        # The shm module's signal/atexit backstops already reclaimed the
        # arena segment; a bare ^C exit is a clean exit.
        pass
    return 0


def _replay(args: argparse.Namespace) -> int:
    report = run_replay(
        args.host,
        args.port,
        args.scenario,
        scale=args.scale,
        seed=args.seed,
        strategy=args.strategy,
        task_lifetime=args.task_lifetime,
        rate=args.rate,
    )
    summary = report.summary or {}
    print(
        f"# replayed {report.events_sent} events in {report.wall_seconds:.3f}s "
        f"({report.events_sent / report.wall_seconds:.0f} ev/s)"
        if report.wall_seconds > 0
        else f"# replayed {report.events_sent} events"
    )
    print(
        f"revenue {summary.get('revenue', 0.0):.4f}  "
        f"quoted {summary.get('quoted', 0)}  "
        f"accepted {summary.get('accepted', 0)}  "
        f"committed {summary.get('committed', 0)}  "
        f"expired {summary.get('expired', 0)}  "
        f"degraded {summary.get('degraded', 0)}  "
        f"rejected {summary.get('rejected', 0)}"
    )
    if report.stats is not None:
        for name in ("queue_wait", "service", "total"):
            series = report.stats.get("latency_ms", {}).get(name)
            if series:
                print(
                    f"{name:>10s}: p50 {series['p50_ms']:.3f} ms  "
                    f"p99 {series['p99_ms']:.3f} ms  "
                    f"max {series['max_ms']:.3f} ms  (n={series['count']})"
                )
    return 0


def service_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_service_parser()
    args = parser.parse_args(list(sys.argv[1:] if argv is None else argv))
    if not args.scale > 0:
        parser.error("--scale must be positive")
    if args.command == "serve":
        return _serve(args, parser)
    return _replay(args)


__all__ = ["build_service_parser", "service_main"]
