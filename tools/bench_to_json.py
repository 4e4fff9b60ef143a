#!/usr/bin/env python
"""Record benchmark trajectory points as ``BENCH_*.json``.

Runs one of the repo's measurement protocols — the sharded-engine
throughput of ``benchmarks/test_bench_sharded.py``, the matching
hot-path throughput of ``benchmarks/test_bench_matching.py``, the
delta-repair vs per-window re-solve comparison of
``benchmarks/test_bench_dynamic.py`` (``churn_city``), or the dispatch
service quote latency of ``benchmarks/test_bench_service.py``
(``hotspot_burst``; the others run ``city_scale``) — by default at the
full ~1M-task horizon, and
**appends** the result to the machine-readable baseline future perf PRs
are compared against::

    PYTHONPATH=src python tools/bench_to_json.py                     # sharded, full 1M run
    PYTHONPATH=src python tools/bench_to_json.py --benchmark matching
    PYTHONPATH=src python tools/bench_to_json.py --benchmark dynamic
    PYTHONPATH=src python tools/bench_to_json.py --scale 0.05        # quick look
    PYTHONPATH=src python tools/bench_to_json.py --shards 1 8 --halo 2
    PYTHONPATH=src python tools/bench_to_json.py --benchmark matching \
        --configs vectorized capped-16 vgreedy

Output schema: ``{"benchmark": ..., "runs": [run, run, ...]}`` where each
run carries the measurement payload plus ``host`` and ``created``
metadata.  Appending (the default) preserves the existing trajectory so
the files accumulate one point per significant change; ``--overwrite``
starts a fresh trajectory.  Legacy single-run files (the original
``BENCH_sharded.json`` layout) are wrapped into the trajectory schema on
first append — readers should accept both.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.bench_dynamic import (  # noqa: E402
    measure_dynamic_throughput,
)
from repro.experiments.bench_matching import (  # noqa: E402
    DEFAULT_CONFIGS,
    measure_matching_throughput,
)
from repro.experiments.bench_runtime import (  # noqa: E402
    measure_runtime_throughput,
)
from repro.experiments.bench_service import measure_service_latency  # noqa: E402
from repro.experiments.bench_sharded import measure_sharded_throughput  # noqa: E402
from repro.utils.affinity import effective_cpu_count  # noqa: E402

DEFAULT_OUTPUTS = {
    "sharded": REPO_ROOT / "BENCH_sharded.json",
    "matching": REPO_ROOT / "BENCH_matching.json",
    "runtime": REPO_ROOT / "BENCH_runtime.json",
    "dynamic": REPO_ROOT / "BENCH_dynamic.json",
    "service": REPO_ROOT / "BENCH_service.json",
}


def git_provenance() -> dict:
    """The repo's git SHA (and dirty flag) for run attribution.

    Benchmark trajectories accumulate one point per PR; without the SHA
    a regression cannot be traced back to the change that caused it.
    Degrades to ``None`` fields outside a git checkout.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        return {"sha": sha, "dirty": bool(status)}
    except (OSError, subprocess.CalledProcessError):  # pragma: no cover - no git
        return {"sha": None, "dirty": None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Measure a city_scale benchmark and append it to BENCH_*.json"
    )
    parser.add_argument(
        "--benchmark",
        choices=sorted(DEFAULT_OUTPUTS),
        default="sharded",
        help="measurement protocol to run (default sharded)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="horizon scale (1.0 = the ~1M-task horizon)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=[1, 4, 8],
        help="[sharded] shard counts to measure (1 = the global baseline)",
    )
    parser.add_argument(
        "--halo", type=int, default=1, help="[sharded] halo band width in cells"
    )
    parser.add_argument(
        "--configs",
        nargs="+",
        default=None,
        metavar="CONFIG",
        help="[matching] hot-path configurations (e.g. loop vectorized "
        "capped-16 vgreedy loop+capped-8); [runtime] data-plane "
        "configurations (pr4-baseline columnar columnar-vgreedy)",
    )
    parser.add_argument(
        "--max-degree",
        type=int,
        default=16,
        help="[runtime] per-task adjacency cap of the compound "
        "configuration (default 16)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload and engine seed")
    parser.add_argument(
        "--strategy", default="BaseP", help="pricing strategy to drive the runs"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="output path (default: BENCH_<benchmark>.json at the repo root)",
    )
    parser.add_argument(
        "--overwrite",
        action="store_true",
        help="start a fresh trajectory instead of appending to an existing file",
    )
    return parser


def load_trajectory(path: Path, benchmark_name: str) -> dict:
    """Load (or initialise) a trajectory file, wrapping legacy layouts."""
    if not path.exists():
        return {"benchmark": benchmark_name, "runs": []}
    payload = json.loads(path.read_text(encoding="utf-8"))
    if "runs" in payload:
        return payload
    # Legacy single-run layout: the whole object is one run.
    return {"benchmark": payload.get("benchmark", benchmark_name), "runs": [payload]}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    output = args.output or DEFAULT_OUTPUTS[args.benchmark]
    if args.benchmark == "dynamic":
        scenario = "churn_city"
    elif args.benchmark == "service":
        scenario = "hotspot_burst"
    else:
        scenario = "city_scale"
    print(
        f"measuring {scenario} [{args.benchmark}] at scale {args.scale:g} ..."
    )
    if args.benchmark == "sharded":
        run = measure_sharded_throughput(
            scale=args.scale,
            shard_counts=tuple(args.shards),
            halo=args.halo,
            seed=args.seed,
            strategy=args.strategy,
        )
    elif args.benchmark == "runtime":
        from repro.experiments.bench_runtime import RUNTIME_CONFIGS

        run = measure_runtime_throughput(
            scale=args.scale,
            configs=tuple(args.configs or RUNTIME_CONFIGS),
            shards=args.shards[-1] if args.shards else 8,
            halo=args.halo,
            max_degree=args.max_degree,
            seed=args.seed,
            strategy=args.strategy,
        )
    elif args.benchmark == "dynamic":
        run = measure_dynamic_throughput(scale=args.scale, seed=args.seed)
    elif args.benchmark == "service":
        run = measure_service_latency(
            scale=args.scale, seed=args.seed, strategy=args.strategy
        )
    else:
        run = measure_matching_throughput(
            scale=args.scale,
            configs=tuple(args.configs or DEFAULT_CONFIGS),
            seed=args.seed,
            strategy=args.strategy,
        )
    run["host"] = {
        "cpu_count": os.cpu_count(),
        # What the process may actually use — a container cpuset or
        # taskset restriction makes this smaller than cpu_count, and
        # trajectory points are meaningless without it.
        "effective_cores": effective_cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    run["created"] = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    # Attribution: which commit produced the point, and with what exact
    # invocation — BENCH_*.json trajectories span many PRs.
    run["git"] = git_provenance()
    run["cli_config"] = {
        key: (str(value) if isinstance(value, Path) else value)
        for key, value in sorted(vars(args).items())
    }

    if args.overwrite:
        trajectory = {"benchmark": run["benchmark"], "runs": []}
    else:
        trajectory = load_trajectory(output, run["benchmark"])
        if trajectory["runs"] and trajectory["benchmark"] != run["benchmark"]:
            raise SystemExit(
                f"refusing to append a {run['benchmark']!r} run to {output} "
                f"({trajectory['benchmark']!r} trajectory); pass --overwrite "
                "or a different --output"
            )
    trajectory["runs"].append(run)
    output.write_text(json.dumps(trajectory, indent=2) + "\n", encoding="utf-8")

    for point in run["results"]:
        label = point.get("config") or f"shards={point['shards']}"
        print(
            f"{label}: {point['seconds']:.1f}s  "
            f"{point['tasks_per_second']:.0f} tasks/s  "
            f"revenue={point['revenue']:.0f}"
        )
    if args.benchmark == "sharded":
        headline = run["speedup_vs_single_shard"].get("8", 1.0)
        print(f"speedup 8-vs-1: {headline:.2f}x  -> {output}")
    elif args.benchmark == "dynamic":
        headline = run["speedup_vs_baseline"]["delta"]
        print(
            f"delta speedup: {headline:.2f}x at "
            f"{run['churn_per_window']:.0%} churn "
            f"({run['windows_bit_identical']} windows bit-identical)  "
            f"-> {output}"
        )
        exact = run.get("exact")
        if exact:
            print(
                f"exact (uncapped) incremental vs delta: "
                f"{exact['speedup_incremental_vs_delta']:.2f}x "
                f"(end-to-end {exact['speedup_incremental_vs_delta_end_to_end']:.2f}x, "
                f"{exact['windows_bit_identical']} windows bit-identical over "
                f"{exact['epochs']} epoch(s))"
            )
    elif args.benchmark == "service":
        gate = run["differential"]
        print(
            f"quote latency p50={run['p50_quote_ms']:.2f}ms "
            f"p99={run['p99_quote_ms']:.2f}ms at "
            f"{run['sustained_arrivals_per_second']:.0f} arrivals/s "
            f"(offline differential: revenue bitwise "
            f"{'OK' if gate['revenue_bitwise_equal'] else 'DIVERGED'})  "
            f"-> {output}"
        )
    else:
        best = max(run["speedup_vs_baseline"].items(), key=lambda item: item[1])
        print(f"best speedup: {best[0]} {best[1]:.2f}x  -> {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
