"""Run the repository benchmark.

Usage (from the repository root)::

    python3 perf/run.py [--workload NAME ...] [--seed N] [--seconds S] [--trace [0|1]]

Each workload builds its inputs from ``--seed``, measures for about
``--seconds`` seconds, checks its outputs, prints every metric by name
with its unit and ends with one JSON line::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

``--trace 0`` (the default) reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` (or bare ``--trace``) the per-layer
ones from a separate traced run.  With several workloads each runs in a
fresh subprocess.  The exit status is non-zero when a correctness gate
fails or the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_parser(spec: Dict) -> argparse.ArgumentParser:
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="perf/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 = per-layer metrics from a traced run",
    )  # fmt: skip
    return parser


def run_one(spec: Dict, name: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload in this process and print its result."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    measurement = workloads.measure(workloads.WORKLOADS[name], seed, seconds, trace)
    declared = spec["per_layer" if trace else "end_to_end"]
    produced = set(measurement.metrics)
    expected = {metric["name"] for metric in declared}
    if produced != expected:
        print(
            f"error: {name} produced {sorted(produced - expected)} beyond and "
            f"lacks {sorted(expected - produced)} of BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    metrics = {
        metric["name"]: {"value": measurement.metrics[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    print(f"# {name} seed={seed} trace={int(trace)}")
    for metric_name, entry in metrics.items():
        print(f"{metric_name:40s} {entry['value']:>16.6g} {entry['unit']}")
    for gate, passed in measurement.gates.items():
        print(f"gate {gate:45s} {'pass' if passed else 'FAIL'}")
    print(
        json.dumps(
            {
                "correct": measurement.correct,
                "attempted": measurement.attempted,
                "failed": measurement.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if measurement.correct else 1


def run_many(names: Sequence[str], seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh subprocess; non-zero if any fails."""
    status = 0
    for name in names:
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(int(trace)),
        ]  # fmt: skip
        status = max(status, subprocess.run(command).returncode)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    args = build_parser(spec).parse_args(argv)
    names = args.workload or [workload["name"] for workload in spec["workloads"]]
    trace = bool(args.trace)
    if len(names) == 1:
        return run_one(spec, names[0], args.seed, args.seconds, trace)
    return run_many(names, args.seed, args.seconds, trace)


if __name__ == "__main__":
    sys.exit(main())
