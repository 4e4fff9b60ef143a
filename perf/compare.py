"""Compare two sets of benchmark results, one row per workload and metric.

Usage (from the repository root)::

    python3 perf/compare.py PARENT_DIR [CHANGE_DIR]

Each directory holds one file per run, named ``<workload>-<seed>.json``
(or ``.log``), whose last line is the JSON result ``perf/run.py``
prints.  Runs of the two sets pair up by workload and seed.

For every metric the table shows each side's median and quartiles and,
for end-to-end metrics, the spread (quartile distance over the median)
against the bound fixed in ``BENCHMARK.json``.  The verdict follows the
choosing-metrics rules:

* ``win`` — the change is better in at least 9 of every 10 pairs (ties
  count for neither) and the medians differ by more than the parent's
  quartile distance;
* ``REGRESSION`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — the parent's spread is wider than the bound, unless
  every change run reads better than every parent run;
* ``same`` — none of the above.

Per-layer metrics have no bound and can only read ``win`` or ``same``.
With one directory the table reports that set's medians and spreads.
The exit status is 1 when a regression or an incorrect run is found.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from quantiles import quartiles

ROOT = Path(__file__).resolve().parent.parent

#: workload -> seed -> result object
Results = Dict[str, Dict[str, dict]]


def load_results(directory: Path) -> Results:
    results: Results = {}
    for path in sorted(directory.iterdir()):
        if path.suffix not in (".json", ".log") or "-" not in path.stem:
            continue
        workload, seed = path.stem.rsplit("-", 1)
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        # A .json and a .log of one run are the same result.
        results.setdefault(workload, {})[seed] = result
    return results


def values(runs: Dict[str, dict], metric: str) -> Dict[str, float]:
    return {
        seed: float(run["metrics"][metric]["value"])
        for seed, run in runs.items()
        if metric in run.get("metrics", {})
    }


def verdict(
    parent: Dict[str, float],
    change: Dict[str, float],
    higher_is_better: bool,
    bound: Optional[float],
) -> str:
    sign = 1.0 if higher_is_better else -1.0
    p_q1, p_med, p_q3 = quartiles(list(parent.values()))
    c_med = quartiles(list(change.values()))[1]
    pairs = [seed for seed in parent if seed in change]
    wins = sum(1 for seed in pairs if sign * (change[seed] - parent[seed]) > 0)
    gap = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gap > (p_q3 - p_q1):
        return "win"
    if bound is None:
        return "same"
    scale = abs(p_med) or 1.0
    if -gap > bound * scale:
        return "REGRESSION"
    worst_change = min(sign * value for value in change.values())
    best_parent = max(sign * value for value in parent.values())
    if (p_q3 - p_q1) > bound * scale and not worst_change > best_parent:
        return "unresolved"
    return "same"


def describe(sample: Dict[str, float]) -> Tuple[str, float]:
    q1, med, q3 = quartiles(list(sample.values()))
    spread = (q3 - q1) / abs(med) if med else 0.0
    return f"{med:12.6g} [{q1:.5g}, {q3:.5g}]", spread


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m, m.get("bound")) for m in spec["end_to_end"]] + [
        (m, None) for m in spec["per_layer"]
    ]
    parent = load_results(args.parent)
    change = load_results(args.change) if args.change else None
    status = 0

    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs = parent.get(workload, {})
        c_runs = (change or {}).get(workload, {})
        if not p_runs:
            continue
        bad = [
            f"{label}:{seed}"
            for label, runs in (("parent", p_runs), ("change", c_runs))
            for seed, run in runs.items()
            if not run.get("correct") or run.get("failed")
        ]
        counts = f"{len(p_runs)} runs" + (f" vs {len(c_runs)}" if change is not None else "")
        print(f"== {workload} ({counts})")
        if bad:
            print(f"   incorrect or failing runs: {', '.join(bad)}")
            status = 1
        for metric, bound in metrics:
            p_values = values(p_runs, metric["name"])
            if not p_values:
                continue
            p_text, p_spread = describe(p_values)
            row = f"   {metric['name']:34s} {p_text}"
            if bound is not None:
                flag = "ok" if p_spread <= bound / 3 else ("wide" if p_spread <= bound else "TOO WIDE")
                row += f"  spread {p_spread:6.1%} of bound {bound:.0%} ({flag})"
            c_values = values(c_runs, metric["name"]) if change is not None else {}
            if c_values:
                c_text, _ = describe(c_values)
                result = verdict(p_values, c_values, metric["better"] == "higher", bound)
                row += f"  ->{c_text}  {result}"
                if result == "REGRESSION":
                    status = 1
            print(row)
    return status


if __name__ == "__main__":
    sys.exit(main())
