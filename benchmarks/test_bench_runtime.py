"""Benchmark: compound end-to-end runtime vs the PR 4 sharded+capped baseline.

Measures full ``city_scale`` end-to-end throughput (lazy generation,
partitioning, quote/decide/match, halo reconciliation, feedback) for the
compound ``--shards 8 --max-degree 16`` configuration across data planes
and asserts the zero-copy runtime acceptance criteria:

* the fastest compound plane (``columnar-vgreedy``) must beat the frozen
  object generator (per-cell scipy sampling + object chunks converted
  to columns, same algorithms) by at least ``REPRO_RUNTIME_SPEEDUP_MIN``
  (default 2x) — single-core, the win is the data plane, not
  parallelism; the exact ``columnar`` plane must clear the softer
  ``REPRO_RUNTIME_EXACT_SPEEDUP_MIN`` (default 1.3x) floor, which widens
  with the horizon (short CI horizons under-amortise generation);
* ``columnar`` revenue must be **bit-identical** to the baseline (same
  matroid matching over the same capped graphs — the plane must not
  change one decision);
* ``columnar-vgreedy`` revenue must stay within
  ``REPRO_RUNTIME_REVENUE_TOLERANCE`` (default 10%) of the baseline.

The committed ``BENCH_runtime.json`` records the same measurement at the
full 1M-task horizon (``tools/bench_to_json.py --benchmark runtime``);
this test runs a CI-sized horizon with identical per-period density.
"""

from __future__ import annotations

import os
from typing import Dict

import pytest

from repro.experiments.bench_runtime import measure_runtime_throughput

#: Horizon scale of the CI-sized measurement (per-period density fixed).
BENCH_SCALE = float(os.environ.get("REPRO_RUNTIME_BENCH_SCALE", "0.01"))

#: Required end-to-end speedup of the fastest compound plane.
REQUIRED_SPEEDUP = float(os.environ.get("REPRO_RUNTIME_SPEEDUP_MIN", "2.0"))

#: Floor for the exact (matroid) columnar plane at the CI-sized horizon.
REQUIRED_EXACT_SPEEDUP = float(
    os.environ.get("REPRO_RUNTIME_EXACT_SPEEDUP_MIN", "1.3")
)

#: Allowed relative revenue drift of the vgreedy plane vs the baseline.
REVENUE_TOLERANCE = float(
    os.environ.get("REPRO_RUNTIME_REVENUE_TOLERANCE", "0.10")
)



@pytest.mark.benchmark(group="runtime")
def test_end_to_end_runtime_on_city_scale(benchmark):
    """Columnar planes must beat the PR 4 plane >= 2x at bounded drift."""
    holder: Dict[str, Dict[str, object]] = {}

    def run_once() -> None:
        holder["payload"] = measure_runtime_throughput(scale=BENCH_SCALE, seed=0)

    benchmark.pedantic(run_once, rounds=1, iterations=1)
    payload = holder["payload"]
    print()
    print("### compound end-to-end runtime (city_scale, shards=8, cap=16)")
    for point in payload["results"]:
        print(
            f"{point['config']:>16s}: {point['seconds']:.2f}s  "
            f"{point['tasks_per_second']:.0f} tasks/s  "
            f"revenue={point['revenue']:.0f}  served={point['served']}"
        )
    speedups = payload["speedup_vs_baseline"]
    ratios = payload["revenue_ratio_vs_baseline"]
    print(
        f"speedups: columnar {speedups['columnar']:.2f}x, "
        f"columnar-vgreedy {speedups['columnar-vgreedy']:.2f}x"
    )

    assert speedups["columnar-vgreedy"] >= REQUIRED_SPEEDUP, (
        f"columnar-vgreedy end-to-end speedup "
        f"{speedups['columnar-vgreedy']:.2f}x below the required "
        f"{REQUIRED_SPEEDUP:.1f}x over the PR 4 baseline"
    )
    assert speedups["columnar"] >= REQUIRED_EXACT_SPEEDUP, (
        f"columnar end-to-end speedup {speedups['columnar']:.2f}x below the "
        f"required {REQUIRED_EXACT_SPEEDUP:.1f}x over the PR 4 baseline"
    )
    # Same algorithms, different plane: the columnar run must not change
    # a single decision.
    assert ratios["columnar"] == 1.0, (
        f"columnar plane drifted revenue by {abs(1 - ratios['columnar']):.2e}; "
        "the data plane must be bit-identical to the frozen generator's run"
    )
    assert abs(1.0 - ratios["columnar-vgreedy"]) <= REVENUE_TOLERANCE, (
        f"vgreedy revenue drifted {abs(1 - ratios['columnar-vgreedy']):.1%} "
        f"from the exact baseline (allowed {REVENUE_TOLERANCE:.0%})"
    )
