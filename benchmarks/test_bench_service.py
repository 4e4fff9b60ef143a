"""Benchmark: the dispatch service's quote latency and differential gate.

Runs the full three-config protocol of
:mod:`repro.experiments.bench_service` at a CI-sized scale — an offline
lossless replay (the bitwise gate against the event engine), a paced
replay under a latency SLO, and a shedding burst replay — and asserts
the service acceptance criteria:

* the offline replay is **bit-identical** to
  :class:`~repro.simulation.streaming.EventStreamingEngine` on the same
  stream (``repr``-equal settled revenue, identical commit pairs), with
  zero rejected events;
* the per-quote service p99 (the in-session settle→quote→decide→insert
  cost; queue wait excluded, since an unpaced closed-loop flood measures
  queue depth, not quoting speed) stays under ``REPRO_SERVICE_P99_MS``
  (default 250 ms — generous for shared CI runners; the committed
  ``BENCH_service.json`` records the real figure);
* the servers tear down without stranding a shared-memory segment.

The committed ``BENCH_service.json`` records the same measurement at a
larger scale (``tools/bench_to_json.py --benchmark service``).
"""

from __future__ import annotations

import glob
import os
from typing import Dict

import pytest

from repro.experiments.bench_service import measure_service_latency

from benchmarks.conftest import effective_scale

#: p99 gate for the *offline* (uncontended) config, in milliseconds.
P99_GATE_MS = float(os.environ.get("REPRO_SERVICE_P99_MS", "250"))


@pytest.mark.benchmark(group="service")
def test_service_quote_latency_and_differential_gate(benchmark):
    """Quote p99 under the gate; offline replay bitwise equal to engine."""
    before = set(glob.glob("/dev/shm/repro_arena_*"))
    holder: Dict[str, Dict[str, object]] = {}

    def run_once() -> None:
        holder["payload"] = measure_service_latency(
            scale=effective_scale(0.05), seed=0, strategy="BaseP"
        )

    benchmark.pedantic(run_once, rounds=1, iterations=1)
    payload = holder["payload"]
    print()
    print("### dispatch service: event-at-a-time quoting (hotspot_burst)")
    for point in payload["results"]:
        print(
            f"{point['config']:>10s}: {point['seconds']:.2f}s  "
            f"{point['arrivals_per_second']:.0f} arrivals/s  "
            f"total p50={point['p50_ms']:.2f}ms p99={point['p99_ms']:.2f}ms  "
            f"quoted={point['quoted']} degraded={point['degraded']} "
            f"rejected={point['rejected']}"
        )

    # The differential gate: the measurement itself raises on divergence,
    # and the payload must record both equalities as checked-and-true.
    assert payload["differential"]["revenue_bitwise_equal"] is True
    assert payload["differential"]["commit_pairs_equal"] is True

    by_config = {point["config"]: point for point in payload["results"]}
    offline = by_config["offline"]
    assert offline["rejected"] == 0
    assert offline["committed"] > 0
    service_p99 = payload["p99_quote_ms"]
    print(f"offline service p99: {service_p99:.2f}ms (gate {P99_GATE_MS:.0f}ms)")
    assert service_p99 <= P99_GATE_MS, (
        f"offline per-quote service p99 {service_p99:.2f}ms above the "
        f"{P99_GATE_MS:.0f}ms gate"
    )

    # The burst config must actually exercise admission control...
    assert by_config["burst_shed"]["rejected"] > 0
    # ...while blocking admission never sheds.
    assert by_config["paced"]["rejected"] == 0

    # Clean teardown: no stranded shm segments from any of the servers.
    after = set(glob.glob("/dev/shm/repro_arena_*"))
    assert after <= before
