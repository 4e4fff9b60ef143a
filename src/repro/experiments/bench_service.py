"""Dispatch-service latency and throughput, shared by bench and tooling.

One measurement protocol feeds two consumers:

* ``benchmarks/test_bench_service.py`` — the tier-1 gate booting a real
  server, replaying the hotspot burst and asserting the p99 quote
  latency bound, the offline differential gate and a leak-free shm
  shutdown (CI-sized stream);
* ``tools/bench_to_json.py --benchmark service`` — the writer that
  records the full-size trajectory point (``BENCH_service.json``).

**What is measured.**  Three sessions against in-process
:class:`~repro.service.server.DispatchServer` instances over real
loopback sockets, all replaying the ``hotspot_burst`` scenario:

* ``offline`` — blocking admission, unpaced replay: the lossless mode,
  on the uncapped session's live adjacency plane + lazy matcher (no
  universe graph).  Its result is differentially gated
  against :class:`~repro.simulation.streaming.EventStreamingEngine` on
  the same stream — ``repr``-identical settled revenue and identical
  commit pairs, asserted here so every recorded benchmark re-proves the
  gate.
* ``paced`` — the stream replayed under a wall-clock rate with a latency
  SLO armed; quote latencies are what a live deployment would see.
* ``burst_shed`` — rejecting admission with a tiny ingest queue and an
  artificial per-event stall, driven unpaced: the overload regime.  The
  point records how many arrivals admission control shed.

Per point: wall seconds, sustained arrival and quote throughput, settled
revenue, and the server-side ``queue_wait`` / ``service`` / ``total``
latency percentiles (milliseconds).  ``service`` is the in-session quote
cost and the headline ``p50_quote_ms`` / ``p99_quote_ms`` report;
``total`` (queue wait + service) is the client-visible latency the SLO
governs — under an unpaced closed-loop flood it measures queue depth,
not quoting speed, so it stays a per-point detail rather than the
headline.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

from repro.experiments.host import host_fingerprint
from repro.service.client import replay
from repro.service.server import DispatchServer, ServiceConfig

#: The benchmark scenario (the service exists for flash-crowd regimes).
SCENARIO = "hotspot_burst"


def _point(config_name: str, report, server: DispatchServer) -> Dict[str, Any]:
    """One JSON-ready measurement row (printer contract: ``config``,
    ``seconds``, ``tasks_per_second``, ``revenue``)."""
    summary = report.summary or {}
    stats = report.stats or {}
    latency = stats.get("latency_ms", {})
    seconds = report.wall_seconds
    quoted = int(summary.get("quoted", 0))
    total = latency.get("total", {})
    return {
        "config": config_name,
        "seconds": seconds,
        "tasks_per_second": quoted / seconds if seconds else 0.0,
        "arrivals_per_second": report.events_sent / seconds if seconds else 0.0,
        "revenue": float(summary.get("revenue", 0.0)),
        "events_sent": report.events_sent,
        "quoted": quoted,
        "accepted": int(summary.get("accepted", 0)),
        "committed": int(summary.get("committed", 0)),
        "expired": int(summary.get("expired", 0)),
        "degraded": int(summary.get("degraded", 0)),
        "rejected": int(summary.get("rejected", 0)),
        "p50_ms": float(total.get("p50_ms", 0.0)),
        "p99_ms": float(total.get("p99_ms", 0.0)),
        "latency_ms": latency,
        "queue_size": server.config.queue_size,
        "admission": server.config.admission,
        "slo_ms": server.config.slo_ms,
    }


async def _run_config(
    service_config: ServiceConfig,
    strategy: str,
    rate: Optional[float],
):
    """Boot a server, replay one session against it, tear it down."""
    server = DispatchServer(service_config)
    port = await server.start()
    try:
        report = await replay(
            "127.0.0.1",
            port,
            service_config.scenario,
            scale=service_config.scale,
            seed=service_config.seed,
            strategy=strategy,
            params=service_config.params,
            rate=rate,
        )
    finally:
        await server.stop()
    return report, server


def _offline_reference(
    scale: float, seed: int, strategy: str, task_lifetime: float
) -> Dict[str, Any]:
    """The offline engine's answer on the identical stream."""
    from repro.pricing.registry import calibrated_kwargs, create_strategy
    from repro.simulation.scenarios import get_scenario
    from repro.simulation.streaming import EventStreamingEngine, StreamingEngine

    stream = get_scenario(SCENARIO).stream(scale=scale, seed=seed)
    calibration = StreamingEngine(stream, seed=seed).calibrate_base_price()
    engine = EventStreamingEngine(stream, seed=seed, task_lifetime=task_lifetime)
    engine.run(create_strategy(strategy, **calibrated_kwargs(strategy, calibration)))
    session = engine.last_session
    return {
        "revenue": session.revenue,
        "commits": list(session.commit_log),
        "committed": session.committed,
    }


def measure_service_latency(
    scale: float = 0.2,
    seed: int = 0,
    strategy: str = "BaseP",
    task_lifetime: float = 4.0,
    rate: Optional[float] = None,
    slo_ms: float = 50.0,
    burst_queue_size: int = 8,
    burst_event_delay: float = 0.002,
) -> Dict[str, object]:
    """Measure service quote latency, throughput and shed behaviour.

    Args:
        scale: ``hotspot_burst`` scale (0.2 ≈ 1.8k arrival events).
        seed: Scenario and session seed.
        strategy: Pricing strategy quoted by every session (any
            grid-state strategy; MAPS cannot quote event-at-a-time).
        rate: Pacing for the ``paced`` point, in stream time units per
            wall second; default picks ~4x the offline replay pace so
            the pacer, not the socket, sets the tempo.
        slo_ms: Latency SLO armed for the ``paced`` point.
        burst_queue_size: Ingest bound for the ``burst_shed`` point.
        burst_event_delay: Artificial per-event stall (seconds) for the
            ``burst_shed`` point, forcing the queue to fill.

    Returns:
        A JSON-ready payload: one row per configuration plus the
        ``differential`` block proving the offline point equals the
        :class:`EventStreamingEngine` bit for bit.
    """

    async def _measure() -> Dict[str, object]:
        base = dict(scenario=SCENARIO, scale=scale, seed=seed, strategy=strategy,
                    task_lifetime=task_lifetime)
        offline_report, offline_server = await _run_config(
            ServiceConfig(admission="block", **base), strategy, rate=None
        )
        times = _stream_times()
        offline_span = max(1e-9, max(times) - min(times))
        paced_rate = rate
        if paced_rate is None:
            # ~4x the offline pace: fast enough to finish promptly, slow
            # enough that the pacer (not the socket) sets the tempo.
            paced_rate = offline_span / max(offline_report.wall_seconds, 1e-6) / 4.0
        paced_report, paced_server = await _run_config(
            ServiceConfig(admission="block", slo_ms=slo_ms, **base),
            strategy,
            rate=paced_rate,
        )
        shed_report, shed_server = await _run_config(
            ServiceConfig(
                admission="reject",
                queue_size=burst_queue_size,
                event_delay=burst_event_delay,
                slo_ms=slo_ms,
                **base,
            ),
            strategy,
            rate=None,
        )
        return {
            "offline": (offline_report, offline_server),
            "paced": (paced_report, paced_server, paced_rate),
            "burst_shed": (shed_report, shed_server),
        }

    def _stream_times():
        from repro.simulation.scenarios import get_scenario

        stream = get_scenario(SCENARIO).stream(scale=scale, seed=seed)
        return [float(event.time) for event in stream.iter_events()]

    measured = asyncio.run(_measure())
    offline_report, offline_server = measured["offline"]
    paced_report, paced_server, paced_rate = measured["paced"]
    shed_report, shed_server = measured["burst_shed"]

    reference = _offline_reference(scale, seed, strategy, task_lifetime)
    revenue_match = repr(offline_report.revenue) == repr(reference["revenue"])
    commits_match = sorted(offline_report.commits) == sorted(reference["commits"])
    if not (revenue_match and commits_match):
        raise AssertionError(
            "offline service diverged from EventStreamingEngine: "
            f"revenue {offline_report.revenue!r} vs {reference['revenue']!r}, "
            f"{len(offline_report.commits)} vs {len(reference['commits'])} commits"
        )

    results = [
        _point("offline", offline_report, offline_server),
        _point("paced", paced_report, paced_server),
        _point("burst_shed", shed_report, shed_server),
    ]
    offline_point = results[0]
    offline_service = offline_point["latency_ms"].get("service", {})
    return {
        "benchmark": "service_latency",
        "scenario": SCENARIO,
        "scale": float(scale),
        "seed": int(seed),
        "strategy": strategy,
        "task_lifetime": float(task_lifetime),
        "paced_rate": float(paced_rate),
        "slo_ms": float(slo_ms),
        "burst_queue_size": int(burst_queue_size),
        "burst_event_delay": float(burst_event_delay),
        "results": results,
        "differential": {
            "reference": "EventStreamingEngine",
            "revenue_bitwise_equal": revenue_match,
            "commit_pairs_equal": commits_match,
            "revenue": float(reference["revenue"]),
            "committed": int(reference["committed"]),
        },
        "p50_quote_ms": float(offline_service.get("p50_ms", 0.0)),
        "p99_quote_ms": float(offline_service.get("p99_ms", 0.0)),
        "p99_total_ms": offline_point["p99_ms"],
        "sustained_arrivals_per_second": offline_point["arrivals_per_second"],
        "host": host_fingerprint(),
    }


__all__ = ["SCENARIO", "measure_service_latency"]
