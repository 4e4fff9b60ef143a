"""Tests of the benchmark harness itself.

Run from the repository root with::

    PYTHONPATH=src python -m pytest perf -q

The workloads are constructed at tiny sizes directly; the command line
exposes no size knob.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal

import pytest

import compare
import hostspeed
import layers
import run
import workloads
from loadgen import Arrival, run_session
from quantiles import TooFewSamples, percentile, quartiles
from spans import Span, Tracer, self_times

SPEC = run.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _names(section):
    return [metric["name"] for metric in SPEC[section]]


# ---------------------------------------------------------------------------
# the metric catalogue
# ---------------------------------------------------------------------------
def test_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for metric in metrics:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_catalogue_matches_what_the_code_reports():
    assert _names("end_to_end") == list(workloads.END_TO_END)
    per_layer = {"revenue", "trace.overhead_s"}
    per_layer |= set(layers.COUNTERS) | {"halo.yield"}
    per_layer |= {"trace.wall_s", "trace.other_s", "trace.spans", "trace.spans_missing"}
    for seconds_name, calls_name in layers.SPAN_METRICS.values():
        per_layer |= {seconds_name} | ({calls_name} if calls_name else set())
    per_layer |= set(workloads.service_metric_names())
    assert set(_names("per_layer")) == per_layer
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))  # order must not matter
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.90) == 90
    assert percentile(list(range(1, 1001)), 0.99) == 990


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(TooFewSamples):
        percentile(list(range(1, 100)), 0.90)  # 9 beyond
    with pytest.raises(TooFewSamples):
        percentile(list(range(1, 1000)), 0.99)
    with pytest.raises(TooFewSamples):
        percentile([], 0.5)
    assert percentile([1.0, 2.0, 3.0], 0.90, min_beyond=0) == 3.0


def test_quartiles_follow_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------
def test_reference_times_scale_by_the_neighbouring_probes():
    ref = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.in_reference(2.0, [ref, ref]) == 2.0
    assert hostspeed.in_reference(2.0, [ref, 3 * ref]) == 1.0
    times, probes = [1.0] * 4, [ref, ref, 3 * ref, 3 * ref]
    assert hostspeed.scaled(times, probes, reach=0) == pytest.approx([1, 1, 1 / 3, 1 / 3])
    assert hostspeed.scaled(times, probes, reach=1) == pytest.approx([1, 3 / 5, 3 / 7, 1 / 3])
    with pytest.raises(ValueError):
        hostspeed.scaled(times, probes[:3])


def test_timed_call_returns_its_result_and_restores_the_timer():
    result, seconds = hostspeed.timed(lambda: sum(range(300_000)))
    assert result == sum(range(300_000)) and seconds > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
def test_self_time_subtracts_children_but_not_wait_spans():
    spans = [
        Span("root", 0.0, 10.0, -1, "w"),
        Span("a", 1.0, 4.0, 0, "w"),
        Span("a.inner", 2.0, 3.0, 1, "w"),
        Span("b", 5.0, 6.0, 0, "w"),
        Span("quote", 0.0, 9.0, 0, "w", task_id=7, wait=True),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 9.0]


def test_tracer_self_times_cover_the_root_wall():
    tracer = Tracer("w")
    with tracer.span(layers.ROOT):
        with tracer.span("match"):
            with tracer.span("graph.build"):
                sum(range(10_000))
        tracer.wait_span("quote", 0.0, 100.0, task_id=1)
    assert layers.self_time_share(tracer) == pytest.approx(1.0)
    metrics = layers.layer_metrics(tracer, ["match", "halo"])
    assert metrics["match.calls"] == 1 and metrics["graph.calls"] == 1
    assert metrics["trace.spans_missing"] == 1


def test_patch_wraps_caller_namespace_and_restores():
    class Owner:
        def work(self, value):
            return value * 2

    tracer = Tracer("w")
    tracer.patch(Owner, "work", "match", lambda t, result: t.count("seen", result))
    tracer.patch(Owner, "no_such_hook", "halo")
    assert Owner().work(3) == 6
    assert tracer.calls() == {"match": 1} and tracer.counts == {"seen": 6}
    assert tracer.missing == ["Owner.no_such_hook"]
    tracer.restore()
    assert "__wrapped__" not in vars(Owner.work)


# ---------------------------------------------------------------------------
# load generator
# ---------------------------------------------------------------------------
async def _stub_server(drop_task_id):
    """Answers like the dispatch service but never quotes one task."""

    async def handle(reader, writer):
        def send(message):
            writer.write((json.dumps(message) + "\n").encode())

        while line := await reader.readline():
            message = json.loads(line)
            kind = message["type"]
            if kind == "hello":
                send({"type": "ready"})
            elif kind == "task" and message["task"]["task_id"] != drop_task_id:
                task_id = message["task"]["task_id"]
                send({"type": "quote", "task_id": task_id, "queue_wait_ms": 0.1, "service_ms": 0.2})
            elif kind == "flush":
                send({"type": "summary", "revenue": 1.5})
            elif kind == "stats":
                send({"type": "stats", "latency_ms": {}})
            elif kind == "bye":
                break
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def _task_arrivals(count):
    return [
        Arrival(
            float(task_id),
            task_id,
            (json.dumps({"type": "task", "time": float(task_id), "task": {"task_id": task_id}}) + "\n").encode(),
        )
        for task_id in range(count)
    ]


@pytest.mark.parametrize("rate", [None, 2000.0])
def test_dropped_quote_counts_as_failure(rate):
    async def scenario():
        server = await _stub_server(drop_task_id=3)
        port = server.sockets[0].getsockname()[1]
        try:
            return await run_session("127.0.0.1", port, {"type": "hello"}, _task_arrivals(20), rate)
        finally:
            server.close()
            await server.wait_closed()

    report = asyncio.run(scenario())
    assert report.tasks_sent == 20 and report.quoted == 19
    assert report.missing == 1 and report.failures == 1
    assert report.failures / report.tasks_sent > 0
    assert report.revenue == 1.5
    if rate is not None:
        assert len(report.lateness_ms) == 20 and report.offered_mean_per_s > 0


# ---------------------------------------------------------------------------
# workloads at tiny sizes
# ---------------------------------------------------------------------------
def test_tiny_batch_run_reports_every_end_to_end_metric():
    measurement = workloads.measure(
        workloads.MapsBatch(instances=4, scale=0.01), seed=1, seconds=0.5, trace=False
    )
    assert set(measurement.metrics) == set(_names("end_to_end"))
    assert all(value > 0 for value in measurement.metrics.values())
    assert measurement.correct and measurement.attempted > 0


@pytest.mark.parametrize(
    "workload",
    [
        workloads.CityBatch(scale=0.005, gate_scale=0.005),
        workloads.MapsBatch(instances=1, scale=0.01),
        workloads.ChurnWindow(instances=1, num_periods=6),
    ],
    ids=lambda workload: workload.name,
)
def test_tiny_traced_run_fires_every_declared_span(workload):
    measurement = workloads.measure(workload, seed=2, seconds=0.5, trace=True)
    assert set(measurement.metrics) == set(_names("per_layer"))
    assert measurement.metrics["trace.spans_missing"] == 0
    assert measurement.correct, measurement.gates


def test_tiny_service_run_matches_the_offline_engine():
    workload = workloads.BurstService(scale=0.02, servers=1, rates=(250,))
    measurement = workloads.measure(workload, seed=0, seconds=0.5, trace=False)
    assert set(measurement.metrics) == set(_names("end_to_end"))
    assert measurement.correct and measurement.failed == 0


# ---------------------------------------------------------------------------
# the command and the comparison
# ---------------------------------------------------------------------------
def test_failing_gate_exits_non_zero(monkeypatch, capsys):
    class BrokenMaps(workloads.MapsBatch):
        def gates(self, seed, state, reference):
            return {"deliberately_broken": False}

    monkeypatch.setitem(workloads.WORKLOADS, "maps_batch", BrokenMaps(instances=4, scale=0.01))
    assert run.run_one(SPEC, "maps_batch", seed=0, seconds=0.5, trace=False) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False


def test_compare_verdicts():
    parent = {str(seed): 100.0 + seed for seed in range(10)}
    faster = {seed: value * 1.5 for seed, value in parent.items()}
    slower = {seed: value * 0.5 for seed, value in parent.items()}
    assert compare.verdict(parent, faster, True, 0.1) == "win"
    assert compare.verdict(parent, slower, True, 0.1) == "REGRESSION"
    assert compare.verdict(parent, dict(parent), True, 0.1) == "same"
    noisy = {str(seed): 100.0 * (1 + (seed % 2)) for seed in range(10)}
    assert compare.verdict(noisy, dict(noisy), True, 0.1) == "unresolved"
