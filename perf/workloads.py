"""The benchmark's four workloads: inputs, engines, metrics and gates.

Each workload drives one public entry point and stresses different
layers (see ``perf/README.md`` for why each exists):

* ``city_batch`` — ``ShardedEngine`` over lazily generated ``city_scale``
  periods: graph build, matroid matching and the halo pass;
* ``maps_batch`` — ``SimulationEngine`` running MAPS on ``beijing_rush``:
  the MAPS planner and its probe-then-commit pre-matching;
* ``churn_window`` — ``DynamicStreamingEngine`` over sparse
  ``city_scale`` windows: the dynamic matcher under inserts *and*
  deletes;
* ``burst_service`` — the ``python -m repro.service serve`` process and
  its NDJSON protocol, driven open loop by :mod:`loadgen`.

Inputs come from the seed alone; sizes are fixed here and exposed to
no command-line flag (the tests construct smaller instances directly).
Set-up (generation, calibration, engine construction, or a server start)
is timed apart from the measured work and repeated, and its median is
``setup_s``.  Every gate runs outside the timed region.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import re
import resource
import selectors
import signal
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import hostspeed
import layers
from repro.matching.bipartite import BipartiteGraph, CSRGraph
from repro.matching.weighted import max_weight_matching
from repro.pricing.registry import calibrated_kwargs, create_strategy
from repro.service.protocol import hello_message
from repro.simulation.engine import SimulationEngine
from repro.simulation.legacy import run_reference
from repro.simulation.metrics import MetricsCollector
from repro.simulation.scenarios import get_scenario
from repro.simulation.sharded import ShardedEngine
from repro.simulation.streaming import (
    DynamicStreamingEngine,
    EventStreamingEngine,
    StreamingEngine,
    TaskArrival,
)
from loadgen import SessionReport, encode_stream, run_session
from quantiles import percentile, percentile_or_zero
from spans import Tracer

#: Repository root (the checkout the benchmark runs from).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run at least; their median is ``setup_s``.
SETUP_REPEATS = 5
#: A batch run runs every instance at least this often.
MIN_REPS = 1
#: Distance between the seeds of one run's instances.
SEED_STRIDE = 100_003

END_TO_END = ("setup_s", "tasks_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb")


@dataclass
class Measurement:
    """One run's metrics plus what was attempted, failed and checked."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    gates: Dict[str, bool] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(self.gates.values())


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _same_run(result, reference) -> bool:
    """Bitwise-equal revenue and equal counts."""
    got, want = result.metrics, reference.metrics
    return (
        repr(got.total_revenue) == repr(want.total_revenue)
        and got.served_tasks == want.served_tasks
        and got.accepted_tasks == want.accepted_tasks
        and got.total_tasks == want.total_tasks
    )


class PeriodClock:
    """Every period's wall time, and a probe of the host after each."""

    def __init__(self) -> None:
        self.periods: List[float] = []
        self.probes: List[float] = []
        self._resumed = perf_counter()

    def mark(self) -> None:
        self.periods.append(perf_counter() - self._resumed)
        self.probes.append(hostspeed.probe())
        self._resumed = perf_counter()

    def reference_ms(self) -> List[float]:
        """Each period's time on the reference host, in milliseconds."""
        return [seconds * 1e3 for seconds in hostspeed.scaled(self.periods, self.probes)]


@contextlib.contextmanager
def period_clock() -> Iterator[PeriodClock]:
    """Clock every period's end as the engines report it.

    Every engine reports each finished period (or window) to its
    ``MetricsCollector`` exactly once; the gaps between those calls are
    the per-period latencies.  The probe after each call runs outside
    every period, so this stays on in untraced runs.
    """
    original = MetricsCollector.record_period
    clock = PeriodClock()

    def record_period(self, *args, **kwargs):
        clock.mark()
        return original(self, *args, **kwargs)

    MetricsCollector.record_period = record_period
    try:
        yield clock
    finally:
        MetricsCollector.record_period = original


class Workload:
    """A named workload and the spans its traced run must fire."""

    name = ""
    declared_spans: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# batch workloads
# ---------------------------------------------------------------------------
class BatchWorkload(Workload):
    """A workload that repeats engine runs over inputs built in set-up.

    A run covers ``instances`` inputs, seeded from the run's seed, so a
    metric averages over several markets instead of resting on one.
    """

    instances = 1

    def setup(self, seed: int, tracer: Optional[Tracer] = None) -> Any:
        raise NotImplementedError

    def run(self, state: Any, tracer: Optional[Tracer] = None):
        raise NotImplementedError

    def gates(self, seed: int, state: Any, reference) -> Dict[str, bool]:
        raise NotImplementedError


def _calibrated(name: str, calibration, bounds) -> Dict[str, Any]:
    return calibrated_kwargs(name, calibration, p_min=bounds[0], p_max=bounds[1])


def _strategy(name: str, kwargs: Dict[str, Any], tracer: Optional[Tracer]):
    strategy = create_strategy(name, **kwargs)
    return strategy if tracer is None else layers.traced_strategy(tracer, strategy)


@dataclass
class CityBatch(BatchWorkload):
    """Sharded, degree-capped batch dispatch over a dense lazy city.

    ``city_scale`` keeps per-period density fixed and scales the horizon:
    ``scale=0.25`` is 100 periods, here of ~1,250 tasks and ~600 workers,
    generated lazily inside the run.  A hundred periods give the period
    latency a p90 with ten periods beyond it.
    """

    scale: float = 0.25
    gate_scale: float = 0.01

    TASKS_PER_PERIOD = 1250
    WORKERS_PER_PERIOD = 600
    GATE_TASKS_PER_PERIOD = 1000
    GATE_WORKERS_PER_PERIOD = 480

    name = "city_batch"
    declared_spans = (
        "gen",
        "graph.build",
        "pipeline.quote",
        "pipeline.decide",
        "pipeline.feedback",
        "pricing.learn",
        "match",
        "halo",
    )

    def setup(self, seed, tracer=None):
        workload = get_scenario("city_scale").chunked(
            scale=self.scale,
            seed=seed,
            tasks_per_period=self.TASKS_PER_PERIOD,
            workers_per_period=self.WORKERS_PER_PERIOD,
        )
        if tracer is not None:
            workload.periods = tracer.traced_factory(workload.periods, "gen")
            workload.column_periods = tracer.traced_factory(workload.column_periods, "gen")
        engine = ShardedEngine(
            workload, num_shards=8, halo=1, max_degree=16, matching_backend="matroid", seed=seed
        )
        kwargs = _calibrated("BaseP", engine.calibrate_base_price(), workload.price_bounds)
        return engine, kwargs

    def run(self, state, tracer=None):
        engine, kwargs = state
        return engine.run(_strategy("BaseP", kwargs, tracer))

    def gates(self, seed, state, reference):
        """One uncapped shard must reproduce the seed loop ``repr``-exactly."""
        workload = get_scenario("city_scale").chunked(
            scale=self.gate_scale,
            seed=seed,
            tasks_per_period=self.GATE_TASKS_PER_PERIOD,
            workers_per_period=self.GATE_WORKERS_PER_PERIOD,
        )
        sharded = ShardedEngine(workload, num_shards=1, halo=0, seed=seed).run(
            create_strategy("BaseP", base_price=2.0)
        )
        legacy = run_reference(
            workload.materialize(), create_strategy("BaseP", base_price=2.0), seed=seed
        )
        return {"city_one_shard_equals_reference": _same_run(sharded, legacy)}


@dataclass
class MapsBatch(BatchWorkload):
    """The paper's algorithm: MAPS over pre-generated taxi workloads.

    Four ``beijing_rush`` markets of ~5,700 tasks over 30 periods.
    """

    instances: int = 4
    scale: float = 0.05

    name = "maps_batch"
    declared_spans = (
        "gen",
        "graph.build",
        "pipeline.quote",
        "pipeline.decide",
        "pipeline.feedback",
        "pricing.learn",
        "maps.plan",
        "match",
    )

    def setup(self, seed, tracer=None):
        with _span(tracer, "gen"):
            workload = get_scenario("beijing_rush").bundle(scale=self.scale, seed=seed)
        engine = SimulationEngine(workload, seed=seed)
        kwargs = _calibrated("MAPS", engine.calibrate_base_price(), workload.price_bounds)
        return engine, kwargs

    def run(self, state, tracer=None):
        engine, kwargs = state
        return engine.run(_strategy("MAPS", kwargs, tracer))

    def gates(self, seed, state, reference):
        """The pipeline must reproduce the seed loop ``repr``-exactly."""
        engine, kwargs = state
        legacy = run_reference(engine.workload, create_strategy("MAPS", **kwargs), seed=seed)
        return {"maps_equals_reference": _same_run(reference, legacy)}


def _churn_stream(seed: int, workload: "ChurnWindow", tracer: Optional[Tracer] = None):
    """A sparse ``city_scale`` stream with its events generated into a list."""
    stream = get_scenario("city_scale").stream(
        seed=seed,
        num_periods=workload.num_periods,
        tasks_per_period=workload.TASKS_PER_PERIOD,
        workers_per_period=workload.WORKERS_PER_PERIOD,
    )
    source = stream.events if tracer is None else tracer.traced_factory(stream.events, "gen")
    events = list(source())
    grids = sorted({e.task.grid_index for e in events if isinstance(e, TaskArrival)})
    return replace(stream, events=events, demand_grids=grids)


class _BasisGatedEngine(DynamicStreamingEngine):
    """``DynamicStreamingEngine`` checking its matching after every window.

    The maintained matching must equal a fresh per-window ``matroid``
    re-solve over the engine's own live population: same matched task
    set, bitwise-equal total.  (End-to-end delta and rewindow revenue
    are not promised equal: a commit retires a history-dependent worker,
    so the two modes' populations can fork.)
    """

    windows = 0
    diverged = 0

    def _post_window_hook(self, widx, matcher, live_weights, live_workers, universe):
        csr = universe.graph.csr()
        task_idx = np.repeat(np.arange(csr.num_tasks), np.diff(csr.indptr))
        alive = np.fromiter(live_workers, dtype=np.int64, count=len(live_workers))
        keep = np.isin(csr.indices, alive)
        population = BipartiteGraph.from_csr(
            universe.graph.tasks,
            universe.graph.workers,
            CSRGraph.from_edge_arrays(
                task_idx[keep], csr.indices[keep], csr.num_tasks, csr.num_workers
            ),
        )
        weights = np.zeros(csr.num_tasks)
        for task_pos, weight in live_weights.items():
            weights[task_pos] = weight
        resolved, total = max_weight_matching(
            population, weights, allowed_tasks=sorted(live_weights), backend="matroid"
        )
        matched = {pos for pos in live_weights if matcher.is_task_matched(pos)}
        self.windows += 1
        if matched != set(resolved) or repr(matcher.total_weight()) != repr(total):
            self.diverged += 1


@dataclass
class ChurnWindow(BatchWorkload):
    """Windowed dynamic dispatch under churn, no degree cap.

    Thirty-two sparse ``city_scale`` markets of 10 one-period windows,
    ~40 requests and ~30 workers arriving per window.  Requests stay open
    4 windows and workers 8, so every window both inserts and deletes on
    each side.  One small market's cost depends on where its hotspots
    land, and moves the window percentiles with it; thirty-two average
    that out (sixteen left them 10% apart from seed to seed).
    """

    instances: int = 32
    num_periods: int = 10

    TASKS_PER_PERIOD = 40
    WORKERS_PER_PERIOD = 30

    name = "churn_window"
    declared_spans = (
        "gen",
        "graph.build",
        "pipeline.quote",
        "pipeline.decide",
        "pipeline.feedback",
        "pricing.learn",
        "dyn.universe",
        "dyn.insert_task",
        "dyn.insert_worker",
        "dyn.remove",
        "dyn.commit",
    )

    def _engine(self, cls, stream, seed):
        return cls(stream, seed=seed, window=1.0, task_lifetime=4.0, resolve="delta")

    def setup(self, seed, tracer=None):
        stream = _churn_stream(seed, self, tracer)
        engine = self._engine(DynamicStreamingEngine, stream, seed)
        kwargs = _calibrated("BaseP", engine.calibrate_base_price(), stream.price_bounds)
        return engine, kwargs

    def run(self, state, tracer=None):
        engine, kwargs = state
        return engine.run(_strategy("BaseP", kwargs, tracer))

    def gates(self, seed, state, reference):
        _engine, kwargs = state
        gated = self._engine(_BasisGatedEngine, _churn_stream(seed, self), seed)
        gated.run(_strategy("BaseP", kwargs, None))
        return {"churn_delta_equals_window_resolve": gated.windows > 0 and not gated.diverged}


def measure_batch(workload: BatchWorkload, seed: int, seconds: float, trace: bool) -> Measurement:
    """Time set-up, then cycle the instances for ``seconds`` (or trace one).

    Every time is taken on the reference host (:mod:`hostspeed`): a set-up
    by the probes around and during it, a period by the probes after it
    and its neighbouring periods.  Each period's time is its median over the
    instance's runs; ``latency_p50_ms`` and ``latency_p90_ms`` are taken
    across those times of all instances, and ``tasks_per_s`` divides the
    tasks of one pass over every instance by their sum.  ``setup_s`` is
    the median set-up.
    """
    seeds = [seed + SEED_STRIDE * index for index in range(workload.instances)]
    if trace:
        state = workload.setup(seed)
        reference = workload.run(state)
        metrics, repeats_equal, covered = _traced_batch(workload, seed, reference)
        gates = {"repeats_bitwise_equal": repeats_equal, "trace_self_times_cover_wall": covered}
        gates.update(workload.gates(seed, state, reference))
        return Measurement(metrics, reference.metrics.total_tasks, 0, gates)

    setup_times: List[float] = []
    states = []
    for index in range(max(len(seeds), SETUP_REPEATS)):
        state, elapsed = hostspeed.timed(lambda: workload.setup(seeds[index % len(seeds)]))
        setup_times.append(elapsed)
        if index < len(seeds):
            states.append(state)
    # Warm-up run: lazy imports and first-touch costs land here.  Each
    # instance's first run is the reference its repeats must match.
    references = [workload.run(states[0])] + [None] * (len(states) - 1)
    periods: List[List[List[float]]] = [[] for _ in states]
    attempted = 0
    repeats_equal = True
    started = perf_counter()
    run = 0
    while perf_counter() - started < seconds or min(map(len, periods)) < MIN_REPS:
        index = run % len(states)
        run += 1
        with period_clock() as clock:
            result = workload.run(states[index])
        periods[index].append(clock.reference_ms())
        attempted += result.metrics.total_tasks
        if references[index] is None:
            references[index] = result
        repeats_equal &= _same_run(result, references[index])
    latencies = [median(period) for runs in periods for period in zip(*runs)]
    metrics = {
        "setup_s": median(setup_times),
        "tasks_per_s": sum(ref.metrics.total_tasks for ref in references)
        / (sum(latencies) / 1e3),
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p90_ms": percentile(latencies, 0.90),
        "peak_rss_mb": _peak_rss_mb(),
    }
    gates = {"repeats_bitwise_equal": repeats_equal}
    gates.update(workload.gates(seed, states[0], references[0]))
    return Measurement(metrics, attempted=attempted, failed=0, gates=gates)


def _traced_batch(workload: BatchWorkload, seed: int, reference):
    """One untraced and one traced set-up + run; per-layer metrics."""
    begin = perf_counter()
    workload.run(workload.setup(seed))
    untraced = perf_counter() - begin

    tracer = Tracer(workload.name)
    layers.install(tracer)
    try:
        with tracer.span(layers.ROOT):
            result = workload.run(workload.setup(seed, tracer), tracer)
    finally:
        tracer.restore()
    metrics = layers.layer_metrics(tracer, workload.declared_spans)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    metrics["revenue"] = reference.metrics.total_revenue
    metrics.update(dict.fromkeys(service_metric_names(), 0.0))
    covered = abs(layers.self_time_share(tracer) - 1.0) <= 0.05
    _report_missing(tracer)
    return metrics, _same_run(result, reference), covered


def _report_missing(tracer: Tracer) -> None:
    for label in tracer.missing:
        print(f"# trace: no such hook {label}; its layer reads 0", file=sys.stderr)


# ---------------------------------------------------------------------------
# the service workload
# ---------------------------------------------------------------------------
SCENARIO = "hotspot_burst"
TASK_LIFETIME = 4.0
#: Ladder of mean offered rates (arrivals per second).
RATES = (250, 500, 1000, 2000)
#: A rate is sustained when client p99, lateness p99 and failures stay
#: within these limits.
SLO_P99_MS = 50.0
MAX_LATENESS_P99_MS = 5.0
STAGES = ("settle", "quote", "decide", "match", "feedback")


def service_metric_names() -> List[str]:
    """Every per-layer metric the service workload reports."""
    names = []
    for rate in RATES:
        at = f"at{rate}"
        names += [
            f"svc.quote_p50_ms.{at}",
            f"svc.quote_p99_ms.{at}",
            f"svc.queue_wait_ms.p50.{at}",
            f"svc.queue_wait_ms.p99.{at}",
            f"svc.service_ms.p50.{at}",
            f"svc.service_ms.p99.{at}",
            f"svc.wire_ms.p50.{at}",
            f"svc.wire_ms.p99.{at}",
            f"svc.quotes.{at}",
            f"svc.server_cpu_frac.{at}",
            f"loadgen.lateness_ms.p50.{at}",
            f"loadgen.lateness_ms.p99.{at}",
            f"loadgen.offered_mean_per_s.{at}",
            f"loadgen.offered_p90_per_s.{at}",
        ]
    names += [f"svc.stage.{stage}_ms.p50" for stage in STAGES]
    names += [
        "svc.capacity_arrivals_per_s",
        "svc.sustainable_arrivals_per_s",
        "svc.server_cpu_frac.unpaced",
        "svc.failed_frac",
    ]
    return names


class ServerProcess:
    """One ``python -m repro.service serve`` child on an ephemeral port."""

    def __init__(self, scale: float, seed: int) -> None:
        self.scale = scale
        self.seed = seed
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        """Spawn the server; returns seconds until it listens."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(SRC), env.get("PYTHONPATH")) if part
        )
        command = [
            sys.executable, "-m", "repro.service", "serve",
            "--scenario", SCENARIO,
            "--scale", repr(self.scale),
            "--seed", str(self.seed),
            "--task-lifetime", repr(TASK_LIFETIME),
            "--port", "0",
        ]  # fmt: skip
        started = perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RuntimeError(f"service did not listen within {timeout:g}s")
        line = self.proc.stdout.readline()
        elapsed = perf_counter() - started
        found = re.search(r" on [^ ]+:(\d+) ", line)
        if found is None:
            raise RuntimeError(f"service failed to start: {line.strip() or 'no output'}")
        self.port = int(found.group(1))
        return elapsed

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Interrupt (the server unlinks its shm arena on the way out)."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


@dataclass
class SessionRun:
    """One session and the server CPU share it used."""

    report: SessionReport
    cpu_frac: float
    #: Seconds spent recording this session's spans (traced runs only).
    trace_s: float = 0.0


@dataclass
class ServerRun:
    """One server process and every session driven against it."""

    setup_s: float
    peak_rss_mb: float
    unpaced: List[SessionRun]
    paced: Dict[int, SessionRun]
    #: Probes of the host before and after the start and every session.
    probes: List[float]


@dataclass
class BurstService(Workload):
    """The quoting service under open-loop load.

    Each of ``servers`` fresh server processes replays the same
    ``hotspot_burst`` stream (~720 arrivals) once at every rate of the
    ladder, each paced session preceded by an unpaced one; the unpaced
    sessions, spread over the whole run, measure capacity.  Every step
    is short, so every server runs the whole ladder; a rate's verdict
    pools its sessions over all servers.
    """

    scale: float = 0.08
    servers: int = 3
    rates: Sequence[int] = RATES

    name = "burst_service"
    declared_spans = ("svc.start", "svc.session", "svc.quote")

    def _session(self, server, seed, arrivals, rate, tracer) -> SessionRun:
        hello = hello_message(SCENARIO, self.scale, seed, "BaseP")
        cpu_before = server.cpu_seconds()
        trace_s = 0.0
        with _span(tracer, "svc.session"):
            begin = perf_counter()
            report = asyncio.run(run_session("127.0.0.1", server.port, hello, arrivals, rate))
            wall = perf_counter() - begin
            if tracer is not None:
                for task_id, sent, received in report.quote_times:
                    tracer.wait_span("svc.quote", sent, received, task_id)
                trace_s = perf_counter() - begin - wall
        return SessionRun(report, (server.cpu_seconds() - cpu_before) / wall, trace_s)

    def server_run(self, seed, arrivals, tracer=None) -> ServerRun:
        server = ServerProcess(self.scale, seed)
        try:
            probes = hostspeed.probes()
            with _span(tracer, "svc.start"):
                setup_s = server.start()
            probes += hostspeed.probes()
            unpaced: List[SessionRun] = []
            paced: Dict[int, SessionRun] = {}
            for rate in self.rates:
                unpaced.append(self._session(server, seed, arrivals, None, tracer))
                probes += hostspeed.probes()
                paced[rate] = self._session(server, seed, arrivals, float(rate), tracer)
                probes += hostspeed.probes()
            return ServerRun(setup_s, server.peak_rss_mb(), unpaced, paced, probes)
        finally:
            server.stop()

    def reference(self, seed):
        """The offline engine's revenue and commits on the same stream."""
        stream = get_scenario(SCENARIO).stream(scale=self.scale, seed=seed)
        calibration = StreamingEngine(stream, seed=seed).calibrate_base_price()
        engine = EventStreamingEngine(stream, seed=seed, task_lifetime=TASK_LIFETIME)
        engine.run(create_strategy("BaseP", **_calibrated("BaseP", calibration, stream.price_bounds)))
        return engine.last_session.revenue, sorted(engine.last_session.commit_log)


def _pooled(sessions: Sequence[SessionRun], attribute: str) -> List[float]:
    return [value for run in sessions for value in getattr(run.report, attribute)]


def _rate_passes(sessions: Sequence[SessionRun]) -> bool:
    """Client p99 and lateness p99 within limits, and nothing failed."""
    return (
        sum(run.report.failures for run in sessions) == 0
        and percentile_or_zero(_pooled(sessions, "latency_ms"), 0.99) <= SLO_P99_MS
        and percentile_or_zero(_pooled(sessions, "lateness_ms"), 0.99) <= MAX_LATENESS_P99_MS
    )


@contextlib.contextmanager
def one_cpu() -> Iterator[None]:
    """Run this process, and every child it starts meanwhile, on one CPU.

    Client and server then never wait for another virtual CPU to wake,
    and the probes the client takes measure the CPU the server runs on.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def measure_service(workload: BurstService, seed: int, trace: bool) -> Measurement:
    """Capacity sessions and the rate ladder on each of several servers."""
    arrivals = encode_stream(get_scenario(SCENARIO).stream(scale=workload.scale, seed=seed))
    tracer = Tracer(workload.name) if trace else None
    with one_cpu(), _span(tracer, layers.ROOT):
        servers = [workload.server_run(seed, arrivals, tracer) for _ in range(workload.servers)]
    unpaced = [run for server in servers for run in server.unpaced]
    by_rate = {rate: [server.paced[rate] for server in servers] for rate in workload.rates}
    reports = [run.report for run in unpaced] + [
        run.report for sessions in by_rate.values() for run in sessions
    ]

    revenue, commits = workload.reference(seed)
    gates = {
        "service_equals_offline_engine": all(
            repr(report.revenue) == repr(revenue) and sorted(report.commits) == commits
            for report in reports
        )
    }
    attempted = sum(report.tasks_sent for report in reports)
    failed = sum(report.failures for report in reports)

    if not trace:
        # Times on the reference host (see hostspeed), by one scale for
        # the whole run from every probe between its steps: a session
        # tracks the probes less closely than a batch period, so the few
        # probes around one session would add more noise than they take
        # away.  Capacity is the median unpaced session, and each quote's
        # latency its best over the servers' sessions at the reference
        # rate (every server replays the same arrivals on the same
        # schedule).
        scale = hostspeed.in_reference(1.0, [probe for run in servers for probe in run.probes])
        latencies = _best_quote_latencies(by_rate[workload.rates[0]])
        metrics = {
            "setup_s": median(server.setup_s for server in servers) * scale,
            "tasks_per_s": median(run.report.quoted / run.report.wall_s for run in unpaced) / scale,
            "latency_p50_ms": percentile(latencies, 0.50) * scale,
            "latency_p90_ms": percentile(latencies, 0.90) * scale,
            "peak_rss_mb": median(server.peak_rss_mb for server in servers),
        }
        return Measurement(metrics, attempted, failed, gates)

    metrics = layers.layer_metrics(tracer, workload.declared_spans)
    metrics["trace.overhead_s"] = sum(
        run.trace_s for server in servers for run in server.unpaced + list(server.paced.values())
    )
    metrics["revenue"] = revenue
    metrics.update(dict.fromkeys(service_metric_names(), 0.0))
    for rate, sessions in by_rate.items():
        metrics.update(_rate_metrics(sessions, f"at{rate}"))
    # The highest rate whose step, and every step below it, passed.
    sustainable = 0.0
    for rate in workload.rates:
        if not _rate_passes(by_rate[rate]):
            break
        sustainable = float(rate)
    metrics.update(
        {
            "svc.capacity_arrivals_per_s": median(
                run.report.events_sent / run.report.wall_s for run in unpaced
            ),
            "svc.sustainable_arrivals_per_s": sustainable,
            "svc.server_cpu_frac.unpaced": median(run.cpu_frac for run in unpaced),
            "svc.failed_frac": failed / attempted if attempted else 0.0,
        }
    )
    # The stats histograms are cumulative per server: the snapshot the
    # first session ends with covers that unpaced session alone.
    for stage in STAGES:
        metrics[f"svc.stage.{stage}_ms.p50"] = median(
            _stage_p50(server.unpaced[0].report.stats, stage) for server in servers
        )
    gates["trace_self_times_cover_wall"] = abs(layers.self_time_share(tracer) - 1.0) <= 0.05
    return Measurement(metrics, attempted, failed, gates)


def _best_quote_latencies(sessions: Sequence[SessionRun]) -> List[float]:
    """Per task, the lowest latency any of the sessions measured (ms)."""
    best: Dict[int, float] = {}
    for run in sessions:
        for task_id, sent, received in run.report.quote_times:
            latency = (received - sent) * 1e3
            best[task_id] = min(latency, best.get(task_id, latency))
    return list(best.values())


def _stage_p50(stats: Dict[str, Any], stage: str) -> float:
    return stats.get("latency_ms", {}).get(f"stage_{stage}", {}).get("p50_ms", 0.0)


def _rate_metrics(sessions: Sequence[SessionRun], at: str) -> Dict[str, float]:
    metrics = {
        f"svc.quotes.{at}": sum(run.report.quoted for run in sessions),
        f"svc.server_cpu_frac.{at}": median(run.cpu_frac for run in sessions),
        f"loadgen.offered_mean_per_s.{at}": median(run.report.offered_mean_per_s for run in sessions),
        f"loadgen.offered_p90_per_s.{at}": median(run.report.offered_p90_per_s for run in sessions),
    }
    for label, attribute in (
        ("svc.quote_{}_ms." + at, "latency_ms"),
        ("svc.queue_wait_ms.{}." + at, "queue_wait_ms"),
        ("svc.service_ms.{}." + at, "service_ms"),
        ("svc.wire_ms.{}." + at, "wire_ms"),
        ("loadgen.lateness_ms.{}." + at, "lateness_ms"),
    ):
        samples = _pooled(sessions, attribute)
        metrics[label.format("p50")] = percentile_or_zero(samples, 0.50)
        metrics[label.format("p99")] = percentile_or_zero(samples, 0.99)
    return metrics


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
WORKLOADS = {
    workload.name: workload
    for workload in (CityBatch(), MapsBatch(), ChurnWindow(), BurstService())
}


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Measurement:
    """Run one workload; ``trace`` selects the per-layer run."""
    if isinstance(workload, BurstService):
        return measure_service(workload, seed, trace)
    return measure_batch(workload, seed, seconds, trace)


__all__ = [
    "END_TO_END",
    "WORKLOADS",
    "BurstService",
    "ChurnWindow",
    "CityBatch",
    "MapsBatch",
    "Measurement",
    "Workload",
    "ServerProcess",
    "measure",
    "period_clock",
    "service_metric_names",
]
