"""The resident dispatch server: asyncio ingest over one live session.

Architecture (one connection = one replay session, FIFO end to end)::

    client ──lines──▶ reader ──bounded queue──▶ consumer ──▶ DispatchSession
                        │ stats/reject (inline)     │ quotes/settlements
                        ▼                           ▼
                      replies ◀─────────────────────┘ ──one write──▶ client

* The **reader** parses lines and enqueues events into a bounded
  :class:`asyncio.Queue`.  Under ``admission="block"`` (default) a full
  queue makes the reader await — it stops reading, the TCP window fills,
  and backpressure propagates to the client losslessly.  Under
  ``admission="reject"`` a full queue sheds *task* arrivals with an
  explicit ``reject`` reply instead (workers, departures and flushes are
  never shed: silently losing supply or control messages would corrupt
  the session state the client reasons about).
* The **consumer** drains the queue in arrival order through one
  resident :class:`~repro.simulation.streaming.DispatchSession` — the
  same settle → quote → decide → insert core the offline
  :class:`~repro.simulation.streaming.EventStreamingEngine` runs, which
  is what makes the differential gate exact.  When a quote has waited in
  the queue longer than ``degrade_fraction * slo_ms``, the insert falls
  back to the bounded greedy path
  (:meth:`~repro.matching.incremental.LazyDynamicMatcher.new_task` with
  ``greedy=True``; ``DynamicMatcher.insert_task_greedy`` when capped)
  so the exact delta repair cannot bust the SLO — counted, surfaced,
  and off by default (no SLO configured, never degrade).
* **Replies** leave through one buffer per connection
  (:class:`_Replies`).  The consumer holds its replies while more
  events are queued and writes them out as one ``send`` before it could
  wait (the queue is empty, the ``event_delay`` seam sleeps, the
  session ends) or once :data:`MAX_HELD_REPLIES` are held; the reader's
  inline replies and every ``error`` go out at once, behind whatever is
  held.  The byte stream is unchanged; only the number of socket writes
  (and of client wake-ups) drops under a backlog.
* **Observability**: per-stage latency series (queue wait, service time,
  total turnaround, plus the session's settle/quote/decide/match/
  feedback stages), queue depth and drop/degrade counters, served as an
  NDJSON ``stats`` message in-protocol or as a plain ``GET /stats`` HTTP
  endpoint on the same port (the first line of a connection is sniffed).

The universe arrays (task distances and both arrival-time columns) live
in a :class:`~repro.utils.shm.ShmArena` segment owned by the server —
the same zero-copy data plane the figure pool ships workloads by, so a
future multi-process quoting tier can attach without pickling; the arena is
unlinked on :meth:`DispatchServer.stop` and covered by the shm module's
atexit *and* signal backstops.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.pricing.registry import calibrated_kwargs, create_strategy
from repro.service.protocol import (
    EVENT_TYPES,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    error_message,
    task_from_wire,
    worker_from_wire,
)
from repro.simulation.streaming import (
    ArrivalStream,
    DispatchSession,
    Settlement,
    StreamingEngine,
    _refuse_batch_planner,
    build_universe,
    checked_duration,
)
from repro.spatial.index import checked_degree_cap
from repro.utils.shm import ShmArena

#: Replies the consumer may hold while more events are queued.  In a
#: sweep of the ``burst_service`` benchmark (docs/performance.md, "One
#: socket write per drained backlog") paced quote p99 was no better above
#: 8 and worse at 256, while a larger bound holds a backlog's first
#: quotes back longer; 8 is the smallest bound on that plateau.
MAX_HELD_REPLIES = 8


@dataclass
class ServiceConfig:
    """Everything the server needs to own a scenario session.

    Attributes:
        scenario: Registered scenario name whose stream the server owns
            (the universe is pre-built from it at startup; clients must
            replay the same scenario/scale/seed/params).
        scale: Scenario scale.
        seed: Scenario *and* session seed (acceptance RNG, calibration).
        params: Extra scenario parameters.
        strategy: Default pricing strategy (a ``hello`` may override with
            any grid-state strategy; MAPS, which cannot quote a single
            event, is refused before ``ready``).
        task_lifetime: Default task lifetime in period units.
        max_degree: Optional universe adjacency cap.  Unset, sessions
            quote off the live adjacency plane and the universe graph is
            never built; set, they run the universe
            :class:`~repro.matching.incremental.DynamicMatcher` (the rule
            of :class:`~repro.simulation.streaming.DispatchSession`),
            which builds the capped graph during the first handshake.
        slo_ms: Per-quote latency objective in milliseconds; ``None``
            disables degradation entirely.
        degrade_fraction: Degrade a quote once its queue wait exceeds
            this fraction of the SLO (the remaining budget must cover the
            quote itself).
        queue_size: Ingest queue bound (events).
        admission: ``"block"`` (lossless TCP backpressure) or
            ``"reject"`` (shed task arrivals with a ``reject`` reply).
        once: Stop the server after the first session's connection
            closes (tests and one-shot benchmarks).
        event_delay: Test seam — artificial per-event stall in seconds
            inside the consumer, to make queue pressure deterministic.
    """

    scenario: str = "hotspot_burst"
    scale: float = 0.05
    seed: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    strategy: str = "BaseP"
    task_lifetime: float = 4.0
    max_degree: Optional[int] = None
    slo_ms: Optional[float] = None
    degrade_fraction: float = 0.5
    queue_size: int = 1024
    admission: str = "block"
    once: bool = False
    event_delay: float = 0.0

    def __post_init__(self) -> None:
        self.task_lifetime = checked_duration(self.task_lifetime, "task_lifetime")
        self.max_degree = checked_degree_cap(self.max_degree)
        if self.queue_size <= 0:
            raise ValueError("queue_size must be positive")
        if self.admission not in ("block", "reject"):
            raise ValueError(
                f"unknown admission mode {self.admission!r}; choose 'block' or 'reject'"
            )
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError("slo_ms must be positive when given")
        if not 0.0 < self.degrade_fraction <= 1.0:
            raise ValueError("degrade_fraction must be in (0, 1]")


class LatencySeries:
    """Latency samples with exact percentiles (bounded raw storage)."""

    #: Raw-sample cap; count/mean/max stay exact beyond it, percentiles
    #: degrade to the first ``_CAP`` samples (far above bench volumes).
    _CAP = 200_000

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.count = 0
        self.total = 0.0
        self.peak = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds > self.peak:
            self.peak = seconds
        if len(self.samples) < self._CAP:
            self.samples.append(seconds)

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile in seconds (0.0 when empty)."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
        return ordered[rank]

    def summary(self) -> Dict[str, float]:
        """JSON-ready milliseconds summary."""
        return {
            "count": self.count,
            "mean_ms": (self.total / self.count * 1e3) if self.count else 0.0,
            "p50_ms": self.percentile(0.50) * 1e3,
            "p99_ms": self.percentile(0.99) * 1e3,
            "max_ms": self.peak * 1e3,
        }


class ServiceStats:
    """Counters plus latency series — the ``/stats`` surface."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.series: Dict[str, LatencySeries] = {}

    def bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def observe(self, name: str, seconds: float) -> None:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = LatencySeries()
        series.observe(seconds)

    def observe_stage(self, stage: str, seconds: float) -> None:
        """The :class:`DispatchSession` ``stage_hook`` adapter."""
        self.observe(f"stage_{stage}", seconds)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "latency_ms": {
                name: series.summary() for name, series in sorted(self.series.items())
            },
        }


class _Replies:
    """One connection's server→client lines, written as few sends.

    :meth:`send` encodes a message and holds its line; :meth:`write`
    hands every held line to the transport in one ``writer.write``, and
    :meth:`flush` writes and then drains once.  Lines leave in the order
    they were sent, so holding changes the number of socket writes,
    never the byte stream.  Every message bumps the ``replies`` counter
    and every write ``reply_writes``, so ``/stats`` shows the ratio.
    """

    def __init__(self, writer: asyncio.StreamWriter, stats: ServiceStats) -> None:
        self._writer = writer
        self._stats = stats
        self._held: List[bytes] = []

    def __len__(self) -> int:
        return len(self._held)

    def send(self, message: Dict[str, Any]) -> None:
        self._held.append(encode_message(message))
        self._stats.bump("replies")

    def write(self) -> None:
        if self._held:
            self._writer.write(b"".join(self._held))
            self._held.clear()
            self._stats.bump("reply_writes")

    async def flush(self) -> None:
        if self._held:
            self.write()
            await self._writer.drain()


class DispatchServer:
    """The long-running quoting service over one scenario universe.

    Lifecycle: :meth:`prepare` (build stream → universe → shm arena →
    calibration; implicit in :meth:`start`), :meth:`start` (bind; returns
    the bound port, so ``port=0`` works for tests), :meth:`serve_until_stopped`,
    :meth:`stop` (close and unlink the arena).  One session at a time: a
    second concurrent ``hello`` is refused with a busy error — replays
    are sequential by design (the session owns the strategy state and
    the matcher; see ``docs/service.md`` for the multi-tenant outlook).
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.stats = ServiceStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._arena: Optional[ShmArena] = None
        self._stream: Optional[ArrivalStream] = None
        self._universe = None
        self._calibration = None
        self._worker_pos_by_id: Dict[int, int] = {}
        self._busy = False
        self._active_queue: Optional[asyncio.Queue] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Build the scenario session state (idempotent, synchronous).

        Heavy by design — universe pre-scan plus Algorithm 1 calibration
        — and run once at startup so per-connection session resets are
        cheap.  Calibration is the streaming engine's: it probes the
        stream's ``demand_grids`` metadata cells, not the whole grid.
        """
        if self._stream is not None:
            return
        from repro.simulation.scenarios import get_scenario

        config = self.config
        scenario = get_scenario(config.scenario)
        stream = scenario.stream(
            scale=config.scale, seed=config.seed, **dict(config.params)
        )
        instance, task_arrivals, worker_arrivals = build_universe(
            stream, max_degree=config.max_degree
        )
        arrays = instance.ensure_arrays()
        # The universe columns the quoting tier reads per event live in
        # one owned shm segment; the session's arrival lookups go through
        # the mapped views, so attaching processes would see the same
        # bytes with zero copies.
        self._arena = ShmArena.create(
            {
                "task_distances": np.ascontiguousarray(
                    arrays.distances, dtype=np.float64
                ),
                "task_arrivals": np.asarray(task_arrivals, dtype=np.float64),
                "worker_arrivals": np.asarray(worker_arrivals, dtype=np.float64),
            }
        )
        self._universe = (
            instance,
            self._arena["task_arrivals"],
            self._arena["worker_arrivals"],
        )
        self._worker_pos_by_id = {
            worker.worker_id: pos for pos, worker in enumerate(instance.workers)
        }
        self._calibration = StreamingEngine(
            stream, seed=config.seed
        ).calibrate_base_price()
        self._stream = stream

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and listen; returns the actually-bound port."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self.prepare()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, host=host, port=port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        """Close the listener and destroy the shm segment (idempotent)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._arena is not None:
            # Drop the views aliasing the segment before unlinking.
            self._universe = None
            self._arena.unlink()
            self._arena = None
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` (or a ``once`` session ending)."""
        if self._stop_event is None:
            raise RuntimeError("server is not started")
        await self._stop_event.wait()

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, Any]:
        snapshot = self.stats.snapshot()
        queue = self._active_queue
        instance = self._universe[0] if self._universe is not None else None
        snapshot.update(
            {
                "type": "stats",
                "busy": self._busy,
                "queue_depth": queue.qsize() if queue is not None else 0,
                "queue_size": self.config.queue_size,
                "admission": self.config.admission,
                "slo_ms": self.config.slo_ms,
                "segment": (
                    self._arena.handle.segment if self._arena is not None else None
                ),
                "universe": {
                    "tasks": len(instance.tasks) if instance is not None else 0,
                    "workers": len(instance.workers) if instance is not None else 0,
                },
            }
        )
        return snapshot

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session_ran = False
        replies = _Replies(writer, self.stats)
        try:
            first = await reader.readline()
            if not first:
                return
            if first.startswith(b"GET "):
                await self._serve_http(first, reader, writer)
                return
            hello = decode_message(first)
            if hello.get("type") != "hello":
                raise ProtocolError("first message must be 'hello' (or an HTTP GET)")
            if self._busy:
                replies.send(error_message("busy: a session is already active"))
                await replies.flush()
                return
            self._busy = True
            try:
                session_ran = True
                await self._run_session(hello, reader, replies)
            finally:
                self._busy = False
        except ProtocolError as exc:
            try:
                # Behind every reply the consumer still holds: the client
                # reads the replies of all events before the fault first.
                replies.send(error_message(str(exc)))
                await replies.flush()
            except (ConnectionResetError, BrokenPipeError, ProtocolError):
                # drain() re-raises a consumer failure handed to the
                # reader; closing the writer below still flushes the reply.
                pass
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            if session_ran and self.config.once and self._stop_event is not None:
                self._stop_event.set()

    async def _serve_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Minimal HTTP: ``GET /stats`` on the NDJSON port."""
        while True:  # drain request headers
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
        parts = request_line.decode("latin-1").split()
        path = parts[1] if len(parts) > 1 else "/"
        if path.split("?")[0] == "/stats":
            status = "200 OK"
            body = (json.dumps(self.stats_snapshot(), indent=2) + "\n").encode("utf-8")
        else:
            status = "404 Not Found"
            body = b'{"error": "only /stats exists"}\n'
        writer.write(
            (
                f"HTTP/1.1 {status}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()

    def _build_session(self, hello: Dict[str, Any]) -> DispatchSession:
        """Validate the handshake and reset a fresh session over the universe."""
        config = self.config
        if hello.get("protocol") not in (None, PROTOCOL_VERSION):
            raise ProtocolError(
                f"protocol {hello.get('protocol')!r} unsupported "
                f"(server speaks {PROTOCOL_VERSION})"
            )
        for key, expected in (
            ("scenario", config.scenario),
            ("scale", config.scale),
            ("seed", config.seed),
            ("params", config.params),
        ):
            offered = hello.get(key)
            if offered is not None and offered != expected:
                raise ProtocolError(
                    f"hello {key}={offered!r} does not match the server's "
                    f"universe ({key}={expected!r}); restart the server for a "
                    "different scenario session"
                )
        strategy_name = hello.get("strategy") or config.strategy
        lifetime = hello.get("task_lifetime")
        lifetime = config.task_lifetime if lifetime is None else float(lifetime)
        try:
            strategy = create_strategy(
                strategy_name,
                **calibrated_kwargs(
                    strategy_name,
                    self._calibration,
                    p_min=self._stream.price_bounds[0],
                    p_max=self._stream.price_bounds[1],
                ),
            )
            # Refused here, before ``ready``, not at the first quote.
            _refuse_batch_planner(strategy)
            return DispatchSession(
                self._stream,
                strategy,
                seed=config.seed,
                task_lifetime=lifetime,
                max_degree=config.max_degree,
                universe=self._universe,
                stage_hook=self.stats.observe_stage,
            )
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc

    async def _run_session(
        self,
        hello: Dict[str, Any],
        reader: asyncio.StreamReader,
        replies: _Replies,
    ) -> None:
        session = self._build_session(hello)
        instance = self._universe[0]
        replies.send(
            {
                "type": "ready",
                "protocol": PROTOCOL_VERSION,
                "strategy": session.strategy.name,
                "base_price": self._calibration.base_price,
                "tasks": len(instance.tasks),
                "workers": len(instance.workers),
                "admission": self.config.admission,
                "queue_size": self.config.queue_size,
                "slo_ms": self.config.slo_ms,
            }
        )
        await replies.flush()

        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.config.queue_size)
        self._active_queue = queue
        consumer = asyncio.create_task(self._consume(session, queue, replies))

        def _fail_reader(task: asyncio.Task) -> None:
            # The client waits for the reply to the event that killed the
            # consumer, so the reader must not wait in readline() for its
            # next line: hand it the failure instead.
            if not task.cancelled() and task.exception() is not None:
                reader.set_exception(task.exception())

        consumer.add_done_callback(_fail_reader)
        # Universe positions are assigned here, at ingest: a shed task
        # still consumes its position, because the client replays the
        # stream in order and the *next* delivered task must line up
        # with the *next* position.  (Counting only delivered tasks
        # desyncs the differential id check after the first shed.)
        universe_tasks = self._universe[0].tasks
        next_task_pos = 0
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                message = decode_message(line)
                mtype = message["type"]
                if mtype == "bye":
                    break
                if mtype == "stats":
                    # Served inline so a monitoring probe is never stuck
                    # behind the ingest queue it is trying to observe.
                    # The reader writes without draining, as it must keep
                    # reading to shed under reject admission.
                    replies.send(self.stats_snapshot())
                    replies.write()
                    continue
                if mtype not in EVENT_TYPES:
                    raise ProtocolError(f"unexpected message type {mtype!r}")
                if mtype == "task":
                    if next_task_pos >= len(universe_tasks):
                        raise ProtocolError(
                            "more task arrivals than the scenario universe holds"
                        )
                    task_pos = next_task_pos
                    next_task_pos += 1
                    if self.config.admission == "reject" and queue.full():
                        offered_id = (message.get("task") or {}).get("task_id")
                        expected_id = universe_tasks[task_pos].task_id
                        if offered_id != expected_id:
                            raise ProtocolError(
                                f"task arrival #{task_pos} has id {offered_id}, "
                                f"but the universe stream has id {expected_id} "
                                "at that position — client and server replay "
                                "different streams"
                            )
                        self.stats.bump("rejected")
                        replies.send(
                            {
                                "type": "reject",
                                "reason": "backpressure: ingest queue is full",
                                "task_id": offered_id,
                                "time": message.get("time"),
                            }
                        )
                        replies.write()
                        continue
                    item = (loop.time(), task_pos, message)
                else:
                    item = (loop.time(), None, message)
                if queue.full():
                    # A blocking put can never resolve once the consumer
                    # has died; race it against the consumer so a failure
                    # there surfaces instead of deadlocking reader and
                    # client at zero CPU.
                    putter = asyncio.ensure_future(queue.put(item))
                    await asyncio.wait(
                        {putter, consumer}, return_when=asyncio.FIRST_COMPLETED
                    )
                    if not putter.done():
                        putter.cancel()
                        consumer.result()
                        raise ProtocolError("event consumer exited mid-stream")
                else:
                    queue.put_nowait(item)
        finally:
            self._active_queue = None
            if consumer.done():
                consumer.result()
            else:
                sentinel = asyncio.ensure_future(queue.put(None))
                await asyncio.wait(
                    {sentinel, consumer}, return_when=asyncio.FIRST_COMPLETED
                )
                if consumer.done() and not sentinel.done():
                    sentinel.cancel()
                await consumer

    # ------------------------------------------------------------------
    # the consumer: events → session, strictly in arrival order
    # ------------------------------------------------------------------
    def _emit_settlements(
        self, replies: _Replies, settlements: List[Settlement]
    ) -> None:
        for settlement in settlements:
            if settlement.kind == "commit":
                self.stats.bump("committed")
            elif settlement.kind == "expire":
                self.stats.bump("expired")
            else:
                self.stats.bump("departed")
            replies.send(
                {
                    "type": "settle",
                    "kind": settlement.kind,
                    "time": settlement.time,
                    "task_id": settlement.task_id,
                    "worker_id": settlement.worker_id,
                    "revenue": settlement.revenue,
                }
            )

    async def _consume(
        self,
        session: DispatchSession,
        queue: asyncio.Queue,
        replies: _Replies,
    ) -> None:
        loop = asyncio.get_running_loop()
        config = self.config
        slo_seconds = None if config.slo_ms is None else config.slo_ms / 1e3
        next_worker = 0
        instance = self._universe[0]
        while True:
            item = await queue.get()
            if item is None:
                await replies.flush()
                return
            # The reader assigns task positions at ingest (shed arrivals
            # consume theirs too); workers carry None and count here.
            received_at, task_pos, message = item
            if config.event_delay:
                await replies.flush()
                await asyncio.sleep(config.event_delay)
            queue_wait = loop.time() - received_at
            mtype = message["type"]
            try:
                if mtype == "task":
                    offered = task_from_wire(message.get("task") or {})
                    expected = instance.tasks[task_pos]
                    if offered.task_id != expected.task_id:
                        raise ProtocolError(
                            f"task arrival #{task_pos} has id {offered.task_id}, "
                            f"but the universe stream has id {expected.task_id} "
                            "at that position — client and server replay "
                            "different streams"
                        )
                    degrade = (
                        slo_seconds is not None
                        and queue_wait > slo_seconds * config.degrade_fraction
                    )
                    started = perf_counter()
                    outcome, settlements = session.on_task(
                        task_pos, float(message["time"]), degrade=degrade
                    )
                    service_seconds = perf_counter() - started
                    self.stats.bump("quoted")
                    if outcome.accepted:
                        self.stats.bump("accepted")
                    if outcome.degraded:
                        self.stats.bump("degraded")
                    self.stats.observe("queue_wait", queue_wait)
                    self.stats.observe("service", service_seconds)
                    self.stats.observe("total", loop.time() - received_at)
                    self._emit_settlements(replies, settlements)
                    replies.send(
                        {
                            "type": "quote",
                            "task_id": outcome.task_id,
                            "grid_index": outcome.grid_index,
                            "price": outcome.price,
                            "accepted": outcome.accepted,
                            "matched": outcome.matched,
                            "degraded": outcome.degraded,
                            "deadline": outcome.deadline,
                            "queue_wait_ms": queue_wait * 1e3,
                            "service_ms": service_seconds * 1e3,
                        }
                    )
                elif mtype == "worker":
                    if next_worker >= len(instance.workers):
                        raise ProtocolError(
                            "more worker arrivals than the scenario universe holds"
                        )
                    worker_pos = next_worker
                    next_worker += 1
                    offered = worker_from_wire(message.get("worker") or {})
                    expected = instance.workers[worker_pos]
                    if offered.worker_id != expected.worker_id:
                        raise ProtocolError(
                            f"worker arrival #{worker_pos} has id "
                            f"{offered.worker_id}, but the universe stream has "
                            f"id {expected.worker_id} at that position"
                        )
                    joined, settlements = session.on_worker(
                        worker_pos, float(message["time"])
                    )
                    self.stats.bump("workers_joined" if joined else "workers_expired")
                    self._emit_settlements(replies, settlements)
                    replies.send(
                        {
                            "type": "joined",
                            "worker_id": offered.worker_id,
                            "joined": joined,
                        }
                    )
                elif mtype == "depart":
                    worker_id = int(message["worker_id"])
                    worker_pos = self._worker_pos_by_id.get(worker_id)
                    if worker_pos is None:
                        raise ProtocolError(
                            f"depart names unknown worker id {worker_id}"
                        )
                    departed, settlements = session.depart_worker(
                        worker_pos, float(message["time"])
                    )
                    self._emit_settlements(replies, settlements)
                    replies.send(
                        {
                            "type": "departed",
                            "worker_id": worker_id,
                            "departed": departed,
                        }
                    )
                else:  # flush
                    settlements = session.drain()
                    self._emit_settlements(replies, settlements)
                    replies.send(
                        {
                            "type": "summary",
                            "revenue": session.revenue,
                            "quoted": session.quoted,
                            "accepted": session.accepted,
                            "degraded": session.degraded,
                            "committed": session.committed,
                            "expired": session.expired,
                            "departed": session.departed,
                            "rejected": self.stats.counters.get("rejected", 0),
                        }
                    )
            except ProtocolError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                # ValueError covers an event time the session refuses.
                raise ProtocolError(f"malformed {mtype} message: {exc}") from exc
            finally:
                queue.task_done()
            # Hold replies only while more events wait: an empty queue
            # means the next get() may suspend.
            if queue.empty() or len(replies) >= MAX_HELD_REPLIES:
                await replies.flush()


__all__ = ["DispatchServer", "LatencySeries", "ServiceConfig", "ServiceStats"]
