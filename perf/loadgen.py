"""Open-loop load generator for the dispatch service.

One asyncio process, one connection per session, separate from the
server process.  Arrivals go out on a schedule fixed before the session
starts, whatever the server does: a stalled server makes later sends
late, and each quote is timed from its *scheduled* send time, so the
stall counts against every quote behind it.  The generator records how
late it actually sent (lateness) and the offered-load profile it
produced (mean and p90 of the arrival rate in 100 ms bins), so every
latency number comes with the load that produced it.

A paced session scales stream time so the mean offered rate equals
``rate`` arrivals (task and worker events) per second; the scenario's
own bursts then peak above that mean.  An unpaced session (``rate=None``)
sends as fast as the server's blocking admission lets it, which measures
capacity.

Failures are counted against tasks sent: a task with no ``quote`` reply,
a ``reject`` reply, and every ``error`` message.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service.protocol import (
    MAX_LINE_BYTES,
    encode_message,
    task_to_wire,
    worker_to_wire,
)
from repro.simulation.streaming import ArrivalStream, TaskArrival

from quantiles import percentile

#: Width of the offered-load bins.
BIN_SECONDS = 0.1
#: Events written per ``drain`` in an unpaced session.
UNPACED_CHUNK = 64


@dataclass(frozen=True)
class Arrival:
    """One pre-encoded arrival event."""

    time: float
    task_id: Optional[int]
    line: bytes


def encode_stream(stream: ArrivalStream) -> List[Arrival]:
    """Encode every event of the stream once, before any session runs."""
    arrivals = []
    for event in stream.iter_events():
        if isinstance(event, TaskArrival):
            message = {"type": "task", "time": event.time, "task": task_to_wire(event.task)}
            task_id: Optional[int] = int(event.task.task_id)
        else:
            message = {
                "type": "worker",
                "time": event.time,
                "worker": worker_to_wire(event.worker),
            }
            task_id = None
        arrivals.append(Arrival(float(event.time), task_id, encode_message(message)))
    return arrivals


@dataclass
class SessionReport:
    """What one session sent, received and measured (times in ms)."""

    rate: Optional[float]
    events_sent: int = 0
    tasks_sent: int = 0
    latency_ms: List[float] = field(default_factory=list)
    queue_wait_ms: List[float] = field(default_factory=list)
    service_ms: List[float] = field(default_factory=list)
    wire_ms: List[float] = field(default_factory=list)
    lateness_ms: List[float] = field(default_factory=list)
    offered_mean_per_s: float = 0.0
    offered_p90_per_s: float = 0.0
    wall_s: float = 0.0
    quoted: int = 0
    rejects: int = 0
    errors: int = 0
    revenue: Optional[float] = None
    commits: List[Tuple[int, int]] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    #: ``(task_id, scheduled, received)`` per quote, perf_counter seconds.
    quote_times: List[Tuple[int, float, float]] = field(default_factory=list)

    @property
    def missing(self) -> int:
        return max(0, self.tasks_sent - self.quoted - self.rejects)

    @property
    def failures(self) -> int:
        return self.missing + self.rejects + self.errors


def offered_profile(scheduled: Sequence[float]) -> Tuple[float, float]:
    """Mean and p90 arrival rate over fixed-width bins of the schedule."""
    if not scheduled:
        return 0.0, 0.0
    origin = scheduled[0]
    counts = [0] * (int((scheduled[-1] - origin) / BIN_SECONDS) + 1)
    for when in scheduled:
        counts[int((when - origin) / BIN_SECONDS)] += 1
    rates = [count / BIN_SECONDS for count in counts]
    return sum(rates) / len(rates), percentile(rates, 0.90, min_beyond=0)


async def run_session(
    host: str,
    port: int,
    hello: Dict[str, Any],
    arrivals: Sequence[Arrival],
    rate: Optional[float],
    timeout: float = 120.0,
) -> SessionReport:
    """Drive one session and collect its replies.

    Args:
        host / port: The listening server.
        hello: The handshake message.
        arrivals: Encoded events in stream order.
        rate: Mean offered arrivals per second, or ``None`` for unpaced.
        timeout: Upper bound on the whole session, in seconds.
    """
    return await asyncio.wait_for(
        _session(host, port, hello, arrivals, rate), timeout=timeout
    )


async def _session(host, port, hello, arrivals, rate) -> SessionReport:
    report = SessionReport(rate=rate)
    reader, writer = await asyncio.open_connection(host, port, limit=MAX_LINE_BYTES)
    try:
        writer.write(encode_message(hello))
        await writer.drain()
        ready = json.loads(await reader.readline() or b"{}")
        if ready.get("type") != "ready":
            report.errors += 1
            return report

        scheduled_of: Dict[int, float] = {}
        summary_seen = asyncio.Event()
        stats_seen = asyncio.Event()
        last_reply = [0.0]

        async def collect() -> None:
            try:
                while True:
                    line = await reader.readline()
                    if not line:
                        return
                    received = perf_counter()
                    message = json.loads(line)
                    kind = message["type"]
                    if kind == "quote":
                        task_id = message["task_id"]
                        scheduled = scheduled_of[task_id]
                        latency = (received - scheduled) * 1e3
                        queue_wait = float(message["queue_wait_ms"])
                        service = float(message["service_ms"])
                        report.quoted += 1
                        report.latency_ms.append(latency)
                        report.queue_wait_ms.append(queue_wait)
                        report.service_ms.append(service)
                        report.wire_ms.append(latency - queue_wait - service)
                        report.quote_times.append((task_id, scheduled, received))
                        last_reply[0] = received
                    elif kind == "settle":
                        if message["kind"] == "commit":
                            report.commits.append((message["task_id"], message["worker_id"]))
                    elif kind == "reject":
                        report.rejects += 1
                    elif kind == "summary":
                        report.revenue = float(message["revenue"])
                        last_reply[0] = received
                        summary_seen.set()
                    elif kind == "stats":
                        report.stats = message
                        stats_seen.set()
                    elif kind == "error":
                        report.errors += 1
                        return
            finally:
                summary_seen.set()
                stats_seen.set()

        collector = asyncio.create_task(collect())
        first_send = perf_counter()
        if rate is None:
            await _send_unpaced(writer, arrivals, scheduled_of, report, collector)
        else:
            await _send_paced(writer, arrivals, rate, scheduled_of, report, collector)
        if not collector.done():
            writer.write(encode_message({"type": "flush", "time": None}))
            await writer.drain()
            await summary_seen.wait()
        report.wall_s = last_reply[0] - first_send if last_reply[0] else 0.0
        if not collector.done():
            writer.write(encode_message({"type": "stats"}))
            await writer.drain()
            await stats_seen.wait()
        if not collector.done():
            writer.write(encode_message({"type": "bye"}))
            await writer.drain()
        await collector
        return report
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _send_unpaced(writer, arrivals, scheduled_of, report, collector) -> None:
    for start in range(0, len(arrivals), UNPACED_CHUNK):
        if collector.done():
            return
        chunk = arrivals[start : start + UNPACED_CHUNK]
        now = perf_counter()
        for arrival in chunk:
            if arrival.task_id is not None:
                scheduled_of[arrival.task_id] = now
                report.tasks_sent += 1
        writer.write(b"".join(arrival.line for arrival in chunk))
        report.events_sent += len(chunk)
        await writer.drain()


async def _send_paced(writer, arrivals, rate, scheduled_of, report, collector) -> None:
    count = len(arrivals)
    if not count:
        return
    origin = arrivals[0].time
    span = arrivals[-1].time - origin
    # Wall seconds per stream time unit, so the mean rate is ``rate``.
    wall_per_unit = count / (rate * span) if span > 0 else 0.0
    start = perf_counter()
    schedule = [start + (arrival.time - origin) * wall_per_unit for arrival in arrivals]
    report.offered_mean_per_s, report.offered_p90_per_s = offered_profile(schedule)
    position = 0
    while position < count:
        if collector.done():
            return
        now = perf_counter()
        if schedule[position] > now:
            await asyncio.sleep(schedule[position] - now)
            now = perf_counter()
        end = position
        while end < count and schedule[end] <= now:
            arrival = arrivals[end]
            report.lateness_ms.append((now - schedule[end]) * 1e3)
            if arrival.task_id is not None:
                scheduled_of[arrival.task_id] = schedule[end]
                report.tasks_sent += 1
            end += 1
        writer.write(b"".join(arrival.line for arrival in arrivals[position:end]))
        report.events_sent += end - position
        position = end
        await writer.drain()


__all__ = ["Arrival", "SessionReport", "encode_stream", "offered_profile", "run_session"]
