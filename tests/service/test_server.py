"""The dispatch server end to end: differential gate, SLOs, backpressure.

Every test boots a real :class:`~repro.service.server.DispatchServer` on
an ephemeral loopback port and talks to it over actual sockets — the
asyncio plumbing (reader/queue/consumer split, inline stats, HTTP sniff)
is exactly what is under test, so nothing is mocked.
"""

from __future__ import annotations

import asyncio
import glob
import json
import urllib.error
import urllib.request

import pytest

from repro.pricing.registry import calibrated_kwargs, create_strategy
from repro.service import DispatchServer, ProtocolError, ServiceConfig, replay
from repro.service.protocol import decode_message, encode_message, hello_message
from repro.simulation.scenarios import get_scenario
from repro.simulation.streaming import EventStreamingEngine, StreamingEngine

SCENARIO = "churn_city"
SCALE = 0.05
SEED = 3
PARAMS = {"num_periods": 12}


def _config(**overrides) -> ServiceConfig:
    base = dict(scenario=SCENARIO, scale=SCALE, seed=SEED, params=dict(PARAMS))
    base.update(overrides)
    return ServiceConfig(**base)


async def _with_server(config: ServiceConfig, action):
    """Boot, run ``action(server, port)``, always tear down."""
    server = DispatchServer(config)
    port = await server.start()
    try:
        return await action(server, port)
    finally:
        await server.stop()


def _stream_messages():
    """The scenario stream's arrivals as wire messages, in replay order."""
    from repro.service.protocol import task_to_wire, worker_to_wire
    from repro.simulation.streaming import TaskArrival, _validated_events

    stream = get_scenario(SCENARIO).stream(scale=SCALE, seed=SEED, **PARAMS)
    messages = []
    for event in _validated_events(stream):
        if isinstance(event, TaskArrival):
            messages.append(
                {"type": "task", "time": event.time, "task": task_to_wire(event.task)}
            )
        else:
            messages.append(
                {"type": "worker", "time": event.time, "worker": worker_to_wire(event.worker)}
            )
    return messages


def _untimed(reply):
    """A reply without its wall-clock fields (they differ run to run)."""
    return {k: v for k, v in reply.items() if k not in ("queue_wait_ms", "service_ms")}


def _engine_reference(strategy_name: str = "BaseP", task_lifetime: float = 4.0):
    """The offline engine's session on the identical stream."""
    stream = get_scenario(SCENARIO).stream(scale=SCALE, seed=SEED, **PARAMS)
    calibration = StreamingEngine(stream, seed=SEED).calibrate_base_price()
    engine = EventStreamingEngine(stream, seed=SEED, task_lifetime=task_lifetime)
    engine.run(
        create_strategy(strategy_name, **calibrated_kwargs(strategy_name, calibration))
    )
    return engine.last_session


class TestDifferentialGate:
    @pytest.mark.parametrize("strategy", ["BaseP", "SDR"])
    def test_offline_replay_is_bitwise_equal_to_engine(self, strategy):
        """rate=offline + blocking admission == EventStreamingEngine, bit
        for bit: ``repr``-identical settled revenue and identical commit
        pairs in identical settlement order."""

        async def action(server, port):
            return await replay(
                "127.0.0.1", port, SCENARIO, scale=SCALE, seed=SEED,
                strategy=strategy, params=PARAMS,
            )

        report = asyncio.run(_with_server(_config(strategy=strategy), action))
        session = _engine_reference(strategy)
        assert session.quoted > 0
        if strategy == "BaseP":
            # Real settlements, not an empty log (SDR's quotes on this
            # short stream are all refused, so it commits nothing).
            assert session.committed > 0
        assert repr(report.revenue) == repr(session.revenue)
        assert report.commits == session.commit_log
        assert report.summary["committed"] == session.committed
        assert report.summary["quoted"] == session.quoted
        assert report.summary["rejected"] == 0
        assert report.rejects == []

    def test_capped_offline_replay_is_bitwise_equal_to_engine(self):
        """The gate on the capped path: ``max_degree`` set, on a stream
        where the cap binds (``hotspot_burst`` commits 58 tasks uncapped,
        38 with at most two workers per task)."""
        scenario, scale, seed = "hotspot_burst", 0.05, 0
        config = ServiceConfig(
            scenario=scenario, scale=scale, seed=seed, max_degree=2
        )

        async def action(server, port):
            return await replay(
                "127.0.0.1", port, scenario, scale=scale, seed=seed,
                strategy="BaseP",
            )

        report = asyncio.run(_with_server(config, action))
        stream = get_scenario(scenario).stream(scale=scale, seed=seed)
        calibration = StreamingEngine(stream, seed=seed).calibrate_base_price()
        engine = EventStreamingEngine(stream, seed=seed, max_degree=2)
        engine.run(create_strategy("BaseP", **calibrated_kwargs("BaseP", calibration)))
        session = engine.last_session
        assert session.committed == 38
        assert repr(report.revenue) == repr(session.revenue)
        assert report.commits == session.commit_log
        assert report.summary["committed"] == session.committed
        assert report.summary["rejected"] == 0

    def test_backpressure_stays_lossless(self):
        """A one-slot queue plus a per-event stall must slow the client
        down (blocking admission), never drop events — the gate holds."""

        async def action(server, port):
            return await replay(
                "127.0.0.1", port, SCENARIO, scale=SCALE, seed=SEED,
                strategy="BaseP", params=PARAMS,
            )

        report = asyncio.run(
            _with_server(_config(queue_size=1, event_delay=0.002), action)
        )
        session = _engine_reference()
        assert repr(report.revenue) == repr(session.revenue)
        assert report.commits == session.commit_log
        assert report.summary["rejected"] == 0
        # The stall is visible as queue wait in the latency series.
        assert report.stats["latency_ms"]["queue_wait"]["count"] > 0


class TestAdmissionControl:
    def test_reject_mode_sheds_tasks_with_explicit_replies(self):
        async def action(server, port):
            return await replay(
                "127.0.0.1", port, SCENARIO, scale=SCALE, seed=SEED,
                strategy="BaseP", params=PARAMS,
            )

        report = asyncio.run(
            _with_server(
                _config(admission="reject", queue_size=1, event_delay=0.01),
                action,
            )
        )
        assert len(report.rejects) > 0
        assert report.summary["rejected"] == len(report.rejects)
        # Shed quotes never reach the session; the rest still settle.
        assert report.summary["quoted"] + len(report.rejects) == _engine_reference().quoted
        for reject in report.rejects:
            assert reject["task_id"] is not None


class TestLatencySLO:
    def test_slo_pressure_degrades_instead_of_queueing_forever(self):
        """With a microscopic SLO and a per-event stall, quotes must take
        the greedy degraded path — counted and flagged per quote."""

        async def action(server, port):
            return await replay(
                "127.0.0.1", port, SCENARIO, scale=SCALE, seed=SEED,
                strategy="BaseP", params=PARAMS,
            )

        report = asyncio.run(
            _with_server(
                _config(slo_ms=0.1, degrade_fraction=0.5, event_delay=0.002),
                action,
            )
        )
        assert report.summary["degraded"] > 0
        degraded_quotes = [q for q in report.quotes if q["degraded"]]
        assert len(degraded_quotes) == report.summary["degraded"]
        # Degraded quoting is still a valid session: every quote priced,
        # settlements conserve the population.
        assert report.summary["quoted"] == len(report.quotes)
        settled = (
            report.summary["committed"] + report.summary["expired"]
        )
        assert settled == report.summary["accepted"]

    def test_no_slo_never_degrades(self):
        async def action(server, port):
            return await replay(
                "127.0.0.1", port, SCENARIO, scale=SCALE, seed=SEED,
                strategy="BaseP", params=PARAMS,
            )

        report = asyncio.run(_with_server(_config(event_delay=0.002), action))
        assert report.summary["degraded"] == 0


class TestObservability:
    def test_unknown_http_path_is_404(self):
        async def action(server, port):
            def probe():
                try:
                    urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/nope", timeout=10
                    )
                except urllib.error.HTTPError as exc:
                    return exc.code
                return None

            return await asyncio.to_thread(probe)

        assert asyncio.run(_with_server(_config(), action)) == 404

    def test_stats_snapshot_contents(self):
        async def lockstep(port):
            """Worker joins one at a time, each reply read before the next
            event goes out; the stats snapshot that closes the exchange."""
            workers = [m for m in _stream_messages() if m["type"] == "worker"][:4]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                messages = [hello_message(SCENARIO, SCALE, SEED, "BaseP", params=PARAMS)]
                for message in messages + workers + [{"type": "stats"}]:
                    writer.write(encode_message(message))
                    await writer.drain()
                    reply = decode_message(await reader.readline())
                writer.write(encode_message({"type": "bye"}))
                await writer.drain()
                assert await reader.readline() == b""  # the session has ended
                return reply
            finally:
                writer.close()

        async def action(server, port):
            lockstep_stats = await lockstep(port)
            report = await replay(
                "127.0.0.1", port, SCENARIO, scale=SCALE, seed=SEED,
                strategy="BaseP", params=PARAMS,
            )
            url = f"http://127.0.0.1:{port}/stats"
            http_stats = await asyncio.to_thread(
                lambda: json.loads(urllib.request.urlopen(url, timeout=10).read())
            )
            return lockstep_stats, report, http_stats

        lockstep_stats, report, http_stats = asyncio.run(_with_server(_config(), action))
        # One event at a time, every reply is its own socket write ...
        assert lockstep_stats["type"] == "stats"
        counters = lockstep_stats["counters"]
        assert counters["replies"] == counters["reply_writes"] == 5
        # ... and an unpaced replay's backlog shares writes.
        assert report.stats["counters"]["reply_writes"] < report.stats["counters"]["replies"]
        # In-protocol snapshot (requested after the summary — final).
        stats = report.stats
        assert stats["type"] == "stats"
        assert stats["counters"]["quoted"] == report.summary["quoted"]
        assert stats["counters"]["committed"] == report.summary["committed"]
        for series in ("queue_wait", "service", "total"):
            summary = stats["latency_ms"][series]
            assert summary["count"] == report.summary["quoted"]
            assert 0.0 <= summary["p50_ms"] <= summary["p99_ms"] <= summary["max_ms"]
        for stage in ("settle", "quote", "decide", "match", "feedback"):
            assert f"stage_{stage}" in stats["latency_ms"]
        assert stats["universe"]["tasks"] == report.ready["tasks"]
        # The HTTP surface serves the same counters.
        assert http_stats["counters"]["quoted"] == stats["counters"]["quoted"]
        assert http_stats["segment"].startswith("repro_arena_")


class TestProtocolContract:
    def test_the_cap_alone_picks_the_session_matcher(self):
        with pytest.raises(TypeError, match="incremental"):
            _config(incremental=False)

    def test_hello_mismatch_is_refused(self):
        async def action(server, port):
            return await replay(
                "127.0.0.1", port, SCENARIO, scale=0.5, seed=SEED,
                strategy="BaseP", params=PARAMS,
            )

        with pytest.raises(ProtocolError, match="scale"):
            asyncio.run(_with_server(_config(), action))

    def test_maps_is_refused(self):
        async def action(server, port):
            return await replay(
                "127.0.0.1", port, SCENARIO, scale=SCALE, seed=SEED,
                strategy="MAPS", params=PARAMS,
            )

        with pytest.raises(ProtocolError, match="MAPS"):
            asyncio.run(_with_server(_config(), action))

    def test_concurrent_second_session_is_busy(self):
        async def action(server, port):
            first_reader, first_writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            try:
                first_writer.write(
                    encode_message(
                        hello_message(SCENARIO, SCALE, SEED, "BaseP", params=PARAMS)
                    )
                )
                await first_writer.drain()
                ready = decode_message(await first_reader.readline())
                assert ready["type"] == "ready"
                second_reader, second_writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                try:
                    second_writer.write(
                        encode_message(
                            hello_message(SCENARIO, SCALE, SEED, "BaseP", params=PARAMS)
                        )
                    )
                    await second_writer.drain()
                    refusal = decode_message(await second_reader.readline())
                    assert refusal["type"] == "error"
                    assert "busy" in refusal["reason"]
                finally:
                    second_writer.close()
            finally:
                first_writer.close()
            return True

        assert asyncio.run(_with_server(_config(), action))

    def test_explicit_departure_removes_the_worker(self):
        """Drive the raw protocol: a worker that departs explicitly must
        not be matchable afterwards."""

        async def action(server, port):
            stream = get_scenario(SCENARIO).stream(scale=SCALE, seed=SEED, **PARAMS)
            from repro.service.protocol import task_to_wire, worker_to_wire
            from repro.simulation.streaming import TaskArrival, _validated_events

            events = list(_validated_events(stream))
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def send(message):
                writer.write(encode_message(message))
                await writer.drain()

            await send(hello_message(SCENARIO, SCALE, SEED, "BaseP", params=PARAMS))
            ready = decode_message(await reader.readline())
            assert ready["type"] == "ready"
            # Feed the first worker arrival, then immediately depart it.
            first_worker = next(
                e for e in events if not isinstance(e, TaskArrival)
            )
            await send(
                {
                    "type": "worker",
                    "time": first_worker.time,
                    "worker": worker_to_wire(first_worker.worker),
                }
            )
            joined = decode_message(await reader.readline())
            assert joined == {
                "type": "joined",
                "worker_id": first_worker.worker.worker_id,
                "joined": True,
            }
            await send(
                {
                    "type": "depart",
                    "time": first_worker.time,
                    "worker_id": first_worker.worker.worker_id,
                }
            )
            replies = [decode_message(await reader.readline()) for _ in range(2)]
            kinds = {reply["type"] for reply in replies}
            assert kinds == {"settle", "departed"}
            settle = next(r for r in replies if r["type"] == "settle")
            assert settle["kind"] == "depart"
            assert settle["worker_id"] == first_worker.worker.worker_id
            departed = next(r for r in replies if r["type"] == "departed")
            assert departed["departed"] is True
            # Departing again is a no-op, reported as such.
            await send(
                {
                    "type": "depart",
                    "time": first_worker.time + 0.25,
                    "worker_id": first_worker.worker.worker_id,
                }
            )
            again = decode_message(await reader.readline())
            assert again == {
                "type": "departed",
                "worker_id": first_worker.worker.worker_id,
                "departed": False,
            }
            await send({"type": "bye"})
            writer.close()
            return True

        assert asyncio.run(_with_server(_config(), action))


class TestConsumerFaults:
    """An event the session refuses must reach the client as an ``error``
    reply followed by a closed connection, never as silence: the reader
    would otherwise sit in ``readline()`` while the client waits for a
    reply to the event that killed the consumer."""

    @staticmethod
    def _exchange(messages, **config):
        """Send ``hello`` then ``messages`` in one write; the replies until EOF."""

        async def action(server, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(
                    encode_message(
                        hello_message(SCENARIO, SCALE, SEED, "BaseP", params=PARAMS)
                    )
                )
                for message in messages:
                    writer.write(encode_message(message))
                await writer.drain()
                replies = []
                while True:
                    line = await asyncio.wait_for(reader.readline(), timeout=5)
                    if not line:
                        return replies
                    replies.append(decode_message(line))
            finally:
                writer.close()

        return asyncio.run(_with_server(_config(**config), action))

    @staticmethod
    def _first_events():
        from repro.simulation.streaming import TaskArrival, _validated_events

        stream = get_scenario(SCENARIO).stream(scale=SCALE, seed=SEED, **PARAMS)
        events = list(_validated_events(stream))
        task = next(e for e in events if isinstance(e, TaskArrival))
        worker = next(e for e in events if not isinstance(e, TaskArrival))
        return task, worker

    @pytest.mark.parametrize("time", [None, "abc", float("nan")])
    def test_bad_task_time_gets_an_error_reply(self, time):
        from repro.service.protocol import task_to_wire

        task, _ = self._first_events()
        replies = self._exchange(
            [{"type": "task", "time": time, "task": task_to_wire(task.task)}]
        )
        assert [reply["type"] for reply in replies] == ["ready", "error"]
        assert replies[-1]["reason"].startswith("malformed task message")

    def test_backwards_time_gets_an_error_reply(self):
        from repro.service.protocol import task_to_wire, worker_to_wire

        task, worker = self._first_events()
        late = max(task.time, worker.time) + 1.0
        replies = self._exchange(
            [
                {"type": "worker", "time": late, "worker": worker_to_wire(worker.worker)},
                {"type": "task", "time": late - 0.5, "task": task_to_wire(task.task)},
            ]
        )
        assert [reply["type"] for reply in replies] == ["ready", "joined", "error"]
        assert "before" in replies[-1]["reason"]

    @pytest.mark.parametrize("before", [20, 21])
    def test_fault_behind_a_backlog_follows_every_earlier_reply(self, before):
        """A refused event deep in a queued backlog, with ten more behind
        it: the client reads ``ready``, the replies of exactly the events
        before the fault in their per-event order, one ``error``, then EOF.
        The server holds replies while events are queued, so those replies
        must leave ahead of the error.  Two backlog lengths, so the fault
        lands with replies held in at least one of them."""
        events = _stream_messages()
        prefix = events[:before]
        fault = dict(events[before], time=prefix[-1]["time"] - 1.0)
        suffix = events[before + 1 : before + 11]
        assert len(suffix) == 10
        expected = self._exchange(prefix + [{"type": "bye"}])
        replies = self._exchange(prefix + [fault] + suffix)
        assert [_untimed(r) for r in replies[:-1]] == [_untimed(r) for r in expected]
        assert replies[-1]["type"] == "error"
        assert "before" in replies[-1]["reason"]

    def test_consumer_failure_under_reject_admission(self):
        """Under reject admission (a two-slot queue and a per-event stall)
        a refused worker arrival still reaches the client as an ``error``
        after every earlier event's reply or ``reject``, and the socket
        closes within the exchange's read timeout."""
        events = _stream_messages()
        before = next(
            pos for pos in range(20, len(events)) if events[pos]["type"] == "worker"
        )
        prefix = events[:before]
        fault = dict(events[before], time=prefix[-1]["time"] - 1.0)
        suffix = events[before + 1 : before + 11]
        replies = self._exchange(
            prefix + [fault] + suffix, admission="reject", queue_size=2, event_delay=0.01
        )
        assert replies[0]["type"] == "ready"
        assert replies[-1]["type"] == "error"
        assert "before" in replies[-1]["reason"]
        answered = replies[1:-1]
        assert "error" not in {reply["type"] for reply in answered}
        quoted = [r["task_id"] for r in answered if r["type"] == "quote"]
        rejected = [r["task_id"] for r in answered if r["type"] == "reject"]
        assert rejected  # the queue did overflow
        prefix_tasks = [m["task"]["task_id"] for m in prefix if m["type"] == "task"]
        suffix_tasks = [m["task"]["task_id"] for m in suffix if m["type"] == "task"]
        # Every task before the fault was quoted or shed, exactly once;
        # behind the fault a task can only have been shed at ingest.
        assert sorted(quoted + [t for t in rejected if t in prefix_tasks]) == sorted(
            prefix_tasks
        )
        assert set(rejected) <= set(prefix_tasks) | set(suffix_tasks)
        assert [r["worker_id"] for r in answered if r["type"] == "joined"] == [
            m["worker"]["worker_id"] for m in prefix if m["type"] == "worker"
        ]

    def test_disconnect_mid_backlog_then_new_hello_replays_exactly(self):
        """A client that leaves mid-session, its replies unread and a
        backlog still queued, frees the server: the old session ends
        without quoting its whole backlog, and the next ``hello`` gets
        ``ready`` and a replay bit-identical to the offline engine."""
        events = _stream_messages()
        backlog_tasks = sum(1 for m in events if m["type"] == "task")

        async def action(server, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                encode_message(hello_message(SCENARIO, SCALE, SEED, "BaseP", params=PARAMS))
            )
            await writer.drain()
            assert decode_message(await reader.readline())["type"] == "ready"
            writer.write(b"".join(encode_message(m) for m in events))
            await writer.drain()
            while not server.stats.counters.get("quoted"):
                await asyncio.sleep(0.001)
            writer.transport.abort()  # unread replies: the close is a reset
            for _ in range(1000):
                if not server.stats_snapshot()["busy"]:
                    break
                await asyncio.sleep(0.01)
            abandoned_quotes = server.stats.counters["quoted"]
            report = await replay(
                "127.0.0.1", port, SCENARIO, scale=SCALE, seed=SEED,
                strategy="BaseP", params=PARAMS,
            )
            return abandoned_quotes, report

        abandoned_quotes, report = asyncio.run(
            _with_server(_config(event_delay=0.02), action)
        )
        assert abandoned_quotes < backlog_tasks
        session = _engine_reference()
        assert report.ready["type"] == "ready"
        assert repr(report.revenue) == repr(session.revenue)
        assert report.commits == session.commit_log
        assert report.summary["quoted"] == session.quoted


class TestConfigValidation:
    @pytest.mark.parametrize("lifetime", [float("inf"), float("nan")])
    def test_non_finite_task_lifetime_is_rejected(self, lifetime):
        with pytest.raises(ValueError, match="task_lifetime"):
            _config(task_lifetime=lifetime)


class TestLifecycle:
    def test_once_server_stops_after_session_and_leaks_nothing(self):
        before = set(glob.glob("/dev/shm/repro_arena_*"))

        async def run():
            server = DispatchServer(_config(once=True))
            port = await server.start()
            segment = server.stats_snapshot()["segment"]
            assert any(segment in path for path in glob.glob("/dev/shm/repro_arena_*"))
            report = await replay(
                "127.0.0.1", port, SCENARIO, scale=SCALE, seed=SEED,
                strategy="BaseP", params=PARAMS,
            )
            # ``once``: the server must release serve_until_stopped by
            # itself after the session's connection closes.
            await asyncio.wait_for(server.serve_until_stopped(), timeout=10)
            await server.stop()
            return report, segment

        report, segment = asyncio.run(run())
        assert report.summary is not None
        after = set(glob.glob("/dev/shm/repro_arena_*"))
        assert f"/dev/shm/{segment}" not in after
        assert after <= before  # nothing of ours left behind
