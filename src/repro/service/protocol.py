"""Wire protocol of the dispatch service: newline-delimited JSON.

One JSON object per line in both directions.  JSON is the repo's
bitwise-safe interchange format already (``perf/``'s results rely on
it): Python serialises floats with ``repr`` shortest round-trip, so a
price or revenue travels the socket and comes back the identical double
— which is what lets the client-side differential gate compare revenue
``repr``-exactly against the offline engine.

Client → server messages (``type`` field):

========== =============================================================
``hello``  Open a session: ``{"type": "hello", "protocol": 1,
           "scenario": ..., "scale": ..., "seed": ..., "strategy": ...,
           "params": {...}, "task_lifetime": ...}``.  The server owns
           the universe (built from the scenario at startup); hello must
           name the same scenario/scale/seed/params or is refused.
``task``   A task arrival: ``{"type": "task", "time": t, "task":
           {...}}`` (see :func:`task_to_wire`).
``worker`` A worker arrival: ``{"type": "worker", "time": t, "worker":
           {...}}``.
``depart`` Explicit worker departure: ``{"type": "depart", "time": t,
           "worker_id": ...}``.
``flush``  Settle everything still pending and reply with ``summary``.
``stats``  Request a ``stats`` snapshot (served immediately, bypassing
           the ingest queue).
``bye``    Close the session.
========== =============================================================

Server → client: ``ready`` (hello accepted), ``quote`` (per task, with
price/accepted/matched/degraded and latency attribution), ``joined``
(per worker), ``settle`` (one per commit/expire/depart, emitted as
settlement happens), ``reject`` (admission control shed the event),
``summary`` (post-flush totals), ``stats``, and ``error``.

The messages carry *full* entity payloads even though the server already
knows its universe: the server validates the ids and positions agree, so
a client replaying a different stream fails loudly instead of silently
quoting the server's own data.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.market.entities import Task, Worker
from repro.spatial.geometry import Point

#: Bump when the message schema changes incompatibly.
PROTOCOL_VERSION = 1

#: Upper bound on one wire line; asyncio's reader enforces it so a
#: garbage peer cannot balloon the buffer.
MAX_LINE_BYTES = 1 << 20

#: Client→server message types that flow through the ingest queue (in
#: arrival order); everything else is handled inline by the reader.
EVENT_TYPES = ("task", "worker", "depart", "flush")


class ProtocolError(ValueError):
    """A malformed or out-of-contract message."""


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------
def encode_message(message: Dict[str, Any]) -> bytes:
    """One message → one newline-terminated JSON line."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    """One wire line → message dict, with contract checks.

    Raises:
        ProtocolError: on non-JSON input, non-object payloads, or a
            missing ``type`` field.
    """
    try:
        message = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable message: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"message must be a JSON object, got {type(message).__name__}")
    if not isinstance(message.get("type"), str):
        raise ProtocolError("message has no 'type' field")
    return message


# ---------------------------------------------------------------------------
# entity payloads
# ---------------------------------------------------------------------------
def task_to_wire(task: Task) -> Dict[str, Any]:
    """Serialise a task for the wire (floats survive bit-exactly)."""
    return {
        "task_id": int(task.task_id),
        "period": int(task.period),
        "origin": [task.origin.x, task.origin.y],
        "destination": [task.destination.x, task.destination.y],
        "distance": task.distance,
        "valuation": task.valuation,
        "grid_index": task.grid_index,
        "duration": task.duration,
    }


def task_from_wire(payload: Dict[str, Any]) -> Task:
    """Rebuild a task from its wire payload.

    Raises:
        ProtocolError: on missing fields or malformed coordinates.
    """
    try:
        return Task(
            task_id=int(payload["task_id"]),
            period=int(payload["period"]),
            origin=Point(*map(float, payload["origin"])),
            destination=Point(*map(float, payload["destination"])),
            distance=float(payload["distance"]),
            valuation=(
                None if payload.get("valuation") is None else float(payload["valuation"])
            ),
            grid_index=(
                None if payload.get("grid_index") is None else int(payload["grid_index"])
            ),
            duration=(
                None if payload.get("duration") is None else float(payload["duration"])
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed task payload: {exc}") from exc


def worker_to_wire(worker: Worker) -> Dict[str, Any]:
    """Serialise a worker for the wire."""
    return {
        "worker_id": int(worker.worker_id),
        "period": int(worker.period),
        "location": [worker.location.x, worker.location.y],
        "radius": worker.radius,
        "duration": None if worker.duration is None else int(worker.duration),
    }


def worker_from_wire(payload: Dict[str, Any]) -> Worker:
    """Rebuild a worker from its wire payload.

    Raises:
        ProtocolError: on missing fields or malformed coordinates.
    """
    try:
        return Worker(
            worker_id=int(payload["worker_id"]),
            period=int(payload["period"]),
            location=Point(*map(float, payload["location"])),
            radius=float(payload["radius"]),
            duration=(
                None if payload.get("duration") is None else int(payload["duration"])
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed worker payload: {exc}") from exc


# ---------------------------------------------------------------------------
# message constructors (keep field names in one place)
# ---------------------------------------------------------------------------
def hello_message(
    scenario: str,
    scale: float,
    seed: int,
    strategy: str,
    params: Optional[Dict[str, Any]] = None,
    task_lifetime: Optional[float] = None,
) -> Dict[str, Any]:
    """The session-opening handshake message."""
    return {
        "type": "hello",
        "protocol": PROTOCOL_VERSION,
        "scenario": scenario,
        "scale": scale,
        "seed": seed,
        "strategy": strategy,
        "params": params or {},
        "task_lifetime": task_lifetime,
    }


def error_message(reason: str) -> Dict[str, Any]:
    return {"type": "error", "reason": reason}


__all__ = [
    "EVENT_TYPES",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_message",
    "encode_message",
    "error_message",
    "hello_message",
    "task_from_wire",
    "task_to_wire",
    "worker_from_wire",
    "worker_to_wire",
]
