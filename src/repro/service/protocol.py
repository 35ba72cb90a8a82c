"""The service wire protocol: line-delimited JSON over TCP.

One request or response per line, UTF-8 JSON with no embedded newlines —
trivially debuggable with ``nc`` and implementable from any language.
Every frame carries the request ``id`` it belongs to, so responses to a
client's concurrent requests may interleave on one connection.

Requests::

    {"id": 1, "op": "query", "text": "SELECT ... WHERE ...",
     "deadline_ms": 2000, "page_size": 25}
    {"id": 2, "op": "ping"}
    {"id": 3, "op": "metrics"}

Responses to a query are a stream: zero or more ``page`` frames (rows in
arrival order, deduplicated across maximal objects) followed by exactly
one terminal frame — ``result`` (with the request's stats) or ``error``.
Errors are *structured*: a stable ``code``, a human message, and a
``retriable`` flag (an ``OVERLOADED`` shed should be retried after
backoff; a ``DEADLINE_EXCEEDED`` or ``BAD_REQUEST`` should not).

Standing queries extend the stream shape with *push* frames::

    {"id": 4, "op": "subscribe", "text": "SELECT ... WHERE ..."}
    {"id": 5, "op": "unsubscribe", "text": "SELECT ... WHERE ..."}
    {"id": 6, "op": "sweep", "text": "www.newsday.com"}

A ``subscribe`` answers with zero or more ``page`` frames (the initial
snapshot) and a ``subscribed`` ack, after which ``delta`` frames
carrying row ``added``/``removed`` lists arrive whenever a maintenance
sweep (the ``sweep`` op) makes the query's rows move.  A
subscribe with ``"resume": true`` claims the client still holds the last
state delivered to it (a reconnect after a service restart): when a
persisted registration exists the snapshot pages are skipped and
whatever moved while the client was away arrives as an immediate
``delta``.  ``sweep`` runs a maintenance cycle server-side (empty
``text`` = all hosts) and answers with a ``result`` frame once the
resulting deltas have been pushed.
"""

from __future__ import annotations

import json
import socketserver
import threading
from dataclasses import dataclass
from typing import Any

# A line longer than this is a protocol violation, not a big query.
MAX_LINE_BYTES = 4 * 1024 * 1024

#: The wire protocol generation.  Routers and workers may skew one
#: version apart during a rolling restart, so every peer must tolerate
#: unknown frame fields (and unknown response types it did not ask for)
#: rather than reject them — the skew test pins exactly that.
PROTOCOL_VERSION = 2

# -- error codes -------------------------------------------------------------------

E_OVERLOADED = "OVERLOADED"  # admission queue full; shed — retry later
E_CLIENT_LIMIT = "CLIENT_LIMIT"  # per-connection limit (older servers only)
E_SHUTTING_DOWN = "SHUTTING_DOWN"  # server is draining; try another replica
E_DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"  # the request's deadline expired
E_BAD_REQUEST = "BAD_REQUEST"  # malformed frame, unknown op, unparsable query
E_INTERNAL = "INTERNAL"  # unexpected server-side failure

RETRIABLE_CODES = frozenset({E_OVERLOADED, E_CLIENT_LIMIT, E_SHUTTING_DOWN})


class ProtocolError(Exception):
    """A frame that violates the wire format (maps to ``BAD_REQUEST``)."""


@dataclass(frozen=True)
class Request:
    """One parsed client request."""

    id: int
    op: str
    text: str = ""
    deadline_ms: float | None = None
    page_size: int | None = None
    # subscribe only: the client declares it still holds the last state it
    # was delivered (a reconnect), so the snapshot need not be resent —
    # only the diff against the persisted snapshot.
    resume: bool = False


#: Cluster-era ops: ``hello`` (peer identification), ``status`` (role,
#: shard id, and topology for routers), ``adopt`` (warm this worker from
#: a dead sibling's store directory — shard takeover), ``drain``
#: (graceful cluster shutdown), ``mutate`` (simulated-Web churn control,
#: gated behind ``ServiceConfig.allow_world_mutation``).
OPS = (
    "query",
    "ping",
    "metrics",
    "subscribe",
    "unsubscribe",
    "sweep",
    "hello",
    "status",
    "adopt",
    "drain",
    "mutate",
)


def parse_request(payload: dict[str, Any]) -> Request:
    """Validate a decoded request frame into a :class:`Request`."""
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    request_id = payload.get("id")
    if not isinstance(request_id, int):
        raise ProtocolError("request 'id' must be an integer")
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError("unknown op %r; expected one of %s" % (op, list(OPS)))
    text = payload.get("text", "")
    if not isinstance(text, str):
        raise ProtocolError("'text' must be a string")
    if op in ("query", "subscribe", "unsubscribe", "adopt", "mutate") and not text.strip():
        raise ProtocolError("a %s request needs a non-empty 'text'" % op)
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) or deadline_ms < 0:
            raise ProtocolError("'deadline_ms' must be a non-negative number")
    page_size = payload.get("page_size")
    if page_size is not None:
        if not isinstance(page_size, int) or page_size < 1:
            raise ProtocolError("'page_size' must be a positive integer")
    resume = payload.get("resume", False)
    if not isinstance(resume, bool):
        raise ProtocolError("'resume' must be a boolean")
    # Any *other* field is deliberately ignored: a peer of another
    # generation may stamp requests with fields this version does not
    # define (rolling restarts skew the router and its workers), and skew
    # must degrade to "feature unused", never to BAD_REQUEST.
    return Request(
        id=request_id,
        op=op,
        text=text,
        deadline_ms=deadline_ms,
        page_size=page_size,
        resume=resume,
    )


# -- framing -----------------------------------------------------------------------


def encode(frame: dict[str, Any]) -> bytes:
    """One frame as a newline-terminated JSON line."""
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes | str, limit: int = MAX_LINE_BYTES) -> dict[str, Any]:
    """Parse one received line into a frame dict."""
    if isinstance(line, bytes):
        if len(line) > limit:
            raise ProtocolError("frame exceeds %d bytes" % limit)
        line = line.decode("utf-8", errors="replace")
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ProtocolError("frame is not valid JSON: %s" % exc) from exc
    if not isinstance(payload, dict):
        raise ProtocolError("frame must be a JSON object")
    return payload


class LineFrameHandler(socketserver.StreamRequestHandler):
    """One accepted connection of a line-JSON listener (service, router,
    federation bus): bounded reads, locked burst writes, Nagle off.

    An answer is several small frames; with Nagle on, the second sits in
    the kernel until the peer's delayed ACK of the first (~40 ms).
    Subclasses implement :meth:`on_frame`; ``rejection`` shapes the reply
    to a frame that violates the wire format."""

    disable_nagle_algorithm = True
    max_line_bytes = MAX_LINE_BYTES

    def setup(self) -> None:
        super().setup()
        self._write_lock = threading.Lock()
        self._peer_gone = False  # set by the first failed write

    def send(self, *frames: dict[str, Any]) -> None:
        """Write ``frames`` as one burst: one lock hold, one ``sendall``
        (``wfile`` is unbuffered).  A vanished peer is not an error — its
        in-flight work just completes into the void."""
        if self._peer_gone or not frames:
            return
        data = b"".join([encode(frame) for frame in frames])
        with self._write_lock:
            try:
                self.wfile.write(data)
            except (OSError, ValueError):
                self._peer_gone = True

    def rejection(self, request_id: Any, exc: Exception) -> dict[str, Any]:
        return error_frame(
            request_id if isinstance(request_id, int) else 0, E_BAD_REQUEST, str(exc)
        )

    def on_frame(self, payload: dict[str, Any]) -> None:
        raise NotImplementedError

    def handle(self) -> None:
        limit = self.max_line_bytes
        while True:
            try:
                line = tail = self.rfile.readline(limit + 1)
                while len(line) > limit and tail and not tail.endswith(b"\n"):
                    # Drain the rest of the line, so that closing sends a
                    # FIN and not a reset that could overtake the answer.
                    tail = self.rfile.readline(65536)
            except (OSError, ValueError):
                return
            if not line:
                return  # peer closed the connection
            if not line.strip():
                continue
            payload: dict[str, Any] = {}
            try:
                payload = decode_line(line, limit)
                self.on_frame(payload)
            except ProtocolError as exc:
                self.send(self.rejection(payload.get("id"), exc))
                if len(line) > limit:
                    # Exactly one answer, then close: a peer that oversteps
                    # the limit cannot be trusted to frame what follows.
                    return


# -- response frames ---------------------------------------------------------------


def page_frame(
    request_id: int,
    seq: int,
    schema: list[str],
    rows: list[tuple],
    source: str = "",
) -> dict[str, Any]:
    """One page of result rows (``source`` names the maximal object that
    produced them)."""
    return {
        "id": request_id,
        "type": "page",
        "seq": seq,
        "schema": schema,
        "rows": [list(row) for row in rows],
        "source": source,
    }


def result_frame(
    request_id: int, stats: dict[str, Any], shard_id: str = ""
) -> dict[str, Any]:
    """The terminal success frame, carrying the request's stats.

    A cluster member stamps its ``shard_id`` (and the protocol version)
    onto the frame so clients and routers can see which shard actually
    served the request; old clients fold both into the stats dict —
    unknown fields are tolerated by construction."""
    frame = {"id": request_id, "type": "result", **stats}
    if shard_id:
        frame["shard_id"] = shard_id
        frame["protocol_version"] = PROTOCOL_VERSION
    return frame


def error_frame(
    request_id: int,
    code: str,
    message: str,
    retry_after_ms: float | None = None,
) -> dict[str, Any]:
    """The terminal failure frame — structured, with the retriable flag.

    ``retry_after_ms`` is the router's admission-control hint: an
    ``OVERLOADED`` shed carrying it tells the client *when* backing off
    is worth it instead of leaving the backoff curve to guesswork.
    """
    frame = {
        "id": request_id,
        "type": "error",
        "code": code,
        "message": message,
        "retriable": code in RETRIABLE_CODES,
    }
    if retry_after_ms is not None:
        frame["retry_after_ms"] = retry_after_ms
    return frame


def pong_frame(request_id: int) -> dict[str, Any]:
    return {"id": request_id, "type": "pong"}


def welcome_frame(request_id: int, shard_id: str, role: str) -> dict[str, Any]:
    """The answer to ``hello``: who am I talking to, and which protocol
    generation does it speak?  Routers answer with ``role="router"``,
    shard workers with ``role="worker"``, a plain service with
    ``role="service"``."""
    return {
        "id": request_id,
        "type": "welcome",
        "protocol_version": PROTOCOL_VERSION,
        "shard_id": shard_id,
        "role": role,
    }


def status_frame(request_id: int, status: dict[str, Any]) -> dict[str, Any]:
    """The answer to ``status``: one JSON object describing the peer
    (and, for a router, the whole cluster topology)."""
    return {"id": request_id, "type": "status", "status": status}


def subscribed_frame(
    request_id: int, rows: int, resumed: bool, seq: int
) -> dict[str, Any]:
    """The ack ending a subscribe's snapshot: the standing query is live.

    ``resumed`` means a persisted registration was picked back up — no
    snapshot pages were sent, and any rows the client missed while away
    arrive as an immediate ``delta`` (diffed against the persisted
    snapshot, which is exactly the last state delivered to it)."""
    return {
        "id": request_id,
        "type": "subscribed",
        "rows": rows,
        "resumed": resumed,
        "seq": seq,
    }


def delta_frame(
    request_id: int,
    seq: int,
    schema: list[str],
    added: list[tuple],
    removed: list[tuple],
    host: str,
    revision: int,
    reason: str,
) -> dict[str, Any]:
    """One pushed row-level change of a standing query's answer."""
    return {
        "id": request_id,
        "type": "delta",
        "seq": seq,
        "schema": schema,
        "added": [list(row) for row in added],
        "removed": [list(row) for row in removed],
        "host": host,
        "revision": revision,
        "reason": reason,
    }


def unsubscribed_frame(request_id: int) -> dict[str, Any]:
    return {"id": request_id, "type": "unsubscribed"}


def metrics_frame(request_id: int, snapshot: dict[str, Any]) -> dict[str, Any]:
    return {"id": request_id, "type": "metrics", "metrics": snapshot}
