"""The service client library: blocking, line-oriented, structured errors.

:class:`ServiceClient` speaks :mod:`repro.service.protocol` over one TCP
connection.  Server-side rejections surface as typed exceptions carrying
the wire error's ``code`` and ``retriable`` flag — an ``OVERLOADED`` shed
becomes :class:`Overloaded` (retry with backoff), an expired deadline
:class:`DeadlineExceededError` (do not retry) — so callers dispatch on
type instead of parsing messages.  Pages stream through :meth:`stream`;
:meth:`query` collects them into one :class:`QueryOutcome`.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import WebBaseError
from repro.service import protocol
from repro.service.protocol import ProtocolError


class ServiceError(WebBaseError):
    """A structured error frame from the server.

    ``retry_after_ms`` carries a router's admission-control hint (when
    to retry an ``OVERLOADED`` shed).  It defaults to absent — a
    pre-cluster server never sends it, and the client tolerates that
    skew by construction."""

    code = protocol.E_INTERNAL

    def __init__(
        self,
        message: str,
        code: str | None = None,
        retriable: bool | None = None,
        retry_after_ms: float | None = None,
    ) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code
        self.retriable = (
            retriable
            if retriable is not None
            else self.code in protocol.RETRIABLE_CODES
        )
        self.retry_after_ms = retry_after_ms


class Overloaded(ServiceError):
    """The admission queue was full; the request was shed.  Retriable."""

    code = protocol.E_OVERLOADED


class ClientLimited(ServiceError):
    """This connection holds too many in-flight queries (an older server's
    refusal; this one never sends it).  Retriable."""

    code = protocol.E_CLIENT_LIMIT


class ServiceShuttingDown(ServiceError):
    """The server is draining; try another replica.  Retriable."""

    code = protocol.E_SHUTTING_DOWN


class DeadlineExceededError(ServiceError):
    """The request's deadline expired server-side.  Not retriable."""

    code = protocol.E_DEADLINE_EXCEEDED


_ERROR_TYPES = {
    cls.code: cls
    for cls in (
        Overloaded,
        ClientLimited,
        ServiceShuttingDown,
        DeadlineExceededError,
    )
}


def error_from_frame(frame: dict[str, Any]) -> ServiceError:
    """Decode one wire ``error`` frame into its typed exception,
    tolerating absent (older peer) and unknown (newer peer) fields."""
    code = str(frame.get("code", protocol.E_INTERNAL))
    retry_after = frame.get("retry_after_ms")
    return _ERROR_TYPES.get(code, ServiceError)(
        str(frame.get("message", "")),
        code=code,
        retriable=bool(frame.get("retriable", False)),
        retry_after_ms=(
            float(retry_after) if isinstance(retry_after, (int, float)) else None
        ),
    )


@dataclass
class Page:
    """One streamed page of rows."""

    seq: int
    schema: list[str]
    rows: list[tuple]
    source: str = ""


@dataclass
class QueryOutcome:
    """A fully collected streamed answer."""

    schema: list[str]
    rows: list[tuple]
    pages: int
    stats: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class Delta:
    """One pushed row-level change of a standing query's answer."""

    seq: int
    schema: list[str]
    added: list[tuple]
    removed: list[tuple]
    host: str
    revision: int
    reason: str


@dataclass
class Subscription:
    """One live standing query: the request id frames arrive under, the
    row set maintained by applying received deltas, and the last seq."""

    request_id: int
    text: str
    schema: list[str]
    rows: set
    seq: int
    resumed: bool


class ServiceClient:
    """One connection to a :class:`~repro.service.server.WebBaseService`.

    ``connect_timeout`` is a *retry window*: the constructor keeps
    attempting to connect until it succeeds or the window closes, so a
    client started alongside a server that is still mapping its world by
    example simply waits for it to come up.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8571,
        timeout: float = 60.0,
        connect_timeout: float = 5.0,
        clock: Any = None,
        sleep: Any = None,
    ) -> None:
        self.host = host
        self.port = port
        self._next_id = 0
        # The backoff clock is injectable so retry tests never sleep real
        # wall time: ``clock`` replaces ``time.monotonic`` and ``sleep``
        # replaces ``time.sleep`` in the connect loop and in
        # :meth:`query_retry`'s backoff.
        self._clock = clock or time.monotonic
        self._sleep = sleep or time.sleep
        # Push frames for live subscriptions that arrive while another
        # request is being awaited on this connection are parked here
        # (frames for abandoned ids are still dropped).
        self._subscribed_ids: set[int] = set()
        self._parked: dict[int, list[dict[str, Any]]] = {}
        deadline = self._clock() + max(0.0, connect_timeout)
        while True:
            try:
                self._sock = socket.create_connection((host, port), timeout=timeout)
                break
            except OSError:
                if self._clock() >= deadline:
                    raise
                self._sleep(0.1)
        self._sock.settimeout(timeout)
        # Nagle off, as on the listeners (see protocol.LineFrameHandler).
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._timeout = timeout
        # Hand-rolled line buffering instead of sock.makefile: a timed-out
        # BufferedReader is permanently poisoned, while a plain buffer
        # keeps any partial line for the next (deadline-bounded) read —
        # which is exactly what next_delta's bounded wait needs.
        self._buf = b""

    # -- plumbing ------------------------------------------------------------

    def close(self) -> None:
        """Orderly disconnect: half-close the write side, then wait for
        the server to close its end.  The server detaches this
        connection's subscriptions *before* closing, so once this
        returns the service no longer counts us as a live subscriber —
        a maintenance sweep after ``close()`` will not advance a
        standing query's persisted snapshot on our behalf."""
        try:
            self._sock.shutdown(socket.SHUT_WR)
            self._sock.settimeout(5.0)
            while self._sock.recv(65536):
                pass
        except OSError:
            pass
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _send(self, payload: dict[str, Any]) -> None:
        self._sock.sendall(protocol.encode(payload))

    def _readline(self, deadline: float | None) -> bytes | None:
        """One newline-terminated frame line, or ``None`` when ``deadline``
        passes first.  A timeout never tears a frame: partial bytes stay
        buffered for the next call."""
        while b"\n" not in self._buf:
            if len(self._buf) > protocol.MAX_LINE_BYTES:
                raise ProtocolError(
                    "frame exceeds %d bytes" % protocol.MAX_LINE_BYTES
                )
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                if deadline is None:
                    raise
                return None
            finally:
                if deadline is not None:
                    self._sock.settimeout(self._timeout)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line

    def buffered(self) -> bool:
        """Whether a whole frame is already received (reading it cannot block)."""
        return b"\n" in self._buf

    def _recv(
        self, request_id: int, timeout: float | None = None
    ) -> dict[str, Any] | None:
        """The next frame for ``request_id`` (``None`` if ``timeout``
        elapses first).

        Frames for a live subscription's id are parked (delivered on its
        next :meth:`next_delta`); frames for any other id — abandoned
        requests on a shared connection — are skipped."""
        parked = self._parked.get(request_id)
        if parked:
            return parked.pop(0)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            line = self._readline(deadline)
            if line is None:
                return None
            frame = protocol.decode_line(line)
            frame_id = frame.get("id")
            if frame_id == request_id:
                return frame
            if frame_id in self._subscribed_ids:
                self._parked.setdefault(frame_id, []).append(frame)

    def _request_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- operations ----------------------------------------------------------

    def ping(self) -> float:
        """Round-trip one ping; returns the wall seconds it took."""
        request_id = self._request_id()
        started = time.monotonic()
        self._send({"id": request_id, "op": "ping"})
        frame = self._recv(request_id)
        if frame.get("type") != "pong":
            raise ProtocolError("expected pong, got %r" % frame.get("type"))
        return time.monotonic() - started

    def metrics(self) -> dict[str, Any]:
        """The server's full metrics snapshot."""
        request_id = self._request_id()
        self._send({"id": request_id, "op": "metrics"})
        frame = self._recv(request_id)
        if frame.get("type") != "metrics":
            raise ProtocolError("expected metrics, got %r" % frame.get("type"))
        return frame["metrics"]

    def hello(self) -> dict[str, Any]:
        """Identify the peer: its protocol version, shard id, and role.

        A pre-cluster server does not know the op and answers with a
        ``BAD_REQUEST`` error — that skew is folded into a synthetic
        version-1 welcome instead of an exception, so callers can probe
        any generation of server with one call."""
        request_id = self._request_id()
        self._send({"id": request_id, "op": "hello"})
        frame = self._recv(request_id)
        if frame.get("type") == "error":
            return {"protocol_version": 1, "shard_id": "", "role": "service"}
        if frame.get("type") != "welcome":
            raise ProtocolError("expected welcome, got %r" % frame.get("type"))
        return {k: v for k, v in frame.items() if k not in ("id", "type")}

    def status(self) -> dict[str, Any]:
        """The peer's status object (cluster topology when it's a router)."""
        request_id = self._request_id()
        self._send({"id": request_id, "op": "status"})
        frame = self._recv(request_id)
        if frame.get("type") == "error":
            raise error_from_frame(frame)
        if frame.get("type") != "status":
            raise ProtocolError("expected status, got %r" % frame.get("type"))
        return dict(frame.get("status") or {})

    def adopt(self, store_dir: str) -> dict[str, Any]:
        """Ask a worker to warm itself from a dead sibling's store
        directory (shard takeover).  Returns the adoption stats."""
        request_id = self._request_id()
        self._send({"id": request_id, "op": "adopt", "text": store_dir})
        frame = self._recv(request_id)
        if frame.get("type") == "error":
            raise error_from_frame(frame)
        if frame.get("type") != "result":
            raise ProtocolError("expected result, got %r" % frame.get("type"))
        return {k: v for k, v in frame.items() if k not in ("id", "type")}

    def mutate(self, spec: str) -> dict[str, Any]:
        """Apply a simulated-Web churn mutation server-side (gated behind
        ``ServiceConfig.allow_world_mutation``; test/bench harness only)."""
        request_id = self._request_id()
        self._send({"id": request_id, "op": "mutate", "text": spec})
        frame = self._recv(request_id)
        if frame.get("type") == "error":
            raise error_from_frame(frame)
        if frame.get("type") != "result":
            raise ProtocolError("expected result, got %r" % frame.get("type"))
        return {k: v for k, v in frame.items() if k not in ("id", "type")}

    def drain(self) -> dict[str, Any]:
        """Ask the peer to drain gracefully; returns its final status."""
        request_id = self._request_id()
        self._send({"id": request_id, "op": "drain"})
        frame = self._recv(request_id)
        if frame.get("type") == "error":
            raise error_from_frame(frame)
        if frame.get("type") != "status":
            raise ProtocolError("expected status, got %r" % frame.get("type"))
        return dict(frame.get("status") or {})

    def stream(
        self,
        text: str,
        deadline_ms: float | None = None,
        page_size: int | None = None,
    ) -> Iterator[Page]:
        """Issue one query and yield its pages as the server streams them.

        Raises the typed :class:`ServiceError` subclass on a terminal
        error frame (pages already yielded remain valid partial results).
        The generator ends after the terminal ``result`` frame; its stats
        land on the generator's ``StopIteration`` value via :meth:`query`.
        """
        request_id = self._request_id()
        payload: dict[str, Any] = {"id": request_id, "op": "query", "text": text}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if page_size is not None:
            payload["page_size"] = page_size
        self._send(payload)
        while True:
            frame = self._recv(request_id)
            kind = frame.get("type")
            if kind == "page":
                yield Page(
                    seq=int(frame["seq"]),
                    schema=list(frame["schema"]),
                    rows=[tuple(row) for row in frame["rows"]],
                    source=str(frame.get("source", "")),
                )
            elif kind == "result":
                stats = {
                    k: v for k, v in frame.items() if k not in ("id", "type")
                }
                return stats  # noqa: B901 - surfaced via StopIteration.value
            elif kind == "error":
                raise error_from_frame(frame)
            else:
                raise ProtocolError("unexpected frame type %r" % kind)

    # -- standing queries ----------------------------------------------------

    def subscribe(
        self,
        text: str,
        page_size: int | None = None,
        resume: bool = False,
    ) -> Subscription:
        """Register a standing query and collect its initial snapshot.

        A plain subscribe streams the snapshot as ``page`` frames before
        the ``subscribed`` ack.  Pass ``resume=True`` when this client
        already holds the last state it was delivered (reconnecting after
        a service restart): if the registration survived in the store, no
        pages are resent and the rows missed while away arrive as the
        first delta — fetch it with :meth:`next_delta`.
        """
        request_id = self._request_id()
        payload: dict[str, Any] = {"id": request_id, "op": "subscribe", "text": text}
        if page_size is not None:
            payload["page_size"] = page_size
        if resume:
            payload["resume"] = True
        self._send(payload)
        schema: list[str] = []
        rows: set = set()
        while True:
            frame = self._recv(request_id)
            kind = frame.get("type")
            if kind == "page":
                schema = list(frame["schema"])
                rows.update(tuple(row) for row in frame["rows"])
            elif kind == "subscribed":
                self._subscribed_ids.add(request_id)
                return Subscription(
                    request_id=request_id,
                    text=text,
                    schema=schema,
                    rows=rows,
                    seq=int(frame["seq"]),
                    resumed=bool(frame["resumed"]),
                )
            elif kind == "error":
                raise error_from_frame(frame)
            else:
                raise ProtocolError("unexpected frame type %r" % kind)

    def next_delta(
        self, subscription: Subscription, timeout: float | None = None
    ) -> Delta | None:
        """Block for the next pushed delta (or ``None`` on timeout) and
        apply it to ``subscription.rows`` — the set therefore always
        equals the server's last persisted snapshot for this query."""
        frame = self._recv(subscription.request_id, timeout=timeout)
        if frame is None:
            return None
        kind = frame.get("type")
        if kind == "error":
            raise error_from_frame(frame)
        if kind != "delta":
            raise ProtocolError("expected delta, got %r" % kind)
        delta = Delta(
            seq=int(frame["seq"]),
            schema=list(frame["schema"]),
            added=[tuple(row) for row in frame["added"]],
            removed=[tuple(row) for row in frame["removed"]],
            host=str(frame.get("host", "")),
            revision=int(frame.get("revision", 0)),
            reason=str(frame.get("reason", "")),
        )
        subscription.schema = delta.schema
        subscription.rows.difference_update(delta.removed)
        subscription.rows.update(delta.added)
        subscription.seq = delta.seq
        return delta

    def unsubscribe(self, subscription: Subscription) -> None:
        """Deregister a standing query (drops its persisted registration
        once no other subscriber holds it)."""
        request_id = self._request_id()
        self._send(
            {"id": request_id, "op": "unsubscribe", "text": subscription.text}
        )
        frame = self._recv(request_id)
        if frame.get("type") != "unsubscribed":
            raise ProtocolError(
                "expected unsubscribed, got %r" % frame.get("type")
            )
        self._subscribed_ids.discard(subscription.request_id)
        self._parked.pop(subscription.request_id, None)

    def sweep(self, host: str | None = None) -> dict[str, Any]:
        """Run one server-side maintenance sweep; deltas it triggers are
        pushed to subscribers before the returned stats frame is sent."""
        request_id = self._request_id()
        self._send({"id": request_id, "op": "sweep", "text": host or ""})
        frame = self._recv(request_id)
        kind = frame.get("type")
        if kind == "error":
            raise error_from_frame(frame)
        if kind != "result":
            raise ProtocolError("expected result, got %r" % kind)
        return {k: v for k, v in frame.items() if k not in ("id", "type")}

    def query(
        self,
        text: str,
        deadline_ms: float | None = None,
        page_size: int | None = None,
    ) -> QueryOutcome:
        """Issue one query and collect the full streamed answer."""
        schema: list[str] = []
        rows: list[tuple] = []
        pages = 0
        stream = self.stream(text, deadline_ms=deadline_ms, page_size=page_size)
        while True:
            try:
                page = next(stream)
            except StopIteration as stop:
                stats = stop.value or {}
                break
            schema = page.schema
            rows.extend(page.rows)
            pages += 1
        return QueryOutcome(schema=schema, rows=rows, pages=pages, stats=stats)

    def query_retry(
        self,
        text: str,
        deadline_ms: float | None = None,
        page_size: int | None = None,
        retries: int = 5,
        backoff_seconds: float = 0.05,
    ) -> QueryOutcome:
        """:meth:`query` with typed-retriable retry.

        An ``OVERLOADED``/``CLIENT_LIMIT``/``SHUTTING_DOWN`` shed is
        retried up to ``retries`` times; when the error frame carries a
        ``retry_after_ms`` admission hint the client honors it exactly,
        otherwise the backoff doubles from ``backoff_seconds``.  Both
        paths go through the injectable ``sleep`` so tests never pay
        real wall time."""
        attempt = 0
        while True:
            try:
                return self.query(text, deadline_ms=deadline_ms, page_size=page_size)
            except ServiceError as exc:
                if not exc.retriable or attempt >= retries:
                    raise
                if exc.retry_after_ms is not None:
                    self._sleep(max(0.0, exc.retry_after_ms / 1000.0))
                else:
                    self._sleep(backoff_seconds * (2.0 ** attempt))
                attempt += 1
