"""Protocol-version skew and the client's injectable retry clock.

The cluster stamps ``protocol_version`` and ``shard_id`` onto hello
welcomes and terminal result frames; rolling restarts mean router and
workers may skew a version apart, so unknown request *and* response
fields must be tolerated in both directions (degrade to "feature
unused", never to ``BAD_REQUEST``).  The retry-path tests drive
:meth:`ServiceClient.query_retry` against a scripted server through a
fake clock — no real ``time.sleep`` is paid anywhere, and the
router-issued ``RETRY_AFTER_MS`` hint is honored exactly.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading

import pytest

from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.service import protocol
from repro.service.client import (
    Overloaded,
    ServiceClient,
    error_from_frame,
)
from repro.service.server import ServiceConfig, WebBaseService
from repro.vps.cache import CachePolicy

QUERY = "SELECT make, model, price WHERE make = 'saab'"


class FakeTime:
    """A clock + sleep pair that advances virtually, recording sleeps."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class ScriptedServer:
    """A raw line-JSON server answering each request from a script.

    Each script entry is a callable ``request_dict -> list[frame_dict]``;
    entries are consumed in request-arrival order across the connection.
    """

    def __init__(self, script) -> None:
        self.script = list(script)
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                while outer.script:
                    line = self.rfile.readline()
                    if not line or not line.strip():
                        return
                    request = json.loads(line)
                    step = outer.script.pop(0)
                    for frame in step(request):
                        self.wfile.write(
                            (json.dumps(frame) + "\n").encode("utf-8")
                        )
                    self.wfile.flush()

        self._server = socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), Handler
        )
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.01},
            daemon=True,
        )
        self._thread.start()

    @property
    def address(self):
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture(scope="module")
def shard_service():
    webbase = WebBase.create(WebBaseConfig(cache=CachePolicy.lru()))
    service = WebBaseService(
        webbase, ServiceConfig(port=0, shard_id="shard-test")
    )
    host, port = service.start()
    try:
        yield service, host, port
    finally:
        service.shutdown()


class TestVersionStamps:
    def test_hello_reports_version_shard_and_role(self, shard_service):
        _, host, port = shard_service
        with ServiceClient(host=host, port=port) as client:
            welcome = client.hello()
        assert welcome["protocol_version"] == protocol.PROTOCOL_VERSION
        assert welcome["shard_id"] == "shard-test"
        assert welcome["role"] == "service"

    def test_result_frames_carry_shard_stamp(self, shard_service):
        _, host, port = shard_service
        with ServiceClient(host=host, port=port) as client:
            outcome = client.query(QUERY)
        assert outcome.stats["shard_id"] == "shard-test"
        assert outcome.stats["protocol_version"] == protocol.PROTOCOL_VERSION

    def test_unstamped_service_sends_no_shard_fields(self):
        frame = protocol.result_frame(1, {"rows": 0})
        assert "shard_id" not in frame
        assert "protocol_version" not in frame


class TestSkewTolerance:
    def test_parse_request_ignores_unknown_fields(self):
        request = protocol.parse_request(
            {
                "id": 7,
                "op": "query",
                "text": QUERY,
                "from_the_future": {"nested": True},
                "priority": 9,
            }
        )
        assert request.id == 7
        assert request.text == QUERY

    def test_live_server_tolerates_unknown_request_fields(self, shard_service):
        """A raw frame with fields this version never defined must be
        answered normally, not rejected — that is the rolling-restart
        contract."""
        _, host, port = shard_service
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(
                (
                    json.dumps(
                        {
                            "id": 1,
                            "op": "query",
                            "text": QUERY,
                            "v3_routing_hint": "ignore-me",
                            "page_size": 100,
                        }
                    )
                    + "\n"
                ).encode("utf-8")
            )
            buf = b""
            while b'"result"' not in buf and b'"error"' not in buf:
                chunk = sock.recv(65536)
                assert chunk, "server closed without a terminal frame"
                buf += chunk
        frames = [json.loads(l) for l in buf.split(b"\n") if l.strip()]
        assert frames[-1]["type"] == "result"
        assert frames[-1]["rows"] > 0

    def test_client_tolerates_unknown_response_fields(self):
        """A newer server may stamp frames with fields this client has
        never heard of; the stream must still collect normally."""
        server = ScriptedServer(
            [
                lambda req: [
                    {
                        "id": req["id"],
                        "type": "page",
                        "seq": 0,
                        "schema": ["a"],
                        "rows": [["x"]],
                        "source": "s",
                        "v3_checksum": "abc123",
                    },
                    {
                        "id": req["id"],
                        "type": "result",
                        "rows": 1,
                        "shard_id": "shard-9",
                        "protocol_version": 99,
                        "v3_trailer": [1, 2, 3],
                    },
                ]
            ]
        )
        try:
            with ServiceClient(*server.address, timeout=10.0) as client:
                outcome = client.query("SELECT a WHERE b = 'c'")
        finally:
            server.close()
        assert outcome.rows == [("x",)]
        assert outcome.stats["shard_id"] == "shard-9"
        assert outcome.stats["v3_trailer"] == [1, 2, 3]

    def test_hello_to_old_server_folds_to_version_one(self):
        """A pre-cluster server rejects the hello op; the client folds
        that into a synthetic version-1 welcome instead of raising."""
        server = ScriptedServer(
            [
                lambda req: [
                    protocol.error_frame(
                        req["id"], protocol.E_BAD_REQUEST, "unknown op 'hello'"
                    )
                ]
            ]
        )
        try:
            with ServiceClient(*server.address, timeout=10.0) as client:
                welcome = client.hello()
        finally:
            server.close()
        assert welcome == {
            "protocol_version": 1,
            "shard_id": "",
            "role": "service",
        }

    def test_error_frame_decoding_tolerates_absent_and_extra_fields(self):
        sparse = error_from_frame({"id": 1, "type": "error"})
        assert sparse.code == protocol.E_INTERNAL
        assert sparse.retry_after_ms is None
        rich = error_from_frame(
            {
                "id": 1,
                "type": "error",
                "code": protocol.E_OVERLOADED,
                "message": "busy",
                "retriable": True,
                "retry_after_ms": 125,
                "address": ["10.0.0.1", 9000],
                "v3_shed_class": "batch",
            }
        )
        assert rich.code == protocol.E_OVERLOADED
        assert rich.retry_after_ms == 125.0


class TestInjectableRetryClock:
    def _result(self, req):
        return [{"id": req["id"], "type": "result", "rows": 0}]

    def test_retry_honors_router_retry_after_hint_exactly(self):
        """An OVERLOADED shed carrying retry_after_ms=250 must back off
        exactly 0.25 virtual seconds — through the injected sleep, with
        zero real wall time."""
        server = ScriptedServer(
            [
                lambda req: [
                    protocol.error_frame(
                        req["id"],
                        protocol.E_OVERLOADED,
                        "shed",
                        retry_after_ms=250.0,
                    )
                ],
                self._result,
            ]
        )
        fake = FakeTime()
        try:
            with ServiceClient(
                *server.address,
                timeout=10.0,
                clock=fake.clock,
                sleep=fake.sleep,
            ) as client:
                outcome = client.query_retry(QUERY, backoff_seconds=0.05)
        finally:
            server.close()
        assert outcome.stats["rows"] == 0
        assert fake.sleeps == [0.25]

    def test_retry_backs_off_exponentially_without_a_hint(self):
        shed = lambda req: [  # noqa: E731
            protocol.error_frame(req["id"], protocol.E_OVERLOADED, "shed")
        ]
        server = ScriptedServer([shed, shed, self._result])
        fake = FakeTime()
        try:
            with ServiceClient(
                *server.address,
                timeout=10.0,
                clock=fake.clock,
                sleep=fake.sleep,
            ) as client:
                client.query_retry(QUERY, backoff_seconds=0.05)
        finally:
            server.close()
        assert fake.sleeps == [0.05, 0.1]

    def test_retry_budget_exhaustion_raises_typed_overloaded(self):
        shed = lambda req: [  # noqa: E731
            protocol.error_frame(req["id"], protocol.E_OVERLOADED, "shed")
        ]
        server = ScriptedServer([shed, shed, shed])
        fake = FakeTime()
        try:
            with ServiceClient(
                *server.address,
                timeout=10.0,
                clock=fake.clock,
                sleep=fake.sleep,
            ) as client:
                with pytest.raises(Overloaded) as caught:
                    client.query_retry(QUERY, retries=2, backoff_seconds=0.05)
        finally:
            server.close()
        assert caught.value.retriable
        assert len(fake.sleeps) == 2

    def test_connect_window_uses_the_injected_clock(self):
        """The constructor's connect-retry window must consult the fake
        clock, so a test can expire it without waiting real seconds."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        fake = FakeTime()

        def jumping_clock() -> float:
            fake.now += 3.0  # every look at the clock leaps forward
            return fake.now

        with pytest.raises(OSError):
            ServiceClient(
                "127.0.0.1",
                dead_port,
                connect_timeout=5.0,
                clock=jumping_clock,
                sleep=fake.sleep,
            )
        # window: opened at 3.0, deadline 8.0 — one failed attempt at
        # 6.0 sleeps once, the next look (9.0) expires the window.
        assert fake.sleeps == [0.1]
