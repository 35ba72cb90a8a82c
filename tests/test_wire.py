"""The line-JSON wire path of the service: Nagle off, one write per
response burst, bounded request lines, the dead-peer short-circuit.

Nothing here measures time.  The listener's handler class is the seam:
:class:`ListenerSpy` swaps ``server.RequestHandlerClass`` for a
subclass that records every accepted connection and every
``wfile.write`` — which, on the unbuffered ``wfile`` the handlers keep,
is exactly one ``sendall``.  ``tests/test_cluster_wire.py`` drives the
router, the federation bus and the relay pool through the same spy.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, WebBaseService
from repro.vps.cache import CachePolicy

ADS = 24
WIDE = "SELECT make, model, price WHERE make = 'ford'"
BROAD = "SELECT make, model, price, year WHERE make = 'ford'"
NARROW = BROAD + " AND year > 1990"


class _RecordingWriter:
    """Stands in for a handler's unbuffered ``wfile``."""

    closed = False

    def __init__(self, sock: socket.socket, spy: "ListenerSpy") -> None:
        self._sock = sock
        self._spy = spy

    def write(self, data: bytes) -> int:
        if self._spy.broken:
            raise BrokenPipeError("the test cut the wire")
        self._spy.writes.append(bytes(data))
        self._sock.sendall(data)
        return len(data)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True


class ListenerSpy:
    """Records what one ``socketserver`` listener accepts and writes."""

    def __init__(self, server) -> None:
        spy = self
        self.handlers: list = []
        self.nodelay: list[int] = []
        self.writes: list[bytes] = []
        self.broken = False  # True: every write raises, as to a dead peer

        class Recording(server.RequestHandlerClass):
            def setup(self) -> None:
                super().setup()
                assert self.wbufsize == 0, "a write must be one sendall"
                spy.handlers.append(self)
                spy.nodelay.append(
                    self.request.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                )
                self.wfile = _RecordingWriter(self.request, spy)

        server.RequestHandlerClass = Recording

    def bursts(self) -> list[list[dict]]:
        """The frames of each recorded write; a write is whole frames."""
        assert all(data.endswith(b"\n") for data in self.writes)
        return [
            [protocol.decode_line(line) for line in data.splitlines()]
            for data in self.writes
        ]


def nodelay(sock: socket.socket) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def oversized_line_reply(address, limit: int) -> list[bytes]:
    """Send one request line longer than ``limit``, then a ping; return
    every line the peer sent before closing the connection."""
    request = protocol.encode({"id": 1, "op": "ping", "text": "x" * limit})
    with socket.create_connection(address, timeout=30.0) as sock:
        sock.sendall(request + protocol.encode({"id": 2, "op": "ping"}))
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received.splitlines()
            received += chunk


@pytest.fixture()
def spied_service():
    webbase = WebBase.create(
        WebBaseConfig(ads_per_host=ADS, cache=CachePolicy.lru())
    )
    svc = WebBaseService(webbase, ServiceConfig(port=0))
    address = svc.start()
    try:
        yield svc, ListenerSpy(svc._server), address
    finally:
        svc.shutdown()


class TestNagleOff:
    def test_accepted_and_connecting_sockets_have_nodelay(self, spied_service):
        _, spy, address = spied_service
        with ServiceClient(*address) as client:
            client.ping()
            assert nodelay(client._sock) != 0
        assert spy.nodelay and all(spy.nodelay)


class TestOneWritePerBurst:
    def test_cached_multi_page_answer_is_one_write_per_object(self, spied_service):
        _, spy, address = spied_service
        with ServiceClient(*address) as client:
            client.query(WIDE)  # warm the result cache
            del spy.writes[:]
            outcome = client.query(WIDE, page_size=2)
        bursts = spy.bursts()
        pages = [burst for burst in bursts if burst[0]["type"] == "page"]
        assert outcome.pages > len(pages), "the answer must span several pages"
        # Every page of one maximal object left in the same write ...
        sources = [{frame["source"] for frame in burst} for burst in pages]
        assert all(len(names) == 1 for names in sources)
        assert len(set(map(frozenset, sources))) == len(pages) == 2
        # ... in order, and the terminal frame followed in its own.
        assert [f["seq"] for b in pages for f in b] == list(range(outcome.pages))
        assert [[f["type"] for f in b] for b in bursts[len(pages):]] == [["result"]]

    def test_subsumed_answer_is_one_write(self, tmp_path):
        webbase = WebBase.create(
            WebBaseConfig(
                ads_per_host=ADS,
                cache=CachePolicy.lru(),
                store_dir=str(tmp_path / "store"),
                mqo=True,
            )
        )
        svc = WebBaseService(webbase, ServiceConfig(port=0))
        address = svc.start()
        spy = ListenerSpy(svc._server)
        try:
            with ServiceClient(*address) as client:
                client.query(BROAD)  # persists the gold answer
                del spy.writes[:]
                outcome = client.query(NARROW, page_size=2)
        finally:
            svc.shutdown()
            webbase.store.close()
        assert outcome.stats.get("mqo") == "subsumed" and outcome.pages > 1
        kinds = [[frame["type"] for frame in burst] for burst in spy.bursts()]
        assert kinds == [["page"] * outcome.pages, ["result"]]


class TestRequestLineLimit:
    def test_a_line_at_the_limit_is_served(self, spied_service):
        _, _, address = spied_service
        line = protocol.encode({"id": 5, "op": "ping"})[:-1]
        line += b" " * (protocol.MAX_LINE_BYTES - len(line) - 1) + b"\n"
        with socket.create_connection(address, timeout=30.0) as sock:
            sock.sendall(line)
            reply = protocol.decode_line(sock.makefile("rb").readline())
        assert reply == {"id": 5, "type": "pong"}

    def test_an_oversized_line_gets_one_error_then_eof(self, spied_service):
        svc, _, address = spied_service
        lines = oversized_line_reply(address, protocol.MAX_LINE_BYTES)
        assert len(lines) == 1, lines
        frame = protocol.decode_line(lines[0])
        assert (frame["id"], frame["code"]) == (0, protocol.E_BAD_REQUEST)
        assert "exceeds" in frame["message"]
        with ServiceClient(*address) as client:  # the listener is unharmed
            assert client.ping() >= 0.0


class TestDeadPeer:
    def test_first_failed_write_stops_encoding_but_not_the_query(
        self, spied_service, monkeypatch
    ):
        svc, spy, address = spied_service
        encoded: list[str] = []
        real_encode = protocol.encode

        def counting_encode(frame):
            encoded.append(frame.get("type", "request"))
            return real_encode(frame)

        with ServiceClient(*address) as client:
            whole = client.query(WIDE, page_size=2)  # also warms the cache
            monkeypatch.setattr(protocol, "encode", counting_encode)
            spy.broken = True
            client._send({"id": 99, "op": "query", "text": WIDE, "page_size": 2})
            for _ in range(1000):  # the answer goes nowhere: poll the counter
                if svc.metrics.value("service.completed") == 2:
                    break
                time.sleep(0.01)
        assert svc.metrics.value("service.completed") == 2
        # Only the first burst (one maximal object's pages) was encoded.
        assert set(encoded) == {"request", "page"}, encoded
        assert 0 < encoded.count("page") < whole.pages
