"""The cluster's side of the wire path: the router and the federation
bus share the service's line-frame handler (Nagle off, bounded lines),
the router relays a worker's answer in bursts, and router→worker relay
connections are pooled — a stale idle socket is retried, not mourned.

The worker here is an in-process :class:`WebBaseService`, so the test
can watch its listener (connections accepted, sockets to close) through
the :class:`~tests.test_wire.ListenerSpy` seam; the kill-mid-query and
takeover suites over real worker processes are in ``test_cluster.py``.
"""

from __future__ import annotations

import socket
import sys
import threading

import pytest

from repro.cluster.federation import (
    MAX_LINE_BYTES as FEDERATION_MAX_LINE_BYTES,
    FederationClient,
    FederationServer,
)
from repro.cluster.router import RELAY_POOL_SIZE, ClusterConfig, ClusterRouter
from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.relational.relation import Relation
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, WebBaseService
from repro.vps.cache import CachePolicy
from tests.test_wire import ADS, WIDE, ListenerSpy, nodelay, oversized_line_reply

SHARD = "shard-0"


@pytest.fixture()
def routed(tmp_path):
    """A router over one in-process worker: ``(router, worker spy)``."""
    webbase = WebBase.create(
        WebBaseConfig(ads_per_host=ADS, cache=CachePolicy.lru())
    )
    worker = WebBaseService(webbase, ServiceConfig(port=0, shard_id=SHARD))
    address = worker.start()
    spy = ListenerSpy(worker._server)
    router = ClusterRouter(
        ClusterConfig(store_root=str(tmp_path), shards=1, ads_per_host=ADS)
    )
    router.start()
    router.register_worker(SHARD, address, str(tmp_path / SHARD))
    try:
        yield router, spy
    finally:
        router.shutdown(drain_workers=False)
        worker.shutdown()


class TestSharedHandler:
    def test_router_sockets_have_nodelay(self, routed):
        router, _ = routed
        spy = ListenerSpy(router._server)
        with ServiceClient(*router.address) as client:
            client.ping()
        assert spy.nodelay and all(spy.nodelay)

    def test_federation_sockets_have_nodelay(self):
        bus = FederationServer()
        address = bus.start()
        spy = ListenerSpy(bus._server)
        client = FederationClient(*address)
        try:
            assert client.stats()["entries"] == 0
            assert nodelay(client._sock) != 0
        finally:
            client.close()
            bus.stop()
        assert spy.nodelay and all(spy.nodelay)

    def test_router_proxies_a_query_carrying_fields_it_no_longer_reads(
        self, routed
    ):
        """An older client may still stamp ``mqo_fp`` and ask for a
        redirect; the router ignores both and proxies the query."""
        router, _ = routed
        frames: list[dict] = []
        with socket.create_connection(router.address, timeout=60) as sock:
            sock.sendall(
                protocol.encode(
                    {
                        "id": 1,
                        "op": "query",
                        "text": WIDE,
                        "mqo_fp": "0" * 64,
                        "redirect_ok": True,
                    }
                )
            )
            with sock.makefile("rb") as reader:
                while not frames or frames[-1]["type"] == "page":
                    line = reader.readline()
                    assert line, "router closed without a terminal frame"
                    frames.append(protocol.decode_line(line))
        assert frames[-1]["type"] == "result"
        assert frames[-1]["shard_id"] == SHARD
        assert frames[-1]["rows"] == sum(len(f["rows"]) for f in frames[:-1]) > 0

    def test_router_answers_an_oversized_line_once_then_closes(self, routed):
        router, _ = routed
        lines = oversized_line_reply(router.address, protocol.MAX_LINE_BYTES)
        assert len(lines) == 1, lines
        frame = protocol.decode_line(lines[0])
        assert (frame["id"], frame["code"]) == (0, protocol.E_BAD_REQUEST)

    def test_federation_answers_an_oversized_line_once_then_closes(self):
        bus = FederationServer()
        address = bus.start()
        try:
            # Beyond the service's limit the bus still answers ...
            client = FederationClient(*address)
            big = Relation(["a"], [("%d" % i + "x" * 1024,) for i in range(5 * 1024)])
            client.publish("r", "h", (), 0, big)  # a ~5 MB frame
            client.close()
            # ... and beyond its own, once, then hangs up.
            lines = oversized_line_reply(address, FEDERATION_MAX_LINE_BYTES)
        finally:
            bus.stop()
        assert len(lines) == 1, lines
        reply = protocol.decode_line(lines[0])
        assert reply["ok"] is False and "exceeds" in reply["error"]


class TestRelayBursts:
    def test_buffered_pages_and_the_merged_result_leave_together(self, routed):
        """The worker's pages of one maximal object arrive in one segment;
        the router forwards what it has already received as one write and
        never splits a relayed frame from frames received with it."""
        router, _ = routed
        spy = ListenerSpy(router._server)
        with ServiceClient(*router.address) as client:
            outcome = client.query(WIDE, page_size=2)
        bursts = spy.bursts()
        frames = [frame for burst in bursts for frame in burst]
        assert [f["type"] for f in frames] == ["page"] * outcome.pages + ["result"]
        assert [f["seq"] for f in frames[:-1]] == list(range(outcome.pages))
        assert len(bursts) < len(frames), "every frame went out in its own write"


class TestPooledRelays:
    def test_sequential_queries_reuse_one_worker_connection(self, routed):
        router, worker_spy = routed
        with ServiceClient(*router.address) as client:
            for _ in range(2 * RELAY_POOL_SIZE):
                assert len(client.query(WIDE).rows) > 0
        assert len(worker_spy.handlers) == 1
        assert len(router._idle[SHARD]) == 1

    def test_a_stale_idle_socket_is_retried_not_declared_dead(self, routed):
        router, worker_spy = routed
        with ServiceClient(*router.address) as client:
            first = client.query(WIDE)
            # The worker hangs up on the idle pooled connection.
            worker_spy.handlers[0].request.shutdown(socket.SHUT_RDWR)
            second = client.query(WIDE)
            third = client.query(WIDE)
        assert sorted(second.rows) == sorted(first.rows) == sorted(third.rows)
        assert len(worker_spy.handlers) == 2, "one fresh connection, then reused"
        counters = router.metrics.snapshot()["counters"]
        assert counters.get("cluster.worker_deaths", 0) == 0
        assert counters.get("cluster.retries", 0) == 0
        assert router.live_shards() == [SHARD]

    def test_concurrent_relays_leak_no_connection(self, routed):
        """More clients than pool slots (and than cores), a short switch
        interval: every answer is whole, the pool ends within its bound,
        and every worker connection outside the pool was closed."""
        router, worker_spy = routed
        clients, rounds = 2 * RELAY_POOL_SIZE, 5
        with ServiceClient(*router.address) as client:
            expected = sorted(client.query(WIDE).rows)
        failures: list = []

        def one_client() -> None:
            try:
                with ServiceClient(*router.address, timeout=60) as client:
                    for _ in range(rounds):
                        if sorted(client.query(WIDE).rows) != expected:
                            failures.append("rows diverged")
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=one_client) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        idle = router._idle[SHARD]
        assert 1 <= len(idle) <= RELAY_POOL_SIZE
        # close() waits for the worker's side to finish, so by now the only
        # worker connections still open are the pooled ones.
        open_on_worker = [h for h in worker_spy.handlers if not h.wfile.closed]
        assert len(open_on_worker) == len(idle)
        counters = router.metrics.snapshot()["counters"]
        assert counters.get("cluster.worker_deaths", 0) == 0

    def test_the_pool_goes_with_its_shard(self, routed):
        router, _ = routed
        with ServiceClient(*router.address) as client:
            client.query(WIDE)
        idle = router._idle[SHARD][0]
        router._handle_worker_death(SHARD)
        assert SHARD not in router._idle
        assert idle._sock.fileno() == -1, "the idle relay was left open"
