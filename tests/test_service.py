"""The query service: admission control, deadlines, streaming, drain.

These tests run a real :class:`WebBaseService` on an ephemeral port and
talk to it through :class:`ServiceClient` (or a raw socket where the
client library deliberately prevents the abuse being tested).  Load
states that depend on timing — a busy runner, a full queue — are made
deterministic with a gated service subclass whose ``_execute`` blocks on
an event, so admission decisions are asserted exactly, not probed.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.service import protocol
from repro.service.client import (
    DeadlineExceededError,
    Overloaded,
    ServiceClient,
    ServiceError,
    ServiceShuttingDown,
)
from repro.service.server import ServiceConfig, WebBaseService
from repro.vps.cache import CachePolicy

QUERY = "SELECT make, model, price WHERE make = 'saab'"


def _fresh_webbase() -> WebBase:
    return WebBase.create(WebBaseConfig(cache=CachePolicy.lru()))


class GatedService(WebBaseService):
    """A service whose requests block until released — pins the runners
    and the waiters into exact states for admission tests."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()
        self.ran: list[str] = []  # request texts, in the order they ran

    def _execute(self, job):
        self.ran.append(job.request.text)
        self.entered.release()
        assert self.release.wait(timeout=10.0), "test forgot to open the gate"
        return {"rows": 0, "pages": 0}


@pytest.fixture()
def service():
    webbase = _fresh_webbase()
    svc = WebBaseService(webbase, ServiceConfig(port=0))
    host, port = svc.start()
    try:
        yield svc, host, port
    finally:
        svc.shutdown()


class TestRoundtrip:
    def test_streamed_answer_matches_direct_query(self, service):
        svc, host, port = service
        with ServiceClient(host=host, port=port) as client:
            outcome = client.query(QUERY)
        direct = svc.webbase.query(QUERY)
        assert outcome.schema == list(direct.schema)
        assert sorted(outcome.rows) == sorted(set(direct.rows))
        assert outcome.stats["rows"] == len(outcome.rows)
        assert outcome.stats["fetches"] > 0

    def test_pages_respect_page_size(self, service):
        svc, host, port = service
        with ServiceClient(host=host, port=port) as client:
            pages = list(client.stream(QUERY, page_size=5))
        assert pages, "expected at least one page"
        assert all(len(page.rows) <= 5 for page in pages)
        assert all(page.source for page in pages)
        total = sum(len(page.rows) for page in pages)
        assert total == len(set(svc.webbase.query(QUERY).rows))

    def test_rows_deduplicated_across_pages(self, service):
        svc, host, port = service
        with ServiceClient(host=host, port=port) as client:
            outcome = client.query(QUERY, page_size=3)
        assert len(outcome.rows) == len(set(outcome.rows))

    def test_ping_and_metrics_ops(self, service):
        svc, host, port = service
        with ServiceClient(host=host, port=port) as client:
            assert client.ping() < 5.0
            client.query(QUERY)
            snapshot = client.metrics()
        assert snapshot["counters"]["service.completed"] >= 1
        assert "service.total_seconds" in snapshot["histograms"]


class TestAdmissionControl:
    def test_queue_full_sheds_with_structured_overloaded(self):
        """One executing job + one queued job + queue_limit=1: the third
        query is shed with a retriable OVERLOADED and counted."""
        webbase = _fresh_webbase()
        svc = GatedService(
            webbase, ServiceConfig(port=0, queue_limit=1, workers=1)
        )
        host, port = svc.start()
        results: list = []

        def issue():
            with ServiceClient(host=host, port=port) as client:
                results.append(client.query(QUERY))

        try:
            first = threading.Thread(target=issue, daemon=True)
            first.start()
            assert svc.entered.acquire(timeout=10.0)  # worker now busy
            second = threading.Thread(target=issue, daemon=True)
            second.start()
            for _ in range(200):  # queue occupied by the second job
                if svc.describe_status()["queue_depth"] == 1:
                    break
                threading.Event().wait(0.01)
            assert svc.describe_status()["queue_depth"] == 1
            with ServiceClient(host=host, port=port) as client:
                with pytest.raises(Overloaded) as excinfo:
                    client.query(QUERY)
            assert excinfo.value.retriable
            assert excinfo.value.code == protocol.E_OVERLOADED
            assert "retry" in str(excinfo.value)
            svc.release.set()
            first.join(timeout=10.0)
            second.join(timeout=10.0)
            assert len(results) == 2
            assert webbase.metrics.value("service.shed") == 1
            assert webbase.metrics.value("service.admitted") == 2
        finally:
            svc.release.set()
            svc.shutdown()

    def test_pipelined_requests_on_one_connection_are_answered_in_order(self):
        """The client library issues one query at a time, so the pipelining
        client is a raw socket sending two queries on one connection: the
        second runs once the first is answered, and neither is refused."""
        webbase = _fresh_webbase()
        svc = GatedService(webbase, ServiceConfig(port=0, queue_limit=8, workers=2))
        host, port = svc.start()
        try:
            with socket.create_connection((host, port), timeout=10.0) as sock:
                reader = sock.makefile("rb")
                sock.sendall(protocol.encode({"id": 1, "op": "query", "text": QUERY}))
                assert svc.entered.acquire(timeout=10.0)  # request 1 runs
                sock.sendall(protocol.encode({"id": 2, "op": "query", "text": QUERY}))
                assert not svc.entered.acquire(timeout=0.2)  # request 2 waits
                svc.release.set()
                frames = [protocol.decode_line(reader.readline()) for _ in range(2)]
            assert [(f["id"], f["type"]) for f in frames] == [
                (1, "result"),
                (2, "result"),
            ]
            assert webbase.metrics.value("service.completed") == 2
        finally:
            svc.release.set()
            svc.shutdown()

    def test_draining_rejects_new_queries(self, service):
        svc, host, port = service
        svc._draining.set()
        with ServiceClient(host=host, port=port) as client:
            with pytest.raises(ServiceShuttingDown) as excinfo:
                client.query(QUERY)
        assert excinfo.value.retriable
        assert svc.metrics.value("service.rejected_draining") == 1
        svc._draining.clear()  # let the fixture's shutdown drain normally


class TestDeadlines:
    def test_expired_deadline_is_structured_and_counted(self, service):
        svc, host, port = service
        with ServiceClient(host=host, port=port) as client:
            with pytest.raises(DeadlineExceededError) as excinfo:
                client.query(QUERY, deadline_ms=0)
        exc = excinfo.value
        assert not exc.retriable
        assert exc.code == protocol.E_DEADLINE_EXCEEDED
        assert svc.metrics.value("service.deadline_exceeded") == 1

    def test_queue_wait_counts_toward_the_deadline(self):
        """A request whose deadline expires while it sits in the admission
        queue is rejected without wasting an executor on it."""
        webbase = _fresh_webbase()
        svc = GatedService(webbase, ServiceConfig(port=0, queue_limit=4, workers=1))
        host, port = svc.start()
        errors: list[ServiceError] = []

        def blocked():
            with ServiceClient(host=host, port=port) as client:
                client.query(QUERY)

        def doomed():
            with ServiceClient(host=host, port=port) as client:
                try:
                    client.query(QUERY, deadline_ms=50)
                except ServiceError as exc:
                    errors.append(exc)

        try:
            first = threading.Thread(target=blocked, daemon=True)
            first.start()
            assert svc.entered.acquire(timeout=10.0)  # worker busy
            second = threading.Thread(target=doomed, daemon=True)
            second.start()
            threading.Event().wait(0.2)  # let the 50ms budget expire in-queue
            svc.release.set()
            first.join(timeout=10.0)
            second.join(timeout=10.0)
            assert len(errors) == 1
            assert isinstance(errors[0], DeadlineExceededError)
            assert "admission queue" in str(errors[0])
            assert webbase.metrics.value("service.deadline_exceeded") == 1
        finally:
            svc.release.set()
            svc.shutdown()

    def test_a_waiter_leaves_the_moment_its_deadline_passes(self):
        """A request waiting behind a gated one gets ``DEADLINE_EXCEEDED``
        when its 50 ms budget runs out, while the gate is still closed —
        not once a runner frees up."""
        webbase = _fresh_webbase()
        svc = GatedService(webbase, ServiceConfig(port=0, queue_limit=4, workers=1))
        host, port = svc.start()
        errors: list[ServiceError] = []

        def blocked():
            with ServiceClient(host=host, port=port) as client:
                client.query(QUERY)

        def doomed():
            with ServiceClient(host=host, port=port) as client:
                try:
                    client.query(QUERY, deadline_ms=50)
                except ServiceError as exc:
                    errors.append(exc)

        try:
            first = threading.Thread(target=blocked, daemon=True)
            first.start()
            assert svc.entered.acquire(timeout=10.0)  # the one runner is busy
            second = threading.Thread(target=doomed, daemon=True)
            second.start()
            second.join(timeout=5.0)
            assert not second.is_alive()
            assert not svc.release.is_set()
            assert len(errors) == 1
            assert isinstance(errors[0], DeadlineExceededError)
            assert "admission queue" in str(errors[0])
            assert svc.describe_status()["queue_depth"] == 0
            svc.release.set()
            first.join(timeout=10.0)
            assert svc.ran == [QUERY]
            assert webbase.metrics.value("service.deadline_exceeded") == 1
        finally:
            svc.release.set()
            svc.shutdown()

    def test_deadline_expiring_mid_access_is_deadline_exceeded(self):
        """The deadline passes while the query's first page is on the wire
        (held on a gate, cache off, one worker).  When the page comes back
        the access stops at its next page, and the client gets
        ``DEADLINE_EXCEEDED`` — not an ``INTERNAL`` error counted against
        the service."""
        webbase = WebBase.create(WebBaseConfig(max_workers=1))
        server = webbase.world.server
        real = server.fetch
        entered, release = threading.Event(), threading.Event()

        def gated_fetch(request):
            if not entered.is_set():
                entered.set()
                assert release.wait(10.0), "test forgot to open the gate"
            return real(request)

        server.fetch = gated_fetch
        svc = WebBaseService(webbase, ServiceConfig(port=0))
        host, port = svc.start()
        errors: list[ServiceError] = []

        def doomed():
            with ServiceClient(host=host, port=port) as client:
                try:
                    client.query(QUERY, deadline_ms=50)
                except ServiceError as exc:
                    errors.append(exc)

        try:
            caller = threading.Thread(target=doomed, daemon=True)
            caller.start()
            assert entered.wait(10.0)
            threading.Event().wait(0.2)  # well past the 50 ms deadline
            release.set()
            caller.join(timeout=10.0)
            assert len(errors) == 1
            assert isinstance(errors[0], DeadlineExceededError), errors[0]
            assert errors[0].code == protocol.E_DEADLINE_EXCEEDED
            assert webbase.metrics.value("service.deadline_exceeded") == 1
            assert webbase.metrics.value("service.errors") == 0
        finally:
            release.set()
            svc.shutdown()


class TestContextOwnership:
    """A served request's execution context is the request's own: the
    service and the webbase keep none of it once the result is sent."""

    def test_a_served_query_leaves_no_pages_behind(self):
        """After a cache-off query's result frame arrives, the process holds
        exactly the pages it held before the query."""
        import gc

        from repro.web.page import WebPage

        def live_pages() -> int:
            gc.collect()
            return sum(1 for obj in gc.get_objects() if type(obj) is WebPage)

        svc = WebBaseService(WebBase.create(WebBaseConfig()), ServiceConfig(port=0))
        host, port = svc.start()
        try:
            with ServiceClient(host=host, port=port) as client:
                idle = live_pages()
                outcome = client.query("SELECT make, model, price WHERE make = 'ford'")
                assert outcome.stats["fetches"] > 0
                assert live_pages() == idle
        finally:
            svc.shutdown()

    def test_a_deadline_starts_no_thread(self, monkeypatch):
        """A request with ``deadline_ms`` runs on its connection's thread
        and starts no other: the deadline is the context's, read at its
        checkpoints, not a timer's."""
        svc = WebBaseService(WebBase.create(WebBaseConfig()), ServiceConfig(port=0))
        host, port = svc.start()
        started: list[threading.Thread] = []
        real_start = threading.Thread.start

        def counting_start(thread, *args, **kwargs):
            started.append(thread)
            return real_start(thread, *args, **kwargs)

        try:
            with ServiceClient(host=host, port=port) as client:
                client.query(QUERY)  # the connection's thread is running
                monkeypatch.setattr(threading.Thread, "start", counting_start)
                try:
                    outcome = client.query(QUERY, deadline_ms=60_000)
                finally:
                    monkeypatch.undo()
            assert outcome.stats["fetches"] > 0
            assert started == []
        finally:
            svc.shutdown()


class TestProtocolErrors:
    def test_malformed_and_invalid_frames(self, service):
        svc, host, port = service
        with socket.create_connection((host, port), timeout=10.0) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            frame = protocol.decode_line(reader.readline())
            assert frame["type"] == "error"
            assert frame["code"] == protocol.E_BAD_REQUEST
            sock.sendall(protocol.encode({"id": 7, "op": "explode"}))
            frame = protocol.decode_line(reader.readline())
            assert frame["id"] == 7
            assert frame["code"] == protocol.E_BAD_REQUEST
            sock.sendall(protocol.encode({"id": 8, "op": "query", "text": "   "}))
            frame = protocol.decode_line(reader.readline())
            assert frame["id"] == 8
            assert frame["code"] == protocol.E_BAD_REQUEST

    def test_unparsable_query_is_bad_request(self, service):
        svc, host, port = service
        with ServiceClient(host=host, port=port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.query("SELECT make WHERE")
        assert excinfo.value.code == protocol.E_BAD_REQUEST
        assert not excinfo.value.retriable
        assert svc.metrics.value("service.bad_requests") == 1

    def test_server_survives_bad_requests(self, service):
        """A protocol violation poisons neither the connection nor the
        server — the next well-formed query still answers."""
        svc, host, port = service
        with ServiceClient(host=host, port=port) as client:
            with pytest.raises(ServiceError):
                client.query("SELECT make WHERE")
            outcome = client.query(QUERY)
        assert len(outcome.rows) > 0


class TestDrain:
    def test_graceful_shutdown_finishes_inflight_work(self):
        webbase = _fresh_webbase()
        svc = WebBaseService(webbase, ServiceConfig(port=0))
        host, port = svc.start()
        with ServiceClient(host=host, port=port) as client:
            for _ in range(3):
                client.query(QUERY)
        snapshot = svc.shutdown()
        counters = snapshot["counters"]
        assert counters["service.completed"] == 3
        assert counters["service.admitted"] == 3
        assert counters["service.drains"] == 1
        assert snapshot["gauges"]["service.queue_depth"] == 0

    def test_shared_cache_collapses_repeat_queries(self):
        """Two clients asking the same query share the webbase's cross-query
        cache: the second answer costs zero live fetches."""
        webbase = _fresh_webbase()
        svc = WebBaseService(webbase, ServiceConfig(port=0))
        host, port = svc.start()
        try:
            with ServiceClient(host=host, port=port) as client:
                first = client.query(QUERY)
            fetches_after_first = webbase.metrics.value("engine.fetches")
            with ServiceClient(host=host, port=port) as client:
                second = client.query(QUERY)
            assert sorted(second.rows) == sorted(first.rows)
            assert webbase.metrics.value("engine.fetches") == fetches_after_first
        finally:
            svc.shutdown()

    def test_drain_finishes_the_waiters_in_arrival_order(self):
        """One gated runner and two waiters on their own connections: a
        drain started meanwhile refuses a new query with ``SHUTTING_DOWN``,
        then finishes all three, the waiters in the order they arrived."""
        webbase = _fresh_webbase()
        svc = GatedService(webbase, ServiceConfig(port=0, queue_limit=4, workers=1))
        host, port = svc.start()
        texts = [
            "SELECT make, model, price WHERE make = '%s'" % make
            for make in ("saab", "ford", "honda")
        ]
        answered: list[str] = []

        def issue(text: str) -> None:
            with ServiceClient(host=host, port=port) as client:
                client.query(text)
                answered.append(text)

        def wait_for(key: str, value) -> None:
            for _ in range(500):
                if svc.describe_status()[key] == value:
                    return
                threading.Event().wait(0.01)
            assert svc.describe_status()[key] == value

        idle = ServiceClient(host=host, port=port)
        try:
            idle.ping()  # connected before the drain stops accepting
            callers = [
                threading.Thread(target=issue, args=(text,), daemon=True)
                for text in texts
            ]
            callers[0].start()
            assert svc.entered.acquire(timeout=10.0)
            for depth, caller in enumerate(callers[1:], start=1):
                caller.start()
                wait_for("queue_depth", depth)
            drain = threading.Thread(target=svc.shutdown, daemon=True)
            drain.start()
            wait_for("draining", True)
            with pytest.raises(ServiceShuttingDown):
                idle.query(QUERY)
            assert drain.is_alive()  # the drain waits for all three
            svc.release.set()
            drain.join(timeout=10.0)
            assert not drain.is_alive()
            for caller in callers:
                caller.join(timeout=10.0)
            assert svc.ran == texts
            assert sorted(answered) == sorted(texts)
            counters = webbase.metrics.snapshot()["counters"]
            assert counters["service.completed"] == 3
            assert counters["service.rejected_draining"] == 1
            assert svc.describe_status()["queue_depth"] == 0
            assert svc.describe_status()["inflight"] == 0
        finally:
            idle.close()
            svc.release.set()
            svc.shutdown()
