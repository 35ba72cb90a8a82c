"""Standing queries: subscribe once, receive exactly the row deltas.

The contract: a subscriber's row set after applying every received frame
(snapshot pages, then deltas) equals a fresh evaluation of its query at
any quiescent point — no duplicate rows, no missed rows — across site
churn, maintenance sweeps, and a full service shutdown/restart with the
tiered store carrying the registration.

These tests run a real :class:`WebBaseService` over a real simulated Web
and talk to it through :class:`ServiceClient`; churn is injected with
``mutate_site_listings`` and published by server-side sweeps (the
``sweep`` op), whose result frame is ordered *after* the deltas it
triggered — so "sweep returned" is the quiescent point.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, WebBaseService, _ClientHandler
from repro.sites.world import build_world, mutate_site_listings
from repro.vps.cache import CachePolicy

QUERY = (
    "SELECT make, model, price, contact "
    "WHERE make = 'ford' AND model = 'escort'"
)
HOST_A = "www.newsday.com"
HOST_B = "www.autoweb.com"


def _fresh_rows(webbase: WebBase) -> set:
    """Ground truth: a real evaluation (no gold served, none persisted)."""
    ctx = webbase.execution_context(label="ground-truth")
    stream = webbase.evaluate_stream(QUERY, ctx)
    return {row for _, piece in stream if piece is not None for row in piece}


class FrameLog:
    """Every standing-query frame the services write, per subscriber.

    It wraps the client handler's ``send``; a subscriber is its server
    handler (one per connection) plus its request id.  Each ``subscribed``
    and ``delta`` frame is logged with the revision vector of ``text``'s
    state when it was written: that is the vector the frame delivers,
    because the registry writes under the query's delivery lock, after
    the state moved and outside the registry lock (taken here)."""

    def __init__(self, monkeypatch, text: str = QUERY) -> None:
        self._lock = threading.Lock()
        self._frames: dict[tuple, list[tuple[dict, dict]]] = {}
        self._handlers: dict[int, object] = {}  # client port -> its handler
        send = _ClientHandler.send

        def logged(handler, *frames):
            for frame in frames:
                if frame.get("type") in ("subscribed", "delta") or (
                    frame.get("source") == "snapshot"
                ):
                    registry = handler.server.service.standing
                    with registry._lock:
                        standing = registry._queries.get(text)
                        vector = dict(standing.revisions) if standing else {}
                    with self._lock:
                        self._handlers[handler.client_address[1]] = handler
                        key = (handler, frame["id"])
                        self._frames.setdefault(key, []).append((frame, vector))
            return send(handler, *frames)

        monkeypatch.setattr(_ClientHandler, "send", logged)

    def key(self, client: ServiceClient, sub) -> tuple:
        """The subscriber ``sub`` of an open ``client``, once acked."""
        with self._lock:
            return self._handlers[client._sock.getsockname()[1]], sub.request_id

    def of(self, key: tuple) -> list[tuple[dict, dict]]:
        """The (frame, delivered vector) pairs written to one subscriber."""
        with self._lock:
            return list(self._frames.get(key, []))

    def last_seq(self, key: tuple) -> int:
        return [frame["seq"] for frame, _ in self.of(key) if "seq" in frame][-1]

    def assert_ordered(self, key: tuple) -> None:
        """Snapshot pages, then the ack, then deltas in contiguous ``seq``
        order; the delivered revision vector never goes backwards."""
        entries = [e for e in self.of(key) if e[0]["type"] != "page"]
        kinds = [frame["type"] for frame, _ in self.of(key)]
        assert kinds.count("subscribed") == 1, kinds
        assert kinds.index("subscribed") == kinds.count("page"), kinds
        assert entries[0][0]["type"] == "subscribed"
        seqs = [frame["seq"] for frame, _ in entries]
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs))), seqs
        for (_, before), (_, after) in zip(entries, entries[1:]):
            assert all(after.get(h, r) >= r for h, r in before.items()), (before, after)


def drain(log: FrameLog, client: ServiceClient, sub) -> None:
    """Read every delta the service has written to ``sub`` so far."""
    while sub.seq < log.last_seq(log.key(client, sub)):
        assert client.next_delta(sub, timeout=10.0) is not None


@pytest.fixture()
def stack(tmp_path):
    """One world, one store-backed webbase, one running service."""
    config = WebBaseConfig(
        cache=CachePolicy.lru(), store_dir=str(tmp_path / "store")
    )
    world = build_world(seed=config.seed, ads_per_host=config.ads_per_host)
    webbase = WebBase(world, config=config)
    service = WebBaseService(webbase, ServiceConfig(port=0))
    host, port = service.start()
    try:
        yield world, webbase, service, host, port
    finally:
        service.shutdown()
        webbase.store.close()


class TestExactDeltas:
    def test_churn_reaches_the_subscriber_as_exact_row_deltas(self, stack):
        world, webbase, service, host, port = stack
        with ServiceClient(host=host, port=port) as client:
            sub = client.subscribe(QUERY)
            assert not sub.resumed
            assert sub.rows == _fresh_rows(webbase)

            seen_added: list[tuple] = []
            for round_no in range(3):
                added = mutate_site_listings(
                    world, HOST_A, count=2, seed=round_no
                )
                stats = client.sweep(HOST_A)
                assert HOST_A in stats["changed_hosts"]
                delta = client.next_delta(sub, timeout=10.0)
                assert delta is not None, "round %d: no delta" % round_no
                assert delta.reason == "cdc"
                assert delta.host == HOST_A
                # Exactly the new listings, no duplicates, no leaks.
                assert len(delta.added) == len(added)
                assert not set(delta.added) & set(seen_added)
                seen_added.extend(delta.added)
                assert sub.rows == _fresh_rows(webbase), (
                    "round %d: applied deltas diverged from fresh eval"
                    % round_no
                )
            # Quiescent: no further frames are pending.
            assert client.next_delta(sub, timeout=0.3) is None
            client.unsubscribe(sub)

    def test_clean_sweep_pushes_nothing(self, stack):
        world, webbase, service, host, port = stack
        with ServiceClient(host=host, port=port) as client:
            sub = client.subscribe(QUERY)
            stats = client.sweep()
            assert stats["changed_hosts"] == []
            assert client.next_delta(sub, timeout=0.3) is None
            client.unsubscribe(sub)

    def test_unsubscribed_client_receives_no_deltas(self, stack):
        world, webbase, service, host, port = stack
        with ServiceClient(host=host, port=port) as client:
            sub = client.subscribe(QUERY)
            client.unsubscribe(sub)
            mutate_site_listings(world, HOST_A, count=1, seed=9)
            client.sweep(HOST_A)
            assert client.next_delta(sub, timeout=0.3) is None

    def test_two_subscribers_both_converge(self, stack):
        world, webbase, service, host, port = stack
        with ServiceClient(host=host, port=port) as one, ServiceClient(
            host=host, port=port
        ) as two:
            sub_one = one.subscribe(QUERY)
            sub_two = two.subscribe(QUERY)
            mutate_site_listings(world, HOST_A, count=2, seed=4)
            one.sweep(HOST_A)
            assert one.next_delta(sub_one, timeout=10.0) is not None
            assert two.next_delta(sub_two, timeout=10.0) is not None
            truth = _fresh_rows(webbase)
            assert sub_one.rows == truth
            assert sub_two.rows == truth


    def test_deps_are_the_plans_hosts_even_when_nothing_was_fetched(self, stack):
        """What a standing query must be refreshed for is a property of
        its plan: a subscribe answered wholly from cache still depends on
        every host under it, and churn on any one of them reaches it."""
        world, webbase, service, host, port = stack
        webbase.query(QUERY)  # warm: the subscribe below fetches nothing live
        misses_before = webbase.metrics.value("cache.misses")
        with ServiceClient(host=host, port=port) as client:
            sub = client.subscribe(QUERY)
            assert webbase.metrics.value("cache.misses") == misses_before > 0
            deps = service.standing._queries[QUERY].deps
            assert deps == set(webbase.ur.plan_hosts(webbase.ur.plan(QUERY)))
            assert {HOST_A, HOST_B} < deps
            for round_no, moved in enumerate(sorted(deps)):
                mutate_site_listings(world, moved, count=1, seed=round_no)
                client.sweep(moved)
                delta = client.next_delta(sub, timeout=10.0)
                assert delta is not None and delta.host == moved
            assert sub.rows == _fresh_rows(webbase)
            client.unsubscribe(sub)

    def test_a_sweep_between_evaluation_and_registration_is_caught_up(
        self, stack
    ):
        """Subscribe registers its subscriber (held), then evaluates.  A
        sweep landing while the evaluation runs refreshes the query for
        the held subscriber; the subscribe's older evaluation is dropped,
        and the subscriber's state at release carries what the sweep
        moved."""
        world, webbase, service, host, port = stack
        evaluate = service.standing._evaluate
        evaluated, release = threading.Event(), threading.Event()

        def gated(text):
            result = evaluate(text)
            if not evaluated.is_set():  # only the subscribe's evaluation
                evaluated.set()
                release.wait(timeout=30.0)
            return result

        def churn():
            try:
                evaluated.wait(timeout=30.0)
                mutate_site_listings(world, HOST_A, count=2, seed=3)
                with ServiceClient(host=host, port=port) as admin:
                    admin.sweep(HOST_A)
            finally:
                release.set()

        service.standing._evaluate = gated
        churner = threading.Thread(target=churn)
        churner.start()
        with ServiceClient(host=host, port=port) as client:
            sub = client.subscribe(QUERY)
            churner.join(timeout=60.0)
            truth = _fresh_rows(webbase)
            while sub.rows != truth:
                if client.next_delta(sub, timeout=10.0) is None:
                    break
            assert sub.rows == truth, "the sweep's delta never reached the subscriber"
            client.unsubscribe(sub)

    def test_a_catch_up_after_the_client_left_keeps_the_delivered_state(
        self, stack
    ):
        """A refresh can finish after the last client has gone (a sweep's
        evaluation outlasting the connection).  With nobody subscribed, it
        must leave the delivered state alone: that is what the absent
        client holds, and its resume delta has to carry the change."""
        world, webbase, service, host, port = stack
        client = ServiceClient(host=host, port=port)
        client.subscribe(QUERY)
        client.close()  # returns once the server has detached us
        standing = service.standing._queries[QUERY]
        held, seq = set(standing.rows), standing.seq
        moved = held | {("ford", "escort", 1, "a seller who came later")}
        service.standing._apply_refresh(
            standing, standing.schema, moved, dict(standing.revisions),
            host="", revision=0, reason="subscribe",
        )
        assert standing.rows == held and standing.seq == seq

    def test_a_catch_up_older_than_a_delivered_refresh_is_not_applied(
        self, stack
    ):
        """Evaluations reach the delivered state in revision order, not in
        arrival order.  A second subscribe's evaluation is held between its
        evaluation and its refresh while a sweep's refresh goes out: the
        subscribe's evaluation read the older revision, so it must not roll
        both clients (and the persisted snapshot) back behind the sweep."""
        world, webbase, service, host, port = stack
        registry = service.standing
        apply_refresh = registry._apply_refresh
        armed, held = threading.Event(), threading.Event()
        release, done = threading.Event(), threading.Event()

        def gated(standing, *args, **kwargs):
            if not armed.is_set() or kwargs.get("reason") != "subscribe":
                return apply_refresh(standing, *args, **kwargs)
            held.set()
            try:
                assert release.wait(timeout=30.0)
                return apply_refresh(standing, *args, **kwargs)
            finally:
                done.set()

        registry._apply_refresh = gated
        with ServiceClient(host=host, port=port) as one, ServiceClient(
            host=host, port=port
        ) as two:
            sub_one = one.subscribe(QUERY)
            armed.set()
            # The second subscribe acks only after its refresh: run it aside.
            with ThreadPoolExecutor(max_workers=1) as aside:
                subscribing = aside.submit(two.subscribe, QUERY)
                assert held.wait(timeout=30.0)
                mutate_site_listings(world, HOST_A, count=2, seed=6)
                assert HOST_A in one.sweep(HOST_A)["changed_hosts"]
                release.set()
                assert done.wait(timeout=30.0)
                sub_two = subscribing.result(timeout=30.0)
            for client, sub in ((one, sub_one), (two, sub_two)):
                while client.next_delta(sub, timeout=0.3) is not None:
                    pass
            truth = _fresh_rows(webbase)
            standing = registry._queries[QUERY]
            assert standing.rows == truth, "the delivered state was rolled back"
            assert sub_one.rows == truth and sub_two.rows == truth
            assert standing.revisions == webbase.revisions.vector(standing.deps)
            persisted = webbase.store.standing_queries()[QUERY]
            assert {tuple(row) for row in persisted["rows"]} == truth
            assert persisted["revisions"] == standing.revisions

    def test_a_sweep_while_the_ack_is_built_reaches_the_subscriber_after_it(
        self, stack, monkeypatch
    ):
        """A sweep that lands while a subscribe's ack is being built must
        reach the new subscriber after the ack, in ``seq`` order.  Were
        the subscriber live before its ack went out, the sweep's delta
        could overtake the ack, and ``subscribe`` would fail with
        ``ProtocolError: unexpected frame type 'delta'``."""
        world, webbase, service, host, port = stack
        log = FrameLog(monkeypatch)
        subscribed_frame = protocol.subscribed_frame
        started, swept = threading.Event(), threading.Event()

        def sweep():
            try:
                mutate_site_listings(world, HOST_A, count=2, seed=8)
                with ServiceClient(host=host, port=port) as admin:
                    admin.sweep(HOST_A)
            finally:
                swept.set()

        def building(*args, **kwargs):
            if not started.is_set():  # the subscribe's ack: sweep meanwhile
                started.set()
                threading.Thread(target=sweep, daemon=True).start()
                # Bounded: a sweep that waits for this ack cannot finish.
                swept.wait(timeout=2.0)
            return subscribed_frame(*args, **kwargs)

        monkeypatch.setattr(protocol, "subscribed_frame", building)
        with ServiceClient(host=host, port=port) as client:
            sub = client.subscribe(QUERY)
            assert swept.wait(timeout=60.0)
            log.assert_ordered(log.key(client, sub))
            drain(log, client, sub)
            assert sub.rows == _fresh_rows(webbase)
            client.unsubscribe(sub)

    @pytest.mark.xfail(
        strict=True,
        reason="the subscribe request has no field for the client's last "
        "delivered seq, so a resume cannot tell that deltas went out to "
        "another subscriber while this client was away",
    )
    def test_a_resume_after_deltas_to_another_subscriber_catches_up(self, stack):
        """Client A stays subscribed while client B leaves; a sweep then
        delivers a delta to A and moves the query's state.  B resumes
        holding the state from before the sweep, so its resume must carry
        the sweep's change.  The server diffs against the state at B's
        registration instead, which already holds the change: B gets
        ``resumed`` and no delta."""
        world, webbase, service, host, port = stack
        with ServiceClient(host=host, port=port) as one:
            sub_one = one.subscribe(QUERY)
            two = ServiceClient(host=host, port=port)
            held = set(two.subscribe(QUERY).rows)
            two.close()
            mutate_site_listings(world, HOST_A, count=2, seed=13)
            one.sweep(HOST_A)
            assert one.next_delta(sub_one, timeout=10.0) is not None
            with ServiceClient(host=host, port=port) as back:
                sub_back = back.subscribe(QUERY, resume=True)
                assert sub_back.resumed
                sub_back.rows = held
                back.next_delta(sub_back, timeout=0.5)
                assert sub_back.rows == _fresh_rows(webbase)


class TestShutdownRestartResume:
    def test_restart_resumes_with_exactly_the_missed_delta(self, tmp_path):
        """The mid-sweep shutdown case: host A's churn is swept and
        delivered, host B's churn happens while the service is down.  The
        resubscribing client gets no snapshot pages (its state IS the
        persisted snapshot) and one resume delta carrying exactly the
        rows that moved while it was away."""
        config = WebBaseConfig(
            cache=CachePolicy.lru(), store_dir=str(tmp_path / "store")
        )
        world = build_world(seed=config.seed, ads_per_host=config.ads_per_host)
        webbase = WebBase(world, config=config)
        service = WebBaseService(webbase, ServiceConfig(port=0))
        host, port = service.start()
        client = ServiceClient(host=host, port=port)
        sub = client.subscribe(QUERY)
        baseline = set(sub.rows)

        # Swept and delivered before the shutdown...
        added_a = mutate_site_listings(world, HOST_A, count=2, seed=11)
        client.sweep(HOST_A)
        assert client.next_delta(sub, timeout=10.0) is not None
        delivered = set(sub.rows)
        assert len(delivered) == len(baseline) + len(added_a)

        # ... orderly shutdown (persist-before-send means the snapshot
        # equals what this client holds), then churn while down.
        client.close()
        service.shutdown()
        webbase.store.close()
        added_b = mutate_site_listings(world, HOST_B, count=3, seed=12)

        webbase2 = WebBase(world, config=config)
        service2 = WebBaseService(webbase2, ServiceConfig(port=0))
        host2, port2 = service2.start()
        try:
            with ServiceClient(host=host2, port=port2) as client2:
                sub2 = client2.subscribe(QUERY, resume=True)
                assert sub2.resumed, "registration did not survive restart"
                assert sub2.rows == set(), "resume must not resend the snapshot"
                delta = client2.next_delta(sub2, timeout=10.0)
                assert delta is not None and delta.reason == "resume"
                # Exactly the rows that moved while the client was away.
                assert len(delta.added) == len(added_b)
                assert delta.removed == []
                resumed_state = delivered | set(delta.added)
                assert resumed_state == _fresh_rows(webbase2)
                assert client2.next_delta(sub2, timeout=0.3) is None
                client2.unsubscribe(sub2)
        finally:
            service2.shutdown()
            webbase2.store.close()

    def test_absent_subscriber_snapshot_is_not_refreshed_by_sweeps(
        self, tmp_path
    ):
        """A sweep while the subscriber's connection is down must NOT
        advance the persisted snapshot: it must keep describing what the
        absent client last saw, or the resume delta under-delivers."""
        config = WebBaseConfig(
            cache=CachePolicy.lru(), store_dir=str(tmp_path / "store")
        )
        world = build_world(seed=config.seed, ads_per_host=config.ads_per_host)
        webbase = WebBase(world, config=config)
        service = WebBaseService(webbase, ServiceConfig(port=0))
        host, port = service.start()
        try:
            client = ServiceClient(host=host, port=port)
            sub = client.subscribe(QUERY)
            held = set(sub.rows)
            client.close()  # connection drops; registration persists

            added = mutate_site_listings(world, HOST_A, count=2, seed=21)
            webbase.run_maintenance(HOST_A)  # sweep with nobody listening

            with ServiceClient(host=host, port=port) as client2:
                sub2 = client2.subscribe(QUERY, resume=True)
                assert sub2.resumed
                delta = client2.next_delta(sub2, timeout=10.0)
                assert delta is not None and delta.reason == "resume"
                assert len(delta.added) == len(added), (
                    "the sweep while absent advanced the snapshot and "
                    "swallowed the delta"
                )
                assert held | set(delta.added) == _fresh_rows(webbase)
                client2.unsubscribe(sub2)
        finally:
            service.shutdown()
            webbase.store.close()


#: A mapped classified site outside ``QUERY``'s plan.
HOST_OUTSIDE = "www.autoconnect.com"


def _pending(client: ServiceClient, sub) -> list:
    """Every delta already sent to ``sub`` (a sweep's result frame follows
    the deltas it triggered, so after it nothing more is on its way)."""
    deltas = []
    while (delta := client.next_delta(sub, timeout=0.3)) is not None:
        deltas.append(delta)
    return deltas


class TestSweepTriggers:
    """Which sweeps reach a standing query: every non-clean report of a
    host under its plan, when the sweep goes through the service."""

    def test_a_manual_change_swept_by_the_service_sends_one_delta(self, stack):
        """A manual change is never absorbed, so every later sweep finds it
        again and re-evaluates; one whose answer did not move sends
        nothing."""
        world, webbase, service, host, port = stack
        evaluate, evaluations = service.standing._evaluate, []

        def counted(text):
            evaluations.append(text)
            return evaluate(text)

        service.standing._evaluate = counted
        with ServiceClient(host=host, port=port) as client:
            sub = client.subscribe(QUERY)
            mutate_site_listings(world, HOST_A, count=2, seed=30, change="manual")
            assert HOST_A in client.sweep(HOST_A)["changed_hosts"]
            deltas = _pending(client, sub)
            assert [(d.reason, d.host) for d in deltas] == [("cdc", HOST_A)]
            assert deltas[0].revision == webbase.revisions.current(HOST_A)
            assert sub.rows == _fresh_rows(webbase)
            del evaluations[:]
            assert HOST_A in client.sweep(HOST_A)["changed_hosts"]
            assert evaluations == [QUERY]
            assert _pending(client, sub) == []
            assert sub.rows == _fresh_rows(webbase)
            client.unsubscribe(sub)

    def test_a_sweep_of_a_host_outside_the_plan_sends_nothing(self, stack):
        world, webbase, service, host, port = stack
        with ServiceClient(host=host, port=port) as client:
            sub = client.subscribe(QUERY)
            assert HOST_OUTSIDE not in service.standing._queries[QUERY].deps
            mutate_site_listings(world, HOST_OUTSIDE, count=2, seed=31)
            assert HOST_OUTSIDE in client.sweep(HOST_OUTSIDE)["changed_hosts"]
            assert _pending(client, sub) == []
            assert sub.rows == _fresh_rows(webbase)
            client.unsubscribe(sub)

    def test_a_sweep_of_every_host_converges_in_seq_order(self, stack):
        world, webbase, service, host, port = stack
        with ServiceClient(host=host, port=port) as client:
            sub = client.subscribe(QUERY)
            acked = sub.seq
            mutate_site_listings(world, HOST_A, count=2, seed=32)
            mutate_site_listings(world, HOST_B, count=3, seed=33)
            stats = client.sweep()
            assert {HOST_A, HOST_B} <= set(stats["changed_hosts"])
            seqs = [delta.seq for delta in _pending(client, sub)]
            assert seqs and seqs == list(range(acked + 1, acked + 1 + len(seqs)))
            assert sub.rows == _fresh_rows(webbase)
            client.unsubscribe(sub)

    def test_maintenance_run_around_the_service_refreshes_nothing(self, stack):
        """Only the service's sweep refreshes its standing queries: a
        ``WebBase.run_maintenance`` call made directly reconciles the maps
        and the cache, and no subscriber hears of it."""
        world, webbase, service, host, port = stack
        with ServiceClient(host=host, port=port) as client:
            sub = client.subscribe(QUERY)
            held = set(sub.rows)
            mutate_site_listings(world, HOST_A, count=2, seed=34)
            assert HOST_A in webbase.run_maintenance(HOST_A)
            assert _pending(client, sub) == []
            assert sub.rows == held != _fresh_rows(webbase)
            client.unsubscribe(sub)
