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

import pytest

from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, WebBaseService
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
        """Subscribe evaluates, then registers.  A sweep landing between
        the two reaches no subscriber of the query, so the subscriber must
        get what it moved as the catch-up delta after the ack."""
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
        """A subscribe's catch-up runs after its ack, so it can finish after
        the client has gone.  With nobody subscribed, a refresh must leave
        the delivered state alone: it is what the absent client holds, and
        its resume delta has to carry the change."""
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
        arrival order.  A second subscriber's catch-up is held between its
        evaluation and its delivery while a sweep's refresh goes out: the
        catch-up read the older revision, so it must not roll both clients
        (and the persisted snapshot) back behind the sweep."""
        world, webbase, service, host, port = stack
        registry = service.standing
        apply_refresh = registry._apply_refresh
        held, release, done = threading.Event(), threading.Event(), threading.Event()

        def gated(standing, *args, **kwargs):
            if kwargs.get("reason") != "subscribe":
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
            sub_one = one.subscribe(QUERY)  # no state yet: no catch-up
            sub_two = two.subscribe(QUERY)  # acked; its catch-up is parked
            assert held.wait(timeout=30.0)
            mutate_site_listings(world, HOST_A, count=2, seed=6)
            assert HOST_A in one.sweep(HOST_A)["changed_hosts"]
            release.set()
            assert done.wait(timeout=30.0)
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
