"""The sharded cluster tier, end to end: real router, real worker
processes, real takeover.

These tests spawn an actual 3-worker :class:`LocalCluster` (each worker
a separate OS process with its own store directory) and talk to the
router through the ordinary :class:`ServiceClient` — the cluster must be
indistinguishable from a single service at the protocol level.  The
failover section hard-kills workers and asserts the two contracts the
design leans on: queries in flight across a takeover deliver
*byte-identical, exactly-once* rows, and standing-query subscribers
lose *zero* deltas when their shard dies (the relay resumes on the HRW
successor and synthesizes the exact catch-up diff).

Ordering matters within this module: the failover classes run last
because they shrink the cluster.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.federation import (
    FederationCache,
    FederationClient,
    FederationServer,
)
from repro.cluster.router import (
    RETRY_AFTER_MS,
    ClusterConfig,
    ClusterRouter,
    LocalCluster,
)
from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.relational.relation import Relation
from repro.service.client import Overloaded, ServiceClient
from repro.sites.world import mutate_site_listings
from repro.vps.cache import CachePolicy, ResultCache

ADS = 40
SEED = 1999
#: Single-host (kbb-dominant after the blue-book join collapses) and
#: genuinely multi-host workloads.
Q_CARS = "SELECT make, model, price WHERE make = 'saab'"
Q_WIDE = "SELECT make, model, price WHERE make = 'ford'"
Q_JOIN = (
    "SELECT make, model, price, bb_price WHERE make = 'jaguar' "
    "AND condition = 'good' AND price < bb_price"
)
Q_FED = "SELECT make, model, price WHERE make = 'mazda'"
MUTATION = {
    "host": "www.newsday.com",
    "make": "ford",
    "model": "escort",
    "count": 2,
    "seed": 11,
}


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    root = tmp_path_factory.mktemp("cluster")
    local = LocalCluster(
        ClusterConfig(
            store_root=str(root), shards=3, seed=SEED, ads_per_host=ADS
        )
    )
    local.start()
    try:
        yield local
    finally:
        local.stop()


@pytest.fixture(scope="module")
def reference():
    """A single-process webbase over the identical world — the oracle
    for byte-identical answers.  No result cache, so world mutations
    show up in the very next query."""
    return WebBase.create(
        WebBaseConfig(seed=SEED, ads_per_host=ADS, cache=CachePolicy.noop())
    )


def _rows(webbase, text):
    return sorted(set(webbase.query(text).rows))


class TestRouting:
    def test_router_speaks_the_service_protocol(self, cluster):
        with ServiceClient(*cluster.address) as client:
            welcome = client.hello()
            assert welcome["role"] == "router"
            assert welcome["shard_id"] == "router"
            assert client.ping() < 5.0

    def test_affinity_query_matches_single_process_rows(
        self, cluster, reference
    ):
        with ServiceClient(*cluster.address, timeout=120) as client:
            outcome = client.query(Q_JOIN)
        assert sorted(outcome.rows) == _rows(reference, Q_JOIN)
        assert outcome.stats["spilled"] is False  # idle cluster never spills
        assert len(outcome.stats["shards"]) == 1
        # The serving shard stamps the terminal frame.
        assert outcome.stats["shard_id"] == outcome.stats["shards"][0]
        # Per-shard modeled seconds back the load bench's makespan math.
        assert set(outcome.stats["shard_seconds"]) == set(
            outcome.stats["shards"]
        )

    def test_a_multi_host_query_is_served_by_one_shard_byte_identically(
        self, cluster, reference
    ):
        router = cluster.router
        # Its hosts hash to different owners, yet one shard serves it all.
        assert len({router.route_for({h: 1}) for h in router.plan_hosts(Q_WIDE)}) > 1
        with ServiceClient(*cluster.address, timeout=120) as client:
            outcome = client.query(Q_WIDE)
        assert sorted(outcome.rows) == _rows(reference, Q_WIDE)
        assert len(outcome.rows) == len(set(outcome.rows)), "duplicate rows"
        assert outcome.stats["shards"] == [outcome.stats["shard_id"]]

    def test_routing_is_deterministic(self, cluster):
        router = cluster.router
        weights = router.plan_hosts(Q_WIDE)
        assert weights, "a routable query must touch hosts"
        assert router.route_for(weights) == router.route_for(weights)

    def test_equivalent_queries_meet_on_one_shard(self, cluster):
        """No co-routing table: equal plan fingerprints are equal plans,
        so equal host weights, so one owner."""
        router = cluster.router
        reordered = (
            "SELECT make, model, price, bb_price WHERE price < bb_price "
            "AND condition = 'good' AND make = 'jaguar'"
        )
        planner = router._planner.ur

        def fingerprints(query):
            return sorted(o.fingerprint for o in planner.plan(query).feasible_objects)

        stamped = fingerprints(Q_JOIN)
        assert stamped and all(stamped), "every feasible object is stamped"
        assert stamped == fingerprints(reordered)
        assert router.route_for(router.plan_hosts(Q_JOIN)) == router.route_for(
            router.plan_hosts(reordered)
        )

    def test_status_reports_full_topology(self, cluster):
        with ServiceClient(*cluster.address) as client:
            status = client.status()
        assert status["role"] == "router"
        assert sorted(status["workers"]) == ["shard-0", "shard-1", "shard-2"]
        assert all(info["alive"] for info in status["workers"].values())
        owners = set(status["hosts"].values())
        assert owners <= {"shard-0", "shard-1", "shard-2"}
        assert "federation" in status

    def test_bad_query_is_a_structured_bad_request(self, cluster):
        from repro.service.client import ServiceError

        with ServiceClient(*cluster.address) as client:
            with pytest.raises(ServiceError) as caught:
                client.query("SELECT nonsense WHERE gibberish = 'x'")
        assert caught.value.code == "BAD_REQUEST"


class TestFederation:
    def test_fill_on_one_shard_amortizes_on_another(self, cluster):
        """A prefix walked on shard A must serve shard B's identical
        lookup from the federation, not from a second live walk."""
        with ServiceClient(*cluster.address) as client:
            workers = client.status()["workers"]
        addresses = {
            shard: tuple(info["address"]) for shard, info in workers.items()
        }
        first, second = sorted(addresses)[:2]
        with ServiceClient(*addresses[first], timeout=120) as a:
            a.query(Q_FED)
        fed_stats = cluster.router.federation_server.cache.stats()
        assert fed_stats["entries"] > 0, "shard A published nothing"
        with ServiceClient(*addresses[second], timeout=120) as b:
            before = (
                b.metrics()["counters"].get("cluster.fed_hits", 0)
            )
            b.query(Q_FED)
            after = b.metrics()["counters"].get("cluster.fed_hits", 0)
        assert after > before, "shard B paid a live walk despite federation"

    def test_merged_metrics_sum_worker_registries(self, cluster):
        with ServiceClient(*cluster.address, timeout=120) as client:
            client.query(Q_CARS)
            merged = client.metrics()
        assert merged["counters"]["cluster.requests"] >= 1
        # Worker-side counters appear summed in the cluster view.
        assert merged["counters"].get("service.completed", 0) >= 1
        assert set(merged["shards"]) == {
            shard
            for shard, info in ServiceClient(*cluster.address)
            .status()["workers"]
            .items()
            if info["alive"]
        }
        per_shard = sum(
            snap["counters"].get("service.completed", 0)
            for snap in merged["shards"].values()
        )
        assert merged["counters"]["service.completed"] == per_shard
        # Histograms: count and sum add, min is the least, the mean is
        # recomputed; max and the percentiles keep the worst shard.
        widest = 0
        for name, whole in merged["histograms"].items():
            parts = [
                snap["histograms"][name]
                for snap in merged["shards"].values()
                if snap["histograms"].get(name, {}).get("count")
            ]
            if not parts:
                continue  # the router's own
            widest = max(widest, len(parts))
            assert whole["count"] == sum(h["count"] for h in parts), name
            assert whole["sum"] == pytest.approx(sum(h["sum"] for h in parts)), name
            assert whole["mean"] == pytest.approx(whole["sum"] / whole["count"]), name
            assert whole["min"] == min(h["min"] for h in parts), name
            assert whole["max"] == max(h["max"] for h in parts), name
            assert whole["p95"] == max(h["p95"] for h in parts), name
        assert widest >= 2, "some histogram must span shards for this to bite"

    @pytest.mark.parametrize("noticed_by", ["advance_revision", "lookup", "publish"])
    def test_an_eviction_is_counted_once_whichever_call_noticed(self, noticed_by):
        """Word of a host's move reaches the federation three ways; all of
        them drop the superseded fills through one routine, so the
        eviction counter and the entries gauge cannot disagree."""
        from repro.core.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        fed = FederationCache(metrics=metrics)
        host = "www.x.com"
        for make in ("saab", "ford"):
            fed.publish("dealers", host, (("make", make),), 0, ["make"], [[make]])
        assert metrics.snapshot()["gauges"]["cluster.fed_entries"] == 2
        other = (("make", "mazda"),)
        if noticed_by == "advance_revision":
            fed.advance_revision(host, 1)
        elif noticed_by == "lookup":
            assert fed.lookup("dealers", host, other, 1) is None
        else:
            assert fed.publish("dealers", host, other, 1, ["make"], [["mazda"]])
        assert metrics.value("cluster.fed_evictions") == 2
        entries = fed.stats()["entries"]
        assert entries == (1 if noticed_by == "publish" else 0)
        assert metrics.snapshot()["gauges"]["cluster.fed_entries"] == entries
        assert fed.stats()["revisions"] == {host: 1}
        # A shard still behind cannot move the federation backwards.
        fed.advance_revision(host, 0)
        assert fed.lookup("dealers", host, other, 0) is None
        assert fed.stats()["revisions"] == {host: 1}


class TestFederationWithoutClaims:
    """No cross-shard single-flight: two shards that miss one key at once
    both walk it and both publish, and the federation keeps one entry."""

    KEY = (("make", "saab"),)

    def test_two_publishes_of_one_key_leave_one_entry(self):
        from repro.core.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        fed = FederationCache(metrics=metrics)
        for _shard in ("shard-a", "shard-b"):
            assert fed.publish(
                "dealers", "www.x.com", self.KEY, 0, ["make"], [["saab"]]
            )
        assert fed.stats()["entries"] == 1
        assert metrics.snapshot()["gauges"]["cluster.fed_entries"] == 1
        assert metrics.value("cluster.fed_publishes") == 2
        # Either shard's next lookup hits the one entry.
        for _shard in ("shard-a", "shard-b"):
            found = fed.lookup("dealers", "www.x.com", self.KEY, 0)
            assert found == {"schema": ["make"], "rows": [["saab"]]}
        assert metrics.value("cluster.fed_lookup_hits") == 2

    def test_a_federation_miss_is_an_ordinary_fill_then_a_publish(self):
        """A flight leader that the federation misses fetches live once
        and publishes what it stored; it asks the bus nothing else."""

        class _Inner:
            def __init__(self):
                self.fetches = 0

            def host_of(self, name):
                return "www.x.com"

            def fetch(self, name, given, context=None):
                self.fetches += 1
                return Relation(["make"], [("live",)])

        class _Bus:
            """Answers every op with nothing (a lookup misses) and records it."""

            def __init__(self):
                self.ops = []

            def __getattr__(self, op):
                return lambda *args: self.ops.append(op)

        inner, bus = _Inner(), _Bus()
        cache = ResultCache(inner, CachePolicy.lru())
        cache.federation = bus
        value = cache.fetch("dealers", {"make": "saab"})
        assert sorted(value.rows) == [("live",)]
        assert inner.fetches == 1
        assert bus.ops == ["lookup", "publish"]
        assert cache.metrics.value("cluster.fed_misses") == 1

    @pytest.mark.parametrize("op", ["claim", "release"])
    def test_the_bus_has_no_claim_op(self, op):
        bus = FederationServer()
        client = FederationClient(*bus.start())
        try:
            with pytest.raises(RuntimeError, match="unknown op"):
                client._roundtrip({"op": op, "relation": "dealers", "key": []})
        finally:
            client.close()
            bus.stop()


class TestSpill:
    def test_saturated_owner_spills_to_least_loaded_worker(
        self, cluster, reference
    ):
        """When the HRW owner is deep in relays, an affinity query must
        route to the least-loaded live worker — and still answer
        byte-identically, because every worker holds the same world."""
        router = cluster.router
        owner = router.route_for(router.plan_hosts(Q_JOIN))
        with router._load_lock:
            # Pretend the owner has a deep accumulated busy score.
            router._shard_busy[owner] = 99.0
        try:
            with ServiceClient(*cluster.address, timeout=120) as client:
                outcome = client.query(Q_JOIN)
        finally:
            with router._load_lock:
                router._shard_busy[owner] = 0.0
        assert outcome.stats["spilled"] is True
        assert outcome.stats["shards"] != [owner]
        assert sorted(outcome.rows) == _rows(reference, Q_JOIN)
        counters = router.metrics.snapshot()["counters"]
        assert counters.get("cluster.spills", 0) >= 1


class TestAdmission:
    def test_router_sheds_with_retry_hint_when_full(self, tmp_path):
        router = ClusterRouter(
            ClusterConfig(
                store_root=str(tmp_path),
                shards=1,
                max_inflight=1,
            )
        )
        router.start()
        try:
            assert router._admit()  # occupy the only slot
            with ServiceClient(*router.address) as client:
                with pytest.raises(Overloaded) as caught:
                    client.query(Q_CARS)
            assert caught.value.retriable
            assert caught.value.retry_after_ms == RETRY_AFTER_MS == 250.0
            router._release()
        finally:
            router.shutdown(drain_workers=False)


class TestFailover:
    """Runs last: these tests shrink the module's cluster."""

    def test_a_query_survives_its_serving_worker_dying_mid_stream(
        self, cluster, reference
    ):
        """Kill the shard serving a query after its first page: rows
        already relayed stay, the rest arrive from the HRW successor after
        adoption, and the client sees every row exactly once.

        A worker sends its whole answer in a burst or two, so a kill from
        the client's side lands after the last page.  The kill happens in
        the router's relay instead, right after it received page one; the
        rest of the answer dies with the worker."""
        router = cluster.router
        with router._load_lock:
            router._shard_busy.clear()  # an idle cluster places on the owner
        victim = router.route_for(router.plan_hosts(Q_WIDE))
        checkout = router._checkout

        def checkout_dying_after_one_page(shard_id, fresh):
            relay, reused = checkout(shard_id, fresh)
            if shard_id == victim:
                stream = relay.stream

                def first_page_then_death(*args, **kwargs):
                    pages = stream(*args, **kwargs)
                    yield next(pages)
                    cluster.kill_worker(victim)
                    relay._sock.close()
                    relay._buf = b""
                    return (yield from pages)

                relay.stream = first_page_then_death
            return relay, reused

        router._checkout = checkout_dying_after_one_page
        try:
            with ServiceClient(*cluster.address, timeout=120) as client:
                stream = client.stream(Q_WIDE, page_size=5)
                rows = []
                while True:
                    try:
                        page = next(stream)
                    except StopIteration as stop:
                        stats = stop.value or {}
                        break
                    rows.extend(page.rows)
        finally:
            del router._checkout
        assert sorted(rows) == _rows(reference, Q_WIDE)
        assert len(rows) == len(set(rows)), "a takeover duplicated rows"
        assert stats["rows"] == len(rows)
        assert stats["shard_id"] != victim
        snapshot = router.metrics.snapshot()["counters"]
        assert snapshot.get("cluster.retries", 0) >= 1
        assert snapshot.get("cluster.worker_deaths", 0) >= 1
        assert snapshot.get("cluster.takeovers", 0) >= 1

    def test_standing_query_resumes_with_zero_lost_deltas(
        self, cluster, reference
    ):
        """Subscribe, kill the shard holding the registration, then
        mutate + sweep: the relay must resume on the successor (which
        adopted the persisted snapshot) and the subscriber's row set
        must track the post-mutation truth exactly — no delta lost to
        the crash, none duplicated."""
        router = cluster.router
        with ServiceClient(*cluster.address, timeout=120) as client:
            sub = client.subscribe(Q_WIDE, page_size=50)
            assert sub.rows == set(_rows(reference, Q_WIDE))
            victim = router._relays[0].shard_id
            cluster.kill_worker(victim)
            # World churn while the takeover is settling.
            client.mutate(json.dumps(MUTATION))
            mutate_site_listings(
                reference.world,
                MUTATION["host"],
                make=MUTATION["make"],
                model=MUTATION["model"],
                count=MUTATION["count"],
                seed=MUTATION["seed"],
            )
            client.sweep(MUTATION["host"])
            deadline_deltas = 20
            expected = set(_rows(reference, Q_WIDE))
            while sub.rows != expected and deadline_deltas > 0:
                delta = client.next_delta(sub, timeout=10.0)
                if delta is None:
                    break
                deadline_deltas -= 1
            assert sub.rows == expected, "subscriber diverged across takeover"
            counters = router.metrics.snapshot()["counters"]
            assert counters.get("cluster.relay_resumes", 0) >= 1
            client.unsubscribe(sub)

    def test_cluster_still_answers_after_two_deaths(self, cluster, reference):
        with ServiceClient(*cluster.address, timeout=120) as client:
            outcome = client.query(Q_WIDE)
            status = client.status()
        assert sorted(outcome.rows) == _rows(reference, Q_WIDE)
        alive = [s for s, info in status["workers"].items() if info["alive"]]
        assert len(alive) == 1
        owners = set(status["hosts"].values())
        assert owners == set(alive), "all hosts must re-home to survivors"
