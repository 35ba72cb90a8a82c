"""Shard-routing benchmark — 16 clients on a 3-worker cluster vs one process.

The ROADMAP's north star is heavy multi-client traffic; the cluster tier
(DESIGN.md §13) shards ``WebBaseService`` across worker processes — each
query goes to one shard, its dominant host's owner unless load spillover
moves it, and a federation cache shares fills — so the GIL stops being
the ceiling.  This benchmark drives the *same* 16-client
workload through (a) one single-process service and (b) a 3-worker
``LocalCluster``, and compares **modeled elapsed**: every request's
``modelled_seconds`` stat (cpu + the simulated-network critical path,
the repo's standard elapsed measure) is attributed to the machine that
served it.  A machine's busy time is the sum of its requests; the single
process is one machine, so its makespan is the whole workload, while the
cluster's makespan is its *busiest shard* — wall clock on a shared CI
box measures core count, not the architecture, which is exactly why the
modeled clock exists.

Acceptance (pinned by ``test_cluster_halves_modeled_makespan`` and the
CI ``cluster`` job):

* byte-identical rows from both arms against a reference webbase,
* modeled speedup >= 2.0 for 16 clients on 3 workers,
* a kill-one-worker arm where every in-flight query still completes
  (via takeover + client retry) and a standing query loses zero deltas,
* no regression beyond 10% of the committed ``BENCH_shard_routing.json``.

Run standalone: ``python benchmarks/bench_shard_routing.py [--smoke]``
or under pytest: ``pytest benchmarks/bench_shard_routing.py -s``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import threading
import time

import emit

from repro.cluster.router import ClusterConfig, LocalCluster
from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, WebBaseService
from repro.sites.world import mutate_site_listings
from repro.vps.cache import CachePolicy

ADS_PER_HOST = 32
SEED = 1999
CLIENTS = 16
SPEEDUP_FLOOR = 2.0
SMOKE_SPEEDUP_FLOOR = 1.5
REGRESSION_HEADROOM = 0.90  # new speedup must keep 90% of the baseline

MAKES = ["saab", "honda", "ford", "toyota", "jaguar", "mazda"]

#: Query families and where placement sends them before any spill
#: (empirically: rate/zip -> the carpoint owner, safety -> the
#: caranddriver owner, blue-book joins and bare price -> the newsday
#: owner, newsday being their heaviest host).  Each
#: distinct make walks a distinct listing slice, so the families stay
#: expensive per query instead of collapsing into one warm walk.
FAMILIES = [
    ("rate", "SELECT make, model, rate WHERE make = '%s' AND duration = 36"),
    ("safety", "SELECT make, model, safety WHERE make = '%s'"),
    (
        "bb",
        "SELECT make, model, price, bb_price WHERE make = '%s' "
        "AND condition = 'good' AND price < bb_price",
    ),
    ("zip", "SELECT make, model, price, zip WHERE make = '%s'"),
    ("price", "SELECT make, model, price WHERE make = '%s'"),
]

STANDING_QUERY = "SELECT make, model, price WHERE make = 'ford'"
MUTATION = {
    "host": "www.newsday.com",
    "make": "ford",
    "model": "escort",
    "count": 2,
    "seed": 11,
}


EXPENSIVE_FAMILIES = {"rate", "safety", "bb"}


def build_pool(makes: list[str]) -> list[str]:
    """The workload: the expensive families first (interleaved make-major
    so the opening burst mixes every affinity owner), then the cheap
    zip/price tail, whose fills the expensive walks already published —
    the tail rides the federation."""
    expensive = [
        tmpl % make
        for make in makes
        for fam, tmpl in FAMILIES
        if fam in EXPENSIVE_FAMILIES
    ]
    cheap = [
        tmpl % make
        for make in makes
        for fam, tmpl in FAMILIES
        if fam not in EXPENSIVE_FAMILIES
    ]
    return expensive + cheap


def reference_rows(reference: WebBase, pool: list[str]) -> dict[str, list]:
    return {text: sorted(set(reference.query(text).rows)) for text in pool}


class _Workload:
    """A closed-loop shared work queue: 16 client threads drain it
    against one address, asserting byte-identical rows per query and
    accumulating per-machine modeled busy seconds."""

    def __init__(self, pool: list[str], truth: dict[str, list]) -> None:
        self.pool = list(pool)
        self.truth = truth
        self.lock = threading.Lock()
        self.next_index = 0
        self.busy: dict[str, float] = {}
        self.spills = 0
        self.completed = 0
        self.errors: list[BaseException] = []

    def _take(self) -> str | None:
        with self.lock:
            if self.next_index >= len(self.pool):
                return None
            text = self.pool[self.next_index]
            self.next_index += 1
            return text

    def _account(self, stats: dict) -> None:
        # Cluster results carry per-shard seconds; a plain service result
        # carries one modelled_seconds for the single machine.
        shard_seconds = stats.get("shard_seconds")
        if shard_seconds is None:
            shard_seconds = {"single": float(stats.get("modelled_seconds", 0.0))}
        with self.lock:
            for machine, seconds in shard_seconds.items():
                self.busy[machine] = self.busy.get(machine, 0.0) + seconds
            if stats.get("spilled"):
                self.spills += 1
            self.completed += 1

    def _client_loop(
        self, address: tuple[str, int], delay: float = 0.0
    ) -> None:
        try:
            # Staggered arrivals: real clients do not connect in perfect
            # lockstep, and a zero-jitter herd makes the router's placement
            # reservations race each other, turning the measurement into a
            # thread-scheduler lottery.  A tenth of a second per client
            # keeps early placements ordered without changing the modeled
            # cost of anything.
            if delay:
                time.sleep(delay)
            with ServiceClient(*address, timeout=600.0) as client:
                while True:
                    text = self._take()
                    if text is None:
                        return
                    outcome = client.query_retry(text, retries=8)
                    got = sorted(set(outcome.rows))
                    want = self.truth[text]
                    assert got == want, (
                        "rows diverged for %r: %d vs %d reference"
                        % (text, len(got), len(want))
                    )
                    self._account(outcome.stats)
        except BaseException as exc:  # re-raised by run()
            with self.lock:
                self.errors.append(exc)

    def run(self, address: tuple[str, int], clients: int) -> None:
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(address, index * 0.1),
                daemon=True,
            )
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self.errors:
            raise self.errors[0]
        assert self.completed == len(self.pool)


def run_single_arm(
    pool: list[str], truth: dict[str, list], clients: int, ads: int
) -> float:
    """Total modeled busy seconds for one process serving everything."""
    store_dir = tempfile.mkdtemp(prefix="bench-shard-single-")
    service = WebBaseService(
        WebBase.create(
            WebBaseConfig(
                seed=SEED,
                ads_per_host=ads,
                store_dir=store_dir,
                cache=CachePolicy.lru(),
            )
        ),
        ServiceConfig(port=0, queue_limit=32, workers=4),
    )
    address = service.start()
    try:
        load = _Workload(pool, truth)
        load.run(address, clients)
        return load.busy.get("single", 0.0)
    finally:
        service.shutdown()
        shutil.rmtree(store_dir, ignore_errors=True)


def run_cluster_arm(
    cluster: LocalCluster,
    pool: list[str],
    truth: dict[str, list],
    clients: int,
) -> tuple[dict[str, float], int]:
    """Per-shard modeled busy seconds + spill count on the live cluster."""
    load = _Workload(pool, truth)
    load.run(cluster.address, clients)
    return dict(load.busy), load.spills


def run_failover_arm(
    cluster: LocalCluster,
    reference: WebBase,
    pool: list[str],
    truth: dict[str, list],
) -> dict:
    """Kill the shard holding a standing query while queries are in
    flight: every query must still complete byte-identically (takeover +
    retry) and the subscriber must converge on the post-mutation truth
    with zero lost deltas."""
    router = cluster.router
    with ServiceClient(*cluster.address, timeout=600.0) as client:
        subscription = client.subscribe(STANDING_QUERY, page_size=200)
        assert subscription.rows == set(truth[STANDING_QUERY])
        deadline = time.monotonic() + 10.0
        while not router._relays and time.monotonic() < deadline:
            time.sleep(0.02)  # the relay registers just after the ack
        victim = router._relays[0].shard_id

        load = _Workload(pool, truth)
        threads = [
            threading.Thread(
                target=load._client_loop, args=(cluster.address,), daemon=True
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.2)  # let a burst get in flight, then pull the plug
        cluster.kill_worker(victim)
        for thread in threads:
            thread.join()
        if load.errors:
            raise load.errors[0]
        assert load.completed == len(pool), (
            "lost %d in-flight queries to the takeover"
            % (len(pool) - load.completed)
        )

        # World churn across the takeover window.
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
        expected = set(
            sorted(set(reference.query(STANDING_QUERY).rows))
        )
        for _ in range(20):
            if subscription.rows == expected:
                break
            if client.next_delta(subscription, timeout=10.0) is None:
                break
        assert subscription.rows == expected, (
            "standing query lost deltas across the takeover"
        )
        client.unsubscribe(subscription)

    counters = router.metrics.snapshot()["counters"]
    assert counters.get("cluster.worker_deaths", 0) >= 1
    assert counters.get("cluster.takeovers", 0) >= 1
    assert counters.get("cluster.relay_resumes", 0) >= 1
    return {
        "queries_completed": len(pool),
        "victim": victim,
        "worker_deaths": counters.get("cluster.worker_deaths", 0),
        "takeovers": counters.get("cluster.takeovers", 0),
        "relay_resumes": counters.get("cluster.relay_resumes", 0),
        "standing_rows_converged": True,
    }


def run_bench(
    makes: list[str] = MAKES,
    clients: int = CLIENTS,
    ads: int = ADS_PER_HOST,
    failover: bool = True,
) -> dict:
    pool = build_pool(makes)
    print(
        "shard routing bench — %d clients, %d queries, 3 workers, "
        "ads_per_host=%d" % (clients, len(pool), ads)
    )
    reference = WebBase.create(
        WebBaseConfig(seed=SEED, ads_per_host=ads, cache=CachePolicy.noop())
    )
    truth = reference_rows(reference, pool)

    single_busy = run_single_arm(pool, truth, clients, ads)
    print("  single process: %.1f modeled busy seconds" % single_busy)

    store_root = tempfile.mkdtemp(prefix="bench-shard-cluster-")
    cluster = LocalCluster(
        ClusterConfig(
            store_root=store_root,
            shards=3,
            seed=SEED,
            ads_per_host=ads,
            worker_queue_limit=32,
            worker_threads=4,
            forward_timeout_seconds=600.0,
        )
    )
    cluster.start()
    try:
        shard_busy, spills = run_cluster_arm(cluster, pool, truth, clients)
        makespan = max(shard_busy.values())
        speedup = single_busy / makespan
        with ServiceClient(*cluster.address, timeout=60.0) as admin:
            merged_counters = admin.metrics()["counters"]
        fed_stats = {
            "entries": cluster.router.federation_server.cache.stats()[
                "entries"
            ],
            "hits": merged_counters.get("cluster.fed_hits", 0),
            "misses": merged_counters.get("cluster.fed_misses", 0),
        }
        for shard in sorted(shard_busy):
            print(
                "  %-8s %6.1f modeled busy seconds" % (shard, shard_busy[shard])
            )
        print(
            "  cluster makespan %.1fs -> %.2fx speedup (%d spills, "
            "%d federation hits)"
            % (makespan, speedup, spills, fed_stats.get("hits", 0))
        )
        failover_report = None
        if failover:
            failover_report = run_failover_arm(cluster, reference, pool, truth)
            print(
                "  failover: killed %s, %d/%d queries completed, "
                "%d takeover(s), standing query converged"
                % (
                    failover_report["victim"],
                    failover_report["queries_completed"],
                    len(pool),
                    failover_report["takeovers"],
                )
            )
    finally:
        cluster.stop()
        shutil.rmtree(store_root, ignore_errors=True)

    payload = {
        "ads_per_host": ads,
        "seed": SEED,
        "clients": clients,
        "queries": len(pool),
        "single_busy_seconds": round(single_busy, 2),
        "cluster": {
            "shards": 3,
            "shard_busy_seconds": {
                shard: round(busy, 2)
                for shard, busy in sorted(shard_busy.items())
            },
            "makespan_seconds": round(makespan, 2),
            "spills": spills,
            "federation": fed_stats,
        },
        "speedup": round(speedup, 2),
    }
    if failover_report is not None:
        payload["failover"] = failover_report
    return payload


def run_smoke() -> dict:
    """The CI-sized run: fewer makes, lighter world, same contracts."""
    payload = run_bench(makes=MAKES[:3], clients=8, ads=16)
    assert payload["speedup"] >= SMOKE_SPEEDUP_FLOOR, (
        "smoke speedup %.2fx below %.1fx"
        % (payload["speedup"], SMOKE_SPEEDUP_FLOOR)
    )
    print("  ok: %.2fx modeled speedup (smoke)" % payload["speedup"])
    return payload


# -- pytest entry point ------------------------------------------------------


def test_cluster_halves_modeled_makespan():
    """16 clients on 3 workers: modeled makespan at least halves vs one
    process, rows stay byte-identical, takeover loses nothing, and the
    committed baseline's speedup regresses at most 10%."""
    payload = run_bench()
    assert payload["speedup"] >= SPEEDUP_FLOOR, (
        "cluster speedup %.2fx below the %.1fx acceptance floor"
        % (payload["speedup"], SPEEDUP_FLOOR)
    )
    baseline = emit.load_baseline("shard_routing")
    if baseline is not None:
        floor = baseline["speedup"] * REGRESSION_HEADROOM
        assert payload["speedup"] >= floor, (
            "speedup %.2fx regressed beyond 10%% of the committed "
            "baseline (%.2fx, floor %.2fx)"
            % (payload["speedup"], baseline["speedup"], floor)
        )
    path = emit.emit("shard_routing", payload)
    print("  wrote %s (%.2fx speedup)" % (path, payload["speedup"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced workload, no emit — correctness + failover + a "
        "relaxed speedup floor",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        run_smoke()
    else:
        test_cluster_halves_modeled_makespan()
    return 0


if __name__ == "__main__":
    sys.exit(main())
