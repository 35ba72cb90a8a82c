"""Ablation A2 — result caching at the VPS layer.

The paper names caching (with parallelization) as the other key technique
for acceptable response times.  We run the same UR query against a cold
and a warm cache and compare pages fetched and network seconds.

The staleness arm measures the cache *under churn*: one site mutates
mid-workload, a maintenance sweep invalidates exactly that host, and the
warm pass must stay byte-identical to a cold evaluation of the mutated
world while keeping most of its fetch savings on the unaffected sites.
"""

from __future__ import annotations

from repro.core.execution import WebBaseConfig
from repro.core.parallel import cached_site_query
from repro.core.stats import primary_relation, site_given
from repro.core.webbase import WebBase
from repro.sites.world import TIMING_TABLE_HOSTS, build_world, mutate_site_listings
from repro.vps.cache import CachePolicy

QUERY = "SELECT make, model, year, price, contact WHERE make = 'jaguar'"


def test_ablation_caching(benchmark):
    webbase = WebBase.create(WebBaseConfig(cache=CachePolicy.lru()))
    server = webbase.world.server

    # Cold run: populate the cache.
    pages_before = sum(s.pages_ok for s in server.stats.values())
    cold_ctx = webbase.execution_context()
    cold = webbase.query(QUERY, context=cold_ctx)
    cold_pages = sum(s.pages_ok for s in server.stats.values()) - pages_before
    cold_network = cold_ctx.network_seconds_total

    # Warm runs: everything served from the cache.
    pages_before = sum(s.pages_ok for s in server.stats.values())
    warm = benchmark(webbase.query, QUERY)
    warm_pages = sum(s.pages_ok for s in server.stats.values()) - pages_before

    print("\nAblation — VPS result cache (query: %s)" % QUERY)
    print("  cold: %4d pages fetched, %6.2fs simulated network" % (cold_pages, cold_network))
    print("  warm: %4d pages fetched  (cache: %s)" % (warm_pages, webbase.cache.stats))

    assert warm == cold
    assert cold_pages > 0
    assert warm_pages == 0  # not a single page re-fetched
    assert webbase.cache.hits > 0


def test_ablation_cache_staleness(benchmark):
    """Site churn mid-workload: invalidation keeps the warm cache honest
    (byte-identical to a cold evaluation of the mutated world) while
    retaining at least half of the full-warm fetch savings."""
    world = build_world()
    cached_wb = WebBase(world, WebBaseConfig(cache=CachePolicy.lru()))
    cold_wb = WebBase(world, WebBaseConfig(cache=CachePolicy.noop()))
    server = world.server
    site_query = {"make": "ford", "model": "escort"}
    mutated_host = "www.newsday.com"

    def pages_total() -> int:
        return sum(s.pages_ok for s in server.stats.values())

    # Cold pass over the ten timing-table sites populates the cache.
    before = pages_total()
    cold_outcome = cached_site_query(cached_wb, site_query)
    cold_pages = pages_total() - before

    # One site churns (new matching ads + a detectable structural change);
    # the maintenance sweep absorbs it and invalidates only that host.
    mutate_site_listings(world, mutated_host, change="auto")
    assert mutated_host in cached_wb.run_maintenance()

    before = pages_total()
    warm_outcome = cached_site_query(cached_wb, site_query)
    warm_pages = pages_total() - before

    # Honesty: every site's warm answer is byte-identical to the cold
    # evaluation of the *mutated* world — including the changed host.
    for host in TIMING_TABLE_HOSTS:
        relation = primary_relation(cached_wb, host)
        given = site_given(cached_wb, relation, site_query)
        assert cached_wb.cache.fetch(relation, dict(given)) == cold_wb.vps.fetch(
            relation, dict(given)
        ), "stale answer served for %s after invalidation" % host

    print("\nAblation — cache staleness arm (per-site query: %r)" % site_query)
    print("  cold:               %4d pages fetched" % cold_pages)
    print("  warm after churn:   %4d pages fetched  (only %s refetched)"
          % (warm_pages, mutated_host))
    print("  cache: %s" % cached_wb.cache.stats)

    # The mutation posted new matching ads; the warm pass must see them.
    assert (
        warm_outcome.rows_by_host[mutated_host]
        > cold_outcome.rows_by_host[mutated_host]
    )
    # Efficiency: unaffected relations stayed warm, so the pass keeps at
    # least 50% of the full-warm savings (full-warm refetches 0 pages).
    assert cold_pages > 0
    assert warm_pages <= cold_pages * 0.5

    # Steady state after the sweep: fully warm again.
    outcome = benchmark(cached_site_query, cached_wb, site_query)
    assert outcome.rows_by_host == warm_outcome.rows_by_host
