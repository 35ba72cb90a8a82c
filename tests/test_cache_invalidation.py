"""Staleness-aware cross-query caching: TTLs, revision stamps, quarantine.

The contract under test: a TTL/invalidation-enabled cache over a *churning*
simulated Web answers every query byte-identically to a cold (no-op policy)
evaluation, provided maintenance sweeps run after mutations — and when the
policy chooses to serve quarantined entries, they are always explicitly
flagged stale, never passed off as fresh.
"""

from __future__ import annotations

import random

import pytest

from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.sites.world import build_world, mutate_site_listings
from repro.vps.cache import CachePolicy, ResultCache

MUTABLE_HOSTS = ["www.newsday.com", "www.autoweb.com"]
RELATION_OF = {"www.newsday.com": "newsday", "www.autoweb.com": "autoweb"}
QUERIES = [
    ("newsday", {"make": "ford", "model": "escort"}),
    ("newsday", {"make": "jaguar"}),
    ("autoweb", {"make": "ford", "model": "escort"}),
    ("autoweb", {"make": "saab"}),
]


def _pair_over_shared_world():
    """A caching webbase and a cold (no-op policy) webbase on ONE world, so
    both see the same site churn; the cold one is the ground truth."""
    world = build_world()
    cached = WebBase(world, WebBaseConfig(cache=CachePolicy.lru()))
    cold = WebBase(world, WebBaseConfig(cache=CachePolicy.noop()))
    return world, cached, cold


class TestSeededChurnProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cached_equals_cold_under_any_mutation_schedule(self, seed):
        """Property: for a seeded interleaving of site mutations (auto and
        manual structural changes plus new listings) and queries, with a
        maintenance sweep after each mutation, every cached answer is
        byte-identical to the cold evaluation."""
        world, cached, cold = _pair_over_shared_world()
        rng = random.Random(seed)
        mutations = 0
        comparisons = 0
        for step in range(12):
            action = rng.random()
            if action < 0.3:
                host = rng.choice(MUTABLE_HOSTS)
                change = "auto" if rng.random() < 0.7 else "manual"
                mutate_site_listings(
                    world, host, count=rng.randint(1, 3), seed=step, change=change
                )
                cached.run_maintenance()
                mutations += 1
                continue
            relation, given = rng.choice(QUERIES)
            warm = cached.fetch_vps(relation, dict(given))
            fresh = cold.fetch_vps(relation, dict(given))
            assert warm == fresh, (
                "seed %d step %d: cached answer diverged from cold for %s %r"
                % (seed, step, relation, given)
            )
            comparisons += 1
        assert comparisons > 0
        # The cache must actually have been exercised, not bypassed.
        assert cached.cache.stats["misses"] > 0

    def test_mutation_without_maintenance_is_the_hazard(self):
        """Negative control: skip the maintenance sweep and the warm cache
        *does* serve the pre-change answer — the exact silent-staleness
        hazard the revision machinery exists to close."""
        world, cached, cold = _pair_over_shared_world()
        relation, given = "newsday", {"make": "ford", "model": "escort"}
        cached.fetch_vps(relation, dict(given))
        mutate_site_listings(world, "www.newsday.com", change="auto")
        stale = cached.fetch_vps(relation, dict(given))
        fresh = cold.fetch_vps(relation, dict(given))
        assert stale != fresh  # the hazard, pinned
        cached.run_maintenance()
        assert cached.fetch_vps(relation, dict(given)) == fresh  # and its fix


class TestRevisionInvalidation:
    def test_auto_change_bumps_revision_and_evicts_host_only(self):
        world, cached, _ = _pair_over_shared_world()
        cached.fetch_vps("newsday", {"make": "saab"})
        cached.fetch_vps("autoweb", {"make": "saab"})
        assert cached.cache.stats["entries"] == 2
        mutate_site_listings(world, "www.newsday.com", change="auto")
        reports = cached.run_maintenance()
        assert "www.newsday.com" in reports
        assert cached.cache.revision("www.newsday.com") == 1
        assert cached.cache.revision("www.autoweb.com") == 0
        # Only the mutated host's entry went; the other still serves hits.
        assert cached.cache.stats["entries"] == 1
        assert cached.cache.stats["invalidations"] == 1
        before = cached.cache.stats["hits"]
        cached.fetch_vps("autoweb", {"make": "saab"})
        assert cached.cache.stats["hits"] == before + 1

    def test_no_stale_serve_after_auto_absorption(self):
        """After an auto-absorbed change, the next fetch of the affected
        relation is a recorded miss (live refetch) — a stale entry is never
        served, flagged or otherwise, because it no longer exists."""
        world, cached, cold = _pair_over_shared_world()
        cached.fetch_vps("newsday", {"make": "ford", "model": "escort"})
        mutate_site_listings(world, "www.newsday.com", change="auto")
        cached.run_maintenance()
        ctx = cached.execution_context()
        refreshed = cached.fetch_vps(
            "newsday", {"make": "ford", "model": "escort"}, context=ctx
        )
        spans = ctx.root.spans("fetch")
        assert [s.cache for s in spans] == ["miss"]
        assert cached.cache.stats["stale_serves"] == 0
        assert refreshed == cold.fetch_vps("newsday", {"make": "ford", "model": "escort"})

    def test_second_sweep_after_absorption_is_clean(self):
        world, cached, _ = _pair_over_shared_world()
        mutate_site_listings(world, "www.newsday.com", change="auto")
        assert cached.run_maintenance()
        assert cached.run_maintenance() == {}  # change absorbed into the map


class TestQuarantine:
    def test_manual_change_quarantines_and_refetch_mode_bypasses(self):
        world, cached, cold = _pair_over_shared_world()
        given = {"make": "ford", "model": "escort"}
        cached.fetch_vps("newsday", dict(given))
        mutate_site_listings(world, "www.newsday.com", change="manual", count=1)
        cached.run_maintenance()
        assert cached.cache.quarantined_hosts() == frozenset({"www.newsday.com"})
        # refetch mode: the cache steps aside; whatever the (possibly
        # broken) live flow returns, it matches the cold evaluation.
        warm = cached.fetch_vps("newsday", dict(given))
        assert warm == cold.fetch_vps("newsday", dict(given))
        assert cached.cache.metrics.value("cache.quarantine_bypass") >= 1
        assert cached.cache.stats["stale_serves"] == 0

    def test_serve_stale_mode_flags_every_quarantined_serve(self):
        world = build_world()
        cached = WebBase(
            world, WebBaseConfig(cache=CachePolicy.lru(stale_mode="serve_stale"))
        )
        given = {"make": "ford", "model": "escort"}
        warm = cached.fetch_vps("newsday", dict(given))
        mutate_site_listings(world, "www.newsday.com", change="manual", count=1)
        cached.run_maintenance()
        ctx = cached.execution_context()
        served = cached.fetch_vps("newsday", dict(given), context=ctx)
        assert served == warm  # the pre-change answer ...
        spans = ctx.root.spans("fetch")
        assert [s.cache for s in spans] == ["stale"]  # ... explicitly flagged
        assert cached.cache.stats["stale_serves"] == 1

    def test_clear_quarantine_evicts_and_recovers(self):
        world = build_world()
        cached = WebBase(
            world, WebBaseConfig(cache=CachePolicy.lru(stale_mode="serve_stale"))
        )
        given = {"make": "saab"}
        cached.fetch_vps("newsday", dict(given))
        mutate_site_listings(world, "www.newsday.com", change="manual", count=1)
        cached.run_maintenance()
        removed = cached.cache.clear_quarantine("www.newsday.com")
        assert removed == 1
        assert cached.cache.quarantined_hosts() == frozenset()


class TestTtl:
    def _cache_with_clock(self, webbase, policy):
        now = [0.0]
        cache = ResultCache(webbase.vps, policy, clock=lambda: now[0])
        return cache, now

    def test_entries_expire_after_default_ttl(self, webbase):
        cache, now = self._cache_with_clock(webbase, CachePolicy.lru(ttl_seconds=30.0))
        cache.fetch("newsday", {"make": "saab"})
        now[0] = 29.9
        cache.fetch("newsday", {"make": "saab"})
        assert cache.stats["hits"] == 1
        now[0] = 30.0
        cache.fetch("newsday", {"make": "saab"})
        assert cache.stats["misses"] == 2
        assert cache.stats["expirations"] == 1

    def test_no_ttl_never_expires(self, webbase):
        cache, now = self._cache_with_clock(webbase, CachePolicy.lru())
        cache.fetch("newsday", {"make": "saab"})
        now[0] = 10.0**9
        cache.fetch("newsday", {"make": "saab"})
        assert cache.stats == dict(cache.stats, hits=1, expirations=0)


class TestSingleFlight:
    def test_concurrent_misses_coalesce_into_one_fetch(self):
        """Two (here: six) workers missing on the same (relation, bindings)
        key must produce exactly one upstream fetch."""
        webbase = WebBase.create(WebBaseConfig(cache=CachePolicy.lru()))
        server = webbase.world.server
        pages_before = sum(s.pages_ok for s in server.stats.values())
        ctx = webbase.execution_context(max_workers=6)
        results = ctx.map(
            lambda _: webbase.cache.fetch("newsday", {"make": "saab"}, context=ctx),
            range(6),
        )
        assert all(r == results[0] for r in results)
        assert ctx.fetches == 1  # one engine fetch, ever
        assert webbase.cache.stats["misses"] == 1
        # Every non-leader counts a hit (a parked waiter counts in
        # ``coalesced`` *as well* — how many park is a timing accident).
        assert webbase.cache.stats["hits"] == 5
        assert webbase.cache.stats["coalesced"] <= 5
        # The live site only paid for one flow's worth of pages.
        pages_spent = sum(s.pages_ok for s in server.stats.values()) - pages_before
        assert pages_spent == ctx.pages_by_host["www.newsday.com"]

    def test_per_context_dedup_without_cross_query_cache(self):
        """The engine context coalesces too, even with the no-op policy."""
        webbase = WebBase.create()  # cache disabled
        ctx = webbase.execution_context(max_workers=4)
        results = ctx.map(
            lambda _: webbase.fetch_vps("newsday", {"make": "honda"}, context=ctx),
            range(4),
        )
        assert all(r == results[0] for r in results)
        assert ctx.fetches == 1
        spans = ctx.root.spans("fetch")
        assert sum(1 for s in spans if s.cache == "miss") == 1
        assert sum(1 for s in spans if s.cache == "hit") == len(spans) - 1
