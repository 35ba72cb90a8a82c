"""Binding-batched navigation: the prefix page cache, its revision-stamped
invalidation, the page budget under replay, batch/per-binding equivalence,
and the network accounting of enumerated submissions.

The contract under test: batched navigation is a pure *cost* optimisation.
``fetch_batch`` over any binding set returns exactly the multiset union of
the per-binding ``fetch`` answers — under fault injection, with the result
cache on or off — while the query-scoped page cache never serves a page
captured under a superseded navigation-map revision.
"""

from __future__ import annotations

import random

import pytest

from repro.core.execution import RetryPolicy, WebBaseConfig
from repro.core.webbase import WebBase
from repro.navigation.executor import PageBudgetExceeded
from repro.sites.world import build_world, mutate_site_listings
from repro.vps.cache import CachePolicy
from repro.web.browser import PrefixPageCache, request_key
from repro.web.http import Request, Url
from repro.web.server import FaultPlan
from tests.conftest import derive_seeds

JAGUAR_QUERY = (
    "SELECT make, model, year, price, bb_price, safety, contact "
    "WHERE make = 'jaguar' AND year >= 1993 AND condition = 'good' "
    "AND safety IN ('good', 'excellent') AND price < bb_price"
)
PRICE_QUERY = "SELECT make, model, price WHERE make = 'ford'"


def _entry_key(host: str) -> tuple:
    return request_key(Request("GET", Url(host, "/")))


def _rows(relation) -> list[tuple]:
    return sorted(map(tuple, relation.rows))


@pytest.fixture()
def bare_webbase() -> WebBase:
    """A private webbase whose default executor the test may reconfigure."""
    return WebBase(build_world())


class TestPrefixPageCacheRevisions:
    """The cache's own stale-page guarantee, independent of the webbase."""

    def _cache(self):
        revisions = {"h.com": 0}
        return revisions, PrefixPageCache(revision_of=lambda h: revisions[h])

    def test_lookup_refuses_and_drops_superseded_entries(self):
        revisions, cache = self._cache()
        key = ("GET", "http://h.com/", ())
        missed, revision = cache.claim("h.com", key)
        assert missed is None
        page = object()
        cache.store("h.com", key, page, revision)
        assert cache.lookup("h.com", key) is page
        assert cache.claim("h.com", key) == (page, revision)
        revisions["h.com"] = 1
        assert cache.lookup("h.com", key) is None  # refused ...
        assert len(cache) == 0  # ... and dropped, not retained

    def test_page_fetched_under_an_old_revision_is_never_stored(self):
        """The revision moves while a fetch is on the wire: its page is
        the caller's answer (it was correct when asked) but never enters
        the cache."""
        revisions, cache = self._cache()
        key = ("GET", "http://h.com/", ())
        missed, revision = cache.claim("h.com", key)
        assert missed is None
        revisions["h.com"] = 1  # the map changed mid-fetch
        cache.store("h.com", key, object(), revision)
        assert cache.lookup("h.com", key) is None
        assert len(cache) == 0

    def test_failures_are_never_cached(self, bare_webbase):
        """A fetch that raises stores nothing, and the next request for the
        key navigates again instead of inheriting the failure."""
        cache = PrefixPageCache()
        browser = bare_webbase.executor.browser
        request = Request("GET", Url("www.newsday.com", "/"))

        def refuse():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            browser.request_cached(request, cache, on_live=refuse)
        assert len(cache) == 0
        page, live = browser.request_cached(request, cache)
        assert live and cache.lookup("www.newsday.com", request_key(request)) is page


class TestRevisionBumpEviction:
    def test_reconcile_bump_refuses_pre_change_pages(self):
        """The acceptance scenario: when ``reconcile_site`` absorbs a site
        change and bumps the host's revision, every prefix-cache page for
        that host is refused from then on — no stale page is ever served
        across the bump — while other hosts' pages keep serving."""
        world = build_world()
        webbase = WebBase(world)
        cold = WebBase(world)
        ctx = webbase.execution_context(label="session")
        webbase.fetch_vps("newsday", {"make": "saab"}, context=ctx)
        webbase.fetch_vps("autoweb", {"make": "saab"}, context=ctx)
        cache = ctx.page_cache
        assert cache.lookup("www.newsday.com", _entry_key("www.newsday.com"))
        assert cache.lookup("www.autoweb.com", _entry_key("www.autoweb.com"))
        newsday_keys = [
            key for (host, key) in list(cache._pages) if host == "www.newsday.com"
        ]
        assert newsday_keys

        mutate_site_listings(world, "www.newsday.com", change="auto")
        reports = webbase.run_maintenance()
        assert "www.newsday.com" in reports
        assert webbase.cache.revision("www.newsday.com") == 1

        # Every pre-bump newsday page is refused; autoweb pages survive.
        for key in newsday_keys:
            assert cache.lookup("www.newsday.com", key) is None
        assert cache.lookup("www.autoweb.com", _entry_key("www.autoweb.com"))

        # A post-bump fetch through the *same* session re-walks the live
        # site and matches a cold webbase — including the mutation's ads.
        before = world.server.stats["www.newsday.com"].requests
        given = {"make": "ford", "model": "escort"}
        refreshed = webbase.fetch_vps("newsday", dict(given), context=ctx)
        assert world.server.stats["www.newsday.com"].requests > before
        assert refreshed == cold.fetch_vps("newsday", dict(given))


class TestPageBudgetUnderReplay:
    def test_cached_pages_do_not_count_against_the_budget(self, bare_webbase):
        """Regression: the per-fetch page budget bounds *live* navigations
        only.  A fetch replayed entirely from the page cache runs under a
        budget its live walk would blow through."""
        executor = bare_webbase.executor
        executor.page_cache = PrefixPageCache()
        rows = executor.fetch("newsday", {"make": "saab"})
        live_walk = executor.pages_last_fetch
        assert live_walk > 1
        executor.max_pages_per_fetch = 1  # tighter than the walk just made
        again = executor.fetch("newsday", {"make": "saab"})
        assert again == rows
        assert executor.pages_last_fetch == 0  # fully replayed, zero live

    def test_live_walk_is_still_bounded_with_the_cache_installed(
        self, bare_webbase
    ):
        """A *cold* page cache gives no budget relief: the first live walk
        still trips the rail."""
        executor = bare_webbase.executor
        executor.page_cache = PrefixPageCache()
        executor.max_pages_per_fetch = 1
        with pytest.raises(PageBudgetExceeded):
            executor.fetch("newsday", {"make": "saab"})

    def test_budget_without_cache_unchanged(self, bare_webbase):
        executor = bare_webbase.executor
        executor.max_pages_per_fetch = 1
        with pytest.raises(PageBudgetExceeded):
            executor.fetch("newsday", {"make": "saab"})


class TestBatchEquivalenceProperty:
    """Property: ``fetch_batch(bindings)`` on the engine ≡ the per-binding
    ``fetch`` answers of the context-free walk (and hence their multiset
    union), for seeded random binding sets with duplicates, under injected
    transient faults, with the cross-query result cache on and off.  The
    reference shares no engine code: no ``ExecutionContext``, no page
    cache, a fault-free copy of the same seeded world."""

    MAKES = ["saab", "ford", "honda", "jaguar", "bmw", "toyota", "volvo"]

    def _build(self, policy: str, seed: int) -> WebBase:
        return WebBase.create(
            WebBaseConfig(
                cache=CachePolicy.lru() if policy == "lru" else CachePolicy.noop(),
                max_workers=3,
                faults=FaultPlan(seed=seed, error_rate=0.15),
                retry=RetryPolicy(max_attempts=6),
            )
        )

    @pytest.mark.parametrize("policy", ["noop", "lru"])
    @pytest.mark.parametrize("seed", derive_seeds("batch-equivalence", 3))
    def test_fetch_batch_matches_per_binding_fetch(self, seed, policy):
        rng = random.Random(seed)
        relation = rng.choice(["newsday", "autoweb"])
        givens = [
            {"make": rng.choice(self.MAKES)} for _ in range(rng.randint(3, 6))
        ]
        givens.append(dict(givens[0]))  # a guaranteed duplicate binding

        batched_wb = self._build(policy, seed)
        ctx = batched_wb.execution_context(label="batch")
        batched = batched_wb.cache.fetch_batch(
            relation, [dict(g) for g in givens], context=ctx
        )
        assert not ctx.failures

        reference = WebBase(build_world())
        singles = [reference.vps.fetch(relation, dict(g)) for g in givens]

        # Binding-for-binding identical answers ...
        assert [_rows(r) for r in batched] == [_rows(r) for r in singles]
        # ... and therefore the same multiset union.
        union_batched = sorted(t for r in batched for t in map(tuple, r.rows))
        union_single = sorted(t for r in singles for t in map(tuple, r.rows))
        assert union_batched == union_single


class TestEnumeratedSubmissions:
    def test_fetch_spans_account_for_every_network_second(self):
        """A select without an empty option is enumerated on the demand
        path, one submission per value, inside the fetch that needs it —
        the ford price query does this — so every simulated network second
        the query spends lies under some fetch span: the spans sum to the
        lanes' total.  The walk still answers what the context-free one
        does, with no more live traffic."""
        webbase = WebBase.create(WebBaseConfig(max_workers=4))
        ctx = webbase.execution_context(label="enumerate")
        answer = webbase.query(PRICE_QUERY, context=ctx)
        assert len(answer) > 0
        spans = ctx.root.spans("fetch")
        assert sum(s.network_seconds for s in spans) == pytest.approx(
            ctx.network_seconds_total, rel=1e-9
        )
        baseline = WebBase(build_world())
        assert baseline.ur.answer(PRICE_QUERY) == answer
        spent = lambda wb: sum(s.requests for s in wb.world.server.stats.values())
        assert spent(webbase) <= spent(baseline)


class TestRetryReplay:
    def test_retry_replays_cached_pages_and_succeeds(self):
        """With the page cache on, the pages a failed attempt fetched
        persist, so the retry replays them at zero network cost and
        fetches live only what attempt one never reached (a host whose
        revision moves under every read is pinned in test_faults).  The
        fault plan's seed fails attempt one after two good pages."""
        clean = WebBase.create(WebBaseConfig())
        clean_ctx = clean.execution_context()
        expected = clean.fetch_vps("nytimes", {"manufacturer": "saab"}, context=clean_ctx)
        webbase = WebBase.create(
            WebBaseConfig(
                faults=FaultPlan(seed=1, error_rate=0.3, hosts=("www.nytimes.com",))
            )
        )
        ctx = webbase.execution_context(retry=RetryPolicy(max_attempts=2))
        result = webbase.fetch_vps("nytimes", {"manufacturer": "saab"}, context=ctx)
        assert result == expected and not ctx.failures
        span = ctx.root.spans("fetch")[0]
        assert span.attrs["attempts"] == 2
        first, second = span.children
        assert first.status == "error" and "injected transient fault" in first.error
        assert first.pages > 0 and second.status == "ok"
        assert first.pages + second.pages == clean_ctx.pages_by_host["www.nytimes.com"]
        assert webbase.metrics.value("nav.prefix_hits") == first.pages


class TestBatchMetricsExposure:
    def test_query_counts_nav_metrics(self):
        webbase = WebBase.create(WebBaseConfig(max_workers=4))
        webbase.query(JAGUAR_QUERY)
        snap = webbase.metrics.snapshot()
        assert snap["counters"].get("nav.prefix_misses", 0) > 0
        batch_sizes = snap["histograms"].get("nav.batch_size", {})
        assert batch_sizes.get("count", 0) > 0
        assert batch_sizes.get("max", 0) > 1  # real multi-binding batches

    def test_cli_metrics_reports_nav_counters_and_reconciles(self, capsys):
        from repro.cli import main

        assert main(["metrics", "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        assert "nav.prefix_hits" in out
        assert "nav.prefix_misses" in out
        assert "nav.batch_size" in out
