"""Tests for the execution engine: contexts, fan-out, lanes, tracing."""

import random

import pytest

from bench.workloads import FAMILIES, MODELS

from repro.core.execution import (
    BACKOFF_FACTOR,
    BACKOFF_SECONDS,
    ExecutionContext,
    FanoutError,
    RetryPolicy,
    TraceSpan,
    WebBaseConfig,
)
from repro.core.webbase import WebBase
from repro.vps.cache import CachePolicy
from tests.conftest import repro_seed


class TestEndToEndSmoke:
    """One traced UR query through the whole engine (the CI smoke path)."""

    QUERY = "SELECT make, model, price WHERE make = 'saab'"

    def test_traced_query_under_four_workers(self, webbase):
        ctx = webbase.execution_context(max_workers=4)
        result = webbase.query(self.QUERY, context=ctx)
        assert len(result) > 0
        # The trace covers the whole plan→object→view→fetch chain.
        assert [s.kind for s in ctx.root.children] == ["query"]
        assert ctx.root.spans("plan")
        assert len(ctx.root.spans("object")) == 2  # classifieds + dealers
        assert ctx.root.spans("view")
        fetches = ctx.root.spans("fetch")
        assert fetches and all(s.children for s in fetches)  # attempt spans
        # Accounting: real Web work happened and was attributed.
        assert ctx.fetches > 0
        assert ctx.root.total_pages > 0
        assert ctx.network_seconds_total > 0
        assert sum(ctx.pages_by_host.values()) == ctx.root.total_pages
        assert ctx.elapsed_seconds <= ctx.sequential_elapsed_seconds

    def test_parallel_answer_matches_sequential(self, webbase):
        sequential = webbase.query(
            self.QUERY, context=webbase.execution_context(max_workers=1)
        )
        parallel = webbase.query(
            self.QUERY, context=webbase.execution_context(max_workers=8)
        )
        assert parallel == sequential

    def test_default_context_recorded(self, webbase):
        ctx = webbase.execution_context()
        webbase.query(self.QUERY, context=ctx)
        assert ctx is not None and ctx.fetches > 0


class TestElapsedModel:
    def test_lanes_bound_by_workers(self, webbase):
        wide = webbase.execution_context(max_workers=8)
        webbase.query("SELECT make, model, price WHERE make = 'bmw'", context=wide)
        narrow = webbase.execution_context(max_workers=1)
        webbase.query("SELECT make, model, price WHERE make = 'bmw'", context=narrow)
        # Same work either way; only the makespan model differs.
        assert wide.network_seconds_total == pytest.approx(
            narrow.network_seconds_total
        )
        assert narrow.network_seconds_critical == pytest.approx(
            narrow.network_seconds_total
        )
        assert wide.network_seconds_critical < narrow.network_seconds_critical

    def test_the_busiest_lane_is_a_function_of_the_seed(self):
        """Fan-outs run in plan order, so fetches fill the lanes in the
        same order every run: two fresh webbases agree on every cold
        query's busiest lane exactly, whatever queries the seed draws, and
        a one-lane run spends exactly the same lane sum (only the makespan
        model differs)."""
        rng = random.Random(repro_seed())
        texts = []
        for family in FAMILIES.values():
            for make in rng.sample(sorted(MODELS), 2):
                texts.append(family.template.format(make=make, model=MODELS[make][0]))

        def lanes(workers: int) -> tuple[list[float], list[float]]:
            webbase = WebBase.create(WebBaseConfig(ads_per_host=40, max_workers=workers))
            critical, total = [], []
            for text in texts:
                ctx = webbase.execution_context()
                webbase.query(text, context=ctx)
                critical.append(ctx.network_seconds_critical)
                total.append(ctx.network_seconds_total)
            return critical, total

        first, second, narrow = lanes(8), lanes(8), lanes(1)
        assert first == second
        assert narrow[0] == narrow[1]
        # Eight lane sums add the same seconds in another grouping.
        assert first[1] == pytest.approx(narrow[1], rel=1e-12)
        assert sum(first[0]) < sum(first[1])

    def test_fetch_order_does_not_depend_on_max_workers(self, webbase):
        """A probe batch fetches its distinct bindings in fetch-key order at
        any lane count: the order decides which lane a fetch lands on, so
        it is a function of the bindings, and rows and pages are too."""
        givens = [{"make": make} for make in ("ford", "toyota", "saab", "ford")]

        def run(workers: int) -> tuple[list[str], list, int]:
            relation = _Recording(webbase.vps.relations["newsday"])
            ctx = ExecutionContext(webbase.navigation_stack, max_workers=workers)
            fetched = ctx.run_fetch_batch(relation, [dict(g) for g in givens])
            return relation.seen, [r.rows for r in fetched], ctx.root.total_pages

        narrow, wide = run(1), run(8)
        assert narrow[0] == ["ford", "saab", "toyota"]
        assert wide == narrow

    def test_the_same_fetch_reports_the_same_seconds_every_time(self, webbase):
        """A fetch is measured from zero on its bundle's clock, so a
        cache-off query evaluated twice on one webbase reports exactly
        equal fetch-span seconds — not equal up to the rounding of a
        clock that kept running in between."""
        text = "SELECT make, model, price WHERE make = 'saab'"

        def fetch_seconds() -> list[tuple[str, float, float]]:
            ctx = webbase.execution_context()
            webbase.query(text, context=ctx)
            return [
                (span.name, span.network_seconds, attempt.network_seconds)
                for span in ctx.root.spans("fetch")
                for attempt in span.children
            ]

        first = fetch_seconds()
        assert first and all(seconds > 0 for _, seconds, _ in first)
        assert fetch_seconds() == first

    def test_per_context_cache_deduplicates(self, webbase):
        ctx = webbase.execution_context(max_workers=2)
        first = webbase.fetch_vps("newsday", {"make": "saab"}, context=ctx)
        again = webbase.fetch_vps("newsday", {"make": "saab"}, context=ctx)
        assert again == first
        assert ctx.fetches == 1 and ctx.cache_hits == 1
        hit_spans = [s for s in ctx.root.spans("fetch") if s.cache == "hit"]
        assert len(hit_spans) == 1 and hit_spans[0].network_seconds == 0


class TestMapFanout:
    def _context(self, webbase, workers=4):
        return ExecutionContext(webbase.navigation_stack, max_workers=workers)

    def test_preserves_order(self, webbase):
        ctx = self._context(webbase)
        assert ctx.map(lambda x: x * x, range(20)) == [x * x for x in range(20)]

    def test_single_error_reraised_as_itself(self, webbase):
        ctx = self._context(webbase)

        def boom(x):
            if x == 3:
                raise KeyError("x3")
            return x

        with pytest.raises(KeyError):
            ctx.map(boom, range(6))

    def test_multiple_errors_aggregate(self, webbase):
        ctx = self._context(webbase)

        def boom(x):
            if x % 2:
                raise ValueError("odd %d" % x)
            return x

        with pytest.raises(FanoutError) as info:
            ctx.map(boom, range(6))
        assert len(info.value.errors) == 3
        assert "3 of 6 parallel task(s) failed" in str(info.value)
        assert "odd 1" in str(info.value) and "odd 5" in str(info.value)


class TestConfig:
    def test_create_with_config(self):
        config = WebBaseConfig(
            ads_per_host=40,
            cache=CachePolicy.lru(64),
            max_workers=3,
            retry=RetryPolicy(max_attempts=2),
        )
        webbase = WebBase.create(config)
        assert webbase.config is config
        assert webbase.cache.policy.max_entries == 64
        ctx = webbase.execution_context()
        assert ctx.max_workers == 3 and ctx.retry.max_attempts == 2

    def test_config_is_the_only_construction_path(self):
        cached = WebBase.create(WebBaseConfig(ads_per_host=40, cache=CachePolicy.lru()))
        plain = WebBase.create(WebBaseConfig(ads_per_host=40))
        assert cached.config.cache.enabled
        assert not plain.config.cache.enabled
        # The no-op policy still exposes the one fetch path and its stats.
        assert plain.cache.stats["entries"] == 0
        # The pre-config boolean-flag shim is gone.
        assert not hasattr(WebBase, "build")

    def test_retry_policy_backoff_grows(self):
        policy = RetryPolicy(max_attempts=4)
        assert policy.delay_before(1) == 0.0
        assert policy.delay_before(2) == BACKOFF_SECONDS
        assert policy.delay_before(3) == BACKOFF_SECONDS * BACKOFF_FACTOR
        assert policy.delay_before(4) == BACKOFF_SECONDS * BACKOFF_FACTOR**2
        assert BACKOFF_FACTOR > 1.0


class TestTraceSpan:
    def test_render_and_walk(self):
        root = TraceSpan("query", "q")
        child = TraceSpan("fetch", "newsday", pages=2, network_seconds=1.5)
        child.attrs["attempts"] = 2
        root.children.append(child)
        assert [s.name for s in root.walk()] == ["q", "newsday"]
        assert root.total_pages == 2
        assert root.total_retries == 1
        text = root.render()
        assert "query q" in text and "2 attempts" in text and "net 1.50s" in text


class _Recording:
    """A VPS relation that records the ``make`` of every fetch, in order."""

    def __init__(self, relation) -> None:
        self._relation = relation
        self.seen: list[str] = []

    def __getattr__(self, name: str):
        return getattr(self._relation, name)

    def fetch(self, given, executor=None):
        self.seen.append(given["make"])
        return self._relation.fetch(given, executor=executor)
