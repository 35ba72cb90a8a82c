"""Fault injection and the engine's retry/partial-failure paths."""

import itertools

import pytest

from repro.core.execution import (
    ExecutionContext,
    FetchFailedError,
    FetchFailure,
    RetryPolicy,
    WebBaseConfig,
)
from repro.core.webbase import WebBase
from repro.ur.planner import PlanError
from repro.vps.cache import CachePolicy, ResultCache
from repro.web.server import FaultPlan

QUERY = "SELECT make, model, price WHERE make = 'saab'"
CLASSIFIED_HOSTS = ("www.newsday.com", "www.nytimes.com")


def _faulty_webbase(**fault_kwargs) -> WebBase:
    retry = fault_kwargs.pop("retry", RetryPolicy(max_attempts=4))
    return WebBase.create(
        WebBaseConfig(faults=FaultPlan(**fault_kwargs), retry=retry)
    )


class TestFaultPlan:
    def test_rolls_are_deterministic(self):
        plan = FaultPlan(seed=11, error_rate=0.5)
        decisions = [plan.should_fail("h.com", n) for n in range(50)]
        again = [
            FaultPlan(seed=11, error_rate=0.5).should_fail("h.com", n)
            for n in range(50)
        ]
        assert decisions == again
        assert any(decisions) and not all(decisions)

    def test_host_scoping(self):
        plan = FaultPlan(error_rate=1.0, hosts=("a.com",))
        assert plan.should_fail("a.com", 0)
        assert not plan.should_fail("b.com", 0)

    def test_server_counts_injected_faults(self, fresh_world):
        # Install after mapping-by-example so only query traffic is hit.
        webbase = WebBase(fresh_world)
        fresh_world.server.install_faults(
            FaultPlan(error_rate=1.0, max_consecutive=10**6)
        )
        with pytest.raises(PlanError):
            webbase.query(QUERY)
        assert sum(s.faults for s in fresh_world.server.stats.values()) > 0


class TestRetryRecovery:
    def test_retries_recover_byte_identical(self):
        """The acceptance scenario: a seeded fault run with retries gives
        byte-identical answers to the fault-free run, and the trace shows
        the retries that absorbed the faults."""
        clean = WebBase.create().query(QUERY)
        faulty = _faulty_webbase(error_rate=0.1)
        # One worker makes the per-host request ordinals — hence the fault
        # schedule — exactly reproducible.
        ctx = faulty.execution_context(max_workers=1)
        recovered = faulty.query(QUERY, context=ctx)
        assert recovered.rows == clean.rows  # same rows, same order
        assert ctx.retries > 0 and not ctx.failures
        retried = [s for s in ctx.root.spans("fetch") if s.attrs["attempts"] > 1]
        assert retried, "trace must record the retry spans"
        failed_attempts = [
            a for s in retried for a in s.children if a.status == "error"
        ]
        assert failed_attempts
        assert all("injected transient fault" in a.error for a in failed_attempts)

    def test_parallel_retry_recovery(self):
        clean = WebBase.create().query(QUERY)
        faulty = _faulty_webbase(error_rate=0.05, retry=RetryPolicy(max_attempts=5))
        ctx = faulty.execution_context(max_workers=4)
        assert faulty.query(QUERY, context=ctx) == clean
        assert not ctx.failures

    def test_backoff_charged_to_network_time(self):
        plain = WebBase.create()
        base_ctx = plain.execution_context()
        plain.fetch_vps("newsday", {"make": "saab"}, context=base_ctx)
        faulty = _faulty_webbase(
            error_rate=0.9, retry=RetryPolicy(max_attempts=6)
        )
        ctx = faulty.execution_context()
        try:
            faulty.fetch_vps("newsday", {"make": "saab"}, context=ctx)
        except FetchFailedError:
            pass  # at 0.9 the retries may exhaust; the charges still land
        assert ctx.retries > 0
        # Failed attempts + backoff cost strictly more simulated time.
        assert (
            ctx.network_by_host["www.newsday.com"]
            > base_ctx.network_by_host["www.newsday.com"]
        )


class TestPartialFailure:
    def test_dead_sites_degrade_to_partial_answer(self):
        """Exhausted retries on some sites produce a per-site failure
        report and a partial answer — not a whole-query abort."""
        clean = WebBase.create().query(QUERY)
        faulty = _faulty_webbase(
            error_rate=1.0, max_consecutive=10**6, hosts=CLASSIFIED_HOSTS
        )
        ctx = faulty.execution_context()
        partial = faulty.query(QUERY, context=ctx)
        assert 0 < len(partial) < len(clean)
        assert set(partial.rows) <= set(clean.rows)
        assert ctx.failures
        assert {f.host for f in ctx.failures} <= set(CLASSIFIED_HOSTS)
        assert "fetch failure(s)" in ctx.failure_report()

    def test_report_carries_partial_failures(self):
        faulty = _faulty_webbase(
            error_rate=1.0, max_consecutive=10**6, hosts=CLASSIFIED_HOSTS
        )
        report = faulty.query_report(QUERY)
        assert report.failures
        skipped = [o for o in report.objects if o.skipped]
        assert any("classifieds" in o.relations for o in skipped)
        assert "partial failure" in report.pretty()

    def test_every_site_dead_aborts_with_report(self):
        faulty = _faulty_webbase(
            error_rate=1.0, max_consecutive=10**6, retry=RetryPolicy(max_attempts=2)
        )
        with pytest.raises(PlanError) as info:
            faulty.query(QUERY)
        assert "fetch failure(s)" in str(info.value)

    def test_single_fetch_failure_surfaces(self):
        faulty = _faulty_webbase(
            error_rate=1.0, max_consecutive=10**6, retry=RetryPolicy(max_attempts=2)
        )
        ctx = faulty.execution_context()
        with pytest.raises(FetchFailedError):
            faulty.fetch_vps("newsday", {"make": "saab"}, context=ctx)
        assert ctx.failures and ctx.failures[0].attempts == 2


class TestFaultsMeetCache:
    """The fault × cache matrix: failures must never poison the cache."""

    def _caching_faulty_webbase(self, **fault_kwargs) -> WebBase:
        retry = fault_kwargs.pop("retry", RetryPolicy(max_attempts=2))
        return WebBase.create(
            WebBaseConfig(
                cache=CachePolicy.lru(),
                faults=FaultPlan(**fault_kwargs),
                retry=retry,
            )
        )

    def test_exhausted_retries_leave_no_cache_entry(self):
        webbase = self._caching_faulty_webbase(
            error_rate=1.0, max_consecutive=10**6, hosts=("www.newsday.com",)
        )
        with pytest.raises(FetchFailedError):
            webbase.fetch_vps("newsday", {"make": "saab"})
        assert webbase.cache.stats["entries"] == 0
        assert webbase.cache.stats["misses"] == 1
        # The failure is not remembered either: the next call retries the
        # live site (and fails again) instead of replaying a cached error.
        with pytest.raises(FetchFailedError):
            webbase.fetch_vps("newsday", {"make": "saab"})
        assert webbase.cache.stats["misses"] == 2

    def test_recovery_after_faults_clear(self):
        """A dead host poisons nothing: once the faults are lifted, the
        same cached webbase answers byte-identically to a clean one."""
        clean = WebBase.create().query(QUERY)
        webbase = self._caching_faulty_webbase(
            error_rate=1.0, max_consecutive=10**6, hosts=("www.newsday.com",)
        )
        report = webbase.query_report(QUERY)
        assert report.failures  # degraded while the host is down
        webbase.world.server.install_faults(None)
        recovered = webbase.query(QUERY)
        assert recovered == clean
        assert webbase.cache.stats["entries"] > 0  # now safely warm

    def test_healthy_hosts_cache_through_a_partial_outage(self):
        """Fetches that succeeded during the outage were cached and are
        served warm afterwards; only the dead host refetches."""
        webbase = self._caching_faulty_webbase(
            error_rate=1.0, max_consecutive=10**6, hosts=("www.newsday.com",)
        )
        webbase.query_report(QUERY)
        entries_during = webbase.cache.stats["entries"]
        assert entries_during > 0
        webbase.world.server.install_faults(None)
        hits_before = webbase.cache.stats["hits"]
        webbase.query(QUERY)
        assert webbase.cache.stats["hits"] > hits_before

    def test_coalesced_waiters_survive_leader_failure(self):
        """Single-flight under failure: when the leader's fetch dies, the
        waiting followers retry for themselves rather than inheriting the
        error, so one transient fault can't fan out across the pool."""
        import threading

        class FlakyCatalog:
            """First fetch blocks until followers pile up, then fails;
            every later fetch succeeds."""

            def __init__(self):
                self.calls = 0
                self.followers_waiting = threading.Event()
                self._lock = threading.Lock()

            def host_of(self, name):
                return "flaky.example"

            def fetch(self, name, given, context=None):
                with self._lock:
                    self.calls += 1
                    ordinal = self.calls
                if ordinal == 1:
                    self.followers_waiting.wait(timeout=5.0)
                    raise FetchFailedError(
                        FetchFailure(name, "flaky.example", 1, "boom")
                    )
                return ("rows", name)

        inner = FlakyCatalog()
        cache = ResultCache(inner, CachePolicy.lru())
        results, errors = [], []

        def request():
            try:
                results.append(cache.fetch("newsday", {"make": "saab"}))
            except FetchFailedError as exc:
                errors.append(exc)

        import time

        threads = [threading.Thread(target=request) for _ in range(4)]
        deadline = time.monotonic() + 5.0
        threads[0].start()
        while inner.calls == 0 and time.monotonic() < deadline:
            time.sleep(0.001)  # leader owns the flight before followers arrive
        for t in threads[1:]:
            t.start()
        while cache.stats["coalesced"] < 3 and time.monotonic() < deadline:
            time.sleep(0.001)  # all three followers queued on the flight
        inner.followers_waiting.set()
        for t in threads:
            t.join()
        assert len(errors) == 1  # only the leader saw its own failure
        assert len(results) == 3 and all(r == ("rows", "newsday") for r in results)
        # Exactly one follower re-fetched as the new leader; the other two
        # shared its result — the failure itself was never cached.
        assert inner.calls == 2
        assert cache.stats["misses"] == 2
        assert cache.stats["entries"] == 1


class TestSpikesAndTimeouts:
    def test_latency_spikes_slow_but_succeed(self):
        plain = WebBase.create()
        base_ctx = plain.execution_context()
        expected = plain.fetch_vps("newsday", {"make": "saab"}, context=base_ctx)
        spiky = WebBase.create(
            WebBaseConfig(faults=FaultPlan(spike_rate=1.0, spike_seconds=5.0))
        )
        ctx = spiky.execution_context()
        result = spiky.fetch_vps("newsday", {"make": "saab"}, context=ctx)
        assert result == expected and not ctx.failures
        pages = ctx.pages_by_host["www.newsday.com"]
        assert ctx.network_by_host["www.newsday.com"] == pytest.approx(
            base_ctx.network_by_host["www.newsday.com"] + 5.0 * pages
        )

    def test_transient_errors_exhaust_into_failure(self):
        # On a still host the retry replays attempt one's pages from the
        # query-scoped page cache for free (pinned by the batch test
        # suite).  Here the host's map revision moves under every read — a
        # site mid-change — so no page is ever kept and each attempt walks
        # live until a fault stops it.  The plan's seed puts a fault after
        # at least one good page in both attempts.
        webbase = WebBase.create(
            WebBaseConfig(
                faults=FaultPlan(seed=10, error_rate=0.3, hosts=("www.nytimes.com",))
            )
        )
        moving = itertools.count()
        ctx = ExecutionContext(
            webbase.navigation_stack,
            retry=RetryPolicy(max_attempts=2),
            metrics=webbase.metrics,
            page_revisions=lambda host: next(moving),
        )
        with pytest.raises(FetchFailedError):
            webbase.fetch_vps("nytimes", {"manufacturer": "saab"}, context=ctx)
        assert ctx.failures and ctx.failures[0].attempts == 2
        assert "injected transient fault" in ctx.failures[0].error
        attempts = [a for s in ctx.root.spans("fetch") for a in s.children]
        assert len(attempts) == 2
        assert all(a.status == "error" and a.pages > 0 for a in attempts)
        assert all("injected transient fault" in a.error for a in attempts)
        assert webbase.metrics.value("nav.prefix_hits") == 0
