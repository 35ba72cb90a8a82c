"""The metrics registry: primitive semantics, thread-safety, reconciliation.

The registry is the cache/engine's flight recorder; these tests pin the
primitives (counters monotone, gauges settable, histograms summarizing),
prove the registry safe under concurrent threads, and close the
loop end-to-end: every fetch request a workload makes is accounted for
exactly once across the cache-serve and live-fetch counters, and the
registry agrees with the trace spans span-for-span.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.execution import WebBaseConfig
from repro.core.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.core.parallel import cached_site_query
from repro.core.webbase import WebBase
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.vps.cache import CachePolicy, ResultCache


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("n")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7


class TestHistogram:
    def test_summary(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["sum"] == pytest.approx(6.0)
        assert s["min"] == pytest.approx(1.0)
        assert s["max"] == pytest.approx(3.0)
        assert s["mean"] == pytest.approx(2.0)

    def test_empty_summary(self):
        assert Histogram("lat").summary()["count"] == 0


class TestHistogramPercentiles:
    """Tail latency via reservoir sampling: deterministic (fixed-seed
    Vitter R), exact while the sample fits the reservoir, bounded and sane
    far beyond it."""

    def test_exact_below_reservoir_size(self):
        h = Histogram("lat")
        for v in range(1, 101):  # 1..100, well inside the reservoir
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50.0)
        assert h.percentile(95) == pytest.approx(95.0)
        assert h.percentile(99) == pytest.approx(99.0)
        assert h.percentile(100) == pytest.approx(100.0)

    def test_order_independent(self):
        forward, backward = Histogram("f"), Histogram("b")
        for v in range(1, 51):
            forward.observe(float(v))
            backward.observe(float(51 - v))
        assert forward.percentile(95) == backward.percentile(95)

    def test_summary_and_render_carry_percentiles(self):
        h = Histogram("lat")
        for v in (0.1, 0.2, 0.3, 0.4):
            h.observe(v)
        s = h.summary()
        assert s["p50"] == pytest.approx(0.2)
        assert s["p95"] == pytest.approx(0.4)
        assert s["p99"] == pytest.approx(0.4)
        reg = MetricsRegistry()
        reg.histogram("lat").observe(1.0)
        assert "p95" in reg.render()

    def test_empty_percentile_is_zero(self):
        h = Histogram("lat")
        assert h.percentile(95) == 0.0
        assert h.summary()["p99"] == 0.0

    def test_reservoir_bounds_memory_and_stays_representative(self):
        h = Histogram("lat")
        for v in range(50_000):  # uniform 0..49999, 24x the reservoir
            h.observe(float(v))
        assert len(h._samples) == h.RESERVOIR  # noqa: SLF001 - bounded memory
        assert h.summary()["count"] == 50_000
        # Fixed-seed sampling: representative within a loose tolerance.
        assert abs(h.percentile(50) - 25_000) < 5_000
        assert h.percentile(99) > 40_000

    def test_deterministic_across_instances(self):
        a, b = Histogram("a"), Histogram("b")
        for v in range(10_000):
            a.observe(float(v))
            b.observe(float(v))
        assert a.percentile(95) == b.percentile(95)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_collision_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(Exception):
            reg.gauge("x")

    def test_value_and_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(7)
        reg.histogram("h").observe(1.5)
        assert reg.value("c") == 3
        assert reg.value("missing") == 0
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 7}
        assert snap["histograms"]["h"]["count"] == 1

    def test_render_mentions_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("cache.hits").inc(2)
        reg.histogram("engine.fetch_seconds").observe(0.25)
        text = reg.render()
        assert "cache.hits" in text
        assert "engine.fetch_seconds" in text


class TestThreadSafety:
    def test_concurrent_increments_are_lossless(self):
        reg = MetricsRegistry()
        counter = reg.counter("n")
        hist = reg.histogram("h")
        workers, per_worker = 8, 2000

        def spin():
            for _ in range(per_worker):
                counter.inc()
                hist.observe(1.0)

        threads = [threading.Thread(target=spin) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == workers * per_worker
        assert hist.summary()["count"] == workers * per_worker

    def test_lossless_under_the_engine_worker_pool(self):
        """A shared engine context fanning repeated fetches of distinct
        relations out: every request is counted exactly once."""
        webbase = WebBase.create(WebBaseConfig(cache=CachePolicy.lru()))
        ctx = webbase.execution_context(max_workers=8)
        jobs = [
            ("newsday", {"make": "saab"}),
            ("newsday", {"make": "honda"}),
            ("newsday", {"make": "bmw"}),
            ("autoweb", {"make": "saab"}),
            ("autoweb", {"make": "honda"}),
        ]
        ctx.map(
            lambda job: webbase.cache.fetch(job[0], dict(job[1]), context=ctx),
            jobs * 2,
        )
        m = webbase.metrics
        assert m.value("cache.misses") == len(jobs)
        assert m.value("cache.requests") == len(jobs) * 2
        assert m.value("cache.hits") == len(jobs)  # some coalesced, some stored
        assert m.value("cache.coalesced") <= m.value("cache.hits")
        assert m.value("engine.fetches") == len(jobs)


class _GatedInner:
    """A Catalog test double whose fetch blocks on a gate — lets a test park
    every coalesced waiter behind one in-flight upstream fetch, then release
    them all at a chosen moment."""

    def __init__(self, gate: threading.Event, fail_first: bool = False) -> None:
        self.gate = gate
        self.fail_first = fail_first
        self.calls = 0
        self._lock = threading.Lock()

    def fetch(self, name, given, context=None):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
        assert self.gate.wait(timeout=5.0), "test gate never opened"
        if first and self.fail_first:
            raise RuntimeError("transient upstream failure")
        return Relation(Schema(("a",)), [("v",)])


class TestSingleFlightMissAccounting:
    """The single-flight invariant: one miss per *upstream fetch*, never one
    per waiter.  N concurrent requests for a cold key must count exactly one
    miss (the flight leader's) and N-1 hits, however many workers coalesce."""

    WORKERS = 8

    def _race(self, fail_first: bool):
        gate = threading.Event()
        inner = _GatedInner(gate, fail_first=fail_first)
        metrics = MetricsRegistry()
        cache = ResultCache(inner, CachePolicy.lru(), metrics=metrics)
        results: list[Relation] = []
        errors: list[BaseException] = []

        def fetch():
            try:
                results.append(cache.fetch("r", {"k": "v"}))
            except BaseException as exc:  # pragma: no cover - test failure path
                errors.append(exc)

        threads = [threading.Thread(target=fetch) for _ in range(self.WORKERS)]
        for t in threads:
            t.start()
        # Wait until every non-leader has parked behind the flight, so the
        # miss/hit split is deterministic, then open the gate.
        deadline = time.time() + 5.0
        while (
            metrics.value("cache.coalesced") < self.WORKERS - 1
            and time.time() < deadline
        ):
            time.sleep(0.001)
        assert metrics.value("cache.coalesced") == self.WORKERS - 1
        gate.set()
        for t in threads:
            t.join(timeout=5.0)
        assert all(sorted(r.rows) == [("v",)] for r in results)
        return inner, metrics, results, errors

    def test_coalesced_waiters_count_hits_not_misses(self):
        inner, metrics, results, errors = self._race(fail_first=False)
        assert not errors
        assert len(results) == self.WORKERS
        assert inner.calls == 1  # one upstream fetch total
        assert metrics.value("cache.misses") == 1
        assert metrics.value("cache.hits") == self.WORKERS - 1
        assert metrics.value("cache.requests") == self.WORKERS

    def test_failed_leader_promotes_one_waiter_one_extra_miss(self):
        """A failed flight is never shared: the error raises to the leader's
        own caller, exactly one waiter retries as the new leader — a second
        upstream fetch, hence a second miss — and the rest still count hits."""
        inner, metrics, results, errors = self._race(fail_first=True)
        assert [type(e) for e in errors] == [RuntimeError]  # the failed leader
        assert len(results) == self.WORKERS - 1
        assert inner.calls == 2  # failed flight + the promoted waiter's retry
        assert metrics.value("cache.misses") == 2
        assert metrics.value("cache.hits") == self.WORKERS - 2
        assert metrics.value("cache.requests") == self.WORKERS


class TestReconciliation:
    def test_every_fetch_request_accounted_once(self):
        """hits + stale serves + context-cache hits + live fetches ==
        fetch spans, and the hit/miss split matches span flags exactly."""
        webbase = WebBase.create(WebBaseConfig(cache=CachePolicy.lru()))
        contexts = []
        for run in range(2):
            outcome = cached_site_query(webbase, label="recon-%d" % run)
            contexts.append(outcome.context)
        spans = [s for ctx in contexts for s in ctx.root.spans("fetch")]
        m = webbase.metrics
        served = (
            m.value("cache.hits")
            + m.value("cache.stale_serves")
            + m.value("engine.context_cache_hits")
        )
        fetched = m.value("engine.fetches")
        assert served == sum(1 for s in spans if s.cache in ("hit", "stale"))
        assert fetched == sum(1 for s in spans if s.cache == "miss")
        assert served + fetched == len(spans)
        # Second pass was fully warm: ten hits, no new live fetches.
        assert m.value("cache.hits") == 10
        assert m.value("cache.misses") == 10
        assert m.value("engine.fetch_attempts") >= m.value("engine.fetches")
        assert m.histogram("engine.fetch_seconds").summary()["count"] == fetched

    def test_cli_metrics_command_reconciles(self, capsys):
        from repro.cli import main

        assert main(["metrics", "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        assert "cache.hits" in out
