"""Stress: many threads querying one shared WebBase concurrently.

The service hands one ``WebBase`` — one cross-query cache, one metrics
registry — to every client thread at once.  That is only sound if the
shared structures hold up under contention: single-flight coalescing must
keep the "one miss per unique upstream fetch" invariant (no duplicate
live fetches for the same key), the answers must be byte-identical to a
sequential run, and no metric increment may be lost to a race.
"""

from __future__ import annotations

import threading

from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.vps.cache import CachePolicy

THREADS = 8

WORKLOAD = [
    "SELECT make, model, price WHERE make = 'saab'",
    "SELECT make, model, price WHERE make = 'honda'",
    "SELECT make, model, year, price, contact WHERE make = 'ford' AND model = 'escort'",
    "SELECT make, model, rate WHERE make = 'honda' AND duration = 36",
]


def _fresh_webbase() -> WebBase:
    return WebBase.create(WebBaseConfig(cache=CachePolicy.lru()))


def _run_workload(webbase: WebBase) -> dict[str, list[tuple]]:
    return {text: sorted(webbase.query(text).rows) for text in WORKLOAD}


def _counters(webbase: WebBase) -> dict[str, float]:
    return dict(webbase.metrics.snapshot()["counters"])


def test_concurrent_queries_share_one_cache_without_duplicate_fetches():
    # The sequential run establishes ground truth: per-workload answers and
    # the exact number of cache misses / live fetches one pass costs.
    sequential = _fresh_webbase()
    expected = _run_workload(sequential)
    base = _counters(sequential)
    base_requests = base["cache.requests"]
    base_misses = base["cache.misses"]
    base_fetches = base["engine.fetches"]
    assert base_misses > 0 and base_fetches > 0

    shared = _fresh_webbase()
    barrier = threading.Barrier(THREADS)
    results: list[dict[str, list[tuple]] | None] = [None] * THREADS
    errors: list[BaseException] = []

    def drive(index: int) -> None:
        try:
            barrier.wait()
            results[index] = _run_workload(shared)
        except BaseException as exc:  # noqa: BLE001 - reraised below
            errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=(i,), daemon=True)
        for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not errors, "concurrent query raised: %r" % errors[:1]

    # Every thread sees exactly the sequential answers.
    for result in results:
        assert result == expected

    after = _counters(shared)
    # No lost increments: all T*R lookups are accounted for...
    assert after["cache.requests"] == THREADS * base_requests
    # ...and single-flight collapsed them to ONE miss (and one live fetch)
    # per unique upstream key — the same counts as a single sequential pass,
    # despite 8x the traffic.
    assert after["cache.misses"] == base_misses
    assert after["engine.fetches"] == base_fetches
    assert (
        after["cache.hits"] + after.get("cache.stale_serves", 0)
        == THREADS * base_requests - base_misses
    )


def test_concurrent_contexts_keep_metrics_consistent():
    """Counter arithmetic must reconcile exactly after a concurrent burst:
    every fetch attempt is a fetch or a retry, every request a hit or miss."""
    shared = _fresh_webbase()
    barrier = threading.Barrier(THREADS)
    errors: list[BaseException] = []

    def drive(index: int) -> None:
        try:
            barrier.wait()
            shared.query(WORKLOAD[index % len(WORKLOAD)])
        except BaseException as exc:  # noqa: BLE001 - reraised below
            errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=(i,), daemon=True)
        for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not errors

    after = _counters(shared)
    assert (
        after["cache.hits"]
        + after["cache.misses"]
        + after.get("cache.stale_serves", 0)
        == after["cache.requests"]
    )
    assert after["engine.fetch_attempts"] == after["engine.fetches"] + after.get(
        "engine.retries", 0
    )
