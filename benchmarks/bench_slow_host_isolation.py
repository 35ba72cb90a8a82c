"""Slow-host isolation: the per-host circuit breaker's quarantine.

One host is degraded with latency spikes
(``FaultPlan(spike_rate=1.0, hosts=(slow,))``).  The slow-call breaker
trips on it and quarantines it in the result cache (``serve_stale``
degrades its answers to flagged-stale instead of waiting on the
degraded site).  Acceptance: the other
hosts' fetch p95 stays within 1.5× the healthy baseline, and the
steady-state workload elapsed (passes after the breaker opened) drops
back to within 1.5× of healthy — while the same faults with resilience
off keep paying the spike on every pass.

Results land in ``BENCH_slow_host_isolation.json`` (see ``emit.py``).
"""

from __future__ import annotations

import emit

from repro.core.execution import WebBaseConfig
from repro.core.parallel import cached_site_query
from repro.core.resilience import ResiliencePolicy
from repro.core.webbase import WebBase
from repro.vps.cache import CachePolicy
from repro.web.server import FaultPlan

SEED = 1999
SLOW_HOST = "www.newsday.com"
SPIKE_SECONDS = 6.0
PASSES = 5
ISOLATION_HEADROOM = 1.5


def _isolation_run(faults: FaultPlan | None, policy: ResiliencePolicy) -> dict:
    webbase = WebBase.create(
        WebBaseConfig(
            seed=SEED,
            ads_per_host=24,
            faults=faults,
            # TTL 0 forces live fetches every pass (so the breaker keeps
            # seeing the slow host); serve_stale lets the quarantine
            # degrade the slow host to flagged-stale answers.
            cache=CachePolicy.lru(ttl_seconds=0.0, stale_mode="serve_stale"),
            resilience=policy,
        )
    )
    elapsed: list[float] = []
    other_seconds: list[float] = []
    slow_seconds: list[float] = []
    for run in range(PASSES):
        outcome = cached_site_query(webbase, label="isolation-pass-%d" % (run + 1))
        ctx = outcome.context
        elapsed.append(ctx.elapsed_seconds)
        for span in ctx.root.spans("fetch"):
            if span.cache == "hit" or span.cache == "stale":
                continue
            bucket = (
                slow_seconds
                if span.attrs.get("host", "") == SLOW_HOST
                else other_seconds
            )
            bucket.append(span.network_seconds)
    counters = webbase.metrics.snapshot()["counters"]
    return {
        "elapsed": elapsed,
        "steady_elapsed": sum(elapsed[2:]) / len(elapsed[2:]),
        "other_p95": _p95(other_seconds),
        "slow_p95": _p95(slow_seconds) if slow_seconds else 0.0,
        "breaker_opened": int(counters.get("resilience.breaker_opened", 0)),
        "stale_serves": int(counters.get("cache.stale_serves", 0)),
        "quarantined": sorted(webbase.cache.quarantined_hosts()),
    }


def _p95(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def test_slow_host_isolation():
    spikes = FaultPlan(
        seed=7, spike_rate=1.0, spike_seconds=SPIKE_SECONDS, hosts=(SLOW_HOST,)
    )
    guarded_policy = ResiliencePolicy(failure_threshold=2, slow_seconds=10.0)
    healthy = _isolation_run(None, guarded_policy)
    guarded = _isolation_run(spikes, guarded_policy)
    unguarded = _isolation_run(spikes, ResiliencePolicy.off())

    print("\nSlow-host isolation — %s spiked +%.0fs/page for %d passes"
          % (SLOW_HOST, SPIKE_SECONDS, PASSES))
    for name, run in (("healthy", healthy), ("guarded", guarded),
                      ("unguarded", unguarded)):
        print(
            "  %-9s other-host p95 %.2fs, slow-host p95 %.2fs, "
            "steady elapsed %.2fs, breaker opened %d, stale serves %d"
            % (
                name,
                run["other_p95"],
                run["slow_p95"],
                run["steady_elapsed"],
                run["breaker_opened"],
                run["stale_serves"],
            )
        )

    # The breaker saw the slow host and quarantined it.
    assert guarded["breaker_opened"] >= 1
    assert SLOW_HOST in guarded["quarantined"]
    assert guarded["stale_serves"] > 0  # quarantine degraded to flagged-stale
    # Other hosts' fetch latency is unaffected by the degraded host.
    assert guarded["other_p95"] <= ISOLATION_HEADROOM * healthy["other_p95"]
    # Steady state (after the trip) recovers to the healthy envelope —
    # while the unguarded run keeps paying the spike on every pass.
    assert guarded["steady_elapsed"] <= ISOLATION_HEADROOM * healthy["steady_elapsed"]
    assert unguarded["steady_elapsed"] > ISOLATION_HEADROOM * healthy["steady_elapsed"]

    emit.emit(
        "slow_host_isolation",
        {
            "benchmark": "slow_host_isolation",
            "slow_host": SLOW_HOST,
            "spike_seconds": SPIKE_SECONDS,
            "passes": PASSES,
            "healthy_other_p95": round(healthy["other_p95"], 3),
            "guarded_other_p95": round(guarded["other_p95"], 3),
            # Elapsed includes measured cpu seconds, so round to one
            # decimal to keep the committed artifact byte-stable.
            "healthy_steady_elapsed": round(healthy["steady_elapsed"], 1),
            "guarded_steady_elapsed": round(guarded["steady_elapsed"], 1),
            "unguarded_steady_elapsed": round(unguarded["steady_elapsed"], 1),
            "breaker_opened": guarded["breaker_opened"],
            "stale_serves": guarded["stale_serves"],
        },
    )
