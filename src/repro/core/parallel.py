"""Parallel query evaluation across sites — the ablation harness.

"Our experiments suggest that parallelization of query evaluation is
crucial for obtaining acceptable response times."  Site fetches are
network-bound and independent, so they parallelize perfectly.  This module
measures that claim through the *real* execution engine: both arms run the
per-site workload with :meth:`~repro.core.webbase.WebBase.execution_context`
— the same lane model, retry policy, per-context cache and tracing the UR
query path uses — differing only in ``max_workers``.

The timing model reported to benchmarks (see
:class:`~repro.core.execution.ExecutionContext`):

* sequential elapsed = total cpu + Σ per-fetch network seconds
* parallel elapsed   = total cpu + the busiest lane

which is the paper's intuition — with N similar sites, parallel fetching
approaches an N-fold elapsed-time win while cpu cost is unchanged.

Worker errors are never swallowed and never truncated to the first one:
the context's fan-out collects every failure into one
:class:`~repro.core.execution.FanoutError` report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.execution import ExecutionContext
from repro.core.stats import primary_relation, site_given
from repro.core.webbase import WebBase
from repro.sites.world import TIMING_TABLE_HOSTS
from repro.web.clock import CpuTimer


@dataclass
class ParallelOutcome:
    """Results and the timing model of one multi-site evaluation."""

    rows_by_host: dict[str, int]
    cpu_seconds: float
    network_by_host: dict[str, float]
    # Busiest worker-lane network time, from the engine's lane accounting.
    # None falls back to the per-host model (every site on its own lane).
    critical_network_seconds: float | None = None
    context: ExecutionContext | None = field(default=None, repr=False, compare=False)

    @property
    def sequential_elapsed(self) -> float:
        return self.cpu_seconds + sum(self.network_by_host.values())

    @property
    def parallel_elapsed(self) -> float:
        if self.critical_network_seconds is not None:
            return self.cpu_seconds + self.critical_network_seconds
        slowest = max(self.network_by_host.values()) if self.network_by_host else 0.0
        return self.cpu_seconds + slowest

    @property
    def speedup(self) -> float:
        if self.parallel_elapsed == 0:
            return 1.0
        return self.sequential_elapsed / self.parallel_elapsed


def _run_site_workload(
    webbase: WebBase,
    query: dict[str, Any],
    hosts: list[str],
    max_workers: int,
    label: str,
    through_cache: bool = False,
) -> ParallelOutcome:
    """Fan the per-site query across ``hosts`` on one engine context.

    By default fetches go through ``webbase.vps`` with the context (the
    engine's worker/retry/trace path) rather than the cross-query result
    cache, so both parallel-ablation arms do the same fresh Web work.
    ``through_cache=True`` routes them through the always-present
    :class:`~repro.vps.cache.ResultCache` layer instead — the cache
    ablation's warm/staleness arms use that path."""
    ctx = webbase.execution_context(label=label, max_workers=max_workers)
    catalog = webbase.cache if through_cache else webbase.vps

    def fetch_host(host: str) -> int:
        relation_name = primary_relation(webbase, host)
        given = site_given(webbase, relation_name, query)
        return len(catalog.fetch(relation_name, given, context=ctx))

    timer = CpuTimer().start()
    with ctx.accounted():
        row_counts = ctx.map(fetch_host, hosts)
    cpu = timer.stop()
    return ParallelOutcome(
        rows_by_host=dict(zip(hosts, row_counts)),
        cpu_seconds=cpu,
        network_by_host=dict(ctx.network_by_host),
        critical_network_seconds=ctx.network_seconds_critical,
        context=ctx,
    )


def parallel_site_query(
    webbase: WebBase,
    query: dict[str, Any] | None = None,
    hosts: list[str] | None = None,
    max_workers: int | None = None,
) -> ParallelOutcome:
    """Evaluate the per-site query on every host concurrently.

    ``max_workers`` defaults to one worker lane per host (the paper's
    fully parallel arm); smaller values model a bounded connection pool —
    the engine's lane accounting then reports the true makespan."""
    query = query or {"make": "ford", "model": "escort"}
    hosts = list(hosts or TIMING_TABLE_HOSTS)
    workers = max_workers or len(hosts)
    return _run_site_workload(webbase, query, hosts, workers, "parallel-sites")


def cached_site_query(
    webbase: WebBase,
    query: dict[str, Any] | None = None,
    hosts: list[str] | None = None,
    max_workers: int | None = None,
    label: str = "cached-sites",
) -> ParallelOutcome:
    """Evaluate the per-site query through the cross-query result cache.

    First call over a cold cache populates it; repeat calls measure the
    warm path (and, after site churn plus a maintenance sweep, the
    staleness-invalidation path — see ``bench_ablation_cache``)."""
    query = query or {"make": "ford", "model": "escort"}
    hosts = list(hosts or TIMING_TABLE_HOSTS)
    workers = max_workers or len(hosts)
    return _run_site_workload(
        webbase, query, hosts, workers, label, through_cache=True
    )


def sequential_site_query(
    webbase: WebBase,
    query: dict[str, Any] | None = None,
    hosts: list[str] | None = None,
) -> ParallelOutcome:
    """The same evaluation, one site at a time (the ablation baseline)."""
    query = query or {"make": "ford", "model": "escort"}
    hosts = list(hosts or TIMING_TABLE_HOSTS)
    return _run_site_workload(webbase, query, hosts, 1, "sequential-sites")
