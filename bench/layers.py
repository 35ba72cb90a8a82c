"""The per-layer metrics of a traced run.

Every number comes from outside the program.  Sources, as the README
tables mark them: **T** spans of :mod:`bench.trace`; **R** the delta of
the program's own metrics registry over the traced window; **F** fields
of the result frames; **S** the sizes of the store's log files.  Means
are per query of the traced window unless the name says otherwise; a
layer the workload bypasses reads 0.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from typing import Any

from bench.trace import BOUNDARIES, Span, self_cpu_ns

STORE_LOGS = ("bronze.log", "silver.log", "gold.log")


def log_bytes(store_dirs: list[str]) -> dict[str, int]:
    """Bytes of each tier's log, summed over the given store directories."""
    sizes = dict.fromkeys(STORE_LOGS, 0)
    for directory in store_dirs:
        for name in STORE_LOGS:
            path = os.path.join(directory, name)
            if os.path.exists(path):
                sizes[name] += os.path.getsize(path)
    return sizes


@dataclass
class Observation:
    """What the outside saw at one instant of a run."""

    flat: dict[str, float]  # additive registry view (targets.flatten)
    snapshot: dict[str, Any]  # the raw registry snapshot
    logs: dict[str, int]  # log_bytes()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    spans: list[Span], window: Any, traced: list[int], untraced: list[int]
) -> dict[str, float]:
    """``window`` is the run's ``Window``; spans exist for its ``traced``
    blocks only, so span totals are divided by the queries of those
    blocks, registry deltas and frame fields by all of the window's."""
    before, after, samples = window.before, window.after, window.samples
    own = self_cpu_ns(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def self_ns(*names: str) -> float:
        return float(sum(own[s.id] for name in names for s in by_name.get(name, ())))

    def calls(*names: str) -> int:
        return sum(len(by_name.get(name, ())) for name in names)

    def counted(*names: str) -> int:
        return sum(s.count for name in names for s in by_name.get(name, ()))

    def delta(name: str) -> float:
        return after.flat.get(name, 0) - before.flat.get(name, 0)

    def histogram(name: str, stat: str) -> float:
        return after.snapshot.get("histograms", {}).get(name, {}).get(stat, 0.0)

    query_samples = [s for s in samples if s.op.kind == "query"]
    queries = len(query_samples)
    traced_queries = sum(1 for s in query_samples if s.block in traced)
    writes = sum(1 for s in samples if s.op.kind == "write")
    latencies_ms = [s.latency_s * 1e3 for s in query_samples]
    framed = [s for s in query_samples if s.stats]
    clustered = "cluster.requests" in after.flat

    def per_query_ms(*names: str) -> float:
        return _ratio(self_ns(*names), traced_queries) / 1e6

    def per_query_us(*names: str) -> float:
        return _ratio(self_ns(*names), traced_queries) / 1e3

    def per_call_us(*names: str) -> float:
        return _ratio(self_ns(*names), calls(*names)) / 1e3

    # Per-shard completions, for the imbalance of the routing.
    completed = []
    for shard, snap in after.snapshot.get("shards", {}).items():
        earlier = before.snapshot.get("shards", {}).get(shard, {}).get("counters", {})
        completed.append(
            snap["counters"].get("service.completed", 0)
            - earlier.get("service.completed", 0)
        )

    # A warm restart, as its caller waits for it: close -> first answer.
    restarts = [
        (restart.latency_s + first.latency_s) * 1e3
        for restart, first in zip(samples, samples[1:])
        if restart.op.kind == "restart"
    ]

    # Memory the program keeps per query, from the second block on.
    later_queries = sum(1 for s in query_samples if s.block > 0)
    rss_growth_kb = _ratio((window.rss_mb[-1] - window.rss_mb[1]) * 1024, later_queries)

    fed_lookups = delta("cluster.fed_lookup_hits") + delta("cluster.fed_lookup_misses")
    prefix_lookups = delta("nav.prefix_hits") + delta("nav.prefix_misses")
    store_records = (
        delta("store.bronze_pages") + delta("store.intents")
        + delta("store.silver_writes") + delta("store.gold_writes")
    )  # fmt: skip
    store_bytes = sum(after.logs.values()) - sum(before.logs.values())
    bronze_traced = sum(window.bronze_bytes[b + 1] - window.bronze_bytes[b] for b in traced)
    roots = [s for s in spans if s.query == s.id]
    fetch_calls = calls("navigation.fetch")

    metrics = {
        # service
        "service.overhead_ms_p50": _median(
            [s.latency_s * 1e3 - s.stats["wall_ms"] for s in framed if "wall_ms" in s.stats]
        ),
        "service.queue_wait_ms_p95": histogram("service.queue_wait_seconds", "p95") * 1e3,
        "service.codec_us_per_frame": per_call_us("service.codec"),
        "service.pages_per_query": _ratio(sum(s.stats.get("pages", 0) for s in framed), len(framed)),
        "service.shed": delta("service.shed") + delta("cluster.shed"),
        "service.errors": delta("service.errors"),
        # cluster
        "cluster.router_overhead_ms_p50": (
            _median(latencies_ms) - histogram("service.total_seconds", "p50") * 1e3
            if clustered
            else 0.0
        ),
        "cluster.route_us_per_query": per_query_us("cluster.route"),
        "cluster.scatter_share": _ratio(delta("cluster.routed_scatter"), delta("cluster.requests")),
        "cluster.spill_share": _ratio(delta("cluster.spills"), delta("cluster.requests")),
        "cluster.fed_hit_share": _ratio(delta("cluster.fed_lookup_hits"), fed_lookups),
        "cluster.fed_waits": delta("cluster.fed_waits"),
        "cluster.shard_imbalance": _ratio(max(completed, default=0), _ratio(sum(completed), len(completed))),
        # mqo
        "mqo.subsumed_share": _ratio(delta("mqo.subsumed"), queries),
        "mqo.shared_share": _ratio(delta("mqo.shared_hits"), queries),
        "mqo.subsume_us_per_query": per_query_us("mqo.subsume"),
        "mqo.fingerprint_us_per_query": per_query_us("mqo.fingerprint"),
        # ur
        "ur.plan_ms_per_query": per_query_ms("ur.plan"),
        "ur.answer_self_ms_per_query": per_query_ms("ur.answer"),
        "ur.objects_per_query": _ratio(counted("ur.plan"), traced_queries),
        # relational
        "relational.order_ms_per_query": per_query_ms("relational.order"),
        "relational.algebra_self_ms_per_query": per_query_ms("relational.algebra"),
        "relational.rows_in_per_row_out": _ratio(
            counted("logical.fetch"), sum(s.count for s in roots)
        ),
        # logical
        "logical.fetch_self_ms_per_query": per_query_ms("logical.fetch"),
        "logical.fetches_per_query": _ratio(calls("logical.fetch"), traced_queries),
        # vps
        "vps.cache_hit_share": _ratio(delta("cache.hits"), delta("cache.requests")),
        "vps.cache_self_us_per_lookup": per_call_us("vps.cache"),
        "vps.evictions_per_query": _ratio(delta("cache.evictions"), queries),
        "vps.invalidations_per_write": _ratio(delta("cache.invalidations"), writes),
        "vps.coalesced": delta("cache.coalesced"),
        # core
        "core.fetches_per_query": _ratio(delta("engine.fetches"), queries),
        "core.retries_per_fetch": _ratio(delta("engine.retries"), delta("engine.fetches")),
        "core.run_fetch_self_us_per_fetch": _ratio(self_ns("core.run_fetch"), fetch_calls) / 1e3,
        "core.speculation_useful_share": _ratio(
            delta("nav.speculation_consumed"), delta("nav.prefetch_issued")
        ),
        # navigation
        "navigation.fetch_self_ms_per_fetch": per_call_us("navigation.fetch") / 1e3,
        "navigation.extract_us_per_page": per_call_us("navigation.extract"),
        "navigation.prefix_hit_share": _ratio(delta("nav.prefix_hits"), prefix_lookups),
        "navigation.pages_per_fetch": _ratio(
            delta("engine.fetch_pages.sum"), delta("engine.fetch_pages.count")
        ),
        "navigation.sweep_ms_p50": _median(
            [s.wall_ns / 1e6 for s in by_name.get("navigation.sweep", ())]
        ),
        # flogic
        "flogic.solve_self_ms_per_fetch": _ratio(self_ns("flogic.solve"), fetch_calls) / 1e6,
        "flogic.solve_calls_per_fetch": _ratio(calls("flogic.solve"), fetch_calls),
        # web
        "web.parse_ms_per_page": per_call_us("web.parse") / 1e3,
        "web.parse_us_per_kb": _ratio(self_ns("web.parse"), counted("web.parse")) * 1024 / 1e3,
        "web.bytes_per_page": _ratio(counted("web.parse"), calls("web.parse")),
        "web.browser_self_us_per_page": per_call_us("web.browser"),
        "web.rss_growth_kb_per_query": rss_growth_kb,
        "web.live_pages_per_query": _ratio(delta("nav.prefix_misses"), queries),
        "web.sim_network_s_per_query": _ratio(delta("engine.fetch_seconds.sum"), queries),
        # sites: the remote servers' time, reported so it can be subtracted
        "sites.render_ms_per_page": per_call_us("sites.render") / 1e3,
        # store
        "store.write_us_per_record": per_call_us("store.write", "store.record_page"),
        "store.bytes_per_query": _ratio(store_bytes, queries),
        "store.records_per_query": _ratio(store_records, queries),
        "store.bytes_per_page_byte": _ratio(bronze_traced, counted("store.record_page")),
        "store.warm_restart_ms_p50": _median(restarts),
        "store.warm_loads": delta("store.warm_loads"),
        "store.warm_hits": delta("store.warm_hits"),
        # the trace itself
        # Traced against untraced blocks of the same window, alternating.
        "trace.overhead_share": _ratio(
            window.cpu_ms_per_query(traced), window.cpu_ms_per_query(untraced)
        )
        - 1.0,
        "trace.coverage_share": _ratio(
            sum(own[s.id] for s in spans if s.query), sum(s.wall_ns for s in roots)
        ),
    }
    total_self = sum(own.values())
    for layer, boundaries in BOUNDARIES.items():
        names = [boundary.span for boundary in boundaries]
        metrics[layer + ".cpu_share"] = _ratio(self_ns(*names), total_self)
    return metrics
