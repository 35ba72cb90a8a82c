"""Command-line interface to the webbase.

::

    python -m repro query "SELECT make, model, price WHERE make = 'ford'"
    python -m repro trace "SELECT make, model, price WHERE make = 'ford'" [--export-json [PATH]]
    python -m repro plan  "SELECT make, bb_price WHERE condition = 'good'"
    python -m repro explain "SELECT make, model, rate WHERE make = 'honda' AND duration = 36"
    python -m repro schema vps|logical|ur
    python -m repro expression newsday
    python -m repro map www.newsday.com [--dot]
    python -m repro timing
    python -m repro metrics [--repeat N]
    python -m repro maintenance [host]
    python -m repro baselines
    python -m repro resilience [--slow-host HOST] [--passes N]
    python -m repro serve [--port N] [--queue-limit N] [--service-workers N]
    python -m repro client "SELECT ..." [--port N] [--deadline-ms MS]
    python -m repro --store DIR store inspect|compact|rebuild
    python -m repro cluster serve --store-root DIR [--shards N] [--port N]
    python -m repro cluster status [--port N] [--metrics]
    python -m repro cluster drain [--port N]

Every invocation builds the simulated Web and maps it by example (fast
and deterministic); ``--seed`` and ``--ads-per-host`` change the world,
``--workers`` sizes the execution engine's pool, and ``--fault-rate``
injects deterministic transient faults for the retry machinery to absorb
(watch them in ``trace``).  ``--store DIR`` layers the tiered persistent
store under the webbase: every served page lands in the bronze log,
cache fills mirror to silver, answers materialize to gold, and a later
invocation over the same directory warms its cache from silver (watch
``store.warm_hits`` in ``metrics``; ``--store-fsync`` makes every append
durable before it returns).  The offline ``store`` subcommand inspects,
compacts, or rebuilds such a directory without touching the simulated
Web — ``rebuild`` re-derives silver and gold from the bronze log alone
and exits non-zero on any byte-level mismatch.  ``--optimizer off``
reverts to the fixed (pre-cost-model) join order for A/B comparison —
``explain`` under both settings shows what the planner saves — and
``--mqo`` turns on multi-query optimization.

A flag exists only where two real callers set it differently; everything
else is decided here or is library configuration.  The cross-query
result cache is on for ``metrics``, ``serve`` and ``resilience`` (their
workloads are meaningless without a storing cache) and whenever
``--store`` is given, off elsewhere.  Entry lifetimes, stale-serving
and breaker timing are set on
``CachePolicy.lru(ttl_seconds=…, stale_mode=…)`` and
``ResiliencePolicy(...)`` by the benchmarks and suites that compare them.

``serve`` runs the long-lived multi-client query service on a TCP
socket; ``client`` talks to it (no webbase is built client-side).
``query --deadline-ms`` bounds a one-shot query's wall-clock time the
same way a served request's deadline does: the deadline lives in the
query's execution context, whose checkpoints read it, so a running
navigation stops before its next page.  ``cluster serve`` runs a
router over ``--shards`` worker processes; each worker receives the
router's ``ClusterConfig`` as one JSON ``--config`` value.  All three
servers run until interrupted or until a ``drain`` op arrives —
``cluster drain --port N`` stops a plain ``serve`` as well as a cluster
— then finish in-flight work, print their final counters and exit 0.

``--breaker-threshold`` consecutive failures trip a host's circuit
breaker.  The ``resilience`` subcommand is the demo: it spikes
``--slow-host`` with latency faults, runs ``--passes`` rounds of the
ten-site workload, and prints the per-host breaker table, quarantine
state, the healthy/degraded p95 split and the ``resilience.*`` counters.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Callable, Sequence

from repro.core.execution import WebBaseConfig
from repro.core.resilience import ResiliencePolicy
from repro.core.stats import format_timing_table, site_query_timings
from repro.core.webbase import WebBase
from repro.relational.relation import Relation
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ServiceConfig, WebBaseService
from repro.vps.cache import CachePolicy
from repro.web.server import FaultPlan


def _cluster_config_json(text: str) -> Any:
    """``cluster worker --config``: the router's ``ClusterConfig`` as
    :func:`repro.cluster.worker.worker_argv` wrote it.  Anything else
    raises, which argparse reports as a usage error (exit 2)."""
    from repro.cluster.router import ClusterConfig  # only cluster commands load it

    return ClusterConfig(**json.loads(text))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="A webbase over a simulated dynamic Web (SIGMOD 1999 reproduction).",
    )
    parser.add_argument("--seed", type=int, default=1999, help="world seed")
    parser.add_argument(
        "--ads-per-host", type=int, default=120, help="listing depth per site"
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="tiered persistent store directory (bronze page log, silver "
        "extractions, gold answers); created on first use",
    )
    parser.add_argument(
        "--store-fsync",
        action="store_true",
        help="fsync every store append before it returns",
    )
    parser.add_argument(
        "--workers", type=int, default=8, help="execution-engine modelled connection lanes"
    )
    parser.add_argument(
        "--optimizer",
        choices=["cost", "off"],
        default="cost",
        help="join-order strategy: the cost-based planner, or the fixed "
        "binding-feasible order (A/B baseline)",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="inject deterministic transient faults at this per-request rate",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        metavar="N",
        help="consecutive per-host failures that open the host's breaker",
    )
    parser.add_argument(
        "--mqo",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="multi-query optimization: containment-based reuse of "
        "revision-current gold answers (needs --store)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="answer a universal-relation query")
    query.add_argument("text", help="SELECT attrs WHERE conditions")
    query.add_argument("--limit", type=int, default=25, help="rows to print")
    query.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="wall-clock deadline; an expired query stops fetching and "
        "exits with a structured DeadlineExceeded error",
    )

    trace = sub.add_parser(
        "trace", help="answer a query and print the engine's structured trace"
    )
    trace.add_argument("text", help="SELECT attrs WHERE conditions")
    trace.add_argument(
        "--export-json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit the span tree as JSON ('-' or no value for stdout)",
    )

    plan = sub.add_parser("plan", help="show a query's maximal objects")
    plan.add_argument("text")

    explain = sub.add_parser(
        "explain",
        help="run a query and print the plan tree with per-node cost "
        "estimates vs. measured fetches",
    )
    explain.add_argument("text")

    schema = sub.add_parser("schema", help="print a layer's schema")
    schema.add_argument("layer", choices=["vps", "logical", "ur"])

    expression = sub.add_parser(
        "expression", help="show a relation's navigation expression"
    )
    expression.add_argument("relation")

    navmap = sub.add_parser("map", help="render a site's navigation map")
    navmap.add_argument("host")
    navmap.add_argument("--dot", action="store_true", help="emit Graphviz DOT")

    sub.add_parser("timing", help="the Section 7 per-site timing table")

    metrics = sub.add_parser(
        "metrics",
        help="run the 10-site workload through the cache and reconcile the "
        "metrics registry against the trace spans",
    )
    metrics.add_argument(
        "--repeat", type=int, default=2, help="workload passes (first is cold)"
    )

    maintenance = sub.add_parser(
        "maintenance",
        help="re-check the navigation maps against the live sites and drive "
        "cache invalidation",
    )
    maintenance.add_argument("host", nargs="?", default=None)

    sub.add_parser("baselines", help="link-only and canned-interface baselines")

    resilience = sub.add_parser(
        "resilience",
        help="demonstrate the per-host breakers: one site slows down, its "
        "breaker opens, the others keep their latency",
    )
    resilience.add_argument(
        "--slow-host",
        default="www.newsday.com",
        help="the site the demo degrades with injected latency spikes "
        "(must be one of the ten timing-table sites)",
    )
    resilience.add_argument(
        "--passes", type=int, default=6, help="workload passes to run"
    )

    serve = sub.add_parser(
        "serve", help="run the long-lived multi-client query service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8571, help="0 = ephemeral")
    serve.add_argument(
        "--queue-limit", type=int, default=16, help="admission queue bound"
    )
    serve.add_argument(
        "--service-workers", type=int, default=4, help="requests run at once"
    )

    client = sub.add_parser("client", help="query a running service")
    client.add_argument("text", help="SELECT attrs WHERE conditions")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=8571)
    client.add_argument("--deadline-ms", type=float, default=None, metavar="MS")
    client.add_argument("--page-size", type=int, default=None)
    client.add_argument("--limit", type=int, default=25, help="rows to print")
    client.add_argument(
        "--connect-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="keep retrying the connection this long (a freshly started "
        "server maps its world by example before it listens)",
    )

    cluster = sub.add_parser(
        "cluster",
        help="the sharded multi-process tier: router + N worker processes "
        "with host-affinity routing and cross-shard cache federation",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    cserve = cluster_sub.add_parser(
        "serve", help="run a router and spawn its worker processes"
    )
    cserve.add_argument("--host", default="127.0.0.1")
    cserve.add_argument("--port", type=int, default=8570, help="0 = ephemeral")
    cserve.add_argument("--shards", type=int, default=3)
    cserve.add_argument(
        "--store-root",
        required=True,
        metavar="DIR",
        help="per-shard store directories are created under here",
    )
    cserve.add_argument(
        "--queue-limit", type=int, default=16, help="per-worker admission bound"
    )
    cserve.add_argument(
        "--service-workers",
        type=int,
        default=4,
        help="requests run at once per worker",
    )
    cserve.add_argument(
        "--max-inflight", type=int, default=64, help="router admission bound"
    )
    cserve.add_argument(
        "--mqo",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="multi-query optimization on every worker",
    )

    cstatus = cluster_sub.add_parser(
        "status", help="topology and health of a running cluster router"
    )
    cstatus.add_argument("--host", default="127.0.0.1")
    cstatus.add_argument("--port", type=int, default=8570)
    cstatus.add_argument(
        "--metrics",
        action="store_true",
        help="also print the merged cross-shard metrics snapshot",
    )

    cdrain = cluster_sub.add_parser(
        "drain",
        help="gracefully drain a running cluster (workers first) — or a "
        "plain 'serve' on that port: it is the same protocol op",
    )
    cdrain.add_argument("--host", default="127.0.0.1")
    cdrain.add_argument("--port", type=int, default=8570)

    cworker = cluster_sub.add_parser(
        "worker", help="one shard worker process (spawned by 'cluster serve')"
    )
    cworker.add_argument("--shard-id", required=True)
    cworker.add_argument("--store-dir", required=True)
    cworker.add_argument("--addr-file", default="")
    cworker.add_argument("--host", default="127.0.0.1")
    cworker.add_argument("--port", type=int, default=0)
    cworker.add_argument(
        "--federation", default="", metavar="HOST:PORT",
        help="federation bus address (empty = no federation)",
    )
    cworker.add_argument(
        "--config",
        required=True,
        type=_cluster_config_json,
        metavar="JSON",
        help="the spawning router's ClusterConfig: every worker setting "
        "arrives in this one value",
    )

    store = sub.add_parser(
        "store",
        help="inspect, compact, or rebuild a tiered store directory "
        "offline (requires --store DIR)",
    )
    store.add_argument(
        "action",
        choices=["inspect", "compact", "rebuild"],
        help="inspect: tier sizes and state; compact: drop superseded "
        "records; rebuild: re-derive silver/gold from the bronze log and "
        "verify byte equality",
    )
    store.add_argument(
        "--write",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="rebuild: write the re-derived tiers next to the originals "
        "(silver.rebuilt / gold.rebuilt)",
    )
    return parser


def webbase_config(args: argparse.Namespace) -> WebBaseConfig:
    """The parsed global flags (and the command, which decides the cache)
    as the webbase's configuration."""
    if args.command == "resilience":
        # The demo degrades one host with latency spikes and trips its
        # breaker on the slow calls.  Zero-TTL entries keep every pass
        # fetching (so slow calls keep signalling the breaker) until the
        # breaker opens and quarantines the host — after which serve-stale
        # answers from the cache instead of waiting on the degraded site.
        faults = FaultPlan(
            error_rate=args.fault_rate,
            spike_rate=1.0,
            spike_seconds=6.0,
            hosts=(args.slow_host,),
        )
        cache = CachePolicy.lru(ttl_seconds=0.0, stale_mode="serve_stale")
        slow_seconds = 10.0
    else:
        faults = FaultPlan(error_rate=args.fault_rate) if args.fault_rate > 0 else None
        # On for the commands whose workloads are meaningless without a
        # storing cache, and whenever a store is given: silver warming has
        # nowhere to land (and fills nothing to mirror) with the noop policy.
        storing = args.command in ("metrics", "serve") or args.store is not None
        cache = CachePolicy.lru() if storing else CachePolicy.noop()
        slow_seconds = None
    return WebBaseConfig(
        seed=args.seed,
        ads_per_host=args.ads_per_host,
        cache=cache,
        max_workers=args.workers,
        optimizer=args.optimizer,
        faults=faults,
        resilience=ResiliencePolicy(
            failure_threshold=args.breaker_threshold, slow_seconds=slow_seconds
        ),
        store_dir=args.store,
        store_fsync=args.store_fsync,
        mqo=args.mqo,
    )


def service_config(args: argparse.Namespace) -> ServiceConfig:
    """``serve``'s flags as the service's configuration."""
    return ServiceConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        workers=args.service_workers,
    )


def cluster_config(args: argparse.Namespace) -> Any:
    """``cluster serve``'s flags as the cluster's configuration — the one
    value the router also hands to every worker it spawns."""
    from repro.cluster.router import ClusterConfig

    return ClusterConfig(
        store_root=args.store_root,
        host=args.host,
        port=args.port,
        shards=args.shards,
        seed=args.seed,
        ads_per_host=args.ads_per_host,
        worker_queue_limit=args.queue_limit,
        worker_threads=args.service_workers,
        max_inflight=args.max_inflight,
        health_interval_seconds=2.0,  # a deployment pings; tests check explicitly
        mqo=args.mqo,
    )


def _serve_until_stopped(
    wait_stopped: Callable[[], Any],
    shutdown: Callable[[], dict[str, Any]],
    subsystem: str,
) -> int:
    """The foreground life of ``serve``, ``cluster serve`` and ``cluster
    worker`` alike: block until a ``drain`` op has stopped the server or
    the operator interrupts, shut down (a no-op after a drain), print the
    final ``subsystem.*`` counters."""
    try:
        wait_stopped()
        print("\ndrained")
    except KeyboardInterrupt:
        print("\ndraining ...")
    snapshot = shutdown()
    print("final %s metrics:" % subsystem)
    for name, value in sorted(snapshot["counters"].items()):
        if name.startswith(subsystem + "."):
            print("  %-28s %d" % (name, value))
    return 0


def _with_client(
    args: argparse.Namespace, connect_timeout: float, action: Callable[[Any], None]
) -> int:
    """Run ``action(client)`` against the server at ``args.host:args.port``
    — the pure network commands (no webbase is built on this side) and
    their one error ladder."""
    try:
        with ServiceClient(
            host=args.host, port=args.port, connect_timeout=connect_timeout
        ) as client:
            action(client)
    except ServiceError as exc:
        print(
            "service error [%s%s]: %s"
            % (exc.code, ", retriable" if exc.retriable else "", exc)
        )
        return 2
    except OSError as exc:
        print("cannot reach %s:%d: %s" % (args.host, args.port, exc))
        return 1
    return 0


def _cluster_main(args: argparse.Namespace) -> int:
    if args.cluster_command == "worker":
        from repro.cluster.worker import worker_main

        service = worker_main(args)
        return _serve_until_stopped(service.wait_stopped, service.shutdown, "service")

    if args.cluster_command == "serve":
        from repro.cluster.router import LocalCluster

        config = cluster_config(args)
        cluster = LocalCluster(config)
        host, port = cluster.start()
        print(
            "cluster router on %s:%d (%d worker processes under %s)"
            % (host, port, config.shards, config.store_root),
            flush=True,
        )
        return _serve_until_stopped(
            cluster.router.wait_stopped, cluster.stop, "cluster"
        )

    def show(client: Any) -> None:
        if args.cluster_command == "drain":
            print(json.dumps(client.drain(), indent=2, sort_keys=True))
            return
        print(json.dumps(client.status(), indent=2, sort_keys=True))
        if args.metrics:
            merged = client.metrics()
            print("merged cross-shard metrics:")
            print(json.dumps(merged, indent=2, sort_keys=True))

    return _with_client(args, 5.0, show)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "cluster":
        return _cluster_main(args)

    if args.command == "client":

        def ask(client: Any) -> None:
            outcome = client.query(
                args.text, deadline_ms=args.deadline_ms, page_size=args.page_size
            )
            print(Relation(outcome.schema, outcome.rows).pretty(limit=args.limit))
            print(
                "(%d rows in %d page(s); %s)"
                % (
                    len(outcome),
                    outcome.pages,
                    ", ".join("%s=%s" % kv for kv in sorted(outcome.stats.items())),
                )
            )

        return _with_client(args, args.connect_timeout, ask)

    if args.command == "store":
        # Offline: operates on the persisted tiers alone — no simulated
        # Web is built (rebuild replays bronze through the persisted
        # navigation maps instead of fetching live).
        if args.store is None:
            print("the store subcommand needs --store DIR")
            return 1
        from repro.store import TieredStore

        store = TieredStore(args.store, fsync=args.store_fsync)
        try:
            if args.action == "inspect":
                print(json.dumps(store.describe(), indent=2, sort_keys=True))
                return 0
            if args.action == "compact":
                outcome = store.compact()
                print(
                    "compacted %s: %d -> %d bytes (%d freed)"
                    % (
                        args.store,
                        outcome["bytes_before"],
                        outcome["bytes_after"],
                        outcome["freed"],
                    )
                )
                return 0
            from repro.store.rebuild import rebuild

            try:
                report = rebuild(store, write=args.write)
            except ValueError as exc:
                print("cannot rebuild: %s" % exc)
                return 1
            print(report.summary())
            return 0 if report.clean else 2
        finally:
            store.close()

    webbase = WebBase.create(webbase_config(args))

    if args.command == "query":
        from repro.core.execution import DeadlineExceeded

        context = None
        if args.deadline_ms is not None:
            context = webbase.execution_context(
                label=args.text, deadline_seconds=args.deadline_ms / 1000.0
            )
        try:
            result = webbase.query(args.text, context=context)
        except DeadlineExceeded as exc:
            print("deadline exceeded [stage=%s]: %s" % (exc.stage, exc))
            return 2
        print(result.pretty(limit=args.limit))
        print("(%d rows)" % len(result))
        return 0

    if args.command == "serve":
        config = service_config(args)
        service = WebBaseService(webbase, config)
        host, port = service.start()
        print(
            "serving on %s:%d (queue=%d, workers=%d, cache=%s)"
            % (
                host,
                port,
                config.queue_limit,
                config.workers,
                "on" if webbase.config.cache.enabled else "off",
            ),
            flush=True,
        )
        return _serve_until_stopped(service.wait_stopped, service.shutdown, "service")

    if args.command == "trace":
        report = webbase.query_report(args.text)
        if args.export_json is not None:
            payload = json.dumps(report.trace.to_dict(), indent=2)
            if args.export_json == "-":
                print(payload)
            else:
                with open(args.export_json, "w") as handle:
                    handle.write(payload + "\n")
                print("trace written to %s" % args.export_json)
            return 0
        print(report.pretty())
        print()
        print(report.trace.render())
        return 0

    if args.command == "explain":
        print(webbase.explain(args.text).render())
        return 0

    if args.command == "plan":
        plan = webbase.plan(args.text)
        print(plan.describe())
        for obj in plan.feasible_objects:
            if obj.rewrites:
                print("  optimizer on %s:" % " ⋈ ".join(obj.relations))
                for rewrite in obj.rewrites:
                    print("    %s" % rewrite)
        return 0

    if args.command == "schema":
        if args.layer == "vps":
            print(webbase.vps_summary())
        elif args.layer == "logical":
            print(webbase.logical_summary())
        else:
            print(webbase.ur.hierarchy.pretty())
            print("\nmaximal objects:")
            for obj in webbase.ur.maximal_objects():
                print("  %s" % " ⋈ ".join(sorted(obj)))
        return 0

    if args.command == "expression":
        try:
            print(webbase.navigation_expression(args.relation))
        except KeyError:
            print("no VPS relation %r; known: %s" % (
                args.relation, ", ".join(webbase.vps.relation_names)))
            return 1
        return 0

    if args.command == "map":
        builder = webbase.builders.get(args.host)
        if builder is None:
            print("no map for host %r; known: %s" % (
                args.host, ", ".join(sorted(webbase.builders))))
            return 1
        from repro.navigation.visualize import to_dot, to_text

        print(to_dot(builder.map) if args.dot else to_text(builder.map))
        return 0

    if args.command == "timing":
        print(format_timing_table(site_query_timings(webbase)))
        return 0

    if args.command == "metrics":
        from repro.core.parallel import cached_site_query

        contexts = []
        for run in range(max(1, args.repeat)):
            outcome = cached_site_query(webbase, label="metrics-run-%d" % (run + 1))
            contexts.append(outcome.context)
        print("metrics after %d pass(es) of the 10-site workload:" % len(contexts))
        print(webbase.metrics.render())
        print()
        spans = [s for ctx in contexts for s in ctx.root.spans("fetch")]
        hit_spans = sum(1 for s in spans if s.cache in ("hit", "stale"))
        miss_spans = sum(1 for s in spans if s.cache == "miss")
        counters = webbase.metrics.snapshot()["counters"]
        counted_hits = (
            counters.get("cache.hits", 0)
            + counters.get("cache.stale_serves", 0)
            + counters.get("engine.context_cache_hits", 0)
        )
        counted_fetches = counters.get("engine.fetches", 0)
        prefix_hits = counters.get("nav.prefix_hits", 0)
        prefix_misses = counters.get("nav.prefix_misses", 0)
        batch_sizes = webbase.metrics.snapshot()["histograms"].get(
            "nav.batch_size", {}
        )
        print("batched navigation:")
        print("  nav.prefix_hits        %d" % prefix_hits)
        print("  nav.prefix_misses      %d" % prefix_misses)
        print(
            "  nav.batch_size         count=%d mean=%.1f max=%.0f"
            % (
                batch_sizes.get("count", 0),
                batch_sizes.get("mean", 0.0),
                batch_sizes.get("max", 0.0),
            )
        )
        print()
        print("reconciliation (registry vs trace spans):")
        checks = [
            ("cache serves", counted_hits, hit_spans),
            ("live fetches", counted_fetches, miss_spans),
            ("total fetch requests", counted_hits + counted_fetches, len(spans)),
        ]
        clean = True
        for name, counted, traced in checks:
            ok = counted == traced
            clean = clean and ok
            print(
                "  %-22s registry=%-5d spans=%-5d %s"
                % (name, counted, traced, "ok" if ok else "MISMATCH")
            )
        return 0 if clean else 1

    if args.command == "maintenance":
        reports = webbase.run_maintenance(args.host)
        if not reports:
            print("all navigation maps agree with the live sites; cache untouched")
            return 0
        for host, report in sorted(reports.items()):
            print(report.summary())
        quarantined = sorted(webbase.cache.quarantined_hosts("maintenance"))
        if quarantined:
            print("quarantined hosts (manual intervention pending): %s"
                  % ", ".join(quarantined))
        print("cache after maintenance: %s" % webbase.cache.stats)
        return 0

    if args.command == "resilience":
        from repro.core.parallel import cached_site_query

        passes = max(1, args.passes)
        contexts = []
        for run in range(passes):
            outcome = cached_site_query(
                webbase, label="resilience-pass-%d" % (run + 1)
            )
            contexts.append(outcome.context)
        print(
            "breakers after %d pass(es) of the 10-site workload "
            "(degraded host: %s):" % (passes, args.slow_host)
        )
        print(webbase.resilience.describe())
        quarantined = sorted(webbase.cache.quarantined_hosts())
        if quarantined:
            print(
                "quarantined hosts (the cache serves them stale): %s"
                % ", ".join(quarantined)
            )
        print()
        healthy: list[float] = []
        degraded: list[float] = []
        for ctx in contexts:
            for span in ctx.root.spans("fetch"):
                host = span.attrs.get("host", "")
                bucket = degraded if host == args.slow_host else healthy
                bucket.append(span.network_seconds)
        if healthy and degraded:
            healthy.sort()
            degraded.sort()

            def p95(values: list[float]) -> float:
                return values[min(len(values) - 1, int(0.95 * len(values)))]

            print(
                "fetch network seconds: healthy hosts p95=%.2fs, "
                "%s p95=%.2fs" % (p95(healthy), args.slow_host, p95(degraded))
            )
        print("resilience metrics:")
        counters = webbase.metrics.snapshot()["counters"]
        for name, value in sorted(counters.items()):
            if name.startswith("resilience."):
                print("  %-28s %d" % (name, value))
        return 0

    if args.command == "baselines":
        from repro.baselines.canned import coverage, used_car_canned_catalog
        from repro.baselines.websql import (
            PathPattern,
            crawl,
            dynamic_content_coverage,
        )
        from repro.web.browser import Browser

        result = crawl(
            Browser(webbase.world.server),
            "http://www.newsday.com/",
            PathPattern(max_depth=4),
        )
        link_cov = dynamic_content_coverage(webbase.world, result, "www.newsday.com")
        print(
            "link-only crawl of www.newsday.com: %d pages, sees %.0f%% of the ads"
            % (result.pages_fetched, link_cov * 100)
        )
        workload = [
            "SELECT make, model, price, bb_price WHERE make = 'jaguar' "
            "AND condition = 'good' AND price < bb_price",
            "SELECT make, model, year, price, contact WHERE make = 'ford' AND model = 'escort'",
        ]
        fraction, unanswered = coverage(used_car_canned_catalog(), workload)
        print("canned catalog answers %.0f%% of the sample workload" % (fraction * 100))
        for task in unanswered:
            print("  cannot express: %s" % task)
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
