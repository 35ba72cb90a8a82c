"""The webbase facade: the paper's architecture, assembled.

:class:`WebBase` wires the three layers together over a simulated Web,
for whatever application domain it is handed (a
:class:`~repro.domains.Domain`; the paper's used cars by default):

* the domain's designer sessions build navigation maps by example;
* the maps compile into navigation expressions and handles — the
  **virtual physical schema**;
* the domain's view definitions (for cars, Table 2) form the **logical
  schema**, behind the always-present result-cache layer (a
  :class:`~repro.vps.cache.CachePolicy` decides whether it stores
  anything);
* the domain's concept hierarchy and compatibility rules form the
  **external schema**, queried with ``SELECT ... WHERE ...``.

Queries run on the execution engine: every facade call gets (or shares)
an :class:`~repro.core.execution.ExecutionContext` that models the
overlap of independent fetches on ``max_workers`` lanes, retries
transient failures, and records a structured trace.  Assembly is driven by one
:class:`~repro.core.execution.WebBaseConfig` value::

>>> webbase = WebBase.create(WebBaseConfig(max_workers=4))
>>> answers = webbase.query("SELECT make, model, price WHERE make = 'ford' AND model = 'escort'")
"""

from __future__ import annotations

from typing import Any

from repro.core.execution import (
    ExecutionContext,
    ExecutorBundle,
    RetryPolicy,
    WebBaseConfig,
)
from repro.core.metrics import MetricsRegistry
from repro.core.resilience import ResilienceManager
from repro.domains import CARS, Domain
from repro.logical.schema import LogicalSchema
from repro.navigation.builder import MapBuilder
from repro.navigation.compiler import CompiledSite, compile_map
from repro.navigation.executor import NavigationExecutor
from repro.relational.relation import Relation
from repro.revisions import Revisions
from repro.ur.planner import StructuredUR, URPlan
from repro.vps.cache import ResultCache
from repro.vps.schema import VpsSchema
from repro.web.browser import PrefixPageCache
from repro.web.server import World


class WebBase:
    """A fully assembled webbase over one application domain's Web.

    The only place a stack is put together: ``domain`` says *what* is
    mapped, viewed and queried (``repro.domains.CARS``, ``HARDWARE``,
    ``JOBS``, or one of your own), ``config`` says *how* (workers, cache,
    store, MQO, resilience), and every domain gets the same engine,
    maintenance and EXPLAIN.  ``world`` must be one ``domain.build_world``
    built; :meth:`create` builds it from the config's seed and size."""

    def __init__(
        self,
        world: World,
        config: WebBaseConfig | None = None,
        domain: Domain = CARS,
    ) -> None:
        self.config = config = config or WebBaseConfig()
        self.world = world
        self.builders: dict[str, MapBuilder] = {
            host: session(world) for host, session in domain.sessions.items()
        }
        self.compiled: dict[str, CompiledSite] = {
            host: compile_map(builder.map) for host, builder in self.builders.items()
        }
        self.executor = NavigationExecutor(world.server)
        self.vps = VpsSchema(self.executor)
        for compiled in self.compiled.values():
            self.vps.add_compiled_site(compiled)
        # One registry spans the whole webbase: the cache and every
        # execution context count into it, so cache/fetch totals reconcile
        # with trace spans (``python -m repro metrics``).  Strict: an
        # off-scheme metric name is a bug, caught on first touch.
        self.metrics = MetricsRegistry(strict=True)
        # The one staleness authority (repro.revisions): every tier that
        # stamps what it keeps with a host's map revision asks here.
        self.revisions = Revisions()
        self.cache: ResultCache = ResultCache(
            self.vps, config.cache, metrics=self.metrics, revisions=self.revisions
        )
        # Per-host circuit breakers, fed by every execution context's
        # attempts; breaker trips feed the cache's quarantine.
        self.resilience = ResilienceManager(
            config.resilience, metrics=self.metrics, cache=self.cache
        )
        self.logical: LogicalSchema = domain.logical_schema(self.cache)
        self.ur = StructuredUR(
            self.logical,
            domain.hierarchy(),
            domain.rules,
            domain.relations,
            optimizer=config.optimizer,
            stats=domain.catalog_stats
            and domain.catalog_stats(self.logical, config.ads_per_host),
        )
        if config.faults is not None:
            world.server.install_faults(config.faults)
        # Maintenance sweeps publish their findings here (change-data
        # capture); the service's standing-query registry subscribes.
        from repro.store.cdc import DeltaFeed

        self.cdc = DeltaFeed()
        # Multi-query optimization (repro.mqo): containment reuse of gold
        # answers.  ``None`` when off.
        self.mqo: Any = None
        if config.mqo:
            from repro.mqo.optimizer import MultiQueryOptimizer

            self.mqo = MultiQueryOptimizer(self)
        # Optional tiered persistence underneath the whole stack.
        self.store: Any = None
        if config.store_dir:
            from repro.store.tiered import TieredStore

            self.attach_store(
                TieredStore(
                    config.store_dir,
                    fsync=config.store_fsync,
                    metrics=self.metrics,
                )
            )

    def attach_store(self, store: Any) -> None:
        """Layer a tiered store under the webbase: bronze records every
        served page, silver mirrors cache fills, gold materializes
        answers; current-revision silver is loaded into the cache so a
        restart answers repeat queries without live fetches.

        Silver segments are stamped with the *navigation-map revision*
        they were extracted under, so before warming, any host whose
        freshly built map differs from the persisted one (the site moved
        while the store was closed) gets its revision bumped — its stale
        segments are then skipped by the revision check, never by
        eviction order."""
        from repro.navigation.serialize import map_to_dict

        self.store = store
        self.cache.attach_store(store)
        persisted = store.load_navmaps()
        for host, builder in sorted(self.builders.items()):
            old = persisted.get(host)
            if old is not None and map_to_dict(old) != map_to_dict(builder.map):
                self.cache.bump_revision(host)
        store.save_navmaps({h: b.map for h, b in self.builders.items()})
        self.world.server.page_sink = store.record_page
        self.cache.warm_from_store()

    def attach_federation(self, federation: Any) -> None:
        """Join a cluster's cross-shard cache federation: this webbase's
        result cache consults it before live fetches and publishes its
        fills and revision moves to it (see
        :mod:`repro.cluster.federation`).  Strictly fail-open — a dead
        federation degrades to the local cache, never to an error."""
        self.cache.federation = federation

    def adopt_store_dir(self, store_dir: str) -> dict[str, Any]:
        """Shard takeover: warm this webbase from a *dead sibling's*
        tiered store directory.

        Adopts the sibling's navigation-map revisions (max-merge — never
        backwards), warms its current-revision silver segments into the
        result cache, and returns its persisted standing queries for the
        service layer to merge (``"standing"`` in the result).  The
        foreign store is opened read-only-in-spirit and closed again; its
        logs are never adopted as this webbase's own write path."""
        from repro.store.tiered import TieredStore

        foreign = TieredStore(store_dir, fsync=False)
        try:
            revisions = foreign.revisions()
            adopted = 0
            for host, revision in sorted(revisions.items()):
                if self.cache.adopt_revision(host, revision):
                    adopted += 1
            for host in sorted(foreign.quarantined()):
                self.cache.quarantine(host, "maintenance")
            warmed = self.cache.warm_from_store(store=foreign)
            standing = foreign.standing_queries()
        finally:
            foreign.close()
        return {
            "store_dir": store_dir,
            "revisions_adopted": adopted,
            "warmed": warmed,
            "standing": standing,
        }

    @classmethod
    def create(
        cls, config: WebBaseConfig | None = None, domain: Domain = CARS
    ) -> "WebBase":
        """Build ``domain``'s simulated Web per ``config`` and assemble the
        webbase (the canonical constructor)."""
        config = config or WebBaseConfig()
        world = domain.build_world(config.seed, config.ads_per_host)
        return cls(world, config=config, domain=domain)

    # -- the execution engine ---------------------------------------------------

    def execution_context(
        self,
        label: str = "query",
        max_workers: int | None = None,
        retry: RetryPolicy | None = None,
        deadline_seconds: float | None = None,
    ) -> ExecutionContext:
        """A fresh per-query engine context, defaulting to the webbase
        config's worker and retry policies.  ``deadline_seconds``
        bounds the query's wall-clock time: every checkpoint (before each
        fetch, retry and page, and in every wait) reads the clock, so an
        expired query stops at the next one.  The context belongs to the
        caller — the webbase keeps no reference to it — so pass it to the
        facade calls whose trace and accounting you want to read, or pass
        the same one to several to pool their per-context cache, pages,
        accounting and trace."""
        config = self.config
        return ExecutionContext(
            self.navigation_stack,
            max_workers=config.max_workers if max_workers is None else max_workers,
            retry=retry or config.retry,
            label=label,
            metrics=self.metrics,
            deadline_seconds=deadline_seconds,
            page_revisions=self.revisions.current,
            resilience=self.resilience,
        )

    def navigation_stack(self, page_cache: PrefixPageCache) -> ExecutorBundle:
        """A fresh navigation stack over this webbase's sites — what an
        execution context builds on its first live fetch, with its own
        ``page_cache`` installed."""
        return ExecutorBundle(self.world.server, self.compiled.values(), page_cache)

    # -- maintenance -------------------------------------------------------------

    def run_maintenance(self, host: str | None = None):
        """One maintenance cycle over the mapped sites (or just ``host``):
        re-check each navigation map against the live site, absorb the
        auto-applicable changes, and drive the result cache's invalidation
        — revision bumps for absorbed changes, quarantine for changes that
        need the designer.  Returns the non-clean reports by host."""
        from repro.navigation.maintenance import reconcile_site
        from repro.web.browser import Browser

        reports = {}
        for site_host, builder in sorted(self.builders.items()):
            if host is not None and site_host != host:
                continue
            report = reconcile_site(
                builder.map,
                Browser(self.world.server),
                invalidation=self.cache,
                cdc=self.cdc,
            )
            if not report.clean:
                reports[site_host] = report
        if reports and self.store is not None:
            # Absorbed auto changes edited the maps in place; keep the
            # persisted maps (the rebuild path's compilation source and
            # the next restart's drift baseline) in step.
            self.store.save_navmaps({h: b.map for h, b in self.builders.items()})
        return reports

    # -- querying, layer by layer ------------------------------------------------

    def query(self, text: str, context: ExecutionContext | None = None) -> Relation:
        """Answer an end-user query against the universal relation:
        :meth:`query_stream` collected, so it subsumes, evaluates and
        persists gold exactly as a served query does."""
        pieces = []
        stream = self.query_stream(text, context)
        while True:
            try:
                pieces.append(next(stream)[1])
            except StopIteration as end:
                return Relation.union_of(pieces) if end.value is None else end.value

    def query_stream(self, text: str, context: ExecutionContext | None = None):
        """The query: yields ``(ObjectPlan, Relation)`` pieces whose union
        is the answer, each as its maximal object completes (see
        :meth:`repro.ur.planner.StructuredUR.answer_stream`); rows may
        repeat across pieces.  With MQO on, a revision-current gold answer
        that contains the query serves it first, as one piece whose
        object is ``None``, with zero fetches; the gold answer's query
        text goes on ``context.subsumed_by`` when the caller passed one.
        Otherwise the query is evaluated, and after the last piece the
        answer is persisted to gold when a store is attached
        (:meth:`persist_gold`).  The
        generator returns the whole answer when it built one (the gold
        answer, or the one it persisted), else ``None``.

        The rule is the same whether or not the caller passes a context.
        A context shared by several queries is safe: its plan revisions
        cover a superset of this plan's hosts and its failures include
        this query's, so it refuses gold *more* often, never writes a
        stale record."""
        if self.mqo is not None:
            subsumed = self.mqo.subsume(text)
            if subsumed is not None:
                gold_text, answer = subsumed
                if context is not None:
                    context.subsumed_by = gold_text
                yield None, answer
                return answer
        ctx = context or self.execution_context(label=text)
        pieces = []
        for obj, piece in self.evaluate_stream(text, ctx):
            if piece is not None:
                pieces.append(piece)
                yield obj, piece
        if self.store is None:
            return None
        answer = Relation.union_of(pieces)
        try:
            self.persist_gold(text, answer, ctx)
        except Exception:  # noqa: BLE001 - best-effort: the rows have already left
            self.metrics.counter("mqo.persist_errors").inc()
        return answer

    def evaluate_stream(self, text: str, ctx: ExecutionContext):
        """One real evaluation of ``text`` on ``ctx``: planned under a
        ``query`` span (:meth:`plan_traced`), then
        :meth:`StructuredUR.answer_stream`'s ``(ObjectPlan, Relation |
        None)`` pairs.  Never served from gold and persists nothing — for
        callers that need a real evaluation's trace (reports,
        standing-query refreshes)."""
        with ctx.accounted(), ctx.span("query", text):
            plan = self.plan_traced(text, ctx)
            yield from self.ur.answer_stream(text, plan=plan, context=ctx)

    def plan_traced(self, text: str, ctx: ExecutionContext) -> URPlan:
        """Plan ``text`` under a ``plan`` span of ``ctx``, and note on the
        context every host the plan can read, at its revision now — what
        the answer depends on, stamped before anything is fetched."""
        with ctx.span("plan", "ur") as span:
            plan = self.ur.plan(text)
            span.attrs["objects"] = len(plan.objects)
            span.attrs["feasible"] = len(plan.feasible_objects)
            span.attrs["optimizer"] = plan.optimizer
            plan.record_spans(ctx)
        for host in self.ur.plan_hosts(plan):
            ctx.plan_revisions.setdefault(host, self.revisions.current(host))
        return plan

    def persist_gold(self, text: str, answer: Relation, ctx: ExecutionContext) -> bool:
        """Gold: materialize an answer with the revision vector of every
        host under the plan(s) ``ctx`` ran — not the hosts its trace
        fetched from: a cache hit or a coalesced wait leaves none, and
        the answer depends on the host all the same.  Never a partial
        answer (any failed fetch means no gold), and — like a cache fill,
        ``ResultCache._store`` — never one whose host moved since the
        plan was made: it may straddle the change."""
        vector = ctx.plan_revisions
        if self.store is None or ctx.failures or not self.revisions.all_current(vector):
            return False
        written = self.store.persist_answer(text, answer, vector)
        if written and self.mqo is not None:
            self.mqo.note_answer(text)
        return written

    def explain(self, text: str):
        """Plan and run a query, pairing the planner's per-node fetch
        estimates with the measured counts (``python -m repro explain``)."""
        from repro.core.explain import explain

        return explain(self, text)

    def plan(self, text: str) -> URPlan:
        """Show how a UR query decomposes into maximal objects."""
        return self.ur.plan(text)

    def query_report(self, text: str, context: ExecutionContext | None = None):
        """Answer a query with per-object provenance, cost accounting, and
        the engine's structured trace."""
        from repro.core.report import run_with_report

        return run_with_report(self, text, context=context)

    def fetch_logical(
        self,
        name: str,
        given: dict[str, Any],
        context: ExecutionContext | None = None,
    ) -> Relation:
        """Query one logical relation directly (site-independent view)."""
        ctx = context or self.execution_context(label="logical:%s" % name)
        with ctx.accounted():
            return self.logical.fetch(name, given, context=ctx)

    def fetch_vps(
        self,
        name: str,
        given: dict[str, Any],
        context: ExecutionContext | None = None,
    ) -> Relation:
        """Query one VPS relation directly (one site's form interface)."""
        ctx = context or self.execution_context(label="vps:%s" % name)
        with ctx.accounted():
            return self.cache.fetch(name, given, context=ctx)

    # -- introspection ---------------------------------------------------------------

    def vps_summary(self) -> str:
        lines = ["virtual physical schema (%d relations):" % len(self.vps.relations)]
        for name in self.vps.relation_names:
            relation = self.vps.relation(name)
            handles = "; ".join(
                "mandatory=%s optional=%s"
                % (sorted(h.mandatory), sorted(h.selection - h.mandatory))
                for h in relation.handles
            )
            lines.append(
                "  %s(%s) @ %s  [%s]"
                % (name, ", ".join(relation.schema), relation.host, handles)
            )
        return "\n".join(lines)

    def logical_summary(self) -> str:
        lines = ["logical schema (%d relations):" % len(self.logical.relations)]
        for name in self.logical.relation_names:
            relation = self.logical.relation(name)
            lines.append(
                "  %s(%s)  bindings=%s"
                % (
                    name,
                    ", ".join(relation.schema),
                    [sorted(m) for m in relation.binding_sets],
                )
            )
        return "\n".join(lines)

    def navigation_expression(self, relation: str) -> str:
        """The compiled Transaction F-logic program for a VPS relation —
        the expressions 'nobody, except the system builder, needs to see'."""
        return self.vps.relation(relation).handles[0].expression
