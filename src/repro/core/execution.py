"""The execution engine: per-query contexts, retries, tracing.

"Our experiments suggest that parallelization of query evaluation is
crucial for obtaining acceptable response times."  The simulated Web
returns each access's latency as a number of seconds, so that
parallelism is *modelled*, not run: a query's fan-outs execute on its
own thread, in plan order, and the elapsed column comes from the lane
model below.  For the real three-layer query path (UR planner → logical
views → VPS fetches):

* an :class:`ExecutionContext` travels with one query from the planner
  down to the navigation executor.  Every fan-out — across maximal
  objects, union branches and dependent-join probe batches — goes
  through :meth:`ExecutionContext.completed`, which works the items on
  the calling thread in item order, so answers, page counts and the
  modelled timings are a function of the seed;
* every fetch runs under a **bounded retry with backoff** policy, so the
  transient faults injected by :class:`~repro.web.server.FaultPlan` are
  absorbed instead of silently shrinking answers;
* a per-context **result cache** de-duplicates identical fetches inside
  one query (the cross-query cache is the always-present
  :class:`~repro.vps.cache.ResultCache` layer);
* a structured **trace** (a span tree: query → plan → object → view →
  fetch → attempt) records pages navigated, simulated network seconds,
  cpu, cache hits and retries, exposed via ``WebBase.query_report`` and
  ``python -m repro trace``.

Timing model: the context keeps ``max_workers`` simulated connection
*lanes* and assigns each completed fetch's network seconds to the
least-loaded lane (online makespan scheduling), so

* sequential elapsed (1 worker)  = cpu + Σ per-fetch network seconds
* parallel elapsed (N workers)   = cpu + max over lanes

which is the paper's intuition — with enough workers, elapsed time
approaches the slowest single site instead of the sum over sites.
Fetches complete in plan order, so the lane assignment is deterministic.
Concurrency *across* queries (the service's workers, the shared result
cache's flights) is real and lives in those layers; one
context is driven by one thread, and only :meth:`ExecutionContext.cancel`
may be called from another.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import monotonic, thread_time
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.core.metrics import MetricsRegistry
from repro.core.resilience import ResilienceManager, ResiliencePolicy
from repro.errors import WebBaseError
from repro.navigation.executor import NavigationExecutor
from repro.vps.cache import CachePolicy
from repro.web.browser import PrefixPageCache, TransientNetworkError
from repro.web.clock import SimClock
from repro.web.server import FaultPlan, WebServer

if TYPE_CHECKING:  # pragma: no cover - annotations only; avoids import cycles
    from repro.navigation.compiler import CompiledSite
    from repro.relational.relation import Relation
    from repro.vps.schema import VirtualRelation


# -- policies and configuration ----------------------------------------------------


#: Simulated seconds charged before the first retry; each later retry
#: waits ``BACKOFF_FACTOR`` times longer than the one before.
BACKOFF_SECONDS = 0.25
BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff (in simulated seconds)."""

    max_attempts: int = 3

    def delay_before(self, attempt: int) -> float:
        """Backoff charged before ``attempt`` (attempts count from 1)."""
        if attempt <= 1:
            return 0.0
        return BACKOFF_SECONDS * BACKOFF_FACTOR ** (attempt - 2)


@dataclass(frozen=True)
class WebBaseConfig:
    """Everything :class:`~repro.core.webbase.WebBase` needs to assemble.

    Replaces the old ``build(seed, ads_per_host, caching)`` boolean-flag
    sprawl: world shape, cache policy, lane count, per-fetch retry
    policy and the (optional) fault plan all live here.
    """

    seed: int = 1999
    ads_per_host: int = 120
    cache: CachePolicy = field(default_factory=CachePolicy.noop)
    max_workers: int = 8
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    faults: FaultPlan | None = None
    # "cost" orders each maximal object's join with the cost-based planner;
    # "off" keeps the legacy first-feasible order (the A/B baseline).
    optimizer: str = "cost"
    # Per-host circuit breakers (quarantine in the result cache).
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)
    # Tiered persistence (repro.store): a directory turns on the bronze/
    # silver/gold store — raw pages and fetch intents to bronze, cache
    # fills to silver, materialized answers to gold — and current-revision
    # silver is loaded into the result cache at assembly, so a restart
    # answers repeat queries without live fetches.
    store_dir: str | None = None
    store_fsync: bool = False
    # Multi-query optimization (repro.mqo): a query subsumed by a
    # revision-current gold answer is served by filtering stored rows
    # with zero fetches.  Off by default: single-query runs gain nothing,
    # and benchmarks A/B against ``--no-mqo`` cleanly.
    mqo: bool = False

    def __post_init__(self) -> None:
        if self.optimizer not in ("cost", "off"):
            raise ValueError(
                "optimizer must be 'cost' or 'off'; got %r" % (self.optimizer,)
            )


# -- failures ---------------------------------------------------------------------


@dataclass(frozen=True)
class FetchFailure:
    """One VPS fetch that exhausted its retry budget."""

    relation: str
    host: str
    attempts: int
    error: str

    def describe(self) -> str:
        return "%s @ %s: %d attempt(s) failed; last error: %s" % (
            self.relation,
            self.host,
            self.attempts,
            self.error,
        )


class DeadlineExceeded(WebBaseError):
    """The query's wall-clock deadline expired (or the context was
    cancelled) — a *structured* error: ``stage`` names where the check
    fired (``fetch:<relation>``, ``retry:<relation>``, ``page:<relation>``,
    a cache wait's ``coalesced:`` stage, or ``cancelled``),
    ``deadline_seconds`` the budget, ``elapsed_seconds`` the wall time
    spent when it fired.  Deliberately not a
    :class:`~repro.web.browser.TransientNetworkError`: an expired deadline
    must never be retried, it must propagate to the caller."""

    def __init__(
        self,
        stage: str,
        deadline_seconds: float | None,
        elapsed_seconds: float,
    ) -> None:
        self.stage = stage
        self.deadline_seconds = deadline_seconds
        self.elapsed_seconds = elapsed_seconds
        if deadline_seconds is None:
            message = "cancelled at %s (%.3fs elapsed)" % (stage, elapsed_seconds)
        else:
            message = "deadline of %.3fs exceeded at %s (%.3fs elapsed)" % (
                deadline_seconds,
                stage,
                elapsed_seconds,
            )
        super().__init__(message)


class FetchFailedError(WebBaseError):
    """A VPS fetch failed after every allowed attempt."""

    def __init__(self, failure: FetchFailure) -> None:
        super().__init__(failure.describe())
        self.failure = failure


class FanoutError(WebBaseError):
    """Several fan-out items failed; every error is reported, not just
    the first (the ExceptionGroup-style report)."""

    def __init__(self, errors: Sequence[Exception], total: int) -> None:
        self.errors = list(errors)
        lines = ["%d of %d parallel task(s) failed:" % (len(self.errors), total)]
        lines += [
            "  [%d] %s: %s" % (i + 1, type(e).__name__, e)
            for i, e in enumerate(self.errors)
        ]
        super().__init__("\n".join(lines))


def _raise_collected(errors: Sequence[BaseException], total: int) -> None:
    """How a fan-out of ``total`` tasks reports its ``errors``, if any: a
    deadline expiry trumps the rest (it abandoned the whole fan-out); one failure
    re-raises as itself (``BindingError`` stays one); several, one :class:`FanoutError`."""
    for error in errors:
        if isinstance(error, DeadlineExceeded):
            raise error
    if len(errors) == 1:
        raise errors[0]
    if errors:
        raise FanoutError([e for e in errors if isinstance(e, Exception)], total=total)


# -- the trace --------------------------------------------------------------------


@dataclass
class TraceSpan:
    """One node of a query's execution trace.

    ``kind`` is one of ``query | plan | object | view | fetch | attempt``
    (plus ``context`` for a bare context root).  Network seconds and pages
    are recorded on ``fetch`` spans (totals across attempts) and on each
    ``attempt`` child; ``cpu_seconds`` is recorded where it is measured
    (object spans, the root for whole queries).
    """

    kind: str
    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["TraceSpan"] = field(default_factory=list)
    status: str = "ok"
    error: str = ""
    network_seconds: float = 0.0
    cpu_seconds: float = 0.0
    pages: int = 0
    cache: str = ""  # "", "hit" or "miss" (fetch spans only)

    def walk(self) -> Iterator["TraceSpan"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def spans(self, kind: str) -> list["TraceSpan"]:
        return [s for s in self.walk() if s.kind == kind]

    @property
    def total_network_seconds(self) -> float:
        """Simulated network seconds across the subtree's fetches."""
        return sum(s.network_seconds for s in self.spans("fetch"))

    @property
    def total_pages(self) -> int:
        return sum(s.pages for s in self.spans("fetch"))

    @property
    def total_retries(self) -> int:
        """Attempts beyond the first, across the subtree's fetches."""
        return sum(
            max(0, int(s.attrs.get("attempts", 1)) - 1) for s in self.spans("fetch")
        )

    def _details(self) -> str:
        bits: list[str] = []
        if self.pages:
            bits.append("%d page(s)" % self.pages)
        if self.network_seconds:
            bits.append("net %.2fs" % self.network_seconds)
        if self.cpu_seconds:
            bits.append("cpu %.3fs" % self.cpu_seconds)
        if self.cache:
            bits.append("cache %s" % self.cache)
        attempts = self.attrs.get("attempts")
        if attempts and attempts > 1:
            bits.append("%d attempts" % attempts)
        for key, value in self.attrs.items():
            if key != "attempts":
                bits.append("%s=%s" % (key, value))
        if self.status != "ok":
            bits.append("FAILED: %s" % (self.error or self.status))
        return ", ".join(bits)

    def render(self, indent: int = 0) -> str:
        """The span tree as an indented text outline."""
        details = self._details()
        line = "%s%s %s%s" % (
            "  " * indent,
            self.kind,
            self.name,
            "  [%s]" % details if details else "",
        )
        return "\n".join([line] + [c.render(indent + 1) for c in self.children])

    def to_dict(self, timings: bool = True) -> dict[str, Any]:
        """The span tree as JSON-friendly nested dicts (``trace
        --export-json``).  ``timings=False`` drops the run-dependent
        numbers, leaving only the structural fields."""
        node: dict[str, Any] = {"kind": self.kind, "name": self.name}
        if self.attrs:
            node["attrs"] = dict(self.attrs)
        if self.status != "ok":
            node["status"] = self.status
            node["error"] = self.error
        if self.cache:
            node["cache"] = self.cache
        if timings:
            node["network_seconds"] = self.network_seconds
            node["cpu_seconds"] = self.cpu_seconds
            node["pages"] = self.pages
        if self.children:
            node["children"] = [c.to_dict(timings=timings) for c in self.children]
        return node

    def skeleton(self, indent: int = 0) -> str:
        """The *normalized* trace: kinds, names, parent/child shape, cache
        flags and statuses — no timings, pages or attempt counts.  This is
        what the golden-trace regression test snapshots: it is stable
        across machines and runs, yet any drift in plan shape, span
        nesting or cache behaviour shows up as a readable text diff."""
        bits = [self.cache] if self.cache else []
        if self.status != "ok":
            bits.append(self.status)
        line = "%s%s %s%s" % (
            "  " * indent,
            self.kind,
            self.name,
            "  [%s]" % ", ".join(bits) if bits else "",
        )
        return "\n".join([line] + [c.skeleton(indent + 1) for c in self.children])


# -- the navigation stack -----------------------------------------------------------


class ExecutorBundle:
    """One navigation stack: executor + simulated clock.

    Browsers and executors (a current page, page counters) are not
    shareable between threads, so each :class:`ExecutionContext` builds
    its own on its first live fetch, with the context's page cache
    installed, and keeps it until the context dies; a query that makes no
    live fetch builds none.  A context zeroes the clock at the start of
    each fetch and reads the fetch's seconds off it.
    """

    def __init__(
        self,
        server: WebServer,
        sites: Iterable["CompiledSite"],
        page_cache: PrefixPageCache,
    ) -> None:
        self.clock = SimClock()
        self.executor = NavigationExecutor(server, self.clock)
        self.executor.page_cache = page_cache
        for compiled in sites:
            self.executor.add_site(compiled)


# -- the execution context ---------------------------------------------------------


class ExecutionContext:
    """Per-query execution state: lanes, cache, retries, trace — and the
    query's navigation stack and deadline.

    Create one per query (``webbase.execution_context()``), or share one
    across several ``query``/``fetch_logical``/``fetch_vps`` calls to pool
    their caching and accounting.  The context belongs to its caller: the
    webbase keeps none, so a context and every page it fetched die with
    the last caller that holds it.  ``new_stack`` builds its
    :class:`ExecutorBundle` on the first live fetch.  One thread drives a
    context; any thread may :meth:`cancel` it.  All fan-out goes through
    :meth:`completed` (and :meth:`map`, its ordered collector), which runs
    the items in order on the caller, so ``max_workers`` changes the
    modelled elapsed time and nothing else: not the answer, the pages or
    the fetch order.
    """

    def __init__(
        self,
        new_stack: Callable[[PrefixPageCache], ExecutorBundle],
        max_workers: int = 8,
        retry: RetryPolicy | None = None,
        label: str = "context",
        metrics: MetricsRegistry | None = None,
        deadline_seconds: float | None = None,
        wall_clock: Callable[[], float] = monotonic,
        page_revisions: Callable[[str], int] | None = None,
        resilience: ResilienceManager | None = None,
    ) -> None:
        self._new_stack = new_stack
        self._stack: ExecutorBundle | None = None
        self.max_workers = max(1, int(max_workers))
        self.retry = retry or RetryPolicy()
        self.metrics = metrics or MetricsRegistry()
        # Per-host breakers, shared across the webbase's queries and fed
        # each attempt's outcome (``None`` = no resilience layer).
        self.resilience = resilience
        # Batched navigation: one revision-stamped page cache per context
        # (query-scoped — dropped with the context, so cross-query staleness
        # is impossible by construction), installed in the context's
        # navigation stack.  ``page_revisions`` reads a host's current
        # navigation-map revision (wired to Revisions.current, advanced by
        # site maintenance).
        self.page_cache = PrefixPageCache(
            revision_of=page_revisions,
            metrics=self.metrics,
        )
        # Wall-clock deadline: the deadline bounds the query's *real*
        # elapsed time, not its simulated network seconds — the contract a
        # serving client cares about.  Every checkpoint reads
        # ``wall_clock`` (injectable, so tests can step time).
        self._wall_clock = wall_clock
        self._started_wall = wall_clock()
        self.deadline_seconds = deadline_seconds
        self._deadline_at = (
            None if deadline_seconds is None else self._started_wall + deadline_seconds
        )
        self._cancelled = threading.Event()
        self.root = TraceSpan("context", label)
        self.failures: list[FetchFailure] = []
        # host → revision at plan time, for every plan run here (WebBase.plan_traced).
        self.plan_revisions: dict[str, int] = {}
        self.network_by_host: dict[str, float] = {}
        self.pages_by_host: dict[str, int] = {}
        self.fetches = 0
        self.retries = 0
        self.cache_hits = 0
        self.cpu_seconds = 0.0
        # Simulated connection lanes.  Each completed fetch is assigned to
        # the least-loaded of ``max_workers`` lanes (online makespan
        # scheduling), so the parallel elapsed model — cpu + busiest lane —
        # reflects the worker budget; fetches complete in plan order, so
        # it is a function of the seed (the in-process Web costs no real
        # wall time, so there is nothing real to overlap).
        self._lane_seconds: list[float] = [0.0] * self.max_workers
        # Their sum, added up in fetch order — the order one lane adds
        # them in, so one lane's busiest lane equals it to the last bit.
        self._network_seconds = 0.0
        self._cache: dict[tuple, "Relation"] = {}
        # The result-cache reads of the maximal object evaluating now, which
        # the UR planner may remember its answer on (``None`` when no
        # object is logging, or once a read cannot be replayed).
        self.reads: list | None = None
        self._spans: list[TraceSpan] = []  # the open spans, innermost last
        self._accounting = False

    # -- timing model -------------------------------------------------------

    @property
    def network_seconds_total(self) -> float:
        """Σ network seconds over every fetch — the sequential cost."""
        return self._network_seconds

    @property
    def network_seconds_critical(self) -> float:
        """The busiest lane — the simulated-parallel elapsed network time."""
        return max(self._lane_seconds)

    @property
    def elapsed_seconds(self) -> float:
        """Modelled wall time of this context: cpu + the busiest lane."""
        return self.cpu_seconds + self.network_seconds_critical

    @property
    def sequential_elapsed_seconds(self) -> float:
        """What the same work would cost with one worker."""
        return self.cpu_seconds + self.network_seconds_total

    # -- deadlines and cancellation -----------------------------------------

    @property
    def wall_elapsed_seconds(self) -> float:
        """Real wall-clock seconds since the context was created."""
        return self._wall_clock() - self._started_wall

    @property
    def deadline_remaining_seconds(self) -> float | None:
        """Wall seconds left before the deadline (``None`` = no deadline)."""
        if self._deadline_at is None:
            return None
        return self._deadline_at - self._wall_clock()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def cancel(self) -> None:
        """Abandon the context — the one way to revoke its work: every
        subsequent checkpoint raises :class:`DeadlineExceeded`, so running
        fetches stop before their next page or retry, waiters leave their
        waits, and fan-outs stop taking new items."""
        self._cancelled.set()

    def check_cancelled(self, stage: str) -> None:
        """The engine's one cancellation checkpoint: raise
        :class:`DeadlineExceeded` if the context was cancelled or its
        deadline has passed, record the event as a trace span and count it.

        It runs before every fetch, retry and page, and in the result
        cache's flight wait, so an expired
        query stops its Web work at the next checkpoint on its own thread:
        no timer has to cancel it.  Costs one wall-clock read when the
        context has a deadline, none otherwise."""
        expired = self._deadline_at is not None and self._wall_clock() >= self._deadline_at
        if not expired and not self._cancelled.is_set():
            return
        if expired:
            exc = DeadlineExceeded(stage, self.deadline_seconds, self.wall_elapsed_seconds)
        else:
            exc = DeadlineExceeded("cancelled", None, self.wall_elapsed_seconds)
        # One expiry cancels the whole context: the fetches after this
        # one stop at their own first check.
        self._cancelled.set()
        self.metrics.counter("engine.deadline_exceeded").inc()
        self.current_span().children.append(
            TraceSpan("deadline", stage, status="error", error=str(exc))
        )
        raise exc

    @contextmanager
    def accounted(self) -> Iterator[None]:
        """Charge the calling thread's cpu time to the context (re-entrant:
        the outermost frame charges).  Thread time, not process time: a
        query is never billed a concurrent query's cpu."""
        if self._accounting:
            yield
            return
        self._accounting = True
        mark = thread_time()
        try:
            yield
        finally:
            self._accounting = False
            self.cpu_seconds += thread_time() - mark

    # -- tracing -------------------------------------------------------------

    def current_span(self) -> TraceSpan:
        return self._spans[-1] if self._spans else self.root

    @contextmanager
    def span(self, kind: str, name: str, **attrs: Any) -> Iterator[TraceSpan]:
        """Open a child span of the current span."""
        child = TraceSpan(kind, name, attrs=dict(attrs))
        self.current_span().children.append(child)
        self._spans.append(child)
        try:
            yield child
        finally:
            self._spans.pop()

    def failure_report(self) -> str:
        """The per-site partial-failure report."""
        if not self.failures:
            return "no failures"
        lines = ["%d fetch failure(s):" % len(self.failures)]
        lines += ["  " + failure.describe() for failure in self.failures]
        return "\n".join(lines)

    # -- fan-out -------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Apply ``fn`` to every item, returning the results in item order;
        errors are collected from *every* item (:func:`_raise_collected`)."""
        items = list(items)
        results: list[Any] = [None] * len(items)
        errors: list[Exception] = []
        for index, value, error in self.completed(fn, items):
            if error is None:
                results[index] = value
            else:
                errors.append(error)
        _raise_collected(errors, len(items))
        return results

    def completed(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[tuple[int, Any, Exception | None]]:
        """The one fan-out primitive: apply ``fn`` to every item on the
        calling thread, in item order, yielding ``(index, value, error)``
        as each finishes — item 1 reaches the caller before item 2 starts.
        An item's error is handed over, not raised, and the next item
        runs; a :class:`DeadlineExceeded` abandons the items after it.
        How many items a real Web would overlap is the lane model's
        business (``max_workers``), not this loop's."""
        for index, item in enumerate(items):
            try:
                value, error = fn(item), None
            except Exception as exc:  # noqa: BLE001 - reported by the consumer
                value, error = None, exc
            yield index, value, error
            if isinstance(error, DeadlineExceeded):
                return  # the context is cancelled

    # -- fetching ------------------------------------------------------------

    @staticmethod
    def _fetch_key(relation: "VirtualRelation", given: dict[str, Any]) -> tuple:
        return (
            relation.name,
            tuple(sorted((a, str(v)) for a, v in given.items() if v is not None)),
        )

    def run_fetch(self, relation: "VirtualRelation", given: dict[str, Any]) -> "Relation":
        """Fetch one VPS relation through the engine: per-context cache,
        the context's navigation stack, bounded retry, trace.
        Returns the relation or raises the failure; a passed deadline, or
        a :meth:`cancel` from another thread, stops the fetch at its next
        checkpoint with :class:`DeadlineExceeded`.

        A repeat of a ``(relation, bindings)`` key within the context is a
        cache hit.  A failed fetch is never cached, so a later repeat
        tries again.
        """
        key = self._fetch_key(relation, given)
        self.check_cancelled("fetch:%s" % relation.name)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            self.metrics.counter("engine.context_cache_hits").inc()
            with self.span("fetch", relation.name, host=relation.host) as span:
                span.cache = "hit"
            return cached
        result = self._cache[key] = self._dispatch_fetch(relation, given)
        return result

    def _dispatch_fetch(self, relation: "VirtualRelation", given: dict[str, Any]) -> "Relation":
        if self._stack is None:
            self._stack = self._new_stack(self.page_cache)
        return self._fetch_with_retries(relation, given, self._stack)

    def run_fetch_batch(
        self, relation: "VirtualRelation", givens: list[dict[str, Any]]
    ) -> "list[Relation]":
        """Fetch one VPS relation for a whole probe batch (the batched leg
        of a dependent join); the relations come back in ``givens`` order,
        and duplicate bindings share one result.

        Each distinct binding is one :meth:`run_fetch` — per-context
        cache, navigation stack, retries, trace spans — and the
        query-scoped page cache shares the navigation prefix pages across
        them.  The bindings run in fetch-key order: the order decides
        which lane each fetch lands on, so sorting keeps the elapsed model
        a function of the binding set, not of the outer relation's row
        order.  A failed binding does not stop the batch; a
        :class:`DeadlineExceeded` abandons the rest of it.  Failures are
        reported as :meth:`map` reports them (:func:`_raise_collected`)."""
        if not givens:
            return []
        self.metrics.histogram("nav.batch_size").observe(len(givens))
        if len(givens) == 1:
            return [self.run_fetch(relation, givens[0])]
        keyed = [(self._fetch_key(relation, given), given) for given in givens]
        unique: dict[tuple, dict[str, Any]] = {}
        for key, given in sorted(keyed, key=lambda kv: kv[0]):
            unique.setdefault(key, given)
        relations = self.map(lambda given: self.run_fetch(relation, given), unique.values())
        fetched = dict(zip(unique, relations))
        return [fetched[key] for key, _ in keyed]

    def _fetch_with_retries(
        self,
        relation: "VirtualRelation",
        given: dict[str, Any],
        bundle: ExecutorBundle,
    ) -> "Relation":
        policy = self.retry
        attempts_allowed = max(1, policy.max_attempts)
        with self.span("fetch", relation.name, host=relation.host) as fspan:
            fspan.cache = "miss"
            # Measured from zero: the same fetch reports the same seconds,
            # whatever the stack served before (the engine is the clock's
            # only reader).
            bundle.clock.reset()
            pages_total = 0
            last_error: Exception | None = None
            result: "Relation | None" = None
            attempts_used = 0
            # A cancelled context (an expired deadline, or cancel()) stops
            # the navigation between pages: the executor polls this hook
            # before every page fetch.
            bundle.executor.cancel_check = lambda: self.check_cancelled(
                "page:%s" % relation.name
            )
            try:
                for attempt in range(1, attempts_allowed + 1):
                    attempts_used = attempt
                    self.metrics.counter("engine.fetch_attempts").inc()
                    if attempt > 1:
                        # The deadline and the cancel flag are re-checked
                        # between retries, so a dying query stops burning its
                        # retry budget (and backoff) on a lost cause.
                        self.check_cancelled("retry:%s" % relation.name)
                        bundle.clock.charge(policy.delay_before(attempt))
                        self.retries += 1
                        self.metrics.counter("engine.retries").inc()
                    attempt_start = bundle.clock.network_seconds
                    with self.span("attempt", "#%d" % attempt) as aspan:
                        try:
                            fetched = relation.fetch(given, executor=bundle.executor)
                        except TransientNetworkError as exc:
                            aspan.network_seconds = (
                                bundle.clock.network_seconds - attempt_start
                            )
                            aspan.pages = bundle.executor.pages_last_fetch
                            aspan.status = "error"
                            aspan.error = str(exc)
                            pages_total += aspan.pages
                            last_error = exc
                            if self.resilience is not None:
                                self.resilience.record_failure(relation.host)
                            continue
                        aspan.network_seconds = (
                            bundle.clock.network_seconds - attempt_start
                        )
                        aspan.pages = bundle.executor.pages_last_fetch
                        pages_total += aspan.pages
                        if self.resilience is not None:
                            self.resilience.record_success(
                                relation.host, aspan.network_seconds
                            )
                    result = fetched
                    break
            except DeadlineExceeded as exc:
                fspan.status = "cancelled"
                fspan.error = str(exc)
                raise
            finally:
                # No cycle back to the context: it, and its pages, die
                # with its last caller, not at the next collection.
                bundle.executor.cancel_check = None
            total = bundle.clock.network_seconds
            fspan.network_seconds = total
            fspan.pages = pages_total
            fspan.attrs["attempts"] = attempts_used
            self.fetches += 1
            self.network_by_host[relation.host] = (
                self.network_by_host.get(relation.host, 0.0) + total
            )
            self.pages_by_host[relation.host] = (
                self.pages_by_host.get(relation.host, 0) + pages_total
            )
            lane = min(range(self.max_workers), key=self._lane_seconds.__getitem__)
            self._lane_seconds[lane] += total
            self._network_seconds += total
            self.metrics.counter("engine.fetches").inc()
            self.metrics.histogram("engine.fetch_seconds").observe(total)
            self.metrics.histogram("engine.fetch_pages").observe(pages_total)
            if result is None:
                fspan.status = "error"
                fspan.error = str(last_error)
                failure = FetchFailure(
                    relation=relation.name,
                    host=relation.host,
                    attempts=attempts_used,
                    error=str(last_error),
                )
                self.failures.append(failure)
                self.metrics.counter("engine.failures").inc()
                raise FetchFailedError(failure) from last_error
            return result
