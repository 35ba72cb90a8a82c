"""The webbase query server: admission control, deadlines, streaming.

One :class:`WebBaseService` owns one :class:`~repro.core.webbase.WebBase`
— its cross-query result cache, its metrics registry, its navigation maps
— and serves it to many concurrent clients over TCP (stdlib only:
``socketserver`` + ``threading``).  The expensive resource is the bounded
pool of live source accesses; the service's job is to make N clients
share it gracefully rather than degrade everyone:

* **admission with load shedding** — a request runs on its connection's
  own thread: at most ``config.workers`` requests run at once, at most
  ``config.queue_limit`` more wait their turn in arrival order, and
  beyond that a request is *shed* with a retriable ``OVERLOADED`` error.
  Shedding keeps latency bounded for admitted work instead of letting
  every client's tail grow without bound.  A connection reads its next
  request only once the current one is answered, so one client holds at
  most one runner or waiting place;
* **per-request deadlines** — the remaining budget (waiting counts!)
  propagates into the query's
  :class:`~repro.core.execution.ExecutionContext`, which re-checks it
  before every fetch, retry and page and in every wait, so an expired
  query stops at its next checkpoint (``DEADLINE_EXCEEDED``, not
  retriable);
* **streaming results** — rows are sent in pages as each maximal object
  completes (deduplicated across objects), so a ``More``-loop query
  reaches the client incrementally instead of buffering the relation;
* **graceful drain** — :meth:`WebBaseService.shutdown` stops accepting,
  rejects new queries with ``SHUTTING_DOWN``, finishes every admitted
  request, and flushes a final metrics snapshot;
* **standing queries** — a client ``subscribe``s a query once and then
  receives ``delta`` frames (row added/removed) whenever a maintenance
  sweep moves the answer.  :meth:`WebBaseService.sweep` hands each host
  the sweep found changed to the :class:`StandingQueryRegistry`, which
  re-evaluates the queries that depend on it, applies every evaluation
  through one refresh and, with a tiered store, keeps each registration
  and its delivered snapshot in gold, so a restarted service resumes a
  resubscribing client with the deltas it missed;
* **service metrics** — queue depth (waiters), admitted/shed counts and
  per-stage latency histograms (queue wait, execution, total — with
  p50/p95/p99) feed the webbase's own
  :class:`~repro.core.metrics.MetricsRegistry`, so cache and engine
  counters reconcile with service traffic in one place.
"""

from __future__ import annotations

import socketserver
import threading
from collections import deque
from dataclasses import dataclass
from time import monotonic
from typing import Any

from repro.core.execution import DeadlineExceeded, ExecutionContext
from repro.core.webbase import WebBase
from repro.relational.relation import Relation
from repro.service import protocol
from repro.service.protocol import (
    E_BAD_REQUEST,
    E_DEADLINE_EXCEEDED,
    E_INTERNAL,
    E_OVERLOADED,
    E_SHUTTING_DOWN,
    Request,
)
from repro.ur.planner import PlanError
from repro.ur.query import QueryParseError


#: How long a graceful drain waits for waiting and running requests.
DRAIN_TIMEOUT_SECONDS = 30.0

#: Rows per streamed page, unless the request names its own page size.
PAGE_SIZE = 50


class OperationRejected(Exception):
    """An op the service refuses by policy (maps to ``BAD_REQUEST``)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Sizing and policy knobs of one service instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick an ephemeral port (see WebBaseService.address)
    queue_limit: int = 16  # requests waiting to run; beyond this, shed
    workers: int = 4  # requests running at once
    # Cluster membership: a non-empty shard id is stamped onto result
    # frames so clients and routers can see which shard served them.
    shard_id: str = ""
    # Whether the `mutate` op (simulated-Web churn control, used by the
    # cluster test/bench harness to keep every worker's world identical)
    # is accepted.  Off by default: a public-facing service must not let
    # clients edit the world.
    allow_world_mutation: bool = False

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1; got %r" % self.queue_limit)
        if self.workers < 1:
            raise ValueError("workers must be >= 1; got %r" % self.workers)


@dataclass(eq=False)  # waiters are told apart by identity
class _Job:
    """One admitted request, waiting for (or holding) a runner."""

    handler: "_ClientHandler"
    request: Request
    admitted_at: float
    deadline_at: float | None  # wall (monotonic) expiry; waiting counts


def _pages(
    request_id: int, seq: int, schema: list[str], rows: list, size: int, source: str
) -> list[dict[str, Any]]:
    """``rows`` cut into ``page`` frames numbered from ``seq``: one burst."""
    return [
        protocol.page_frame(
            request_id, seq + i, schema, rows[start : start + size], source=source
        )
        for i, start in enumerate(range(0, len(rows), size))
    ]


class StandingQuery:
    """One registered standing query and its last delivered state."""

    def __init__(self, text: str, snapshot: dict[str, Any] | None = None) -> None:
        self.text = text
        self.schema: list[str] = []
        self.rows: set[tuple] = set()
        self.deps: set[str] = set()  # hosts under the answer's plan
        # The revision vector the delivered state was evaluated at: an
        # evaluation older than it on any host is never delivered.
        self.revisions: dict[str, int] = {}
        self.seq = 0  # numbers the delivered states; 0: no state yet
        # (handler, request id) -> held: registered, but not yet acked.
        self.subscribers: dict[tuple[Any, int], bool] = {}
        # Held from a refresh's diff to its last send and around an ack:
        # a subscriber gets its ack first, then its deltas in seq order.
        self.delivery = threading.Lock()
        if snapshot is not None:  # persisted by this store, or a dead sibling's
            self.schema = list(snapshot["schema"])
            self.rows = {tuple(row) for row in snapshot["rows"]}
            self.seq = int(snapshot["seq"])
            self.revisions = dict(snapshot.get("revisions", {}))


class StandingQueryRegistry:
    """Re-evaluates standing queries after sweeps and pushes row deltas.

    The contract per standing query: the subscriber's row set after
    applying every received frame equals a fresh evaluation — no
    duplicates, no misses.  Every evaluation (a sweep's, a subscribe's,
    a resume's) goes through one :meth:`_apply_refresh`, which persists
    the new snapshot to gold *before* delivering the delta, so after an
    orderly shutdown the persisted snapshot equals the client's state and
    a resubscribe resumes with exactly the diff against it.  Queries with
    no subscriber are left un-refreshed for the same reason: their
    snapshot must keep describing what their (absent) client last saw.
    """

    def __init__(self, webbase: WebBase, metrics: Any) -> None:
        self._webbase = webbase
        self._metrics = metrics
        self._lock = threading.Lock()
        self._queries: dict[str, StandingQuery] = {}
        self.deltas_sent = 0
        store = webbase.store
        if store is not None:
            for text, snapshot in store.standing_queries().items():
                self._queries[text] = StandingQuery(text, snapshot)

    def _evaluate(self, text: str) -> tuple[Any, dict[str, int]]:
        """One fresh evaluation, returning the answer and the revision of
        every host under its plan at plan time — its deps, so an
        evaluation served wholly from cache still knows which sweeps must
        refresh it, and what it captured, so a move since is detectable."""
        ctx = self._webbase.execution_context(label="standing:%s" % text)
        stream = self._webbase.evaluate_stream(text, ctx)
        answer = Relation.union_of([piece for _, piece in stream if piece is not None])
        return answer, ctx.plan_revisions

    def _persist(self, standing: StandingQuery) -> None:
        store = self._webbase.store
        if store is None:
            return
        store.persist_snapshot(
            standing.text,
            standing.schema,
            sorted(standing.rows),
            standing.revisions,
            standing.seq,
        )

    def subscribe(
        self,
        handler: Any,
        request: Request,
        page_size: int,
    ) -> None:
        """Register held, evaluate, then ack and release.

        The subscriber is registered first, *held*: from then on every
        sweep refreshes the query, but sends the new subscriber nothing.
        The subscribe's own evaluation goes through :meth:`_apply_refresh`
        like a sweep's.  Then, under the query's delivery lock, the state
        at release goes out and the subscriber is released.  A plain
        subscribe receives that state as snapshot pages before the ack.
        A ``resume`` subscribe (the client holds the state the query had
        when it registered: the persisted snapshot) receives the ack and
        at most one ``"resume"`` delta, from that state to this one.
        """
        text = request.text
        subscriber = (handler, request.id)
        store = self._webbase.store
        with self._lock:
            standing = self._queries.get(text)
            if standing is None:
                standing = self._queries[text] = StandingQuery(text)
            resumed = request.resume and standing.seq > 0
            held = standing.rows  # what a resume holds; refreshes replace it
            standing.subscribers[subscriber] = True
        try:
            answer, revisions = self._evaluate(text)
        except BaseException:
            with self._lock:
                standing.subscribers.pop(subscriber, None)
                if not standing.subscribers and standing.seq == 0:
                    self._queries.pop(text, None)
            raise
        self._apply_refresh(
            standing, answer.schema, set(answer.rows), revisions,
            host="", revision=0, reason="resume" if resumed else "subscribe",
        )
        with standing.delivery:
            with self._lock:
                if subscriber in standing.subscribers:  # not detached meanwhile
                    standing.subscribers[subscriber] = False
                    if store is not None:
                        store.record_standing(text, active=True)
                rows, schema, seq = standing.rows, list(standing.schema), standing.seq
            holds = held if resumed else rows  # the client's rows at the ack
            frames = [] if resumed else _pages(
                request.id, 0, schema, sorted(rows), page_size, "snapshot"
            )
            moved = holds != rows  # then the ack is numbered just before the delta
            frames.append(
                protocol.subscribed_frame(request.id, len(holds), resumed, seq - moved)
            )
            if moved:
                frames.append(
                    protocol.delta_frame(
                        request.id, seq, schema, sorted(rows - holds),
                        sorted(holds - rows), host="", revision=0, reason="resume",
                    )
                )
                self.deltas_sent += 1
                self._metrics.counter("service.standing_deltas").inc()
            handler.send(*frames)
        self._metrics.counter("service.standing_subscribed").inc()
        self._metrics.gauge("service.standing_active").set(len(self._queries))

    def unsubscribe(self, handler: Any, request: Request) -> None:
        """Explicitly deregister: the standing query (and its persisted
        registration) is dropped once no subscriber holds it."""
        text = request.text
        with self._lock:
            standing = self._queries.get(text)
            if standing is None:
                return
            for gone in [s for s in standing.subscribers if s[0] is handler]:
                del standing.subscribers[gone]
            if not standing.subscribers:
                del self._queries[text]
                store = self._webbase.store
                if store is not None:
                    store.record_standing(text, active=False)
        self._metrics.gauge("service.standing_active").set(len(self._queries))

    def detach(self, handler: Any) -> None:
        """A connection closed: drop its subscriptions but keep the
        registrations and snapshots — that is what resume is for."""
        with self._lock:
            for standing in self._queries.values():
                for gone in [s for s in standing.subscribers if s[0] is handler]:
                    del standing.subscribers[gone]

    def adopt(self, snapshots: dict[str, dict[str, Any] | None]) -> int:
        """Shard takeover: merge a dead sibling's persisted standing
        queries (text → snapshot) into this registry.

        Adopted queries arrive subscriber-less — their delivered state is
        whatever the dead shard last persisted, frozen until the client
        resubscribes with ``resume=True`` here (routed by the cluster
        router) and picks up exactly the diff.  Queries this registry
        already tracks keep their own state.  Returns how many were
        newly adopted."""
        store = self._webbase.store
        adopted = 0
        with self._lock:
            for text, snapshot in sorted(snapshots.items()):
                if text in self._queries:
                    continue
                standing = self._queries[text] = StandingQuery(text, snapshot)
                adopted += 1
                if store is not None:
                    store.record_standing(text, active=True)
                    if snapshot is not None:
                        self._persist(standing)
        self._metrics.gauge("service.standing_active").set(len(self._queries))
        return adopted

    def refresh(self, host: str, revision: int) -> None:
        """A sweep changed ``host``, now at ``revision``: re-evaluate the
        subscribed standing queries that depend on it and push their
        deltas."""
        with self._lock:
            affected = [
                standing
                for standing in self._queries.values()
                if standing.subscribers
                and (not standing.deps or host in standing.deps)
            ]
        for standing in affected:
            answer, revisions = self._evaluate(standing.text)
            self._apply_refresh(
                standing,
                answer.schema,
                set(answer.rows),
                revisions,
                host=host,
                revision=revision,
                reason="cdc",
            )

    def _apply_refresh(
        self,
        standing: StandingQuery,
        schema: Any,
        fresh_rows: set[tuple],
        revisions: dict[str, int],
        host: str,
        revision: int,
        reason: str,
    ) -> None:
        """Diff a fresh evaluation, read at ``revisions``, against the
        state; persist then push to every released subscriber
        (persist-first keeps snapshot == client state across an orderly
        shutdown).  ``reason`` only labels the delta.  Evaluations apply
        in revision order, not arrival order: one older than the state on
        any host is dropped, because a newer one was applied over it."""
        with standing.delivery:
            with self._lock:
                standing.deps |= set(revisions)
                if not standing.subscribers:
                    # Nobody to deliver to (a sweep that finished after the
                    # last client left): the state stays what the absent
                    # client holds, so its resume delta carries this change.
                    return
                if any(revisions.get(h, r) < r for h, r in standing.revisions.items()):
                    return
                standing.revisions = {**standing.revisions, **revisions}
                added = sorted(fresh_rows - standing.rows)
                removed = sorted(standing.rows - fresh_rows)
                if standing.seq > 0 and not added and not removed:
                    return
                standing.rows = fresh_rows
                standing.schema = list(schema)
                standing.seq += 1
                seq = standing.seq
                released = [s for s, held in standing.subscribers.items() if not held]
                self._persist(standing)
            for handler, request_id in released:
                handler.send(
                    protocol.delta_frame(
                        request_id,
                        seq,
                        list(schema),
                        added,
                        removed,
                        host=host,
                        revision=revision,
                        reason=reason,
                    )
                )
                self.deltas_sent += 1
                self._metrics.counter("service.standing_deltas").inc()


class _ClientHandler(protocol.LineFrameHandler):
    """One connected client: parses its request frames and runs each on
    this connection's thread (framing and writes: the base class)."""

    server: "_TcpServer"

    def on_frame(self, payload: dict[str, Any]) -> None:
        service = self.server.service
        request = protocol.parse_request(payload)
        if request.op == "ping":
            self.send(protocol.pong_frame(request.id))
        elif request.op == "metrics":
            self.send(protocol.metrics_frame(request.id, service.metrics.snapshot()))
        elif request.op == "hello":
            self.send(
                protocol.welcome_frame(
                    request.id, service.config.shard_id, service.role
                )
            )
        elif request.op == "status":
            self.send(protocol.status_frame(request.id, service.describe_status()))
        elif request.op == "drain":
            # Ack with the pre-drain status, then drain off-thread:
            # shutdown() waits for every admitted request, and this
            # connection need not wait with it.
            self.send(protocol.status_frame(request.id, service.describe_status()))
            threading.Thread(
                target=service.shutdown, name="service-drain", daemon=True
            ).start()
        elif request.op == "unsubscribe":
            service.standing.unsubscribe(self, request)
            self.send(protocol.unsubscribed_frame(request.id))
        else:
            service.submit_query(self, request)

    def finish(self) -> None:
        try:
            self.server.service.standing.detach(self)
        finally:
            super().finish()


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: "WebBaseService") -> None:
        super().__init__(address, _ClientHandler)
        self.service = service


class WebBaseService:
    """A multi-client query service over one shared webbase."""

    #: What this peer answers to ``hello`` — the cluster worker wrapper
    #: overrides it to ``"worker"``; the router speaks for itself.
    role = "service"

    def __init__(self, webbase: WebBase, config: ServiceConfig | None = None) -> None:
        self.webbase = webbase
        self.config = config or ServiceConfig()
        self.metrics = webbase.metrics
        self._draining = threading.Event()
        self._stopped = threading.Event()  # shutdown() has completed
        # Guards the waiters and the runner count; notified on every exit.
        self._state = threading.Condition()
        self._waiting: deque[_Job] = deque()  # in arrival order
        self._inflight = 0  # requests running
        self._server: _TcpServer | None = None
        self._acceptor: threading.Thread | None = None
        # Refreshed by :meth:`sweep` for every host it finds changed.
        self.standing = StandingQueryRegistry(webbase, self.metrics)

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves port 0 to the ephemeral pick."""
        if self._server is None:
            raise RuntimeError("service not started")
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> tuple[str, int]:
        """Bind the socket and start the acceptor."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._server = _TcpServer((self.config.host, self.config.port), self)
        self._acceptor = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="service-acceptor",
            daemon=True,
        )
        self._acceptor.start()
        return self.address

    def shutdown(self) -> dict[str, Any]:
        """Graceful drain: stop accepting, reject new queries with
        ``SHUTTING_DOWN``, finish the waiting and running requests (bounded
        by ``DRAIN_TIMEOUT_SECONDS``), and return the flushed final metrics
        snapshot.  Idempotent: a second call (the foreground loop's, after
        a remote ``drain``) just returns it."""
        if self._stopped.is_set():
            return self.metrics.snapshot()
        self._draining.set()
        if self._server is not None:
            self._server.shutdown()  # stop accepting new connections
        deadline = monotonic() + DRAIN_TIMEOUT_SECONDS
        with self._state:
            while (self._waiting or self._inflight) and monotonic() < deadline:
                self._state.wait(deadline - monotonic())
        if self._server is not None:
            self._server.server_close()
        if self._acceptor is not None:
            self._acceptor.join(timeout=5.0)
        self.metrics.gauge("service.queue_depth").set(len(self._waiting))
        self.metrics.counter("service.drains").inc()
        self._stopped.set()
        return self.metrics.snapshot()

    def wait_stopped(self, timeout: float | None = None) -> bool:
        """Block until :meth:`shutdown` completes (a remote ``drain``
        lands here too); what a foreground server waits on."""
        return self._stopped.wait(timeout)

    def describe_status(self) -> dict[str, Any]:
        """One JSON object describing this peer (the ``status`` answer)."""
        return {
            "role": self.role,
            "shard_id": self.config.shard_id,
            "protocol_version": protocol.PROTOCOL_VERSION,
            "draining": self._draining.is_set(),
            "inflight": self._inflight,
            "queue_depth": len(self._waiting),
            "standing": len(self.standing._queries),
            "store_dir": getattr(self.webbase.store, "root", None),
        }

    def sweep(self, host: str | None = None) -> dict[str, Any]:
        """One server-side maintenance cycle (all hosts, or just ``host``).

        Once every host has reconciled, each host with a non-clean report
        (in host order) refreshes the standing queries that depend on it,
        at its current revision — so by the time the caller's ``result``
        frame arrives, every affected subscriber has already been pushed
        its ``delta`` frames.  Only this path refreshes them: a
        :meth:`WebBase.run_maintenance` call made around the service
        does not."""
        self.metrics.counter("service.sweeps").inc()
        reports = self.webbase.run_maintenance(host)
        for changed in sorted(reports):
            self.standing.refresh(changed, self.webbase.revisions.current(changed))
        return {
            "swept": host or "*",
            "changed_hosts": sorted(reports),
            "changes": sum(len(r.changes) for r in reports.values()),
            "standing_deltas": self.standing.deltas_sent,
        }

    # -- admission -----------------------------------------------------------

    def submit_query(self, handler: _ClientHandler, request: Request) -> None:
        """Run one request on the calling connection thread once admitted —
        or reject it with a structured error rather than degrading everyone."""
        self.metrics.counter("service.requests").inc()
        if self._draining.is_set():
            self.metrics.counter("service.rejected_draining").inc()
            handler.send(
                protocol.error_frame(
                    request.id, E_SHUTTING_DOWN, "server is draining; retry elsewhere"
                )
            )
            return
        admitted_at = monotonic()
        deadline_ms = request.deadline_ms
        job = _Job(
            handler=handler,
            request=request,
            admitted_at=admitted_at,
            deadline_at=(
                None if deadline_ms is None else admitted_at + deadline_ms / 1000.0
            ),
        )
        refusal = self._admit(job)
        if refusal is not None:
            handler.send(refusal)
            return
        try:
            self._run_job(job)
        finally:
            with self._state:
                self._inflight -= 1
                self._state.notify_all()
            self.metrics.gauge("service.inflight").set(self._inflight)

    def _admit(self, job: _Job) -> dict[str, Any] | None:
        """Wait until ``job`` heads the waiters and fewer than ``workers``
        requests run, then count it as running: waiters run in arrival
        order.  Returns the refusal frame instead when ``queue_limit``
        requests already wait (``OVERLOADED``), or when the deadline passes
        first — the request leaves the waiters at that moment, without a
        runner spent on a lost cause (``DEADLINE_EXCEEDED``)."""
        request = job.request
        with self._state:
            shed = len(self._waiting) >= self.config.queue_limit
            if not shed:
                self._waiting.append(job)
        if shed:
            self.metrics.counter("service.shed").inc()
            return protocol.error_frame(
                request.id,
                E_OVERLOADED,
                "admission queue full (%d); retry with backoff"
                % self.config.queue_limit,
            )
        self.metrics.counter("service.admitted").inc()
        self.metrics.gauge("service.queue_depth").set(len(self._waiting))
        with self._state:
            while True:
                expired = job.deadline_at is not None and monotonic() >= job.deadline_at
                if expired or (
                    self._waiting[0] is job and self._inflight < self.config.workers
                ):
                    break
                self._state.wait(
                    None if job.deadline_at is None else job.deadline_at - monotonic()
                )
            self._waiting.remove(job)
            if not expired:
                self._inflight += 1
            self._state.notify_all()  # the next waiter may head the line now
        self.metrics.gauge("service.queue_depth").set(len(self._waiting))
        waited = monotonic() - job.admitted_at
        self.metrics.histogram("service.queue_seconds").observe(waited)
        # Admission-to-run wait, under the name the service's per-layer
        # report reads.
        self.metrics.histogram("service.queue_wait_seconds").observe(waited)
        if expired:
            self.metrics.counter("service.deadline_exceeded").inc()
            return protocol.error_frame(
                request.id,
                E_DEADLINE_EXCEEDED,
                "deadline expired after %.3fs in the admission queue" % waited,
            )
        self.metrics.gauge("service.inflight").set(self._inflight)
        return None

    # -- execution -----------------------------------------------------------

    def _run_job(self, job: _Job) -> None:
        request = job.request
        started = monotonic()
        terminal = True
        try:
            if request.op == "subscribe":
                page_size = request.page_size or PAGE_SIZE
                self.standing.subscribe(job.handler, request, page_size)
                # The registry sends its own `subscribed` ack; no result frame.
                terminal = False
                stats = {}
            elif request.op == "sweep":
                stats = self.sweep(request.text or None)
            elif request.op == "adopt":
                stats = self._adopt(request.text)
            elif request.op == "mutate":
                stats = self._mutate(request.text)
            else:
                stats = self._execute(job)
        except DeadlineExceeded as exc:
            self.metrics.counter("service.deadline_exceeded").inc()
            frame = protocol.error_frame(request.id, E_DEADLINE_EXCEEDED, str(exc))
        except (PlanError, QueryParseError, OperationRejected) as exc:
            self.metrics.counter("service.bad_requests").inc()
            frame = protocol.error_frame(request.id, E_BAD_REQUEST, str(exc))
        except Exception as exc:  # noqa: BLE001 - the server must not die
            self.metrics.counter("service.errors").inc()
            frame = protocol.error_frame(
                request.id, E_INTERNAL, "%s: %s" % (type(exc).__name__, exc)
            )
        else:
            self.metrics.counter("service.completed").inc()
            frame = protocol.result_frame(
                request.id, stats, shard_id=self.config.shard_id
            )
        # Observed before the terminal frame leaves: a client that asks for
        # ``metrics`` the moment its answer arrives finds its own query there.
        finished = monotonic()
        self.metrics.histogram("service.exec_seconds").observe(finished - started)
        self.metrics.histogram("service.total_seconds").observe(
            finished - job.admitted_at
        )
        if terminal:
            job.handler.send(frame)

    def _adopt(self, store_dir: str) -> dict[str, Any]:
        """Shard takeover: warm from a dead sibling's store directory and
        merge its persisted standing queries into this registry."""
        result = self.webbase.adopt_store_dir(store_dir)
        snapshots = result.pop("standing")
        result["standing_adopted"] = self.standing.adopt(snapshots)
        self.metrics.counter("cluster.adoptions").inc()
        return result

    def _mutate(self, spec_text: str) -> dict[str, Any]:
        """Apply one simulated-Web churn mutation (harness-only op).

        ``spec_text`` is a JSON object for
        :func:`repro.sites.world.mutate_site_listings` — the cluster
        router sends the same spec to every worker so their
        per-process worlds stay identical (otherwise a takeover would
        surface spurious row deltas)."""
        if not self.config.allow_world_mutation:
            raise OperationRejected(
                "world mutation is disabled on this service "
                "(ServiceConfig.allow_world_mutation)"
            )
        import json as json_mod

        from repro.sites.world import mutate_site_listings

        try:
            spec = json_mod.loads(spec_text)
        except ValueError as exc:
            raise OperationRejected("mutate spec is not valid JSON: %s" % exc)
        if not isinstance(spec, dict) or not spec.get("host"):
            raise OperationRejected("mutate spec needs at least a 'host'")
        try:
            added = mutate_site_listings(
                self.webbase.world,
                host=str(spec["host"]),
                make=str(spec.get("make", "ford")),
                model=str(spec.get("model", "escort")),
                count=int(spec.get("count", 3)),
                seed=int(spec.get("seed", 0)),
                change=str(spec.get("change", "auto")),
            )
        except ValueError as exc:
            raise OperationRejected(str(exc))
        return {"mutated": str(spec["host"]), "ads_added": len(added)}

    def _execute(self, job: _Job) -> dict[str, Any]:
        """Run one query on the shared webbase: page out, deduplicated,
        what :meth:`WebBase.query_stream` yields — one burst per piece, as
        each maximal object completes — and return the terminal
        ``result`` stats.  Subsumption and gold are the facade's; a piece
        with no object is a gold answer (``"gold"`` page source,
        ``stats["mqo"] == "subsumed"``).

        The request's remaining budget becomes the context's deadline, and
        every checkpoint of the query (before each fetch, retry and page,
        and in every wait) reads it, so an expired query stops at its next
        one on this thread and the client gets ``DEADLINE_EXCEEDED``.  The
        context is this call's: it and the pages it fetched die when the
        call returns."""
        request = job.request
        page_size = request.page_size or PAGE_SIZE
        remaining = (
            None if job.deadline_at is None else max(0.0, job.deadline_at - monotonic())
        )
        ctx: ExecutionContext = self.webbase.execution_context(
            label="svc:%s" % request.text, deadline_seconds=remaining
        )
        seen: set[tuple] = set()
        seq = 0
        subsumed = False
        for obj, piece in self.webbase.query_stream(request.text, context=ctx):
            fresh = [row for row in piece.rows if row not in seen]
            seen.update(fresh)
            subsumed = obj is None
            # One burst per piece: its pages are all ready now, and
            # nothing waits for the next object.
            source = "gold" if subsumed else " ⋈ ".join(obj.relations)
            schema = list(piece.schema)
            pages = _pages(request.id, seq, schema, fresh, page_size, source)
            job.handler.send(*pages)
            seq += len(pages)
        cache_hits = sum(
            1 for span in ctx.root.spans("fetch") if span.cache in ("hit", "stale")
        )
        stats = {
            "rows": len(seen),
            "pages": seq,
            "fetches": ctx.fetches,
            "cache_hits": cache_hits,
            "failures": len(ctx.failures),
            "modelled_seconds": round(ctx.elapsed_seconds, 4),
            "wall_ms": round(ctx.wall_elapsed_seconds * 1000.0, 3),
        }
        if subsumed:
            stats["mqo"] = "subsumed"
        return stats
