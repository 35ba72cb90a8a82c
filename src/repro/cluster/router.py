"""The cluster router: host-affinity sharding over worker processes.

One :class:`ClusterRouter` fronts N worker processes (each a full
:class:`~repro.service.server.WebBaseService` over its own store
directory) behind the *same* line-delimited JSON/TCP protocol clients
already speak — a client cannot tell a router from a single service,
except for the ``shard_id`` stamps on its frames.

**Placement** is one decision per query, made in :meth:`ClusterRouter._place`:
the router plans the query just far enough to learn which hosts its
maximal objects will touch, and rendezvous-hashes
(:mod:`repro.cluster.hashring`) the dominant one over the live shards.
That owner gets the whole query — keeping its prefix page cache and
result cache hot for the sites it owns — unless it is
``SPILL_MARGIN_SECONDS`` of modeled busy time ahead of the least-busy
live shard, which then gets it instead.  Either is correct: every
worker holds the same deterministic world, and the federation bus
shares whatever the serving shard fills.  Nothing coalesces a fill
across shards: two shards that miss one key at once both walk it and
both publish an equal entry.

**Failover**: worker death is detected by health pings
(:mod:`repro.cluster.health`) or by a transport error on a live relay,
whichever fires first.  The dead shard leaves the ring, the HRW
successor of each of its hosts adopts that worker's store directory
(``adopt`` op → revision max-merge + silver warm + standing-query
snapshots), in-flight queries are retried on the new owners with
router-side row dedup (each row reaches the client exactly once), and
standing-query relays resubscribe on the successor and synthesize the
exact catch-up delta against the client's delivered state — zero lost,
zero duplicated deltas.

**Admission** composes two levels: the router sheds beyond
``max_inflight`` with an ``OVERLOADED`` carrying a ``retry_after_ms``
hint, and a worker-side shed is forwarded with the same hint attached.

All coordination is socket- or file-based (TCP relays, the federation
bus, store directories); nothing shares memory across processes.
"""

from __future__ import annotations

import socketserver
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.federation import FederationServer
from repro.cluster.hashring import HashRing
from repro.cluster.health import HealthMonitor
from repro.cluster.worker import WorkerHandle, spawn_worker
from repro.core.execution import WebBaseConfig
from repro.core.metrics import MetricsRegistry
from repro.core.webbase import WebBase
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import ProtocolError, Request
from repro.service.server import PAGE_SIZE
from repro.ur.planner import PlanError
from repro.ur.query import QueryParseError
from repro.vps.cache import CachePolicy

ROUTER_SHARD_ID = "router"

#: Wall-clock half-life of the per-shard busy score: spill decisions
#: weigh recent work, not a long-lived router's full history.
BUSY_HALF_LIFE_SECONDS = 120.0

#: A query leaves its HRW owner for the least-busy live shard when the
#: owner is this many modeled busy seconds ahead of it.
SPILL_MARGIN_SECONDS = 1.0

#: Idle relay connections kept per shard; a wider burst opens extra
#: connections and closes them afterwards.
RELAY_POOL_SIZE = 4

#: The backoff hint on every ``OVERLOADED`` the router sends or forwards.
RETRY_AFTER_MS = 250.0


@dataclass(frozen=True)
class ClusterConfig:
    """Topology and policy of one cluster deployment.  The router hands
    this one value to every worker it spawns (``cluster worker --config``),
    so each field must survive ``dataclasses.asdict`` → JSON unchanged."""

    store_root: str  # per-shard store dirs live under here
    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 3
    seed: int = 1999
    ads_per_host: int = 120
    worker_queue_limit: int = 16
    worker_threads: int = 4
    max_inflight: int = 64  # router-level admission bound
    health_interval_seconds: float | None = None  # None = explicit checks only
    allow_world_mutation: bool = True  # harness churn ops, sent to every worker
    forward_timeout_seconds: float = 120.0
    #: Multi-query optimization: when on, every worker runs with
    #: ``WebBaseConfig.mqo`` (containment reuse of gold answers).  Equal
    #: plans have equal host weights, so placement already sends them to
    #: the same owner, whose result cache merges their accesses.
    mqo: bool = False

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1; got %r" % self.shards)
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")


@dataclass
class WorkerInfo:
    """One registered shard, as the router tracks it."""

    shard_id: str
    address: tuple[str, int]
    store_dir: str
    handle: WorkerHandle | None = None
    alive: bool = True


class _ShardLost(Exception):
    """A transport error talking to a shard mid-relay."""

    def __init__(self, shard_id: str, cause: BaseException) -> None:
        super().__init__("shard %s lost: %s" % (shard_id, cause))
        self.shard_id = shard_id


class _RouterHandler(protocol.LineFrameHandler):
    """One client connection to the router (same framing as the service)."""

    server: "_RouterTcpServer"

    def on_frame(self, payload: dict[str, Any]) -> None:
        self.server.router.dispatch(self, protocol.parse_request(payload))

    def finish(self) -> None:
        try:
            self.server.router.detach(self)
        finally:
            super().finish()


class _RouterTcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], router: "ClusterRouter") -> None:
        super().__init__(address, _RouterHandler)
        self.router = router


@dataclass
class _SubscriptionRelay:
    """One standing query proxied client ↔ worker, takeover-survivable."""

    text: str
    handler: Any
    request_id: int
    page_size: int
    shard_id: str
    client: ServiceClient
    subscription: Any
    out_seq: int
    stop: threading.Event = field(default_factory=threading.Event)
    thread: threading.Thread | None = None


class ClusterRouter:
    """The sharded front-end process (in-process object; the ``cluster
    serve`` CLI wraps it, tests drive it directly)."""

    role = ROUTER_SHARD_ID

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.metrics = MetricsRegistry(strict=True)
        self.ring = HashRing()
        self.workers: dict[str, WorkerInfo] = {}
        self._topology_lock = threading.RLock()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        # Per-shard load, feeding the affinity-spill decision:
        # ``_shard_busy`` sums completed relays' modeled seconds plus an
        # EWMA cost estimate per relay still in flight (replaced by the
        # actual when the relay finishes), ``_shard_load`` counts the
        # in-flight relays for status display.
        self._shard_load: dict[str, int] = {}
        self._shard_busy: dict[str, float] = {}
        self._busy_stamp = time.monotonic()
        self._cost_ewma = 1.0
        self._load_lock = threading.Lock()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._relays: list[_SubscriptionRelay] = []
        self._relays_lock = threading.Lock()
        # Idle query-relay connections per live shard.  A shard's key goes
        # with it (death, shutdown), so a late return is closed, not kept.
        self._idle: dict[str, list[ServiceClient]] = {}
        self._idle_lock = threading.Lock()
        self._server: _RouterTcpServer | None = None
        self._acceptor: threading.Thread | None = None
        # The routing planner: a webbase used ONLY to plan (no fetches),
        # so a no-op cache keeps it stateless and cheap.
        self._planner = WebBase.create(
            WebBaseConfig(
                seed=config.seed,
                ads_per_host=config.ads_per_host,
                cache=CachePolicy.noop(),
            )
        )
        self.all_hosts = sorted(self._planner.builders)
        self.federation_server = FederationServer(metrics=self.metrics)
        self.health = HealthMonitor(
            on_dead=self._on_worker_dead,
            interval_seconds=config.health_interval_seconds,
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("router not started")
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def federation_address(self) -> tuple[str, int]:
        return self.federation_server.address

    def start(self) -> tuple[str, int]:
        if self._server is not None:
            raise RuntimeError("router already started")
        self.federation_server.start()
        self._server = _RouterTcpServer((self.config.host, self.config.port), self)
        self._acceptor = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="router-acceptor",
            daemon=True,
        )
        self._acceptor.start()
        self.health.start()
        return self.address

    def register_worker(
        self,
        shard_id: str,
        address: tuple[str, int],
        store_dir: str,
        handle: WorkerHandle | None = None,
    ) -> None:
        with self._topology_lock:
            self.workers[shard_id] = WorkerInfo(
                shard_id=shard_id,
                address=address,
                store_dir=store_dir,
                handle=handle,
            )
            self.ring.add(shard_id)
        with self._idle_lock:
            self._idle[shard_id] = []
        self.health.watch(shard_id, address)
        self.metrics.gauge("cluster.workers_live").set(len(self.live_shards()))

    def live_shards(self) -> list[str]:
        with self._topology_lock:
            return sorted(s for s, w in self.workers.items() if w.alive)

    def shutdown(self, drain_workers: bool = True) -> dict[str, Any]:
        """Graceful cluster drain: stop admitting, stop the relays, drain
        every live worker (waiting for spawned processes to exit), then
        stop the health monitor, federation bus, and the router socket.
        Idempotent: a second call (e.g. ``LocalCluster.stop`` after a
        remote ``drain`` already ran) returns the metrics snapshot."""
        if self._stopped.is_set():
            return self.metrics.snapshot()
        self._draining.set()
        with self._relays_lock:
            relays = list(self._relays)
            self._relays.clear()
        for relay in relays:
            self._stop_relay(relay)
        self.health.stop()
        for shard_id in list(self._idle):
            self._close_pool(shard_id)
        if drain_workers:
            for shard_id in self.live_shards():
                try:
                    with self._connect(shard_id, timeout=10.0) as client:
                        client.drain()
                except Exception:  # noqa: BLE001 - already dying is fine
                    pass
            for shard_id in self.live_shards():
                info = self.workers[shard_id]
                if info.handle is not None:
                    try:
                        info.handle.wait(timeout=30.0)
                    except Exception:  # noqa: BLE001
                        info.handle.kill()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._acceptor is not None:
            self._acceptor.join(timeout=5.0)
        self.federation_server.stop()
        self.metrics.counter("cluster.drains").inc()
        self._stopped.set()
        return self.metrics.snapshot()

    def wait_stopped(self, timeout: float | None = None) -> bool:
        """Block until :meth:`shutdown` completes (a remote ``drain``
        lands here too); the foreground ``cluster serve`` loop waits on
        this instead of sleeping forever."""
        return self._stopped.wait(timeout)

    # -- placement -----------------------------------------------------------

    def plan_hosts(self, text: str) -> dict[str, int]:
        """host → weight over the query's feasible maximal objects (the
        planner compiles each query shape once)."""
        planner = self._planner.ur
        return planner.plan_hosts(planner.plan(text))

    def route_for(self, weights: dict[str, int]) -> str:
        """The HRW owner of the query's dominant (heaviest) host.  Equal
        plans have equal host weights, so equivalent queries — equal
        plan fingerprints — always meet on one owner."""
        with self._topology_lock:
            if not len(self.ring):
                raise _ShardLost("*", ConnectionError("no live shards"))
            dominant = max(weights, key=lambda h: (weights[h], h), default="")
            return self.ring.owner(dominant)

    def _place(self, weights: dict[str, int]) -> tuple[str, str, float]:
        """The placement decision for one query: ``(target, owner,
        reserved estimate)``.  The target is the owner unless it is
        ``SPILL_MARGIN_SECONDS`` modeled busy seconds ahead of the
        least-busy live worker — correct because every worker evaluates
        every query over the identical world: affinity is a cache
        optimization, and the federation bus amortizes the spilled
        shard's page fills.

        The decision and the EWMA cost reservation happen under ONE lock
        hold, so a burst of concurrent placements sees each other —
        without the reservation, sixteen simultaneous queries would all
        pick the same "least loaded" worker and herd onto it."""
        owner = self.route_for(weights)
        with self._topology_lock:
            live = [s for s, info in self.workers.items() if info.alive]
        with self._load_lock:
            self._decay_busy_locked()
            estimate = self._cost_ewma
            target = owner
            if len(live) > 1 and owner in live:
                loads = {s: self._shard_busy.get(s, 0.0) for s in live}
                least = min(loads, key=lambda s: (loads[s], s))
                # Pure greedy balancing on modeled busy seconds.  No
                # "owner has queued work" gate: modeled cost and wall
                # concurrency are different clocks (a 2-second modeled
                # walk can finish in 200ms of wall), so instantaneous
                # queue depth says nothing about accumulated load — and
                # a spilled shard re-fills from the federation, so the
                # locality cost of spilling is one bus round trip.
                if loads[owner] - loads[least] >= SPILL_MARGIN_SECONDS:
                    target = least
            self._shard_busy[target] = (
                self._shard_busy.get(target, 0.0) + estimate
            )
        if target != owner:
            self.metrics.counter("cluster.spills").inc()
        return target, owner, estimate

    def _decay_busy_locked(self) -> None:
        """Lazily age the busy scores (callers hold ``_load_lock``)."""
        now = time.monotonic()
        elapsed = now - self._busy_stamp
        if elapsed <= 1.0:
            return
        factor = 0.5 ** (elapsed / BUSY_HALF_LIFE_SECONDS)
        for shard in self._shard_busy:
            self._shard_busy[shard] *= factor
        self._busy_stamp = now

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, handler: Any, request: Request) -> None:
        op = request.op
        if op == "ping":
            handler.send(protocol.pong_frame(request.id))
        elif op == "hello":
            handler.send(
                protocol.welcome_frame(request.id, ROUTER_SHARD_ID, "router")
            )
        elif op == "status":
            handler.send(protocol.status_frame(request.id, self.describe_status()))
        elif op == "metrics":
            handler.send(
                protocol.metrics_frame(request.id, self.merged_metrics())
            )
        elif op == "drain":
            handler.send(protocol.status_frame(request.id, self.describe_status()))
            threading.Thread(
                target=self.shutdown, name="router-drain", daemon=True
            ).start()
        elif op == "query":
            self._route_query(handler, request)
        elif op == "subscribe":
            self._route_subscribe(handler, request)
        elif op == "unsubscribe":
            self._route_unsubscribe(handler, request)
        elif op in ("sweep", "mutate"):
            self._broadcast_admin(handler, request)
        else:
            handler.send(
                protocol.error_frame(
                    request.id,
                    protocol.E_BAD_REQUEST,
                    "op %r is not routable" % op,
                )
            )

    # -- admission -----------------------------------------------------------

    def _admit(self) -> bool:
        with self._inflight_lock:
            if self._inflight >= self.config.max_inflight:
                return False
            self._inflight += 1
        self.metrics.gauge("cluster.inflight").set(self._inflight)
        return True

    def _release(self) -> None:
        with self._inflight_lock:
            self._inflight = max(0, self._inflight - 1)
        self.metrics.gauge("cluster.inflight").set(self._inflight)

    # -- the query path --------------------------------------------------------

    def _route_query(self, handler: Any, request: Request) -> None:
        self.metrics.counter("cluster.requests").inc()
        if self._draining.is_set():
            handler.send(
                protocol.error_frame(
                    request.id,
                    protocol.E_SHUTTING_DOWN,
                    "cluster is draining",
                )
            )
            return
        if not self._admit():
            self.metrics.counter("cluster.shed").inc()
            handler.send(
                protocol.error_frame(
                    request.id,
                    protocol.E_OVERLOADED,
                    "router admission limit (%d) reached"
                    % self.config.max_inflight,
                    retry_after_ms=RETRY_AFTER_MS,
                )
            )
            return
        try:
            self._route_query_admitted(handler, request)
        finally:
            self._release()

    def _route_query_admitted(self, handler: Any, request: Request) -> None:
        try:
            weights = self.plan_hosts(request.text)
        except (PlanError, QueryParseError, KeyError) as exc:
            handler.send(
                protocol.error_frame(request.id, protocol.E_BAD_REQUEST, str(exc))
            )
            return
        seen: set[tuple] = set()
        seq = 0
        # Relayed pages not yet written: they leave with the next burst —
        # at the latest with the terminal frame (see _relay_query).
        pending: list[dict[str, Any]] = []

        def finish(frame: dict[str, Any]) -> None:
            handler.send(*pending, frame)

        attempts = 0
        while True:
            try:
                target, owner, reserved = self._place(weights)
            except _ShardLost:
                finish(
                    protocol.error_frame(
                        request.id, protocol.E_INTERNAL, "no live shards"
                    )
                )
                return
            try:
                stats, seq = self._relay_query(
                    target, handler, request, seen, seq, pending, reserved
                )
                break
            except _ShardLost as exc:
                attempts += 1
                handler.send(*pending)  # delivered rows do not wait for the takeover
                pending.clear()
                self._handle_worker_death(exc.shard_id)
                self.metrics.counter("cluster.retries").inc()
                if attempts > max(4, len(self.workers) + 1):
                    finish(
                        protocol.error_frame(
                            request.id,
                            protocol.E_INTERNAL,
                            "query could not be placed after %d takeovers"
                            % attempts,
                        )
                    )
                    return
                continue
            except ServiceError as exc:
                # A worker-level verdict (shed, deadline, bad request):
                # forward it structured; attach the router's backoff hint
                # to sheds so both admission levels compose for clients.
                retriable = exc.code in protocol.RETRIABLE_CODES
                finish(
                    protocol.error_frame(
                        request.id,
                        exc.code,
                        str(exc),
                        retry_after_ms=RETRY_AFTER_MS if retriable else None,
                    )
                )
                return
        seconds = float(stats.get("modelled_seconds", 0.0))
        result: dict[str, Any] = {
            "rows": len(seen),
            "pages": seq,
            "spilled": target != owner,
            "shards": [target],
            # The serving shard's modeled busy seconds, so load benches can
            # derive cluster makespan (busiest shard) without wall time.
            "shard_seconds": {target: seconds},
            "fetches": int(stats.get("fetches", 0)),
            "cache_hits": int(stats.get("cache_hits", 0)),
            "failures": int(stats.get("failures", 0)),
            "modelled_seconds": round(seconds, 4),
        }
        self.metrics.counter("cluster.completed").inc()
        finish(protocol.result_frame(request.id, result, shard_id=target))

    def _relay_query(
        self,
        shard_id: str,
        handler: Any,
        request: Request,
        seen: set[tuple],
        seq: int,
        pending: list[dict[str, Any]],
        estimate: float,
    ) -> tuple[dict[str, Any], int]:
        """Stream one worker's answer through to the client, forwarding
        only rows not already delivered (exactly-once across takeover
        retries).  Page frames collect in ``pending`` and leave as one
        burst whenever the relay is about to block on the worker; what is
        still pending at the end rides with the caller's terminal frame.
        ``estimate`` is the busy-score reservation :meth:`_place` made;
        the relay swaps it for the actual modeled cost when it ends."""
        stats: dict[str, Any] | None = None
        with self._load_lock:
            self._shard_load[shard_id] = self._shard_load.get(shard_id, 0) + 1
        fresh = False
        try:
            while True:
                client: ServiceClient | None = None
                answered = False  # a response frame arrived on this connection
                try:
                    client, reused = self._checkout(shard_id, fresh)
                    stream = client.stream(
                        request.text,
                        deadline_ms=request.deadline_ms,
                        page_size=request.page_size,
                    )
                    while True:
                        if pending and not client.buffered():
                            # About to block on the worker: no relayed page
                            # waits for a frame that is not computed yet.
                            handler.send(*pending)
                            pending.clear()
                        try:
                            page = next(stream)
                        except StopIteration as stop:
                            stats = stop.value or {}
                            self._checkin(shard_id, client)
                            return stats, seq
                        answered = True
                        new = [row for row in page.rows if row not in seen]
                        seen.update(new)
                        if new:
                            pending.append(
                                protocol.page_frame(
                                    request.id, seq, page.schema, new, page.source
                                )
                            )
                            seq += 1
                except ServiceError:
                    self._checkin(shard_id, client)  # ended on a terminal frame
                    raise
                except (OSError, ProtocolError) as exc:
                    if client is not None:
                        client.close()
                        if reused and not answered:
                            # An idle socket gone stale is not a dead worker:
                            # once more, on a fresh connection.
                            fresh = True
                            continue
                    raise _ShardLost(shard_id, exc) from exc
        finally:
            with self._load_lock:
                self._shard_load[shard_id] = max(
                    0, self._shard_load.get(shard_id, 0) - 1
                )
                # Swap the in-flight estimate for the actual modeled cost
                # (a failed relay just sheds its estimate).
                actual = (
                    float(stats.get("modelled_seconds", 0.0))
                    if stats is not None
                    else 0.0
                )
                self._shard_busy[shard_id] = max(
                    0.0,
                    self._shard_busy.get(shard_id, 0.0) - estimate + actual,
                )
                if stats is not None:
                    self._cost_ewma = 0.8 * self._cost_ewma + 0.2 * actual

    # -- worker connections ----------------------------------------------------

    def _connect(self, shard_id: str, timeout: float | None = None) -> ServiceClient:
        """A fresh connection to one worker."""
        return ServiceClient(
            *self.workers[shard_id].address,
            timeout=timeout or self.config.forward_timeout_seconds,
            connect_timeout=2.0,
        )

    def _checkout(self, shard_id: str, fresh: bool) -> tuple[ServiceClient, bool]:
        """A relay connection and whether it is a reused idle one."""
        with self._idle_lock:
            idle = self._idle.get(shard_id)
            if idle and not fresh:
                return idle.pop(), True
        return self._connect(shard_id), False

    def _checkin(self, shard_id: str, client: ServiceClient) -> None:
        """Keep a connection whose exchange ended on a terminal frame."""
        with self._idle_lock:
            idle = self._idle.get(shard_id)
            if idle is not None and len(idle) < RELAY_POOL_SIZE:
                idle.append(client)
                return
        client.close()  # pool full, or the shard is gone

    def _close_pool(self, shard_id: str) -> None:
        with self._idle_lock:
            idle = self._idle.pop(shard_id, [])
        for client in idle:
            client.close()

    # -- standing-query relays -------------------------------------------------

    def _route_subscribe(self, handler: Any, request: Request) -> None:
        if self._draining.is_set():
            handler.send(
                protocol.error_frame(
                    request.id, protocol.E_SHUTTING_DOWN, "cluster is draining"
                )
            )
            return
        # A subscription lives on exactly ONE shard, the owner: it is
        # long-lived, so a momentary busy score is no reason to leave it.
        try:
            shard_id = self.route_for(self.plan_hosts(request.text))
        except (PlanError, QueryParseError, KeyError) as exc:
            handler.send(
                protocol.error_frame(request.id, protocol.E_BAD_REQUEST, str(exc))
            )
            return
        except _ShardLost:
            handler.send(
                protocol.error_frame(
                    request.id, protocol.E_INTERNAL, "no live shards"
                )
            )
            return
        page_size = request.page_size or PAGE_SIZE
        try:
            client = self._connect(shard_id)
            subscription = client.subscribe(
                request.text, page_size=page_size, resume=request.resume
            )
        except ServiceError as exc:
            handler.send(
                protocol.error_frame(request.id, exc.code, str(exc))
            )
            return
        except (OSError, ConnectionError, ProtocolError) as exc:
            self._handle_worker_death(shard_id)
            handler.send(
                protocol.error_frame(
                    request.id,
                    protocol.E_OVERLOADED,
                    "shard lost during subscribe (%s); retry" % exc,
                    retry_after_ms=RETRY_AFTER_MS,
                )
            )
            return
        if not subscription.resumed:
            delivered = sorted(subscription.rows)
            for start in range(0, len(delivered), page_size):
                handler.send(
                    protocol.page_frame(
                        request.id,
                        start // page_size,
                        subscription.schema,
                        delivered[start : start + page_size],
                        source="snapshot",
                    )
                )
        relay = _SubscriptionRelay(
            text=request.text,
            handler=handler,
            request_id=request.id,
            page_size=page_size,
            shard_id=shard_id,
            client=client,
            subscription=subscription,
            out_seq=subscription.seq,
        )
        relay.thread = threading.Thread(
            target=self._relay_loop,
            args=(relay,),
            name="relay:%s" % request.text[:32],
            daemon=True,
        )
        # Register before acking, so a subscriber that acts on the ack
        # (e.g. kills the serving worker) always finds the relay.
        with self._relays_lock:
            self._relays.append(relay)
        self.metrics.counter("cluster.subscriptions").inc()
        handler.send(
            protocol.subscribed_frame(
                request.id,
                rows=len(subscription.rows),
                resumed=subscription.resumed,
                seq=subscription.seq,
            )
        )
        relay.thread.start()

    def _relay_loop(self, relay: _SubscriptionRelay) -> None:
        while not relay.stop.is_set():
            try:
                delta = relay.client.next_delta(relay.subscription, timeout=0.2)
            except (OSError, ConnectionError, ProtocolError) as exc:
                if relay.stop.is_set():
                    return
                self._handle_worker_death(relay.shard_id)
                if not self._resume_relay(relay, exc):
                    return
                continue
            if delta is None:
                continue
            relay.out_seq += 1
            relay.handler.send(
                protocol.delta_frame(
                    relay.request_id,
                    relay.out_seq,
                    delta.schema,
                    delta.added,
                    delta.removed,
                    host=delta.host,
                    revision=delta.revision,
                    reason=delta.reason,
                )
            )
            self.metrics.counter("cluster.deltas_relayed").inc()

    def _resume_relay(
        self, relay: _SubscriptionRelay, cause: BaseException
    ) -> bool:
        """Re-home a standing query after its shard died.

        The successor adopted the dead shard's persisted snapshot; a
        plain resubscribe returns that snapshot as the delivered state.
        Any divergence between it and what the *client* actually holds
        (the crash window between persist and send) is synthesized into
        one catch-up delta, so the client's row set is continuous — the
        zero-lost-deltas contract."""
        client_rows = set(relay.subscription.rows)
        for _ in range(max(2, len(self.workers))):
            try:
                shard_id = self.route_for(self.plan_hosts(relay.text))
            except _ShardLost:
                return False
            try:
                client = self._connect(shard_id)
                subscription = client.subscribe(
                    relay.text, page_size=relay.page_size
                )
            except (OSError, ConnectionError, ProtocolError, ServiceError):
                self._handle_worker_death(shard_id)
                continue
            try:
                relay.client.close()
            except Exception:  # noqa: BLE001 - it's already dead
                pass
            added = sorted(subscription.rows - client_rows)
            removed = sorted(client_rows - subscription.rows)
            # Counted before the catch-up delta leaves: a client that has
            # received it must find the resume in the metrics.
            self.metrics.counter("cluster.relay_resumes").inc()
            if added or removed:
                relay.out_seq += 1
                relay.handler.send(
                    protocol.delta_frame(
                        relay.request_id,
                        relay.out_seq,
                        subscription.schema,
                        added,
                        removed,
                        host="",
                        revision=0,
                        reason="takeover",
                    )
                )
                self.metrics.counter("cluster.deltas_relayed").inc()
            relay.client = client
            relay.subscription = subscription
            relay.shard_id = shard_id
            return True
        return False

    def _route_unsubscribe(self, handler: Any, request: Request) -> None:
        relay = None
        with self._relays_lock:
            for candidate in self._relays:
                if candidate.handler is handler and candidate.text == request.text:
                    relay = candidate
                    break
            if relay is not None:
                self._relays.remove(relay)
        if relay is not None:
            self._stop_relay(relay, unsubscribe=True)
        handler.send(protocol.unsubscribed_frame(request.id))

    def _stop_relay(
        self, relay: _SubscriptionRelay, unsubscribe: bool = False
    ) -> None:
        relay.stop.set()
        if relay.thread is not None and relay.thread is not threading.current_thread():
            relay.thread.join(timeout=5.0)
        try:
            if unsubscribe:
                relay.client.unsubscribe(relay.subscription)
            relay.client.close()
        except Exception:  # noqa: BLE001 - the worker may be gone
            pass

    def detach(self, handler: Any) -> None:
        """A client connection closed: tear down its relays (the worker-
        side registrations persist — that is what resume is for)."""
        with self._relays_lock:
            mine = [r for r in self._relays if r.handler is handler]
            for relay in mine:
                self._relays.remove(relay)
        for relay in mine:
            self._stop_relay(relay)

    # -- cluster admin ---------------------------------------------------------

    def _broadcast_admin(self, handler: Any, request: Request) -> None:
        """Send a world-shaping op (sweep, mutate) to EVERY live
        worker: the per-process simulated worlds must stay identical, or
        a takeover would surface spurious row deltas."""
        results: dict[str, dict[str, Any]] = {}
        for shard_id in self.live_shards():
            try:
                with self._connect(shard_id) as client:
                    if request.op == "sweep":
                        results[shard_id] = client.sweep(request.text or None)
                    else:
                        results[shard_id] = client.mutate(request.text)
            except ServiceError as exc:
                handler.send(
                    protocol.error_frame(request.id, exc.code, str(exc))
                )
                return
            except (OSError, ConnectionError, ProtocolError):
                self._handle_worker_death(shard_id)
        merged: dict[str, Any] = {"op": request.op, "shards": sorted(results)}
        for shard_id, result in sorted(results.items()):
            for key, value in result.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    merged[key] = merged.get(key, 0) + value
                else:
                    merged.setdefault(key, value)
        handler.send(
            protocol.result_frame(request.id, merged, shard_id=ROUTER_SHARD_ID)
        )

    # -- failover --------------------------------------------------------------

    def _on_worker_dead(self, shard_id: str) -> None:
        self._handle_worker_death(shard_id, from_health=True)

    def _handle_worker_death(
        self, shard_id: str, from_health: bool = False
    ) -> None:
        """Remove a dead shard and run the HRW takeover plan: every host
        it owned is re-owned by its rendezvous successor, and each
        distinct successor adopts the dead worker's store directory."""
        with self._topology_lock:
            info = self.workers.get(shard_id)
            if info is None or not info.alive:
                return
            info.alive = False
            dead_hosts = [
                host
                for host in self.all_hosts
                if shard_id in self.ring and self.ring.owner(host) == shard_id
            ]
            self.ring.remove(shard_id)
            successors = (
                {self.ring.owner(host) for host in dead_hosts}
                if len(self.ring)
                else set()
            )
        self.health.unwatch(shard_id)
        self._close_pool(shard_id)
        if not from_health:
            self.health.report_failure(shard_id)
        self.metrics.counter("cluster.worker_deaths").inc()
        self.metrics.gauge("cluster.workers_live").set(len(self.live_shards()))
        for successor in sorted(successors):
            try:
                with self._connect(successor) as client:
                    client.adopt(info.store_dir)
                self.metrics.counter("cluster.takeovers").inc()
            except Exception:  # noqa: BLE001 - a failed warm is a cold successor
                self.metrics.counter("cluster.takeover_warm_failures").inc()

    # -- observability ---------------------------------------------------------

    def describe_status(self) -> dict[str, Any]:
        with self._topology_lock:
            workers = {
                shard_id: {
                    "address": list(info.address),
                    "alive": info.alive,
                    "store_dir": info.store_dir,
                }
                for shard_id, info in sorted(self.workers.items())
            }
            hosts = {
                host: (self.ring.owner(host) if len(self.ring) else None)
                for host in self.all_hosts
            }
        with self._relays_lock:
            subscriptions = len(self._relays)
        with self._load_lock:
            load = {
                shard: {
                    "inflight": count,
                    "busy_seconds": round(
                        self._shard_busy.get(shard, 0.0), 3
                    ),
                }
                for shard, count in sorted(self._shard_load.items())
            }
        return {
            "role": "router",
            "shard_id": ROUTER_SHARD_ID,
            "protocol_version": protocol.PROTOCOL_VERSION,
            "draining": self._draining.is_set(),
            "inflight": self._inflight,
            "workers": workers,
            "hosts": hosts,
            "load": load,
            "subscriptions": subscriptions,
            "federation": self.federation_server.cache.stats(),
        }

    def merged_metrics(self) -> dict[str, Any]:
        """One operator view over N registries: the router's own
        ``cluster.*`` metrics plus every live worker's snapshot, counters
        and gauges summed, histograms merged conservatively (``count`` and
        ``sum`` add, ``min`` is the least, ``mean`` is recomputed, ``max``
        and the percentiles take the worst shard; an empty histogram
        contributes nothing), with the raw per-shard snapshots preserved
        under ``"shards"``."""
        own = self.metrics.snapshot()
        counters: dict[str, float] = dict(own.get("counters", {}))
        gauges: dict[str, float] = dict(own.get("gauges", {}))
        histograms: dict[str, dict[str, float]] = {
            name: dict(values)
            for name, values in own.get("histograms", {}).items()
        }
        shards: dict[str, Any] = {}
        for shard_id in self.live_shards():
            try:
                with self._connect(shard_id, timeout=10.0) as client:
                    snapshot = client.metrics()
            except Exception:  # noqa: BLE001 - a dying shard just drops out
                continue
            shards[shard_id] = snapshot
            for name, value in snapshot.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                gauges[name] = gauges.get(name, 0) + value
            for name, values in snapshot.get("histograms", {}).items():
                merged = histograms.get(name)
                if merged is None or not merged["count"]:
                    histograms[name] = dict(values)
                elif values["count"]:
                    for stat, value in values.items():
                        if stat in ("count", "sum"):
                            merged[stat] += value
                        elif stat == "min":
                            merged[stat] = min(merged[stat], value)
                        else:
                            merged[stat] = max(merged[stat], value)
                    merged["mean"] = merged["sum"] / merged["count"]
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
            "shards": shards,
        }


class LocalCluster:
    """Supervisor for one whole local deployment: the in-process router
    plus ``config.shards`` spawned worker processes — the object behind
    ``python -m repro cluster serve``, the failover tests, and the
    benchmark."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.router = ClusterRouter(config)
        self.handles: dict[str, WorkerHandle] = {}

    def start(self) -> tuple[str, int]:
        import os

        address = self.router.start()
        for index in range(self.config.shards):
            shard_id = "shard-%d" % index
            store_dir = os.path.join(self.config.store_root, shard_id)
            handle = spawn_worker(
                self.config, shard_id, store_dir, self.router.federation_address
            )
            self.handles[shard_id] = handle
            self.router.register_worker(
                shard_id, handle.address, store_dir, handle=handle
            )
        return address

    @property
    def address(self) -> tuple[str, int]:
        return self.router.address

    def kill_worker(self, shard_id: str) -> None:
        """Hard-kill one worker process (the failover lever); detection
        and takeover happen through the router's normal channels."""
        self.handles[shard_id].kill()

    def stop(self) -> dict[str, Any]:
        result = self.router.shutdown(drain_workers=True)
        for handle in self.handles.values():
            if handle.alive:
                handle.kill()
        return result
