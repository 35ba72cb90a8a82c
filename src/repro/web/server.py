"""The simulated Web: sites, routing, and the server that hosts them.

The webbase treats the Web as an opaque data source it can only reach
"through filing requests to the server by following links or by filling out
forms".  :class:`WebServer` is that opaque source here: it dispatches
requests by host to registered :class:`Site` objects and keeps per-host
traffic counters so benchmarks can report the paper's "# of pages" column.
"""

from __future__ import annotations

import random
import threading

from dataclasses import dataclass
from typing import Any, Callable

from repro.web.clock import LatencyModel
from repro.web.html import Element, RenderStyle
from repro.web.http import Request, Response, Url


class HttpError(Exception):
    """A non-success HTTP outcome from the simulated Web."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__("%d %s" % (status, message))
        self.status = status


class TransientHttpError(HttpError):
    """A failure that would succeed if the request were simply retried.

    The real Web produces these constantly (overloaded CGI gateways,
    dropped connections); the fault-injection layer raises them so the
    execution engine's retry machinery has something real to chew on."""


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of transient faults for the simulated Web.

    Every request to a covered host rolls against ``error_rate`` (raise a
    transient 503) and ``spike_rate`` (deliver the page after an extra
    ``spike_seconds`` of simulated latency).  Rolls depend only on
    ``(seed, host, per-host request ordinal)``, so a given world replays
    the identical fault sequence run after run — which is what makes the
    retry machinery testable and benchable.

    ``max_consecutive`` caps how many *consecutive* requests to one host
    may fail: with the default of 1, the immediate retry of a failed
    request always succeeds, so a retrying engine provably recovers.  Set
    it to a large value (or ``error_rate=1.0``) to simulate a dead host
    and exercise retry exhaustion.
    """

    seed: int = 7
    error_rate: float = 0.0
    spike_rate: float = 0.0
    spike_seconds: float = 4.0
    max_consecutive: int = 1
    hosts: tuple[str, ...] | None = None  # None = every host

    def covers(self, host: str) -> bool:
        return self.hosts is None or host in self.hosts

    def _roll(self, host: str, ordinal: int, kind: str) -> float:
        return random.Random(
            "%d:%s:%s:%d" % (self.seed, kind, host, ordinal)
        ).random()

    def should_fail(self, host: str, ordinal: int) -> bool:
        return self.covers(host) and self._roll(host, ordinal, "err") < self.error_rate

    def spike_for(self, host: str, ordinal: int) -> float:
        if self.covers(host) and self._roll(host, ordinal, "spk") < self.spike_rate:
            return self.spike_seconds
        return 0.0


# A route handler receives the request and returns either a full Response or
# an Element tree that the site renders with its own style.
Handler = Callable[[Request], "Response | Element"]


class Site:
    """One Web site: a host name, a render style, and a route table.

    Subclasses (in :mod:`repro.sites`) register handlers with :meth:`route`
    and generate pages with the builders in :mod:`repro.web.html`.  The
    ``style`` lets a site emit deliberately faulty HTML, and ``latency``
    overrides the server-wide network cost model for this host (distant or
    slow sites).
    """

    def __init__(
        self,
        host: str,
        style: RenderStyle | None = None,
        latency: LatencyModel | None = None,
    ) -> None:
        self.host = host
        self.style = style or RenderStyle.clean()
        self.latency = latency
        self._routes: dict[str, Handler] = {}

    def route(self, path: str, handler: Handler) -> None:
        """Register ``handler`` for ``path`` (exact match)."""
        self._routes[path] = handler

    def url(self, path: str, **params: str) -> Url:
        """Build an absolute URL into this site."""
        url = Url(self.host, path)
        return url.with_params({k: str(v) for k, v in params.items()}) if params else url

    @property
    def entry_url(self) -> Url:
        """The site's front door."""
        return Url(self.host, "/")

    def handle(self, request: Request) -> Response:
        handler = self._routes.get(request.url.path)
        if handler is None:
            return Response(404, "<html><body>Not Found</body></html>", final_url=request.url)
        result = handler(request)
        if isinstance(result, Response):
            if result.final_url is None:
                result.final_url = request.url
            return result
        return Response(200, result.render(self.style), final_url=request.url)


@dataclass
class TrafficStats:
    """Per-host counters maintained by the server."""

    requests: int = 0
    pages_ok: int = 0
    bytes_sent: int = 0
    faults: int = 0  # transient failures injected by the fault plan

    def record(self, response: Response) -> None:
        self.requests += 1
        self.bytes_sent += len(response)
        if response.ok:
            self.pages_ok += 1


class WebServer:
    """Dispatches requests to sites by host and accounts for traffic."""

    def __init__(self, latency: LatencyModel | None = None) -> None:
        self.default_latency = latency or LatencyModel()
        self._sites: dict[str, Site] = {}
        self.stats: dict[str, TrafficStats] = {}
        # The parallel fetcher serves several browsers from one server.
        self._stats_lock = threading.Lock()
        self.fault_plan: FaultPlan | None = None
        self._fault_ordinal: dict[str, int] = {}
        self._fault_streak: dict[str, int] = {}
        # Optional observer for every served page: the tiered store's
        # bronze log hooks in here, making this the single choke point
        # through which all durable raw content flows.  Must not raise.
        self.page_sink: Any = None

    def install_faults(self, plan: FaultPlan | None) -> None:
        """Install (or, with ``None``, remove) a deterministic fault plan.

        Installing resets the per-host fault counters so the same plan on
        the same workload replays the same fault sequence."""
        self.fault_plan = plan
        self._fault_ordinal = {}
        self._fault_streak = {}

    def add_site(self, site: Site) -> Site:
        if site.host in self._sites:
            raise ValueError("host %r already registered" % site.host)
        self._sites[site.host] = site
        self.stats[site.host] = TrafficStats()
        return site

    def site(self, host: str) -> Site:
        try:
            return self._sites[host]
        except KeyError:
            raise KeyError("no site registered for host %r" % host) from None

    @property
    def hosts(self) -> list[str]:
        return sorted(self._sites)

    def latency_for(self, host: str) -> LatencyModel:
        site = self._sites.get(host)
        if site is not None and site.latency is not None:
            return site.latency
        return self.default_latency

    def fetch(self, request: Request) -> Response:
        """Serve one request; raises :class:`HttpError` for unknown hosts
        and :class:`TransientHttpError` when the fault plan injects one."""
        site = self._sites.get(request.url.host)
        if site is None:
            raise HttpError(502, "unknown host %r" % request.url.host)
        spike = self._apply_faults(site.host)
        response = site.handle(request)
        if spike:
            response.extra_latency += spike
        with self._stats_lock:
            self.stats[site.host].record(response)
        if self.page_sink is not None:
            self.page_sink(request, response)
        return response

    def _apply_faults(self, host: str) -> float:
        """Roll the fault plan for one request; returns the latency spike
        to charge (0.0 for none) or raises :class:`TransientHttpError`."""
        plan = self.fault_plan
        if plan is None or not plan.covers(host):
            return 0.0
        with self._stats_lock:
            ordinal = self._fault_ordinal.get(host, 0)
            self._fault_ordinal[host] = ordinal + 1
            streak = self._fault_streak.get(host, 0)
            if plan.should_fail(host, ordinal) and streak < plan.max_consecutive:
                self._fault_streak[host] = streak + 1
                self.stats[host].faults += 1
                raise TransientHttpError(
                    503, "injected transient fault at %s (request #%d)" % (host, ordinal)
                )
            self._fault_streak[host] = 0
        return plan.spike_for(host, ordinal)

    def reset_stats(self) -> None:
        for host in self.stats:
            self.stats[host] = TrafficStats()


@dataclass
class World:
    """One application domain's simulated Web: the server hosting its
    sites, plus the dataset behind them (the tests' ground truth)."""

    server: WebServer
    dataset: Any

    def site(self, host: str) -> Site:
        return self.server.site(host)
