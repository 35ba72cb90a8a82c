"""Speculative prefetch for enumerated form submissions.

When a select/radio widget's mandatory attribute arrives unbound, the
navigation executor enumerates the widget's finite domain — one submission
per value, as backtracking alternatives.  Those submissions are *certain*
to be issued (the F-logic solve consumes every alternative), so issuing
them ahead of demand is pure win: the :class:`SpeculativePrefetcher` runs
them on short-lived worker threads, each with its own browser over the
shared server, and parks the results in the query's
:class:`~repro.web.browser.PrefixPageCache`.

Correctness is delegated entirely to the page cache's coalescing
(:mod:`repro.flight`): :meth:`~repro.web.browser.PrefixPageCache.try_lead`
skips requests already cached or claimed, and the demand path waits on a
prefetch flight like on any other leader — so no page is ever fetched
twice, and a failed speculative fetch simply leaves the demand path to
retry under the engine's normal retry policy.

Simulated network seconds spent prefetching are reported through the
``charge`` callback, so the execution context's lane-based timing model
accounts for the overlapped work.

"Certain to be consumed" stops being true the moment speculation gets
more ambitious (a binding may be cancelled mid-enumeration, a breaker
may shed the demand path after the prefetch issued), so speculation runs
under an explicit :class:`SpeculationBudget`: a per-host allowance of
*potentially wasted* pages, adapting to how often the host's speculative
pages are actually consumed.
"""

from __future__ import annotations

import threading

from collections import deque
from typing import Any, Callable, Iterable

from repro.web.browser import Browser, NavigationError, PrefixPageCache, request_key
from repro.web.clock import SimClock
from repro.web.http import Request
from repro.web.server import WebServer


class SpeculationBudget:
    """An adaptive per-host allowance of *potentially wasted* pages.

    Speculation is only free when it is consumed; against a host whose
    enumerations the query never demands, every prefetched page is pure
    waste.  The budget bounds that waste explicitly: a host may have at
    most ``allowance`` speculative pages *outstanding* — issued but not
    yet consumed by a demand hit.  Consumption releases the reservation
    (and the evidence that this host's speculation pays off *grows* the
    allowance, up to ``max_allowance``); an abandoned or stale page is
    reported wasted, which *shrinks* the allowance toward
    ``min_allowance``.  Thread-safe; counts
    ``nav.speculation_denied`` / ``nav.speculation_wasted``.
    """

    def __init__(
        self,
        wasted_pages: int = 16,
        min_allowance: int = 2,
        max_allowance: int = 64,
        metrics: Any = None,
    ) -> None:
        if wasted_pages < 1:
            raise ValueError("wasted_pages must be >= 1; got %r" % wasted_pages)
        self.initial = int(wasted_pages)
        self.min_allowance = max(1, int(min_allowance))
        self.max_allowance = max(self.initial, int(max_allowance))
        self.metrics = metrics
        self._lock = threading.Lock()
        self._allowance: dict[str, int] = {}
        self._outstanding: dict[str, int] = {}
        self.consumed_total = 0
        self.wasted_total = 0

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def allowance(self, host: str) -> int:
        with self._lock:
            return self._allowance.get(host, self.initial)

    def outstanding(self, host: str) -> int:
        with self._lock:
            return self._outstanding.get(host, 0)

    def try_issue(self, host: str) -> bool:
        """Reserve one speculative page against ``host``'s allowance;
        ``False`` means the host is at its wasted-pages cap right now."""
        with self._lock:
            if self._outstanding.get(host, 0) >= self._allowance.get(
                host, self.initial
            ):
                denied = True
            else:
                self._outstanding[host] = self._outstanding.get(host, 0) + 1
                denied = False
        if denied:
            self._count("nav.speculation_denied")
        return not denied

    def consumed(self, host: str) -> None:
        """A speculative page was demanded: release its reservation and
        let the host speculate a little deeper."""
        with self._lock:
            self._outstanding[host] = max(0, self._outstanding.get(host, 0) - 1)
            self._allowance[host] = min(
                self.max_allowance, self._allowance.get(host, self.initial) + 1
            )
            self.consumed_total += 1

    def release(self, host: str) -> None:
        """Hand back an unused reservation (nothing was fetched): neutral —
        no allowance adjustment either way."""
        with self._lock:
            self._outstanding[host] = max(0, self._outstanding.get(host, 0) - 1)

    def wasted(self, host: str) -> None:
        """A speculative page never paid off (failed, went stale, or was
        abandoned): release the reservation but shrink the allowance."""
        with self._lock:
            self._outstanding[host] = max(0, self._outstanding.get(host, 0) - 1)
            self._allowance[host] = max(
                self.min_allowance, self._allowance.get(host, self.initial) - 1
            )
            self.wasted_total += 1
        self._count("nav.speculation_wasted")


class SpeculativePrefetcher:
    """Issues enumerated submissions ahead of demand, into a page cache."""

    def __init__(
        self,
        server: WebServer,
        cache: PrefixPageCache,
        metrics: Any = None,
        max_workers: int = 4,
        charge: Callable[[float], None] | None = None,
        admit: Callable[[str], bool] | None = None,
        budget: SpeculationBudget | None = None,
    ) -> None:
        self.server = server
        self.cache = cache
        self.metrics = metrics
        self.max_workers = max(1, int(max_workers))
        self._charge = charge
        # The wasted-pages budget: each speculative fetch reserves one
        # page against its host's allowance, settled when the page is
        # consumed by demand (via the cache's speculative marking) or
        # reported wasted here on failure.
        self.budget = budget
        if budget is not None:
            cache.budget = budget
        # Per-host admission gate, consulted as each queued request is
        # about to issue (not at enqueue time — the breaker may trip while
        # a request sits in the queue).  The execution context wires this
        # to the resilience layer: speculation against a host whose
        # circuit breaker is open is skipped, never queued behind it.
        self._admit = admit
        self._queue: deque[Request] = deque()
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._active = 0

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def prefetch(self, requests: Iterable[Request]) -> int:
        """Queue ``requests`` and make sure workers are draining the queue.
        Returns how many were accepted (deduplicated against the queue)."""
        accepted = 0
        with self._lock:
            queued = {request_key(r) for r in self._queue}
            for request in requests:
                key = request_key(request)
                if key in queued:
                    continue
                queued.add(key)
                self._queue.append(request)
                accepted += 1
            spawn = min(
                self.max_workers - self._active, len(self._queue)
            )
            new_threads = []
            for _ in range(max(0, spawn)):
                self._active += 1
                thread = threading.Thread(target=self._worker, daemon=True)
                new_threads.append(thread)
                self._threads.append(thread)
        if accepted:
            self._count("nav.prefetch_issued", accepted)
        for thread in new_threads:
            thread.start()
        return accepted

    def _worker(self) -> None:
        clock = SimClock()
        browser = Browser(self.server, clock)
        pages = 0
        try:
            while True:
                with self._lock:
                    if not self._queue:
                        return
                    request = self._queue.popleft()
                host = request.url.host
                if self._admit is not None and not self._admit(host):
                    self._count("nav.prefetch_skipped")
                    continue
                if self.budget is not None and not self.budget.try_issue(host):
                    self._count("nav.prefetch_skipped")
                    continue
                key = request_key(request)
                claim = self.cache.try_lead(host, key)
                if claim is None:
                    if self.budget is not None:
                        # Reserved but nothing to fetch: hand it straight
                        # back without the waste penalty.
                        self.budget.release(host)
                    continue  # cached, or the demand path beat us to it
                flight, revision = claim
                try:
                    with flight:  # leaving without fulfilling abandons it
                        page = browser.request(request)
                        pages += 1
                        self.cache.fulfill(
                            host, key, flight, page, revision, speculative=True
                        )
                except BaseException as exc:
                    # Never share a failure: the demand path retries it
                    # under the engine's retry policy.
                    if self.budget is not None:
                        self.budget.wasted(host)
                    if not isinstance(exc, NavigationError):
                        raise
        finally:
            with self._lock:
                self._active -= 1
            if pages:
                self._count("nav.prefetch_pages", pages)
            if self._charge is not None and clock.network_seconds:
                self._charge(clock.network_seconds)

    def drain(self) -> None:
        """Wait for every outstanding speculative fetch (tests and
        benchmarks use this for deterministic accounting)."""
        while True:
            with self._lock:
                threads = [t for t in self._threads if t.is_alive()]
                self._threads = threads
            if not threads:
                return
            for thread in threads:
                thread.join()
