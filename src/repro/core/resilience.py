"""Per-host resilience: circuit breakers and bulkhead worker partitions.

At service scale one slow or broken site can hold every one of a
service's runners: every fetch that routes to it burns a retry budget, a
runner, and a client's deadline.  This module keeps one degraded host from starving the
rest of the webbase, with two classic patterns adapted to the engine's
simulated-Web setting:

* a **circuit breaker** per host (closed → open → half-open), driven by
  the failure/timeout signals the engine already produces.  Consecutive
  failures — or successes slower than ``ResiliencePolicy.slow_seconds``
  of simulated network time — trip the breaker.  An *open* breaker does
  **not** fast-fail accesses (that would change answers); it

  - quarantines the host in the cross-query
    :class:`~repro.vps.cache.ResultCache` (so a ``serve_stale`` policy
    degrades gracefully to flagged-stale answers), and
  - lets accesses pass through, counted as
    ``resilience.pass_throughs``.

  After ``RECOVERY_SECONDS`` the breaker half-opens: one probe access
  (``HALF_OPEN_PROBES``) tests the host, a success closes it (and lifts
  the quarantine), a failure re-opens it;

* a **bulkhead** per host: at most ``bulkhead_per_host`` accesses to one
  host run at a time, across the webbase's queries.  Accesses wait
  (cancellably) for a partition slot.

State and traffic are observable: ``resilience.*`` metrics, the
:meth:`ResilienceManager.describe` table (``python -m repro resilience``),
and per-host breaker states via :meth:`ResilienceManager.states`.

The clock is injectable (wall seconds by default) so tests can step a
breaker through open → half-open → closed deterministically.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Trial accesses a half-open breaker admits at a time.
HALF_OPEN_PROBES = 1

#: Seconds (of the breaker's clock) an open breaker waits before it
#: half-opens, and a half-open one before it recycles unreported probes.
RECOVERY_SECONDS = 30.0


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the per-host resilience layer.

    ``failure_threshold`` consecutive failure signals open a breaker; a
    success counts as a failure signal when it took at least
    ``slow_seconds`` of simulated network time (``None`` disables the
    slow-call signal).  An open breaker half-opens after
    ``RECOVERY_SECONDS``.  ``bulkhead_per_host`` caps the accesses to
    one host that run at once (``None`` = no partitioning).
    """

    enabled: bool = True
    failure_threshold: int = 5
    slow_seconds: float | None = None
    bulkhead_per_host: int | None = None

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                "failure_threshold must be >= 1; got %r" % self.failure_threshold
            )
        if self.bulkhead_per_host is not None and self.bulkhead_per_host < 1:
            raise ValueError(
                "bulkhead_per_host must be >= 1; got %r" % self.bulkhead_per_host
            )

    @classmethod
    def off(cls) -> "ResiliencePolicy":
        """Resilience disabled: every access passes straight through."""
        return cls(enabled=False)


class CircuitBreaker:
    """One host's breaker: closed → open → half-open, failure-count driven.

    Thread-safe.  Outcome reports (:meth:`record_success` /
    :meth:`record_failure`) return ``"opened"`` or ``"closed"`` when the
    report caused a state transition, ``""`` otherwise — the manager turns
    those into metrics and cache quarantine.
    """

    def __init__(
        self,
        host: str,
        policy: ResiliencePolicy,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.host = host
        self.policy = policy
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._failures = 0  # consecutive failure signals while closed
        self._opened_at = 0.0
        self._half_open_at = 0.0
        self._probes_inflight = 0

    def _advance(self, now: float) -> str:
        """Time-driven transitions (caller holds the lock)."""
        if (
            self._state == BREAKER_OPEN
            and now - self._opened_at >= RECOVERY_SECONDS
        ):
            self._state = BREAKER_HALF_OPEN
            self._half_open_at = now
            self._probes_inflight = 0
        elif (
            self._state == BREAKER_HALF_OPEN
            and now - self._half_open_at >= RECOVERY_SECONDS
        ):
            # Probes were granted but never reported back (e.g. cancelled
            # mid-flight): recycle the probe budget so the breaker cannot
            # wedge half-open forever.
            self._half_open_at = now
            self._probes_inflight = 0
        return self._state

    def _trip(self, now: float) -> None:
        self._state = BREAKER_OPEN
        self._opened_at = now
        self._failures = 0
        self._probes_inflight = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._advance(self._clock())

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._failures

    def allow(self) -> str:
        """Admission verdict for one access: ``"ok"`` (closed),
        ``"probe"`` (half-open trial granted) or ``"open"``."""
        with self._lock:
            state = self._advance(self._clock())
            if state == BREAKER_CLOSED:
                return "ok"
            if (
                state == BREAKER_HALF_OPEN
                and self._probes_inflight < HALF_OPEN_PROBES
            ):
                self._probes_inflight += 1
                return "probe"
            return "open"

    def record_success(self, seconds: float = 0.0) -> str:
        """Report a successful access that took ``seconds`` of simulated
        network time; a slow success counts as a failure signal."""
        slow = (
            self.policy.slow_seconds is not None
            and seconds >= self.policy.slow_seconds
        )
        with self._lock:
            now = self._clock()
            state = self._advance(now)
            if state == BREAKER_HALF_OPEN:
                self._probes_inflight = max(0, self._probes_inflight - 1)
                if slow:
                    self._trip(now)
                    return "opened"
                self._state = BREAKER_CLOSED
                self._failures = 0
                return "closed"
            if slow:
                self._failures += 1
                if state == BREAKER_CLOSED and self._failures >= self.policy.failure_threshold:
                    self._trip(now)
                    return "opened"
            else:
                self._failures = 0
            return ""

    def record_failure(self) -> str:
        """Report a failed (or timed-out) access attempt."""
        with self._lock:
            now = self._clock()
            state = self._advance(now)
            if state == BREAKER_HALF_OPEN:
                self._trip(now)
                return "opened"
            self._failures += 1
            if state == BREAKER_CLOSED and self._failures >= self.policy.failure_threshold:
                self._trip(now)
                return "opened"
            return ""


class ResilienceManager:
    """Per-host breakers + bulkheads behind one access gate.

    The engine wraps every upstream fetch in :meth:`access`; per-attempt
    outcomes feed :meth:`record_failure` / :meth:`record_success`.  On a
    breaker trip the manager quarantines the host in ``cache`` (when
    given), and lifts that quarantine — without evicting the entries that
    served stale meanwhile — when the breaker closes again.
    """

    def __init__(
        self,
        policy: ResiliencePolicy | None = None,
        metrics: Any = None,
        cache: Any = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy or ResiliencePolicy()
        self.metrics = metrics
        self.cache = cache
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._bulkheads: dict[str, threading.Semaphore] = {}
        #: hosts *this manager* quarantined (so it never lifts a
        #: maintenance-driven quarantine it does not own).
        self._quarantined: set[str] = set()

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def breaker(self, host: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(host)
            if breaker is None:
                breaker = self._breakers[host] = CircuitBreaker(
                    host, self.policy, clock=self._clock
                )
            return breaker

    def _bulkhead(self, host: str) -> threading.Semaphore | None:
        if self.policy.bulkhead_per_host is None:
            return None
        with self._lock:
            sem = self._bulkheads.get(host)
            if sem is None:
                sem = self._bulkheads[host] = threading.Semaphore(
                    self.policy.bulkhead_per_host
                )
            return sem

    # -- the access gate -----------------------------------------------------

    @contextmanager
    def access(
        self,
        host: str,
        poll: Callable[[], None] | None = None,
    ) -> Iterator[str]:
        """Gate one upstream access to ``host``.

        Yields the admission verdict (``"ok"``, ``"probe"``, ``"pass"``
        for an access through an open breaker, or ``"off"`` when
        resilience is disabled).  The access waits for a bulkhead slot,
        calling ``poll`` periodically so a cancelled query stops waiting.
        """
        if not self.policy.enabled:
            yield "off"
            return
        verdict = self.breaker(host).allow()
        if verdict == "open":
            self._count("resilience.pass_throughs")
            verdict = "pass"
        elif verdict == "probe":
            self._count("resilience.probes")
        sem = self._bulkhead(host)
        acquired = False
        if sem is not None:
            if sem.acquire(blocking=False):
                acquired = True
            else:
                self._count("resilience.bulkhead_waits")
                while not sem.acquire(timeout=0.02):
                    if poll is not None:
                        poll()
                acquired = True
        try:
            yield verdict
        finally:
            if acquired:
                sem.release()

    # -- outcome reporting ---------------------------------------------------

    def record_success(self, host: str, seconds: float = 0.0) -> None:
        if not self.policy.enabled:
            return
        self._event(host, self.breaker(host).record_success(seconds))

    def record_failure(self, host: str) -> None:
        if not self.policy.enabled:
            return
        self._event(host, self.breaker(host).record_failure())

    def _event(self, host: str, event: str) -> None:
        if not event:
            return
        if event == "opened":
            self._count("resilience.breaker_opened")
            if self.cache is not None:
                self.cache.quarantine(host)
                with self._lock:
                    self._quarantined.add(host)
        elif event == "closed":
            self._count("resilience.breaker_closed")
            lift = False
            with self._lock:
                if host in self._quarantined:
                    self._quarantined.discard(host)
                    lift = True
            if lift and self.cache is not None:
                # The host was slow, not changed: the entries that served
                # stale during the outage are still map-consistent, so the
                # quarantine lifts without evicting them.
                self.cache.clear_quarantine(host, evict=False)
        if self.metrics is not None:
            self.metrics.gauge("resilience.open_breakers").set(
                sum(1 for state in self.states().values() if state == BREAKER_OPEN)
            )

    # -- introspection -------------------------------------------------------

    def states(self) -> dict[str, str]:
        """Current breaker state per host (hosts seen so far)."""
        with self._lock:
            breakers = list(self._breakers.values())
        return {b.host: b.state for b in breakers}

    def describe(self) -> str:
        """The per-host breaker table (``python -m repro resilience``)."""
        with self._lock:
            breakers = sorted(self._breakers.values(), key=lambda b: b.host)
            quarantined = set(self._quarantined)
        if not breakers:
            return "(no hosts accessed yet)"
        width = max(len(b.host) for b in breakers)
        lines = ["%-*s  %-9s  %s" % (width, "host", "breaker", "notes")]
        for breaker in breakers:
            notes = []
            if breaker.consecutive_failures:
                notes.append("%d consecutive failure(s)" % breaker.consecutive_failures)
            if breaker.host in quarantined:
                notes.append("quarantined by breaker")
            lines.append(
                "%-*s  %-9s  %s" % (width, breaker.host, breaker.state, ", ".join(notes))
            )
        return "\n".join(lines)
