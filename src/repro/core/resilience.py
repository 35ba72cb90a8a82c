"""Per-host resilience: a circuit breaker that quarantines a failing host.

The webbase answers a misbehaving site by quarantining what it serves
from that site, not by refusing to query it: refusing an access would
change answers.  So a host's breaker never gates an access.  It watches
the outcome signals the engine already produces and moves one flag in
the cross-query :class:`~repro.vps.cache.ResultCache`:

* ``ResiliencePolicy.failure_threshold`` consecutive failure signals —
  failed attempts, or successes slower than ``slow_seconds`` of
  simulated network time — *open* the breaker, which quarantines the
  host in the cache (so a ``serve_stale`` policy degrades gracefully to
  flagged-stale answers);
* once ``RECOVERY_SECONDS`` have passed since the trip, the breaker
  reads *half-open*, and the next report decides: a fast success closes
  it and lifts the quarantine without evicting (the host was slow, not
  changed), a failure signal re-opens it for another recovery period.

A breaker's quarantine has its own cause (``"breaker"``, see
:mod:`repro.revisions`), so a close lifts only that: a host that
maintenance also flagged stays quarantined until the designer steps in.

State is observable: ``resilience.*`` metrics, the
:meth:`ResilienceManager.describe` table (``python -m repro resilience``),
and per-host breaker states via :meth:`ResilienceManager.states`.

The clock is injectable (wall seconds by default) so tests can step a
breaker through open → half-open → closed deterministically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Seconds (of the breaker's clock) after a trip before the next report
#: may close the breaker.
RECOVERY_SECONDS = 30.0


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the per-host resilience layer.

    ``failure_threshold`` consecutive failure signals open a breaker; a
    success counts as a failure signal when it took at least
    ``slow_seconds`` of simulated network time (``None`` disables the
    slow-call signal).
    """

    enabled: bool = True
    failure_threshold: int = 5
    slow_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                "failure_threshold must be >= 1; got %r" % self.failure_threshold
            )

    @classmethod
    def off(cls) -> "ResiliencePolicy":
        """Resilience disabled: outcome reports are ignored."""
        return cls(enabled=False)


class CircuitBreaker:
    """One host's breaker: consecutive failure signals plus the trip time.

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
        self._failures = 0  # consecutive failure signals (a fast success or a trip resets)
        self._opened_at: float | None = None  # None while closed

    def _state(self, now: float) -> str:
        if self._opened_at is None:
            return BREAKER_CLOSED
        if now - self._opened_at < RECOVERY_SECONDS:
            return BREAKER_OPEN
        return BREAKER_HALF_OPEN

    @property
    def state(self) -> str:
        with self._lock:
            return self._state(self._clock())

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._failures

    def record_success(self, seconds: float = 0.0) -> str:
        """Report a successful access that took ``seconds`` of simulated
        network time; a slow success counts as a failure signal."""
        slow = self.policy.slow_seconds is not None and seconds >= self.policy.slow_seconds
        return self._report(failed=slow)

    def record_failure(self) -> str:
        """Report a failed access attempt."""
        return self._report(failed=True)

    def _report(self, failed: bool) -> str:
        with self._lock:
            now = self._clock()
            state = self._state(now)
            if state == BREAKER_HALF_OPEN:
                # Recovery time is up: this report decides.
                self._failures = 0
                if failed:
                    self._opened_at = now
                    return "opened"
                self._opened_at = None
                return "closed"
            if not failed:
                self._failures = 0
                return ""
            self._failures += 1
            if state == BREAKER_CLOSED and self._failures >= self.policy.failure_threshold:
                self._opened_at = now
                self._failures = 0
                return "opened"
            return ""


class ResilienceManager:
    """Per-host breakers, fed by the engine's per-attempt outcomes.

    On a breaker trip the manager quarantines the host in ``cache`` (when
    given) for the ``"breaker"`` cause, and lifts that cause — without
    evicting the entries that served stale meanwhile — when the breaker
    closes again.
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
        # Held through a whole report, from the breaker's transition to its
        # quarantine or lift, so the cache sees trips and closes in the
        # breaker's order.
        self._lock = threading.RLock()
        self._breakers: dict[str, CircuitBreaker] = {}

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def breaker(self, host: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(host)
            if breaker is None:
                breaker = self._breakers[host] = CircuitBreaker(
                    host, self.policy, clock=self._clock
                )
            return breaker

    # -- outcome reporting ---------------------------------------------------

    def record_success(self, host: str, seconds: float = 0.0) -> None:
        if not self.policy.enabled:
            return
        with self._lock:
            self._event(host, self.breaker(host).record_success(seconds))

    def record_failure(self, host: str) -> None:
        if not self.policy.enabled:
            return
        with self._lock:
            self._event(host, self.breaker(host).record_failure())

    def _event(self, host: str, event: str) -> None:
        if not event:
            return
        if event == "opened":
            self._count("resilience.breaker_opened")
            if self.cache is not None:
                self.cache.quarantine(host, "breaker")
        else:  # "closed"
            self._count("resilience.breaker_closed")
            if self.cache is not None:
                # The host was slow, not changed: the entries that served
                # stale during the outage are still map-consistent, so the
                # quarantine lifts without evicting them.
                self.cache.clear_quarantine(host, "breaker", evict=False)
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
        quarantined = (
            self.cache.quarantined_hosts("breaker") if self.cache is not None else ()
        )
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
