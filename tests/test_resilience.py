"""Per-host circuit breakers: the quarantine rule and its webbase wiring."""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.core.execution import WebBaseConfig
from repro.core.metrics import NAME_PATTERN, MetricsRegistry
from repro.core.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    RECOVERY_SECONDS,
    CircuitBreaker,
    ResilienceManager,
    ResiliencePolicy,
)
from repro.core.webbase import WebBase
from repro.vps.cache import CachePolicy, ResultCache
from tests.conftest import derive_seeds


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def make_breaker(clock, **kwargs) -> CircuitBreaker:
    policy = ResiliencePolicy(
        failure_threshold=kwargs.pop("failure_threshold", 3),
        **kwargs,
    )
    return CircuitBreaker("www.example.com", policy, clock=clock)


class TestBreakerStateMachine:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        assert breaker.record_failure() == ""
        assert breaker.record_failure() == ""
        assert breaker.state == BREAKER_CLOSED
        assert breaker.record_failure() == "opened"
        assert breaker.state == BREAKER_OPEN
        # Reports while open count, but only a report after recovery
        # closes the breaker again.
        assert breaker.record_failure() == ""
        assert breaker.record_success() == ""
        assert breaker.state == BREAKER_OPEN

    def test_success_resets_the_consecutive_count(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_half_opens_after_recovery_and_probe_success_closes(self):
        """The first report after recovery is the probe: a fast success
        closes the breaker."""
        clock = FakeClock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(RECOVERY_SECONDS - 1)
        assert breaker.state == BREAKER_OPEN
        clock.advance(1)
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.record_success() == "closed"
        assert breaker.state == BREAKER_CLOSED
        assert breaker.consecutive_failures == 0
        assert breaker.record_success() == ""

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(RECOVERY_SECONDS)
        assert breaker.record_failure() == "opened"
        assert breaker.state == BREAKER_OPEN
        # The re-opened breaker waits out a fresh recovery period.
        clock.advance(RECOVERY_SECONDS / 2)
        assert breaker.state == BREAKER_OPEN
        clock.advance(RECOVERY_SECONDS / 2)
        assert breaker.state == BREAKER_HALF_OPEN

    def test_slow_successes_count_as_failure_signals(self):
        clock = FakeClock()
        breaker = make_breaker(clock, slow_seconds=5.0)
        assert breaker.record_success(seconds=6.0) == ""
        assert breaker.record_success(seconds=1.0) == ""  # fast resets
        for _ in range(2):
            breaker.record_success(seconds=9.0)
        assert breaker.record_success(seconds=5.0) == "opened"
        assert breaker.state == BREAKER_OPEN

    def test_slow_probe_reopens_half_open(self):
        clock = FakeClock()
        breaker = make_breaker(clock, slow_seconds=5.0)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(RECOVERY_SECONDS)
        assert breaker.record_success(seconds=30.0) == "opened"
        assert breaker.state == BREAKER_OPEN


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(failure_threshold=0)

    def test_off(self):
        assert not ResiliencePolicy.off().enabled


class FakeCache:
    """Just the quarantine surface the manager drives: causes per host."""

    def __init__(self) -> None:
        self.causes: dict[str, set[str]] = {}
        self.cleared: list[tuple[str, str, bool]] = []

    @property
    def quarantined(self) -> set[str]:
        return {host for host, causes in self.causes.items() if causes}

    def quarantine(self, host: str, cause: str = "maintenance") -> None:
        self.causes.setdefault(host, set()).add(cause)

    def clear_quarantine(
        self, host: str, cause: str = "maintenance", evict: bool = True
    ) -> None:
        self.causes.get(host, set()).discard(cause)
        self.cleared.append((host, cause, evict))

    def quarantined_hosts(self, cause: str | None = None) -> frozenset[str]:
        return frozenset(
            host
            for host, causes in self.causes.items()
            if causes and (cause is None or cause in causes)
        )


class TestManager:
    def _manager(self, clock=None, cache=None, **kwargs) -> ResilienceManager:
        policy = ResiliencePolicy(
            failure_threshold=kwargs.pop("failure_threshold", 2),
            **kwargs,
        )
        return ResilienceManager(
            policy,
            metrics=MetricsRegistry(strict=True),
            cache=cache,
            clock=clock or FakeClock(),
        )

    def test_trip_quarantines_and_close_lifts_without_evicting(self):
        clock = FakeClock()
        cache = FakeCache()
        manager = self._manager(clock=clock, cache=cache)
        for _ in range(2):
            manager.record_failure("www.slow.com")
        assert cache.quarantined == {"www.slow.com"}
        clock.advance(RECOVERY_SECONDS)
        manager.record_success("www.slow.com")
        assert cache.quarantined == set()
        assert cache.cleared == [("www.slow.com", "breaker", False)]
        assert manager.metrics.value("resilience.breaker_closed") == 1

    def test_never_lifts_a_quarantine_it_does_not_own(self):
        """Maintenance quarantines (structural site changes) need the
        designer; a breaker closing must not lift them."""
        clock = FakeClock()
        cache = FakeCache()
        cache.quarantine("www.changed.com")  # maintenance's, not ours
        manager = self._manager(clock=clock, cache=cache)
        for _ in range(2):
            manager.record_failure("www.changed.com")
        clock.advance(RECOVERY_SECONDS)
        manager.record_success("www.changed.com")
        # The breaker closed and lifted its own cause; maintenance's stands.
        assert manager.states()["www.changed.com"] == BREAKER_CLOSED
        assert cache.quarantined == {"www.changed.com"}
        assert cache.causes["www.changed.com"] == {"maintenance"}

    def test_a_close_leaves_a_maintenance_quarantine_in_place(self):
        """On a real result cache: maintenance quarantines a host, its
        breaker trips on it and, after the recovery time, closes.  The
        host stays quarantined until the designer lifts maintenance's
        cause, and the breaker table says which cause is the breaker's."""
        host = "www.newsday.com"
        clock = FakeClock()
        cache = ResultCache(None)
        cache.quarantine(host)
        manager = self._manager(clock=clock, cache=cache)
        for _ in range(2):
            manager.record_failure(host)
        assert "quarantined by breaker" in manager.describe()
        clock.advance(RECOVERY_SECONDS)
        manager.record_success(host)
        assert manager.states()[host] == BREAKER_CLOSED
        assert cache.quarantined_hosts() == frozenset({host})
        assert cache.quarantined_hosts("breaker") == frozenset()
        assert "quarantined by breaker" not in manager.describe()
        cache.clear_quarantine(host)
        assert cache.quarantined_hosts() == frozenset()

    def test_disabled_policy_is_a_no_op_gate(self):
        cache = FakeCache()
        manager = ResilienceManager(ResiliencePolicy.off(), cache=cache)
        for _ in range(10):
            manager.record_failure("anything")
        manager.record_success("anything", seconds=1e6)
        assert manager.states() == {} and cache.quarantined == set()

    def test_open_breakers_gauge_and_describe(self):
        manager = self._manager()
        for _ in range(2):
            manager.record_failure("www.slow.com")
        manager.record_failure("www.fine.com")
        assert manager.metrics.value("resilience.open_breakers") == 1
        table = manager.describe()
        assert "www.slow.com" in table and "open" in table
        assert "1 consecutive failure(s)" in table


class LoggingCache:
    """The quarantine surface, logging each call in arrival order."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.log: list[tuple[str, bool]] = []
        self.quarantined: set[str] = set()

    def quarantine(self, host: str, cause: str) -> None:
        assert cause == "breaker"
        time.sleep(0)  # a cache call takes a while: let another report run
        with self.lock:
            self.log.append(("quarantine", True))
            self.quarantined.add(host)

    def clear_quarantine(self, host: str, cause: str, evict: bool = True) -> None:
        assert cause == "breaker"
        time.sleep(0)
        with self.lock:
            self.log.append(("clear", evict))
            self.quarantined.discard(host)


class SteppedClock(FakeClock):
    def __init__(self) -> None:
        super().__init__()
        self.lock = threading.Lock()

    def advance(self, seconds: float) -> None:
        with self.lock:
            self.now += seconds


class TestConcurrentReports:
    THREADS = 8
    REPORTS = 400
    HOST = "www.flaky.com"

    def test_every_trip_quarantines_once_and_every_close_lifts_one(self):
        """Eight threads interleave failure, fast and slow success reports
        on one host while stepping a shared clock past the recovery time.
        Every threshold crossing counts one ``breaker_opened`` and one
        cache quarantine, every ``breaker_closed`` lifts exactly one of
        them (without evicting), and the cache ends quarantined exactly
        when the breaker ends open."""
        (seed,) = derive_seeds("resilience:stress", 1)
        clock, cache = SteppedClock(), LoggingCache()
        manager = ResilienceManager(
            ResiliencePolicy(failure_threshold=3, slow_seconds=5.0),
            metrics=MetricsRegistry(strict=True),
            cache=cache,
            clock=clock,
        )
        breaker = manager.breaker(self.HOST)
        transitions: list[str] = []
        for name in ("record_failure", "record_success"):
            report = getattr(breaker, name)

            def tally(*args, report=report):
                event = report(*args)
                if event:
                    transitions.append(event)  # list.append is atomic
                return event

            setattr(breaker, name, tally)
        start = threading.Barrier(self.THREADS)

        def reporter(index: int) -> None:
            rng = random.Random(seed + index)
            start.wait()
            for _ in range(self.REPORTS):
                roll = rng.random()
                if roll < 0.45:
                    manager.record_failure(self.HOST)
                elif roll < 0.9:
                    manager.record_success(self.HOST, rng.choice((0.0, 0.0, 6.0)))
                else:
                    clock.advance(RECOVERY_SECONDS / 3)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reporter, args=(i,), daemon=True)
                for i in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)

        opened = manager.metrics.value("resilience.breaker_opened")
        closed = manager.metrics.value("resilience.breaker_closed")
        assert transitions.count("opened") == opened >= 2
        assert transitions.count("closed") == closed >= 1
        # The cache saw the breaker's transitions in the breaker's order:
        # a quarantine per trip (a re-trip after recovery re-quarantines),
        # and a close only ever lifts the quarantine of the trip before it.
        kinds = [kind for kind, _ in cache.log]
        assert kinds == [{"opened": "quarantine", "closed": "clear"}[t] for t in transitions]
        assert kinds[0] == "quarantine" and ("clear", "clear") not in zip(kinds, kinds[1:])
        assert all(evict is False for kind, evict in cache.log if kind == "clear")
        still_open = manager.states()[self.HOST] != BREAKER_CLOSED
        assert still_open == (kinds[-1] == "quarantine")
        assert cache.quarantined == ({self.HOST} if still_open else set())


class TestMetricNaming:
    def test_pattern_accepts_the_documented_scheme(self):
        for name in (
            "engine.fetches",
            "cache.stale_serves",
            "resilience.breaker_opened",
            "nav.prefix_hits",
            "service.queries",
        ):
            assert NAME_PATTERN.match(name), name

    def test_pattern_rejects_off_scheme_names(self):
        for name in (
            "lat",
            "Engine.fetches",
            "engine.",
            "misc.count",
            "engine.Fetches",
            "planner.observed.pages.newsday",
        ):
            assert NAME_PATTERN.match(name) is None, name

    def test_strict_registry_rejects_and_lenient_accepts(self):
        strict = MetricsRegistry(strict=True)
        with pytest.raises(ValueError):
            strict.counter("free_form_name")
        strict.counter("engine.fetches").inc()
        lenient = MetricsRegistry()
        lenient.counter("free_form_name").inc()
        assert lenient.value("free_form_name") == 1


class TestQuarantineAcrossRestarts:
    def test_a_breaker_quarantine_does_not_outlive_its_process(self, tmp_path):
        """The store keeps maintenance's quarantines, which wait for the
        designer, and not a breaker's: a restarted webbase starts with a
        closed breaker, which would never lift a persisted trip."""
        config = WebBaseConfig(
            ads_per_host=24,
            cache=CachePolicy.lru(),
            store_dir=str(tmp_path / "store"),
            resilience=ResiliencePolicy(failure_threshold=2),
        )
        webbase = WebBase.create(config)
        webbase.cache.quarantine("www.autoweb.com")  # maintenance's
        for _ in range(2):
            webbase.resilience.record_failure("www.newsday.com")
        both = {"www.autoweb.com", "www.newsday.com"}
        assert webbase.cache.quarantined_hosts() == both
        webbase.store.close()

        reopened = WebBase(webbase.world, config)
        try:
            assert reopened.cache.quarantined_hosts() == {"www.autoweb.com"}
            reopened.resilience.record_success("www.newsday.com")
            assert reopened.cache.quarantined_hosts() == {"www.autoweb.com"}
        finally:
            reopened.store.close()
