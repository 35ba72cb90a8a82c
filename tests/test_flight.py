"""The coalescing primitive on its own: :mod:`repro.flight`.

Every scenario is gate-driven: a leader's work blocks on an event the
test opens only once it has *seen* the other callers join as
subscribers, so the leader/subscriber split is decided by the test, not
by the scheduler.  No sleep synchronises anything.  Every scenario ends
with the owner's table empty.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.flight import POLL_SECONDS, Flights

TIMEOUT = 10.0


class _Owner:
    """The smallest owner of a flight table: a lock, the table, and the
    caller loop the contract prescribes (join → lead or subscribe →
    rejoin when the leader failed)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.flights = Flights(self.lock)
        self.subscribed = threading.Semaphore(0)  # one release per subscription

    def call(self, key, work, poll=None) -> tuple[list[str], object]:
        """Returns the roles this caller went through, and its result."""
        roles: list[str] = []
        while True:
            with self.lock:
                flight, leading = self.flights.join(key)
            if leading:
                roles.append("lead")
                with flight:
                    result = work()
                    with self.lock:
                        flight.land(result)
                return roles, result
            roles.append("wait")
            self.subscribed.release()
            if flight.wait(poll):
                return roles, flight.result

    def await_subscribers(self, count: int) -> None:
        for _ in range(count):
            assert self.subscribed.acquire(timeout=TIMEOUT), "a caller never subscribed"


def run_threads(count: int, target) -> tuple[list[threading.Thread], list, list]:
    """``count`` daemon threads running ``target``; their return values
    and exceptions are collected."""
    returned: list = []
    raised: list = []

    def run() -> None:
        try:
            returned.append(target())
        except BaseException as exc:  # noqa: BLE001 - asserted on by the test
            raised.append(exc)

    threads = [threading.Thread(target=run, daemon=True) for _ in range(count)]
    for thread in threads:
        thread.start()
    return threads, returned, raised


def join_all(threads: list[threading.Thread]) -> None:
    for thread in threads:
        thread.join(timeout=TIMEOUT)
    assert not any(thread.is_alive() for thread in threads), "a caller never woke"


class TestContract:
    CALLERS = 8

    def test_one_leader_and_everyone_shares_its_object(self):
        owner = _Owner()
        gate = threading.Event()
        calls = []

        def work():
            calls.append(1)
            assert gate.wait(TIMEOUT)
            return object()

        threads, returned, raised = run_threads(self.CALLERS, lambda: owner.call("k", work))
        owner.await_subscribers(self.CALLERS - 1)
        gate.set()
        join_all(threads)
        assert raised == []
        assert len(calls) == 1
        assert sorted(roles for roles, _ in returned) == (
            [["lead"]] + [["wait"]] * (self.CALLERS - 1)
        )
        assert len({id(result) for _, result in returned}) == 1
        assert owner.flights == {}

    def test_failure_is_not_shared_one_subscriber_is_promoted(self):
        owner = _Owner()
        first_gate, second_gate = threading.Event(), threading.Event()
        calls = []

        def work():
            calls.append(1)
            if len(calls) == 1:
                assert first_gate.wait(TIMEOUT)
                raise RuntimeError("the first leader fails")
            assert second_gate.wait(TIMEOUT)
            return object()

        threads, returned, raised = run_threads(self.CALLERS, lambda: owner.call("k", work))
        owner.await_subscribers(self.CALLERS - 1)
        first_gate.set()
        # One survivor is promoted; the others subscribe to *its* flight.
        owner.await_subscribers(self.CALLERS - 2)
        second_gate.set()
        join_all(threads)
        assert [type(exc) for exc in raised] == [RuntimeError]  # the leader's own caller
        assert len(calls) == 2
        assert sorted(roles for roles, _ in returned) == (
            [["wait", "lead"]] + [["wait", "wait"]] * (self.CALLERS - 2)
        )
        assert len({id(result) for _, result in returned}) == 1
        assert owner.flights == {}

    def test_a_cancelled_subscriber_detaches_and_the_flight_lands(self):
        owner = _Owner()
        leading, gate = threading.Event(), threading.Event()

        class Cancelled(Exception):
            pass

        def cancel():
            raise Cancelled()

        def work():
            leading.set()
            assert gate.wait(TIMEOUT)
            return "landed"

        leader, led, _ = run_threads(1, lambda: owner.call("k", work))
        assert leading.wait(TIMEOUT)
        patient, shared, _ = run_threads(1, lambda: owner.call("k", work))
        quitter, _, quit_with = run_threads(1, lambda: owner.call("k", work, poll=cancel))
        owner.await_subscribers(2)
        join_all(quitter)  # polled out of its wait; the leader is still at the gate
        assert [type(exc) for exc in quit_with] == [Cancelled]
        assert "k" in owner.flights, "a subscriber leaving closed the flight"
        gate.set()
        join_all(leader + patient)
        assert led == [(["lead"], "landed")]
        assert shared == [(["wait"], "landed")]
        assert owner.flights == {}

    def test_a_section_left_without_landing_fails_the_flight(self):
        owner = _Owner()
        with owner.lock:
            flight, leading = owner.flights.join("k")
        assert leading
        with flight:
            pass  # the leader returned early: nothing to share
        assert owner.flights == {}
        assert flight.wait() is False  # settled, and as failed
        with owner.lock:
            flight, _ = owner.flights.join("k")
        with pytest.raises(KeyError):
            with flight:
                raise KeyError("k")
        assert owner.flights == {}
        assert flight.wait() is False and isinstance(flight.error, KeyError)

    def test_settling_a_closed_flight_spares_its_successor(self):
        owner = _Owner()
        with owner.lock:
            failed, _ = owner.flights.join("k")
        failed.settle(RuntimeError("boom"))
        with owner.lock:
            successor, leading = owner.flights.join("k")
        assert leading and successor is not failed
        failed.settle()  # a second settle is a no-op
        assert owner.flights == {"k": successor}
        with successor:
            with owner.lock:
                successor.land(1)
        assert owner.flights == {}

    def test_poll_interval_is_the_documented_bound(self):
        assert POLL_SECONDS <= 0.05


class TestStress:
    THREADS = 8
    KEYS = 5
    ROUNDS = 60

    def test_no_lost_wakeup_and_one_compute_per_key(self):
        """Eight threads hammer a handful of keys through the caller loop,
        with the interpreter switching threads every 10 µs.  Results are
        stored beside the table under the one lock, so each ``(key,
        round)`` must compute exactly once however the joins interleave;
        every third leader fails first, so promotion runs under the same
        pressure.  A lost wake-up leaves a thread parked past the join
        timeout."""
        lock = threading.Lock()
        flights = Flights(lock)
        stored: dict[tuple, int] = {}
        computes: dict[tuple, int] = {}
        failures: dict[tuple, int] = {}
        deadline = time.monotonic() + 60.0

        def poll() -> None:
            if time.monotonic() > deadline:
                raise TimeoutError("parked past the deadline")

        def compute(key: tuple) -> int:
            if sum(key) % 3 == 0:
                with lock:
                    first = failures.setdefault(key, 0) == 0
                    failures[key] += 1
                if first:
                    raise RuntimeError("transient")
            with lock:
                computes[key] = computes.get(key, 0) + 1
            return key[0] * 1000 + key[1]

        def fetch(key: tuple) -> int:
            while True:
                with lock:
                    if key in stored:
                        return stored[key]
                    flight, leading = flights.join(key)
                if leading:
                    try:
                        with flight:
                            value = compute(key)
                            with lock:
                                stored[key] = value
                                flight.land(value)
                        return value
                    except RuntimeError:
                        continue  # a real caller would raise; here it retries
                if flight.wait(poll):
                    return flight.result

        def worker() -> bool:
            for round_ in range(self.ROUNDS):
                for k in range(self.KEYS):
                    if fetch((k, round_)) != k * 1000 + round_:
                        return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads, returned, raised = run_threads(self.THREADS, worker)
            for thread in threads:
                thread.join(timeout=90.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "lost wake-up"
        assert raised == []
        assert returned == [True] * self.THREADS
        assert set(computes.values()) == {1}
        assert len(computes) == self.KEYS * self.ROUNDS
        assert flights == {}
