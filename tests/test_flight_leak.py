"""Regression: a store error must not leak a ``ResultCache`` flight.

The leader used to note its write-ahead intent *outside* the section that
settled its flight, and to mirror the fill to silver *between* closing
the flight and waking its waiters.  An ``OSError`` from the store at
either point (``TieredStore`` only absorbs its own ``StorageCrash``)
left the flight registered and unset: the failing call raised, and every
later fetch of that key parked behind it forever.

Every blocking step runs on a daemon thread with a join timeout, so the
leak shows up as a failed assertion, never as a hung suite.
"""

from __future__ import annotations

import errno
import threading
import time

from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.core.metrics import MetricsRegistry
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.vps.cache import CachePolicy, ResultCache
from tests.test_flight import join_all, run_threads

TIMEOUT = 10.0
WAITERS = 4


class _Gate:
    """Holds a leader at a chosen point until the test has parked its
    waiters behind the flight."""

    def __init__(self) -> None:
        self.reached = threading.Event()
        self.opened = threading.Event()

    def hold(self) -> None:
        self.reached.set()
        assert self.opened.wait(TIMEOUT), "test gate never opened"


class _Inner:
    """A Catalog double that counts upstream fetches."""

    def __init__(self, gate: _Gate | None = None) -> None:
        self.gate = gate
        self.calls = 0
        self._lock = threading.Lock()

    def fetch(self, name, given, context=None):
        with self._lock:
            self.calls += 1
        if self.gate is not None:
            self.gate.hold()
        return Relation(Schema(("a",)), [(given["k"],)])


class _FullDisk:
    """A store double whose ``step`` raises ``ENOSPC`` the first time."""

    def __init__(self, step: str, gate: _Gate | None = None) -> None:
        self.step = step
        self.gate = gate
        self.failed = False

    def _maybe_fail(self, step: str) -> None:
        if step == self.step and not self.failed:
            self.failed = True
            if self.gate is not None:
                self.gate.hold()
            raise OSError(errno.ENOSPC, "No space left on device")

    def record_intent(self, relation, host, revision, key):
        self._maybe_fail("record_intent")

    def persist_result(self, relation, host, revision, key, value):
        self._maybe_fail("persist_result")


class _Context:
    """Just enough execution context for the cache: cancellation polling
    and hit spans."""

    def check_cancelled(self, stage: str) -> None:
        pass

    @contextmanager
    def span(self, kind, name, **attrs):
        yield SimpleNamespace(cache=None)


def _cache(step: str, gate: _Gate | None = None):
    """A cache whose store fails ``step`` once.  ``gate`` holds the leader
    at the last point where waiters can still join its flight: inside the
    failing intent write, or — for a failing silver write, which runs
    after the result is stored — inside the upstream fetch before it."""
    inner = _Inner(gate if step == "persist_result" else None)
    cache = ResultCache(inner, CachePolicy.lru(), metrics=MetricsRegistry())
    cache.store = _FullDisk(step, gate if step == "record_intent" else None)
    return inner, cache


def _fetch(cache: ResultCache, how: str, context=None) -> list[tuple]:
    if how == "fetch":
        return sorted(cache.fetch("r", {"k": "v"}, context=context).rows)
    first, other = cache.fetch_batch("r", [{"k": "v"}, {"k": "w"}], context=context)
    assert sorted(other.rows) == [("w",)]
    return sorted(first.rows)


@pytest.mark.parametrize("how", ["fetch", "fetch_batch"])
@pytest.mark.parametrize("step", ["record_intent", "persist_result"])
def test_a_store_error_raises_once_and_the_key_stays_fetchable(step, how):
    inner, cache = _cache(step)
    with pytest.raises(OSError):
        _fetch(cache, how)
    assert cache._inflight == {}, "the failed leader left its flight registered"
    thread, returned, raised = run_threads(1, lambda: _fetch(cache, how))
    join_all(thread)  # the next fetch must not park behind a leaked flight
    assert raised == []
    assert returned == [[("v",)]]
    assert cache._inflight == {}
    # One miss per upstream fetch: a fill that died before it fetched
    # counted none, and a fill that died after it stored is served as a hit.
    assert cache.metrics.value("cache.misses") == inner.calls
    assert inner.calls == (1 if how == "fetch" else 2)


@pytest.mark.parametrize("step", ["record_intent", "persist_result"])
def test_parked_waiters_wake_when_the_store_fails_their_leader(step):
    gate = _Gate()
    inner, cache = _cache(step, gate)
    leader, _, leader_raised = run_threads(1, lambda: _fetch(cache, "fetch"))
    assert gate.reached.wait(TIMEOUT)
    contexts = iter([None, _Context()] * (WAITERS // 2))
    waiters, returned, raised = run_threads(
        WAITERS, lambda: _fetch(cache, "fetch", next(contexts))
    )
    deadline = time.monotonic() + TIMEOUT
    while cache.metrics.value("cache.coalesced") < WAITERS and time.monotonic() < deadline:
        time.sleep(0.001)
    assert cache.metrics.value("cache.coalesced") == WAITERS
    gate.opened.set()
    join_all(leader + waiters)
    assert [type(exc) for exc in leader_raised] == [OSError]
    # Waiters retry as the new leader (the store has recovered) or share
    # what the leader landed before the store failed it — none inherits
    # the error, and the upstream is fetched exactly once.
    assert raised == []
    assert returned == [[("v",)]] * WAITERS
    assert inner.calls == 1
    assert cache.metrics.value("cache.misses") == 1
    assert cache._inflight == {}
