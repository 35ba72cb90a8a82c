"""Access handles: terminal states, cancellation races, batch semantics.

The fault × cancel matrix the handles must survive: cancel during retry
backoff, cancel of a single-flight leader (the waiter gets promoted),
cancel of a single-flight waiter (the leader is unaffected), cancel after
completion.  Each race asserts
the ledger stays honest — no stale page cached, budgets refunded.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.execution import (
    ACCESS_BROKEN,
    ACCESS_CANCELLED,
    ACCESS_DONE,
    AccessCancelled,
    AccessHandle,
    ExecutionContext,
    RetryPolicy,
    WebBaseConfig,
)
from repro.core.webbase import WebBase
from repro.web.server import FaultPlan


@pytest.fixture()
def healthy_webbase():
    return WebBase.create(WebBaseConfig())


class TestHandleBasics:
    def test_run_fetch_returns_a_terminal_done_handle(self, healthy_webbase):
        ctx = healthy_webbase.execution_context()
        relation = healthy_webbase.vps.relations["newsday"]
        handle = ctx.run_fetch(relation, {"make": "saab"})
        assert handle.state == ACCESS_DONE
        assert handle.done
        assert handle.relation == "newsday"
        assert handle.host == "www.newsday.com"
        assert handle.given == {"make": "saab"}
        assert len(handle.result()) > 0

    def test_done_wins_over_a_late_cancel(self, healthy_webbase):
        ctx = healthy_webbase.execution_context()
        relation = healthy_webbase.vps.relations["newsday"]
        handle = ctx.run_fetch(relation, {"make": "saab"})
        rows = handle.result()
        assert handle.cancel("too late") is False
        assert handle.state == ACCESS_DONE
        assert handle.result() is rows  # the completed result stands

    def test_pending_cancel_finishes_immediately(self):
        handle = AccessHandle("newsday", "www.newsday.com", {"make": "saab"})
        assert handle.cancel("probe disproved") is True
        assert handle.state == ACCESS_CANCELLED
        assert handle.cancel_reason == "probe disproved"
        with pytest.raises(AccessCancelled, match="probe disproved"):
            handle.result()
        # A second cancel is a no-op on the terminal handle.
        assert handle.cancel("again") is False

    def test_broken_fetch_stores_its_error(self):
        webbase = WebBase.create(
            WebBaseConfig(faults=FaultPlan(error_rate=1.0, max_consecutive=999))
        )
        ctx = ExecutionContext(
            webbase.pool, retry=RetryPolicy(max_attempts=2), metrics=webbase.metrics
        )
        relation = webbase.vps.relations["newsday"]
        handle = ctx.run_fetch(relation, {"make": "saab"})
        assert handle.state == ACCESS_BROKEN
        with pytest.raises(Exception):
            handle.result()


class TestCancelDuringRetryBackoff:
    def test_cancel_stops_the_retry_loop_and_refunds_the_slot(self):
        """Revoking an access mid-retry stops it at the before-retry
        checkpoint: the retry budget stops burning, nothing is cached,
        and the worker slot frees up for other hosts."""
        webbase = WebBase.create(
            WebBaseConfig(
                faults=FaultPlan(
                    error_rate=1.0, max_consecutive=999, hosts=("www.newsday.com",)
                )
            )
        )
        ctx = ExecutionContext(
            webbase.pool,
            retry=RetryPolicy(max_attempts=5000),
            metrics=webbase.metrics,
        )
        relation = webbase.vps.relations["newsday"]
        holder = {}

        def run() -> None:
            holder["handle"] = ctx.run_fetch(relation, {"make": "saab"})

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        # Let a few retries burn, then revoke the access from outside.
        deadline = time.monotonic() + 10.0
        while ctx.retries < 3 and thread.is_alive():
            assert time.monotonic() < deadline, "retries never started"
            time.sleep(0.0005)
        with ctx._lock:
            live = list(ctx._live_handles.values())
        for handle in live:
            handle.cancel("outer bindings proved this irrelevant")
        thread.join(10.0)
        assert not thread.is_alive()
        handle = holder["handle"]
        assert handle.state == ACCESS_CANCELLED
        assert isinstance(handle.error, AccessCancelled)
        # The retry budget was not exhausted — the cancel interrupted it.
        assert ctx.retries < 5000
        # No partial result leaked into the per-context cache, and the
        # single-flight table is clean.
        assert ctx._cache == {}
        assert ctx._flights == {}
        # The revocation is accounted.
        assert webbase.metrics.value("resilience.cancelled") >= 1
        # The slot was refunded: the same context still serves other hosts.
        other = ctx.run_fetch(
            webbase.vps.relations["nytimes"], {"manufacturer": "saab"}
        )
        assert other.state == ACCESS_DONE


class TestSingleFlightRaces:
    def _race(self, monkeypatch, cancel_target):
        """Run leader+waiter on one fetch key; cancel ``cancel_target``
        ("leader" or "waiter") while the leader holds the flight open."""
        webbase = WebBase.create(WebBaseConfig())
        ctx = webbase.execution_context()
        relation = webbase.vps.relations["newsday"]
        real = ExecutionContext._fetch_with_retries
        gate = threading.Event()
        leader_entered = threading.Event()
        calls = []
        lock = threading.Lock()

        def patched(self, relation, given, bundle, handle=None):
            with lock:
                calls.append(handle)
                first = len(calls) == 1
            if first:
                leader_entered.set()
                gate.wait(10.0)
                self.check_cancelled("gate")  # honours a cancel raced in
            return real(self, relation, given, bundle, handle)

        monkeypatch.setattr(ExecutionContext, "_fetch_with_retries", patched)
        results = {}

        def run(name: str) -> None:
            results[name] = ctx.run_fetch(relation, {"make": "saab"})

        leader = threading.Thread(target=run, args=("leader",), daemon=True)
        leader.start()
        assert leader_entered.wait(10.0)
        waiter = threading.Thread(target=run, args=("waiter",), daemon=True)
        waiter.start()
        # The waiter coalesces onto the leader's flight before we act.
        deadline = time.monotonic() + 10.0
        while webbase.metrics.value("engine.coalesced") < 1:
            assert time.monotonic() < deadline, "waiter never coalesced"
            time.sleep(0.001)
        with ctx._lock:
            live = list(ctx._live_handles.values())
        assert len(live) == 2
        leader_handle = calls[0]
        waiter_handle = next(h for h in live if h is not leader_handle)
        if cancel_target == "leader":
            assert leader_handle.cancel("client went away") is True
        else:
            assert waiter_handle.cancel("client went away") is True
            waiter.join(10.0)  # the waiter unwinds before the flight lands
            assert not waiter.is_alive()
        gate.set()
        leader.join(10.0)
        waiter.join(10.0)
        assert not leader.is_alive() and not waiter.is_alive()
        return ctx, results["leader"], results["waiter"]

    def test_cancelled_leader_promotes_the_waiter(self, monkeypatch):
        """A cancelled single-flight leader must not take its waiters down
        with it: the flight is released, the waiter re-loops, finds no
        cached result, and is promoted to fetch on its own."""
        ctx, leader_handle, waiter_handle = self._race(monkeypatch, "leader")
        assert leader_handle.state == ACCESS_CANCELLED
        assert waiter_handle.state == ACCESS_DONE
        assert len(waiter_handle.result()) > 0
        # Exactly the promoted fetch's result is cached — never a partial
        # result from the cancelled leader.
        assert len(ctx._cache) == 1
        assert ctx._flights == {}

    def test_cancelled_waiter_leaves_the_leader_alone(self, monkeypatch):
        ctx, leader_handle, waiter_handle = self._race(monkeypatch, "waiter")
        assert waiter_handle.state == ACCESS_CANCELLED
        assert isinstance(waiter_handle.error, AccessCancelled)
        assert leader_handle.state == ACCESS_DONE
        assert len(ctx._cache) == 1  # the leader's result is shared as usual


class TestBatchSemantics:
    def test_duplicate_bindings_share_a_handle(self, healthy_webbase):
        ctx = ExecutionContext(healthy_webbase.pool, metrics=healthy_webbase.metrics)
        relation = healthy_webbase.vps.relations["newsday"]
        givens = [{"make": "saab"}, {"make": "toyota"}, {"make": "saab"}]
        batch = ctx.run_fetch_batch(relation, givens)
        assert len(batch) == 3
        assert batch.handles[0] is batch.handles[2]
        assert batch.handles[0] is not batch.handles[1]
        rows = batch.results()
        assert rows[0] is rows[2]

    def test_cancel_after_batch_session_is_inert(self, healthy_webbase):
        """By the time run_fetch_batch returns, every handle is terminal:
        a late cancel accepts nothing and retracts nothing."""
        ctx = ExecutionContext(healthy_webbase.pool, metrics=healthy_webbase.metrics)
        relation = healthy_webbase.vps.relations["newsday"]
        batch = ctx.run_fetch_batch(relation, [{"make": "saab"}, {"make": "toyota"}])
        before = batch.results()
        assert batch.cancel_pending("too late") == 0
        assert [h.state for h in batch] == [ACCESS_DONE, ACCESS_DONE]
        assert batch.results() == before
        assert healthy_webbase.metrics.value("resilience.cancelled") == 0
