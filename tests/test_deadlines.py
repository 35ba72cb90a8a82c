"""Wall-clock deadlines and cancellation in the execution engine.

``deadline_seconds`` bounds the *real* elapsed time a serving client
waits, not the *simulated* network seconds.  The contract: the deadline is checked at every checkpoint —
before every fetch, retry and page, and in every wait — expiry raises a
structured :class:`DeadlineExceeded` naming the stage it died at,
records a ``deadline`` trace span, bumps the
``engine.deadline_exceeded`` counter, and cancels the whole context so
the fan-out's remaining items are abandoned instead of run into the void.

:meth:`ExecutionContext.cancel` is the one way to revoke work: every
checkpoint (before each fetch, retry and page, and in coalesced
result-cache waits) reads the context's flag and its deadline, so a
cancel or an expiry surfaces as :class:`DeadlineExceeded` wherever it lands,
with no timer thread to fire it.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.execution import (
    DeadlineExceeded,
    ExecutionContext,
    FetchFailedError,
    RetryPolicy,
    WebBaseConfig,
)
from repro.core.webbase import WebBase
from repro.vps.cache import CachePolicy
from repro.web.browser import TransientNetworkError
from repro.web.server import FaultPlan

QUERY = "SELECT make, model, price WHERE make = 'saab'"


class SteppingClock:
    """A wall clock that jumps ``step`` seconds every time it is read."""

    def __init__(self, step: float) -> None:
        self.step = step
        self.now = 0.0

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestDeadlineExpiry:
    def test_zero_deadline_fails_before_the_first_fetch(self):
        webbase = WebBase.create(WebBaseConfig())
        ctx = webbase.execution_context(deadline_seconds=0.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            webbase.query(QUERY, context=ctx)
        exc = excinfo.value
        assert exc.stage.startswith("fetch:")
        assert exc.deadline_seconds == 0.0
        assert "deadline of 0.000s exceeded" in str(exc)
        assert ctx.cancelled
        # The expiry is visible in the structured trace and the metrics.
        assert ctx.root.spans("deadline"), "expiry must be recorded as a trace span"
        assert webbase.metrics.value("engine.deadline_exceeded") >= 1

    def test_no_fetch_happens_after_expiry(self):
        webbase = WebBase.create(WebBaseConfig())
        ctx = webbase.execution_context(deadline_seconds=0.0)
        with pytest.raises(DeadlineExceeded):
            webbase.query(QUERY, context=ctx)
        assert ctx.fetches == 0

    def test_deadline_checked_between_retries(self):
        """A query dying mid-retry stops burning its retry budget: with every
        request failing transiently, a stepping clock expires the deadline at
        the between-retries check, and the error names the ``retry:`` stage."""
        webbase = WebBase.create(
            WebBaseConfig(faults=FaultPlan(error_rate=1.0))
        )
        clock = SteppingClock(step=0.3)
        # Clock reads: 0.3 at construction (deadline_at = 1.1), 0.6 at the
        # pre-fetch check and 0.9 before the first page (both pass), 1.2 at
        # the before-retry check (expires).
        ctx = ExecutionContext(
            webbase.navigation_stack,
            retry=RetryPolicy(max_attempts=3),
            metrics=webbase.metrics,
            deadline_seconds=0.8,
            wall_clock=clock,
        )
        relation = webbase.vps.relations["newsday"]
        with pytest.raises(DeadlineExceeded) as excinfo:
            ctx.run_fetch(relation, {"make": "saab"})
        assert excinfo.value.stage == "retry:newsday"
        assert ctx.cancelled

    def test_a_deadline_passing_mid_navigation_stops_before_the_next_page(self):
        """A context with only a deadline — what ``repro query
        --deadline-ms`` builds — and a wall clock that passes it while the
        first page is on the wire: the access stops before its next page
        (stage ``page:<relation>``) and its fetch span reads ``cancelled``;
        it does not run on to the next fetch's checkpoint."""
        webbase = WebBase.create(WebBaseConfig(max_workers=1))
        now = [0.0]
        server = webbase.world.server
        real = server.fetch

        def slow_fetch(request):
            now[0] += 5.0  # the page takes longer than the whole budget
            return real(request)

        server.fetch = slow_fetch
        ctx = ExecutionContext(
            webbase.navigation_stack,
            metrics=webbase.metrics,
            deadline_seconds=1.0,
            wall_clock=lambda: now[0],
        )
        with pytest.raises(DeadlineExceeded) as excinfo:
            webbase.query(QUERY, context=ctx)
        fetch_spans = ctx.root.spans("fetch")
        assert [s.status for s in fetch_spans] == ["cancelled"]
        assert excinfo.value.stage == "page:%s" % fetch_spans[0].name
        assert excinfo.value.deadline_seconds == 1.0
        assert ctx.fetches == 0 and ctx.cancelled

    def test_remaining_seconds_counts_down(self):
        clock = SteppingClock(step=1.0)
        webbase = WebBase.create(WebBaseConfig())
        ctx = ExecutionContext(
            webbase.navigation_stack, deadline_seconds=10.0, wall_clock=clock
        )
        remaining = ctx.deadline_remaining_seconds
        assert remaining is not None and remaining < 10.0

    def test_no_deadline_means_no_limit(self, webbase):
        ctx = webbase.execution_context()
        assert ctx.deadline_remaining_seconds is None
        ctx.check_cancelled("anywhere")  # must not raise
        result = webbase.query(QUERY, context=ctx)
        assert len(result) > 0


class TestCancellation:
    def test_cancel_aborts_the_query(self):
        webbase = WebBase.create(WebBaseConfig())
        ctx = webbase.execution_context()
        ctx.cancel()
        with pytest.raises(DeadlineExceeded) as excinfo:
            webbase.query(QUERY, context=ctx)
        exc = excinfo.value
        assert exc.deadline_seconds is None
        assert "cancelled at" in str(exc)
        assert ctx.fetches == 0

    def test_expiry_cancels_siblings(self):
        """Once one worker hits the deadline the context is cancelled, so
        the aggregate error is the deadline itself — never a fan-out wrapper
        around it."""
        webbase = WebBase.create(WebBaseConfig())
        ctx = webbase.execution_context(deadline_seconds=0.0)
        with pytest.raises(DeadlineExceeded):
            webbase.query(QUERY, context=ctx)

    def test_cancel_mid_page_raises_deadline_exceeded(self):
        """A cancel that lands while a page is on the wire stops the access
        at its next page: the query raises :class:`DeadlineExceeded`, never
        an error of its own, and the interrupted fetch span reads
        ``cancelled``."""
        webbase = WebBase.create(WebBaseConfig(max_workers=1))
        ctx = webbase.execution_context()
        server = webbase.world.server
        real = server.fetch

        def cancelling_fetch(request):
            ctx.cancel()
            return real(request)

        server.fetch = cancelling_fetch
        with pytest.raises(DeadlineExceeded) as excinfo:
            webbase.query(QUERY, context=ctx)
        assert excinfo.value.deadline_seconds is None
        assert [s.name for s in ctx.root.spans("deadline")][0].startswith("page:")
        assert [s.status for s in ctx.root.spans("fetch")] == ["cancelled"]
        assert ctx.fetches == 0

    def test_cancel_stops_the_retry_loop_and_refunds_the_bundle(self):
        """A cancel mid-retry stops the access at the before-retry
        checkpoint: the retry budget stops burning, nothing is cached, and
        a fresh context on the same webbase still fetches."""
        webbase = WebBase.create(
            WebBaseConfig(
                faults=FaultPlan(
                    error_rate=1.0, max_consecutive=999, hosts=("www.newsday.com",)
                )
            )
        )
        ctx = ExecutionContext(
            webbase.navigation_stack,
            retry=RetryPolicy(max_attempts=5000),
            metrics=webbase.metrics,
        )
        errors: list[Exception] = []

        def run() -> None:
            try:
                ctx.run_fetch(webbase.vps.relations["newsday"], {"make": "saab"})
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10.0
        while ctx.retries < 3 and thread.is_alive():  # let a few retries burn
            assert time.monotonic() < deadline, "retries never started"
            time.sleep(0.0005)
        ctx.cancel()
        thread.join(10.0)
        assert not thread.is_alive()
        assert len(errors) == 1 and isinstance(errors[0], DeadlineExceeded)
        assert ctx.retries < 5000
        assert ctx._cache == {}
        fresh = ExecutionContext(webbase.navigation_stack, metrics=webbase.metrics)
        nytimes = webbase.vps.relations["nytimes"]
        assert len(fresh.run_fetch(nytimes, {"manufacturer": "saab"})) > 0

    def _race(self, monkeypatch, cancelled: str):
        """Two contexts fetch one key through the shared result cache: the
        leader is held inside its upstream fetch until the ``cancelled``
        side ("leader" or "waiter") has been cancelled."""
        webbase = WebBase.create(WebBaseConfig(cache=CachePolicy.lru()))
        contexts = {side: webbase.execution_context() for side in ("leader", "waiter")}
        real = ExecutionContext._fetch_with_retries
        gate, entered = threading.Event(), threading.Event()
        fetching: list[ExecutionContext] = []

        def gated(self, relation, given, bundle):
            fetching.append(self)
            if self is contexts["leader"]:
                entered.set()
                assert gate.wait(10.0)
            return real(self, relation, given, bundle)

        monkeypatch.setattr(ExecutionContext, "_fetch_with_retries", gated)
        outcomes: dict[str, object] = {}

        def run(side: str) -> None:
            try:
                outcomes[side] = webbase.fetch_vps(
                    "newsday", {"make": "saab"}, context=contexts[side]
                )
            except Exception as exc:  # noqa: BLE001 - asserted by the caller
                outcomes[side] = exc

        threads = {
            side: threading.Thread(target=run, args=(side,), daemon=True)
            for side in contexts
        }
        threads["leader"].start()
        assert entered.wait(10.0)
        threads["waiter"].start()
        deadline = time.monotonic() + 10.0
        while webbase.metrics.value("cache.coalesced") < 1:
            assert time.monotonic() < deadline, "the waiter never coalesced"
            time.sleep(0.001)
        contexts[cancelled].cancel()
        if cancelled == "waiter":
            threads["waiter"].join(10.0)  # it leaves before the flight lands
            assert not threads["waiter"].is_alive()
        gate.set()
        for thread in threads.values():
            thread.join(10.0)
            assert not thread.is_alive()
        return webbase, contexts, fetching, outcomes

    def test_cancelled_leader_context_promotes_the_waiter(self, monkeypatch):
        """A cancelled leader must not take the other context's waiter down
        with it: the flight fails, and the waiter is promoted to fetch on
        its own and caches exactly that one result."""
        webbase, contexts, fetching, outcomes = self._race(monkeypatch, "leader")
        assert isinstance(outcomes["leader"], DeadlineExceeded)
        assert len(outcomes["waiter"]) > 0
        assert fetching == [contexts["leader"], contexts["waiter"]]
        assert contexts["waiter"].fetches == 1
        assert len(webbase.cache._cache) == 1
        assert webbase.cache._inflight == {}

    def test_cancelled_waiter_context_leaves_the_leader_alone(self, monkeypatch):
        webbase, contexts, fetching, outcomes = self._race(monkeypatch, "waiter")
        assert isinstance(outcomes["waiter"], DeadlineExceeded)
        assert len(outcomes["leader"]) > 0
        assert fetching == [contexts["leader"]]
        assert len(webbase.cache._cache) == 1
        assert webbase.cache._inflight == {}

    def test_duplicate_bindings_share_one_result(self, webbase):
        ctx = ExecutionContext(webbase.navigation_stack, metrics=webbase.metrics)
        givens = [{"make": "saab"}, {"make": "toyota"}, {"make": "saab"}]
        fetched = ctx.run_fetch_batch(webbase.vps.relations["newsday"], givens)
        assert len(fetched) == 3
        assert fetched[0] is fetched[2]
        assert fetched[0] is not fetched[1]
        assert ctx.fetches == 2

    def test_a_failed_binding_does_not_stop_its_batch(self, webbase):
        """A batch whose first binding (in fetch-key order) fails: the
        bindings after it are still fetched, and the batch raises the
        failure as :class:`FetchFailedError`."""
        relation = _FailingFor(webbase.vps.relations["newsday"], make="ford")
        ctx = ExecutionContext(
            webbase.navigation_stack,
            retry=RetryPolicy(max_attempts=2),
            metrics=webbase.metrics,
        )
        givens = [{"make": "ford"}, {"make": "toyota"}, {"make": "saab"}]
        with pytest.raises(FetchFailedError) as excinfo:
            ctx.run_fetch_batch(relation, givens)
        assert excinfo.value.failure.relation == "newsday"
        assert relation.seen == ["ford", "ford", "saab", "toyota"]
        assert [s.status for s in ctx.root.spans("fetch")] == ["error", "ok", "ok"]


class _FailingFor:
    """A VPS relation whose fetch for one ``make`` always fails transiently;
    records every make it was asked for, in order."""

    def __init__(self, relation, make: str) -> None:
        self._relation = relation
        self._make = make
        self.seen: list[str] = []

    def __getattr__(self, name: str):
        return getattr(self._relation, name)

    def fetch(self, given, executor=None):
        self.seen.append(given["make"])
        if given["make"] == self._make:
            raise TransientNetworkError("injected failure for %s" % self._make)
        return self._relation.fetch(given, executor=executor)


class TestCliDeadline:
    def test_query_deadline_flag_reports_structured_expiry(self, capsys):
        from repro.cli import main

        rc = main(["query", QUERY, "--deadline-ms", "0"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "deadline exceeded" in out
        assert "stage=" in out
