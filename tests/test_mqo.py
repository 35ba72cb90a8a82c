"""The multi-query optimizer: share in flight, subsume from gold.

Covers the three rungs of the MQO ladder end to end:

* **containment** (`repro.mqo.containment`): the conservative
  predicate-implication check, unit-tested over UR-parsed conditions;
* **sharing** (`repro.mqo.registry`): leader/subscriber single-flight
  with cancellation detach and leader-failure promotion, driven
  deterministically with events;
* **subsumption**: a webbase with `mqo=True` answers a narrowed query
  from a containing gold answer with *zero* side effects beyond the
  `mqo.subsumed` counter — and a revision bump on any contributing host
  makes the gold answer unusable (stale is never served);
* the **service** path: `service.queue_wait_seconds`, shared
  fingerprints across concurrent socket clients, and gold persistence
  from the streaming executor.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.mqo.containment import decompose, implies
from repro.mqo.registry import SubplanRegistry
from repro.relational.relation import Relation
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, WebBaseService
from repro.sites.world import mutate_site_listings
from repro.ur.query import parse_query
from repro.vps.cache import CachePolicy
from repro.web.server import FaultPlan
from tests.test_flight import TIMEOUT, join_all, run_threads

BROAD = "SELECT make, model, price, year WHERE make = 'saab'"
NARROW = "SELECT make, model, price, year WHERE make = 'saab' AND year > 1995"
#: Two single-relation objects (classifieds, dealers) over four hosts.
WIDE = "SELECT make, model, price WHERE make = 'ford'"
WIDE_HOSTS = {
    "www.autoweb.com", "www.carpoint.com", "www.newsday.com", "www.nytimes.com"
}
#: The world size of the scenarios that move a site: at the default an
#: auto-absorbed change leaves the map complete, so the refreshed answer
#: must equal a from-scratch webbase's exactly.
ADS = 120


def _cond(text: str):
    return parse_query("SELECT make WHERE " + text).condition


def _mqo_webbase(tmp_path, ads_per_host: int = 24) -> WebBase:
    return WebBase.create(
        WebBaseConfig(
            ads_per_host=ads_per_host,
            cache=CachePolicy.lru(),
            store_dir=str(tmp_path / "store"),
            mqo=True,
        )
    )


class _ShareGate:
    """Parks the first ``flights`` leading object evaluations of
    ``webbase``, each at its first logical fetch, until a subscriber has
    joined *that* evaluation's flight — so which query shares whose
    evaluation is decided by the test, not by the scheduler.  A query
    evaluates its objects one at a time, so a gate on anything but the
    flight its subscriber is waiting for would never open.  With
    ``flights=0`` every evaluation parks until :meth:`open` instead."""

    def __init__(self, webbase: WebBase, flights: int) -> None:
        self.flights = flights
        self.reached = threading.Event()  # some evaluation is parked
        self.opened = threading.Event()
        if flights:
            self.opened.set()
        self._joined: dict = {}  # gated fingerprint -> a subscriber joined it
        self._leading = threading.local()  # the gated flight this thread leads
        self._lock = threading.Lock()
        registry_flights = webbase.mqo.registry._flights
        join, fetch = registry_flights.join, webbase.logical.fetch

        def counting_join(key):
            flight, leading = join(key)
            with self._lock:
                if not leading:
                    if key in self._joined:
                        self._joined[key].set()
                elif len(self._joined) < self.flights:
                    self._joined[key] = threading.Event()
                    self._leading.key = key
            return flight, leading

        def gated_fetch(*args, **kwargs):
            self.reached.set()
            key, self._leading.key = getattr(self._leading, "key", None), None
            if key is not None:
                assert self._joined[key].wait(TIMEOUT), "nobody joined a gated flight"
            assert self.opened.wait(TIMEOUT), "test gate never opened"
            return fetch(*args, **kwargs)

        registry_flights.join = counting_join
        webbase.logical.fetch = gated_fetch

    def open(self) -> None:
        self.opened.set()


def _assert_gold_covers_the_plan(wb: WebBase, writes: int) -> None:
    """Every gold answer to ``WIDE`` names exactly the hosts under its
    plan — the leader's and the subscriber's alike, though the
    subscriber's own trace holds no fetch for an object it shared."""
    answers = [r for r in wb.store.gold if r.get("kind") == "answer"]
    assert len(answers) == writes
    for record in answers:
        assert set(record["revisions"]) == WIDE_HOSTS, record["revisions"]
    assert set(wb.ur.plan_hosts(wb.ur.plan(WIDE))) == WIDE_HOSTS


def _move_autoweb(wb: WebBase) -> None:
    """Three new ford ads and an auto-absorbed form change on one host."""
    mutate_site_listings(
        wb.world, host="www.autoweb.com", make="ford", model="escort",
        count=3, seed=5, change="auto",
    )
    wb.run_maintenance()
    assert wb.cache.revision("www.autoweb.com") == 1


# -- containment ---------------------------------------------------------------


class TestImplies:
    def test_narrowing_conjunct_implies(self):
        assert implies(_cond("make = 'saab' AND year > 1995"), _cond("make = 'saab'"))

    def test_broader_does_not_imply_narrower(self):
        assert not implies(_cond("make = 'saab'"), _cond("make = 'saab' AND year > 1995"))

    def test_range_tightening(self):
        assert implies(_cond("year > 1996"), _cond("year > 1995"))
        assert implies(_cond("year > 1995"), _cond("year >= 1995"))
        assert not implies(_cond("year >= 1995"), _cond("year > 1995"))
        assert implies(_cond("year > 1995 AND year < 1999"), _cond("year > 1995"))

    def test_membership_shapes(self):
        assert implies(_cond("make = 'saab'"), _cond("make IN ('saab', 'honda')"))
        assert not implies(_cond("make IN ('saab', 'ford')"), _cond("make IN ('saab', 'honda')"))

    def test_exclusions(self):
        assert implies(_cond("make = 'saab'"), _cond("make != 'ford'"))
        assert implies(_cond("make != 'ford'"), _cond("make != 'ford'"))
        assert not implies(_cond("make != 'honda'"), _cond("make != 'ford'"))

    def test_opaque_atoms_must_match_exactly(self):
        # attr-vs-attr comparisons decompose to opaque atoms: containment
        # only holds when the gold atom literally appears in the query.
        assert implies(_cond("price < bb_price"), _cond("price < bb_price"))
        assert not implies(_cond("make = 'saab'"), _cond("price < bb_price"))
        assert implies(
            _cond("price < bb_price AND make = 'saab'"), _cond("price < bb_price")
        )

    def test_unconstrained_gold_contains_everything(self):
        assert implies(_cond("make = 'saab'"), None)
        assert implies(None, None)
        assert not implies(None, _cond("make = 'saab'"))

    def test_decompose_is_conservative(self):
        # A disjunction across attributes is not a domain constraint; it
        # must survive as an opaque atom, not silently widen a domain.
        # (The UR grammar only spells OR via IN, which is single-attribute
        # by construction — build the mixed disjunct directly.)
        from repro.relational import conditions as C

        mixed = decompose(
            C.Or(
                (
                    C.Comparison(C.Attr("make"), "=", C.Const("saab")),
                    C.Comparison(C.Attr("year"), ">", C.Const(1995)),
                )
            )
        )
        assert mixed.atoms
        assert "make" not in mixed.domains


# -- sharing (the single-flight registry) --------------------------------------


class _PollContext:
    """A stand-in execution context whose cancellation flag the test flips."""

    def __init__(self) -> None:
        self.cancelled = threading.Event()

    def check_cancelled(self, where: str = "") -> None:
        if self.cancelled.is_set():
            raise RuntimeError("cancelled at %s" % where)


class TestSubplanRegistry:
    def test_concurrent_equal_fingerprints_run_once(self):
        registry = SubplanRegistry()
        runs = []
        entered = threading.Event()
        release = threading.Event()
        answer = Relation(("a",), [("x",)])

        def leader_thunk():
            runs.append("lead")
            entered.set()
            assert release.wait(5.0)
            return answer

        results: list = []

        def run(thunk):
            results.append(registry.run("fp", None, thunk))

        lead = threading.Thread(target=run, args=(leader_thunk,))
        lead.start()
        assert entered.wait(5.0)
        follow = threading.Thread(
            target=run, args=(lambda: pytest.fail("subscriber must not run"),)
        )
        follow.start()
        while registry.inflight() != 1 or not follow.is_alive():
            if not follow.is_alive():
                break
        release.set()
        lead.join(5.0)
        follow.join(5.0)
        assert runs == ["lead"]
        assert len(results) == 2
        assert results[0] is answer and results[1] is answer
        assert registry.inflight() == 0

    def test_subscriber_cancellation_detaches(self):
        registry = SubplanRegistry()
        entered = threading.Event()
        release = threading.Event()
        answer = Relation(("a",), [("x",)])

        def leader_thunk():
            entered.set()
            assert release.wait(5.0)
            return answer

        outcomes: list = []
        lead = threading.Thread(
            target=lambda: outcomes.append(registry.run("fp", None, leader_thunk))
        )
        lead.start()
        assert entered.wait(5.0)
        ctx = _PollContext()
        errors: list = []

        def subscriber():
            try:
                registry.run("fp", ctx, lambda: None)
            except RuntimeError as exc:
                errors.append(exc)

        sub = threading.Thread(target=subscriber)
        sub.start()
        ctx.cancelled.set()  # the subscriber gives up ...
        sub.join(5.0)
        assert errors, "cancelled subscriber must raise"
        release.set()  # ... but the leader's run is undisturbed
        lead.join(5.0)
        assert outcomes == [answer]

    def test_leader_failure_promotes_a_survivor(self):
        registry = SubplanRegistry()
        entered = threading.Event()
        fail = threading.Event()
        answer = Relation(("a",), [("x",)])

        def failing_leader():
            entered.set()
            assert fail.wait(5.0)
            raise ConnectionError("leader died")

        lead_error: list = []

        def lead_run():
            try:
                registry.run("fp", None, failing_leader)
            except ConnectionError as exc:
                lead_error.append(exc)

        lead = threading.Thread(target=lead_run)
        lead.start()
        assert entered.wait(5.0)
        results: list = []
        sub = threading.Thread(
            target=lambda: results.append(registry.run("fp", None, lambda: answer))
        )
        sub.start()
        fail.set()
        lead.join(5.0)
        sub.join(5.0)
        assert lead_error, "the leader's own caller sees the failure"
        assert results == [answer], "the survivor re-ran the subplan itself"


# -- subsumption end to end ----------------------------------------------------


class TestSubsume:
    def test_contained_query_is_served_with_zero_side_effects(self, tmp_path):
        wb = _mqo_webbase(tmp_path)
        broad = wb.query(BROAD)
        assert len(broad) > 0
        before = wb.metrics.snapshot()["counters"]

        narrow = wb.query(NARROW)

        after = wb.metrics.snapshot()["counters"]
        changed = {
            name: after[name] - before.get(name, 0)
            for name in after
            if after[name] != before.get(name, 0)
        }
        # The ONLY thing that moved is the subsumption counter: no plan,
        # no fetch, no cache traffic — the query never reached the engine.
        assert changed == {"mqo.subsumed": 1}, changed
        assert wb.mqo.last_subsumed_by == BROAD

        control = WebBase.create(
            WebBaseConfig(ads_per_host=24, cache=CachePolicy.lru())
        )
        fresh = control.query(NARROW)
        assert sorted(narrow.rows) == sorted(fresh.rows)
        assert list(narrow.schema) == list(fresh.schema)

    def test_exact_text_reserves_from_gold(self, tmp_path):
        wb = _mqo_webbase(tmp_path)
        first = wb.query(BROAD)
        again = wb.query(BROAD)
        assert sorted(again.rows) == sorted(first.rows)
        assert wb.metrics.value("mqo.subsumed") == 1

    def test_a_partial_answer_is_never_written_as_gold(self, tmp_path):
        """A query that lost a site to faults returns what the other
        sites gave, but must not materialize: once the site recovers,
        the same text is answered in full, not subsumed by partial rows."""
        section7 = (
            "SELECT make, model, year, price, contact "
            "WHERE make = 'ford' AND model = 'escort'"
        )
        wb = WebBase.create(
            WebBaseConfig(
                ads_per_host=24,
                cache=CachePolicy.lru(),
                store_dir=str(tmp_path / "store"),
                mqo=True,
                faults=FaultPlan(
                    error_rate=1.0, max_consecutive=10**9, hosts=("www.autoweb.com",)
                ),
            )
        )
        ctx = wb.execution_context()
        partial = wb.query(section7, context=ctx)
        assert ctx.failures
        assert wb.metrics.value("store.gold_writes") == 0

        wb.world.server.install_faults(FaultPlan())
        recovered = wb.query(section7)

        assert wb.metrics.value("mqo.subsumed") == 0
        control = WebBase.create(WebBaseConfig(ads_per_host=24))
        assert sorted(recovered.rows) == sorted(control.query(section7).rows)
        assert len(partial) < len(recovered)
        assert wb.metrics.value("store.gold_writes") == 1

    def test_revision_bump_invalidates_gold(self, tmp_path):
        """Stale gold is never served: one maintenance bump on any
        contributing host and subsumption refuses the record."""
        wb = _mqo_webbase(tmp_path)
        wb.query(BROAD)
        assert wb.mqo.subsume(NARROW) is not None
        record = wb.store.current_answers()[0]
        host = sorted(record["revisions"])[0]
        wb.cache.bump_revision(host)
        assert wb.mqo.subsume(NARROW) is None
        # The full query path falls through to live execution.
        before = wb.metrics.value("mqo.subsumed")
        answer = wb.query(NARROW)
        assert len(answer) > 0
        assert wb.metrics.value("mqo.subsumed") == before

    def test_a_shared_hit_writes_gold_under_its_whole_plan(self, tmp_path):
        """Sharing must not shrink what an answer is known to depend on:
        each object is evaluated by one query and shared by the other, and
        a site that then moves must still invalidate the answers they
        wrote."""
        wb = _mqo_webbase(tmp_path, ADS)
        _ShareGate(wb, flights=2)
        threads, returned, raised = run_threads(2, lambda: wb.query(WIDE))
        join_all(threads)
        assert raised == [] and len(returned) == 2
        assert wb.metrics.value("mqo.shared_hits") == 2
        _assert_gold_covers_the_plan(wb, writes=2)

        _move_autoweb(wb)
        before = wb.metrics.value("mqo.subsumed")
        answer = wb.query(WIDE)
        assert wb.metrics.value("mqo.subsumed") == before, "stale gold was served"
        fresh = WebBase(wb.world, WebBaseConfig(ads_per_host=ADS)).query(WIDE)
        assert sorted(answer.rows) == sorted(fresh.rows)
        assert len(answer) > len(returned[0])  # the new ads are in it

    def test_an_answer_that_straddles_a_move_is_never_written_as_gold(self, tmp_path):
        """The rule of a cache fill, for gold: the vector is taken when
        the plan is made, and an answer whose host moved before it
        finished may mix both sides of the change — it is returned, not
        materialized."""
        wb = _mqo_webbase(tmp_path)
        gate = _ShareGate(wb, flights=0)
        thread, returned, raised = run_threads(1, lambda: wb.query(WIDE))
        assert gate.reached.wait(TIMEOUT)  # planned, parked before any fetch
        wb.cache.bump_revision("www.autoweb.com")
        gate.open()
        join_all(thread)
        assert raised == [] and len(returned[0]) > 0
        assert wb.metrics.value("store.gold_writes") == 0
        wb.query(WIDE)  # nothing moves under this one
        assert wb.metrics.value("store.gold_writes") == 1

    def test_mismatched_attribute_set_refuses(self, tmp_path):
        """A narrowed query that mentions a different attribute set can
        have different maximal objects (and therefore rows the gold
        answer never held) — containment must refuse, not guess."""
        wb = _mqo_webbase(tmp_path)
        wb.query("SELECT make, model, price WHERE make = 'saab'")
        assert (
            wb.mqo.subsume("SELECT make, model WHERE make = 'saab' AND year > 1995")
            is None
        )

    def test_explain_reports_the_subsumption(self, tmp_path):
        from repro.core.explain import explain

        wb = _mqo_webbase(tmp_path)
        wb.query(BROAD)
        report = explain(wb, NARROW)
        assert report.subsumed_by == BROAD
        rendered = report.render()
        assert "subsumed by gold answer" in rendered
        assert "0 live fetches" in rendered

    def test_mqo_off_is_the_null_optimizer(self, tmp_path):
        wb = WebBase.create(
            WebBaseConfig(
                ads_per_host=24,
                cache=CachePolicy.lru(),
                store_dir=str(tmp_path / "store"),
            )
        )
        assert wb.mqo is None
        wb.query(BROAD)
        counters = wb.metrics.snapshot()["counters"]
        assert not any(name.startswith("mqo.") for name in counters)


# -- the service path ----------------------------------------------------------


class TestServiceMQO:
    def test_streamed_answers_persist_gold_and_subsume(self, tmp_path):
        webbase = _mqo_webbase(tmp_path)
        svc = WebBaseService(webbase, ServiceConfig(port=0))
        host, port = svc.start()
        try:
            with ServiceClient(host=host, port=port) as client:
                first = client.query(BROAD)
                assert first.stats["fetches"] > 0
                second = client.query(NARROW)
            assert second.stats["fetches"] == 0
            assert second.stats.get("mqo") == "subsumed"
            assert len(second.rows) > 0
            control = WebBase.create(
                WebBaseConfig(ads_per_host=24, cache=CachePolicy.lru())
            )
            fresh = control.query(NARROW)
            assert sorted(second.rows) == sorted(set(fresh.rows))
        finally:
            svc.shutdown()

    def test_a_shared_streamed_answer_persists_under_its_whole_plan(self, tmp_path):
        """A served query's gold write (``WebBase.query_stream``) carries
        the plan's hosts too, whichever client's evaluation was shared."""
        webbase = _mqo_webbase(tmp_path, ADS)
        _ShareGate(webbase, flights=2)
        svc = WebBaseService(webbase, ServiceConfig(port=0, workers=2))
        host, port = svc.start()

        def one_client():
            with ServiceClient(host=host, port=port) as client:
                return client.query(WIDE)

        try:
            threads, returned, raised = run_threads(2, one_client)
            join_all(threads)
            assert raised == [] and len(returned) == 2
            assert webbase.metrics.value("mqo.shared_hits") == 2
            _assert_gold_covers_the_plan(webbase, writes=2)

            _move_autoweb(webbase)
            with ServiceClient(host=host, port=port) as client:
                outcome = client.query(WIDE)
            assert outcome.stats.get("mqo") != "subsumed", "stale gold was served"
            fresh = WebBase(webbase.world, WebBaseConfig(ads_per_host=ADS)).query(WIDE)
            assert sorted(outcome.rows) == sorted(set(fresh.rows))
        finally:
            svc.shutdown()

    def test_queue_wait_histogram_is_observed_and_bounded(self, tmp_path):
        webbase = _mqo_webbase(tmp_path)
        svc = WebBaseService(webbase, ServiceConfig(port=0))
        host, port = svc.start()
        try:
            with ServiceClient(host=host, port=port) as client:
                client.query(BROAD)
                client.query(BROAD)
        finally:
            svc.shutdown()
        summary = webbase.metrics.snapshot()["histograms"][
            "service.queue_wait_seconds"
        ]
        assert summary["count"] >= 2
        assert 0.0 <= summary["max"] < 30.0

    def test_batching_window_shares_concurrent_identical_queries(self, tmp_path):
        """Four identical queries in flight together collapse onto shared
        evaluations: the gate holds the first evaluation until another
        query has subscribed to it."""
        webbase = _mqo_webbase(tmp_path)
        _ShareGate(webbase, flights=1)
        svc = WebBaseService(webbase, ServiceConfig(port=0, workers=4))
        host, port = svc.start()
        rows: list = []
        errors: list = []

        def one_client():
            try:
                with ServiceClient(host=host, port=port) as client:
                    outcome = client.query(BROAD)
                rows.append(sorted(outcome.rows))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        try:
            threads = [threading.Thread(target=one_client) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            svc.shutdown()
        assert not errors
        assert len(rows) == 4
        assert all(r == rows[0] for r in rows), "shared rows must be identical"
        counters = webbase.metrics.snapshot()["counters"]
        assert counters.get("mqo.shared_hits", 0) >= 1, counters
