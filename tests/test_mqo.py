"""The multi-query optimizer: subsume from gold.

Covers MQO end to end:

* **containment** (`repro.mqo.containment`): the conservative
  predicate-implication check, unit-tested over UR-parsed conditions;
* **subsumption**: a webbase with `mqo=True` answers a narrowed query
  from a containing gold answer with *zero* side effects beyond the
  `mqo.subsumed` counter — and a revision bump on any contributing host
  makes the gold answer unusable (stale is never served), also when the
  answer's run waited on another query's result-cache flights and
  fetched nothing itself;
* the **service** path: `service.queue_wait_seconds` and gold
  persistence from the streaming executor.
"""

from __future__ import annotations

import threading
import time

from repro.core.execution import ExecutionContext, WebBaseConfig
from repro.core.webbase import WebBase
from repro.flight import Flight
from repro.mqo.containment import decompose, implies
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


def _wait_until(condition, what: str) -> None:
    deadline = time.monotonic() + TIMEOUT
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.001)


class _FollowGate:
    """Makes the second of two concurrent queries wait on the first one's
    result-cache flights for every access.  The first context to reach
    the cache leads: each of its leader sections (one key, or a probe
    batch's keys) parks until the other context waits on one of its
    flights.  The other context waits at the cache's door until every key
    it asks for is in flight or stored, so it never opens a flight of its
    own.  Later contexts pass through."""

    def __init__(self, webbase: WebBase, monkeypatch) -> None:
        self.contexts: list = []  # in arrival order: the leader first
        lock = threading.Lock()
        waited: set = set()  # flights a subscriber has parked on
        cache = webbase.cache
        fetch, fetch_batch, lead = cache.fetch, cache.fetch_batch, cache._lead
        wait = Flight.wait

        def door(real, name, givens, context):
            with lock:
                if context not in self.contexts and len(self.contexts) < 2:
                    self.contexts.append(context)
            if context in self.contexts[1:]:
                keys = [cache._key(name, given) for given in givens]
                _wait_until(
                    lambda: all(k in cache._inflight or k in cache._cache for k in keys),
                    "the leader never opened a flight for %s" % name,
                )
            return real(name, givens[0] if real is fetch else givens, context=context)

        def gated_lead(name, host, revision, leads, context, batch):
            if context is self.contexts[0]:
                _wait_until(
                    lambda: any(flight in waited for _key, _given, flight in leads),
                    "nobody coalesced onto %s" % name,
                )
            return lead(name, host, revision, leads, context, batch)

        def recorded_wait(flight, *args):
            waited.add(flight)
            return wait(flight, *args)

        monkeypatch.setattr(
            cache, "fetch", lambda name, given, context=None: door(fetch, name, [given], context)
        )
        monkeypatch.setattr(
            cache,
            "fetch_batch",
            lambda name, givens, context=None: door(fetch_batch, name, givens, context),
        )
        monkeypatch.setattr(cache, "_lead", gated_lead)
        monkeypatch.setattr(Flight, "wait", recorded_wait)

    @property
    def follower(self) -> ExecutionContext:
        _leader, follower = self.contexts
        return follower


class _FetchGate:
    """Parks every logical fetch of ``webbase`` until :meth:`open`."""

    def __init__(self, webbase: WebBase) -> None:
        self.reached = threading.Event()
        self.opened = threading.Event()
        fetch = webbase.logical.fetch

        def gated_fetch(*args, **kwargs):
            self.reached.set()
            assert self.opened.wait(TIMEOUT), "test gate never opened"
            return fetch(*args, **kwargs)

        webbase.logical.fetch = gated_fetch

    def open(self) -> None:
        self.opened.set()


def _assert_gold_covers_the_plan(wb: WebBase, writes: int) -> None:
    """Every gold answer to ``WIDE`` names exactly the hosts under its
    plan — the leader's and the follower's alike, though the follower's
    own trace holds no fetch: it waited on the leader's flights."""
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

    def test_a_shared_hit_writes_gold_under_its_whole_plan(self, tmp_path, monkeypatch):
        """Coalescing must not shrink what an answer is known to depend
        on: one query fetches, the other waits on its result-cache flights
        and fetches nothing, and a site that then moves must still
        invalidate the answers they both wrote."""
        wb = _mqo_webbase(tmp_path, ADS)
        gate = _FollowGate(wb, monkeypatch)
        threads, returned, raised = run_threads(2, lambda: wb.query(WIDE))
        join_all(threads)
        assert raised == [] and len(returned) == 2
        assert gate.follower.fetches == 0 < wb.metrics.value("cache.coalesced")
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
        gate = _FetchGate(wb)
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

    def test_a_shared_streamed_answer_persists_under_its_whole_plan(
        self, tmp_path, monkeypatch
    ):
        """A served query's gold write (``WebBase.query_stream``) carries
        the plan's hosts too, also for the client whose run only waited
        on the other's result-cache flights."""
        webbase = _mqo_webbase(tmp_path, ADS)
        gate = _FollowGate(webbase, monkeypatch)
        svc = WebBaseService(webbase, ServiceConfig(port=0, workers=2))
        host, port = svc.start()

        def one_client():
            with ServiceClient(host=host, port=port) as client:
                return client.query(WIDE)

        try:
            threads, returned, raised = run_threads(2, one_client)
            join_all(threads)
            assert raised == [] and len(returned) == 2
            assert gate.follower.fetches == 0
            assert min(outcome.stats["fetches"] for outcome in returned) == 0
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
