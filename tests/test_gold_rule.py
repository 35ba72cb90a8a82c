"""The one gold rule, with MQO on: ``WebBase.query_stream`` subsumes
first and persists after the last piece whether or not the caller passed
a context.

* A query run on a caller's context (``repro query --deadline-ms``
  builds one to carry the deadline) is subsumed like any other.
* A context shared by two queries is safe to persist from: its plan
  revisions cover both plans at the revision each host had when *first*
  planned, and its failures include both queries', so the second query
  is refused gold when the first one failed a fetch or a host under it
  moved in between — and stale gold is never served.
* EXPLAIN runs the same path: it persists gold, and is subsumed by it.
"""

from __future__ import annotations

from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.sites.world import mutate_site_listings
from repro.vps.cache import CachePolicy
from repro.web.server import FaultPlan

BROAD = "SELECT make, model, price, year WHERE make = 'saab'"
NARROW = "SELECT make, model, price, year WHERE make = 'saab' AND year > 1995"
#: Two single-relation objects (classifieds, dealers) over four hosts,
#: www.autoweb.com among them.
FORD = "SELECT make, model, price WHERE make = 'ford'"
FORD_NARROW = "SELECT make, model WHERE make = 'ford'"
#: The world size at which an auto-absorbed site change leaves the map
#: complete, so a refreshed answer equals a from-scratch webbase's.
ADS = 120


def _webbase(
    tmp_path, ads_per_host: int = 24, faults: FaultPlan | None = None
) -> WebBase:
    return WebBase.create(
        WebBaseConfig(
            ads_per_host=ads_per_host,
            cache=CachePolicy.lru(),
            store_dir=str(tmp_path / "store"),
            mqo=True,
            faults=faults,
        )
    )


def _gold_queries(wb: WebBase) -> list[str]:
    return [r["query"] for r in wb.store.gold if r.get("kind") == "answer"]


class TestContextPassingQueries:
    def test_a_query_on_a_deadline_context_is_subsumed(self, tmp_path):
        wb = _webbase(tmp_path)
        wb.query(BROAD)
        subsumed = wb.metrics.value("mqo.subsumed")
        fetches = wb.metrics.value("engine.fetches")
        ctx = wb.execution_context(deadline_seconds=60.0)
        narrow = wb.query(NARROW, context=ctx)
        assert wb.metrics.value("mqo.subsumed") == subsumed + 1
        assert wb.metrics.value("engine.fetches") == fetches
        assert ctx.fetches == 0
        control = WebBase.create(WebBaseConfig(ads_per_host=24))
        assert sorted(narrow.rows) == sorted(control.query(NARROW).rows)

    def test_a_query_on_its_own_context_persists_gold(self, tmp_path):
        wb = _webbase(tmp_path)
        wb.query(BROAD, context=wb.execution_context(deadline_seconds=60.0))
        assert _gold_queries(wb) == [BROAD]


class TestSharedContext:
    def test_a_host_moved_since_the_first_plan_refuses_the_second_gold(self, tmp_path):
        wb = _webbase(tmp_path, ADS)
        shared = wb.execution_context()
        wb.query(FORD, context=shared)
        assert _gold_queries(wb) == [FORD]
        mutate_site_listings(
            wb.world, host="www.autoweb.com", make="ford", model="escort",
            count=3, seed=5, change="auto",
        )  # fmt: skip
        wb.run_maintenance()
        assert wb.revisions.current("www.autoweb.com") == 1

        subsumed = wb.metrics.value("mqo.subsumed")
        wb.query(FORD_NARROW, context=shared)
        assert wb.metrics.value("mqo.subsumed") == subsumed, "stale gold was served"
        assert shared.plan_revisions["www.autoweb.com"] == 0
        assert _gold_queries(wb) == [FORD], "gold written across a host move"

        # A query of its own: no stale gold to serve, and a fresh answer.
        answer = wb.query(FORD_NARROW)
        assert wb.metrics.value("mqo.subsumed") == subsumed
        control = WebBase(wb.world, WebBaseConfig(ads_per_host=ADS))
        assert sorted(answer.rows) == sorted(control.query(FORD_NARROW).rows)
        assert _gold_queries(wb) == [FORD, FORD_NARROW]

    def test_a_failed_fetch_in_the_first_query_refuses_the_second_gold(self, tmp_path):
        autoweb_down = FaultPlan(
            error_rate=1.0, max_consecutive=10**9, hosts=("www.autoweb.com",)
        )
        wb = _webbase(tmp_path, faults=autoweb_down)
        shared = wb.execution_context()
        wb.query(FORD, context=shared)
        assert shared.failures
        wb.world.server.install_faults(FaultPlan())

        wb.query(BROAD, context=shared)
        assert _gold_queries(wb) == [], "a context with a failed fetch wrote gold"

        answer = wb.query(FORD)
        assert wb.metrics.value("mqo.subsumed") == 0
        control = WebBase(wb.world, WebBaseConfig(ads_per_host=24))
        assert sorted(answer.rows) == sorted(control.query(FORD).rows)
        assert _gold_queries(wb) == [FORD]


class TestExplainRunsTheQueryPath:
    def test_explain_persists_gold_and_a_later_explain_is_subsumed(self, tmp_path):
        wb = _webbase(tmp_path)
        broad = wb.explain(BROAD)
        assert broad.subsumed_by == "" and broad.trace is not None
        assert _gold_queries(wb) == [BROAD]

        fetches = wb.metrics.value("engine.fetches")
        narrow = wb.explain(NARROW)
        assert narrow.subsumed_by == BROAD
        assert wb.metrics.value("engine.fetches") == fetches
        control = WebBase.create(WebBaseConfig(ads_per_host=24))
        assert narrow.rows == len(control.query(NARROW))
