"""Failure-injection tests: broken sites must degrade, not crash.

The raw Web fails constantly (the paper's maintenance discussion exists
because of it).  These tests break the simulated sites in targeted ways —
server errors, vanished routes, malformed responses — and check that each
layer degrades gracefully: the executor yields no tuples instead of
raising, the logical union still returns the healthy sources' data when
semantics allow, and maintenance reports the damage.
"""

import pytest

from repro.domains.cars.sessions import map_newsday, map_nytimes
from repro.core.webbase import WebBase
from repro.navigation.compiler import compile_map
from repro.navigation.executor import NavigationExecutor
from repro.sites.world import build_world
from repro.web.http import Response
from repro.web.server import Site


@pytest.fixture()
def broken_world():
    return build_world()


def _break_route(site: Site, path: str, status: int = 500) -> None:
    site.route(path, lambda request: Response(status, "<html><body>boom</body></html>"))


class TestExecutorDegradation:
    def test_server_error_on_results_yields_no_tuples(self, broken_world):
        builder = map_newsday(broken_world)
        _break_route(broken_world.server.site("www.newsday.com"), "/cgi-bin/nclassy")
        executor = NavigationExecutor(broken_world.server)
        executor.add_site(compile_map(builder.map))
        assert executor.fetch("newsday", {"make": "ford"}) == []

    def test_vanished_entry_page_yields_no_tuples(self, broken_world):
        builder = map_newsday(broken_world)
        _break_route(broken_world.server.site("www.newsday.com"), "/", status=404)
        executor = NavigationExecutor(broken_world.server)
        executor.add_site(compile_map(builder.map))
        assert executor.fetch("newsday", {"make": "ford"}) == []

    def test_vanished_link_target_yields_no_tuples(self, broken_world):
        builder = map_newsday(broken_world)
        _break_route(
            broken_world.server.site("www.newsday.com"), "/classified/cars", status=404
        )
        executor = NavigationExecutor(broken_world.server)
        executor.add_site(compile_map(builder.map))
        assert executor.fetch("newsday", {"make": "ford"}) == []

    def test_garbage_html_on_results_yields_no_tuples(self, broken_world):
        builder = map_newsday(broken_world)
        broken_world.server.site("www.newsday.com").route(
            "/cgi-bin/nclassy",
            lambda request: Response(200, "<<<<not <html at all"),
        )
        executor = NavigationExecutor(broken_world.server)
        executor.add_site(compile_map(builder.map))
        assert executor.fetch("newsday", {"make": "ford"}) == []

    def test_restructured_results_table_yields_no_tuples(self, broken_world):
        """A site redesign that renames every column defeats the wrapper
        (and is what map maintenance exists to catch)."""
        from repro.web import html as H

        builder = map_newsday(broken_world)

        def redesigned(request):
            return H.page(
                "Redesigned",
                H.table(["Vehicle", "Cost"], [["ford escort", "$1"]]),
            )

        broken_world.server.site("www.newsday.com").route("/cgi-bin/nclassy", redesigned)
        executor = NavigationExecutor(broken_world.server)
        executor.add_site(compile_map(builder.map))
        assert executor.fetch("newsday", {"make": "ford"}) == []


class TestLayeredDegradation:
    def test_union_fails_loudly_when_one_source_is_down(self, broken_world):
        """Plain union semantics: every branch must answer (the relaxed
        union is the opt-in escape hatch)."""
        webbase = WebBase(broken_world)
        _break_route(broken_world.server.site("www.nytimes.com"), "/cgi-bin/autosearch")
        result = webbase.fetch_logical("classifieds", {"make": "saab"})
        # The broken branch contributes zero tuples; newsday still answers.
        newsday_only = webbase.fetch_vps("newsday", {"make": "saab"})
        assert len(result) == len(newsday_only)

    def test_ur_query_with_one_maximal_object_down(self, broken_world):
        webbase = WebBase(broken_world)
        for path in ("/cgi-bin/inventory", "/cgi-bin/find"):
            for host in ("www.carpoint.com", "www.autoweb.com"):
                site = broken_world.server.site(host)
                if path in site._routes:  # noqa: SLF001 - test injection
                    _break_route(site, path)
        result = webbase.query(
            "SELECT make, model, price WHERE make = 'saab'"
        )
        # Dealers contribute nothing; classifieds still answer.
        assert len(result) > 0


class TestMaintenanceCatchesDamage:
    def test_broken_site_reported(self, broken_world):
        from repro.navigation.maintenance import check_site
        from repro.web.browser import Browser

        builder = map_nytimes(broken_world)
        _break_route(broken_world.server.site("www.nytimes.com"), "/classified/autos", 404)
        report = check_site(builder.map, Browser(broken_world.server))
        assert not report.clean
        assert any(c.kind == "missing_link" for c in report.changes)
