"""Tests for HTTP redirects and the executor's page budget."""

import pytest

from repro.web import html as H
from repro.web.browser import Browser, NavigationError
from repro.web.http import Request, Response, Url
from repro.web.server import Site, WebServer


def _redirecting_server() -> WebServer:
    server = WebServer()
    site = Site("r.com")
    site.route(
        "/",
        lambda req: H.page(
            "Home",
            H.form("/cgi/post", H.labeled("Q", H.text_input("q")), H.submit_button()),
            H.bullet_links([("Old", "/old"), ("Loop", "/loop1")]),
        ),
    )
    site.route(
        "/cgi/post",
        lambda req: Response.redirect("/results?q=%s" % req.params.get("q", "")),
    )
    site.route(
        "/results", lambda req: H.page("Results for %s" % req.params.get("q", ""))
    )
    site.route("/old", lambda req: Response.redirect("/new", status=301))
    site.route("/new", lambda req: H.page("New Home"))
    site.route("/loop1", lambda req: Response.redirect("/loop2"))
    site.route("/loop2", lambda req: Response.redirect("/loop1"))
    site.route("/badloc", lambda req: Response.redirect("https://elsewhere/"))
    server.add_site(site)
    return server


class TestRedirects:
    def test_post_redirect_get(self):
        browser = Browser(_redirecting_server())
        browser.get("http://r.com/")
        page = browser.submit_by_attribute({"q": "jaguar"})
        assert page.title == "Results for jaguar"
        assert page.url.path == "/results"  # the browser landed on the target

    def test_moved_permanently(self):
        browser = Browser(_redirecting_server())
        browser.get("http://r.com/")
        page = browser.follow_named("Old")
        assert page.title == "New Home"

    def test_redirect_loop_detected(self):
        browser = Browser(_redirecting_server())
        with pytest.raises(NavigationError, match="too many redirects"):
            browser.get("http://r.com/loop1")

    def test_bad_redirect_location(self):
        browser = Browser(_redirecting_server())
        with pytest.raises(NavigationError, match="bad redirect"):
            browser.get("http://r.com/badloc")

    def test_redirect_hops_charge_network_time(self):
        server = _redirecting_server()
        browser = Browser(server)
        browser.get("http://r.com/old")
        # Two requests (redirect + target) each cost one round trip.
        base_rtt = server.default_latency.rtt
        assert browser.clock.network_seconds >= 2 * base_rtt

    def test_observers_see_only_the_final_page(self):
        from repro.web.browser import BrowserObserver

        seen = []

        class Obs(BrowserObserver):
            def on_page(self, page):
                seen.append(page.url.path)

        browser = Browser(_redirecting_server())
        browser.subscribe(Obs())
        browser.get("http://r.com/old")
        assert seen == ["/new"]


class TestPageBudget:
    def test_budget_stops_runaway_pagination(self, world):
        from repro.domains.cars.sessions import map_newsday
        from repro.navigation.compiler import compile_map
        from repro.navigation.executor import (
            NavigationExecutor,
            PageBudgetExceeded,
        )

        builder = map_newsday(world)
        executor = NavigationExecutor(world.server, max_pages_per_fetch=3)
        executor.add_site(compile_map(builder.map))
        with pytest.raises(PageBudgetExceeded):
            executor.fetch("newsday", {"make": "ford"})

    def test_default_budget_is_ample(self, webbase):
        rows = webbase.executor.fetch("newsday", {"make": "ford"})
        assert rows
