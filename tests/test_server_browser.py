"""Unit tests for the simulated server, latency accounting, and browser."""

import pytest

from repro.web import html as H
from repro.web.browser import ActionEvent, Browser, BrowserObserver, NavigationError
from repro.web.clock import CpuTimer, LatencyModel, SimClock
from repro.web.http import Request, Url
from repro.web.server import HttpError, Site, WebServer


def _demo_server() -> WebServer:
    server = WebServer(latency=LatencyModel(rtt=0.5, per_kilobyte=0.0))
    site = Site("demo.com")
    site.route("/", lambda req: H.page("Home", H.bullet_links([("Search", "/search")])))
    site.route(
        "/search",
        lambda req: H.page(
            "Search",
            H.form("/results", H.labeled("Q", H.text_input("q")), H.submit_button(), method="get"),
        ),
    )
    site.route(
        "/results",
        lambda req: H.page("Results for %s" % req.params.get("q", ""), H.el("p", req.params.get("q", ""))),
    )
    server.add_site(site)
    return server


class TestClock:
    def test_latency_cost(self):
        model = LatencyModel(rtt=0.2, per_kilobyte=0.01)
        assert model.cost(2048) == pytest.approx(0.22)

    def test_simclock_accumulates(self):
        clock = SimClock()
        clock.charge(1.5)
        clock.charge(0.5)
        assert clock.network_seconds == 2.0

    def test_simclock_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().charge(-1)

    def test_simclock_reset(self):
        clock = SimClock()
        clock.charge(3.0)
        assert clock.reset() == 3.0
        assert clock.network_seconds == 0.0

    def test_cpu_timer_measures(self):
        timer = CpuTimer()
        with timer:
            sum(range(10000))
        assert timer.seconds >= 0.0

    def test_cpu_timer_requires_start(self):
        with pytest.raises(RuntimeError):
            CpuTimer().stop()


class TestServer:
    def test_routing(self):
        server = _demo_server()
        response = server.fetch(Request("GET", Url("demo.com", "/")))
        assert response.ok and "Home" in response.body

    def test_unknown_path_is_404(self):
        server = _demo_server()
        assert server.fetch(Request("GET", Url("demo.com", "/nope"))).status == 404

    def test_unknown_host_raises(self):
        server = _demo_server()
        with pytest.raises(HttpError):
            server.fetch(Request("GET", Url("other.com", "/")))

    def test_duplicate_host_rejected(self):
        server = _demo_server()
        with pytest.raises(ValueError):
            server.add_site(Site("demo.com"))

    def test_stats_recorded(self):
        server = _demo_server()
        server.fetch(Request("GET", Url("demo.com", "/")))
        server.fetch(Request("GET", Url("demo.com", "/nope")))
        stats = server.stats["demo.com"]
        assert stats.requests == 2
        assert stats.pages_ok == 1
        assert stats.bytes_sent > 0

    def test_reset_stats(self):
        server = _demo_server()
        server.fetch(Request("GET", Url("demo.com", "/")))
        server.reset_stats()
        assert server.stats["demo.com"].requests == 0

    def test_per_site_latency_override(self):
        server = _demo_server()
        assert server.latency_for("demo.com").rtt == 0.5
        server.site("demo.com").latency = LatencyModel(rtt=9.0)
        assert server.latency_for("demo.com").rtt == 9.0

    def test_site_url_helper(self):
        site = Site("demo.com")
        assert str(site.url("/a", x="1")) == "http://demo.com/a?x=1"
        assert str(site.entry_url) == "http://demo.com/"


class _Recorder(BrowserObserver):
    def __init__(self):
        self.pages = []
        self.actions = []

    def on_page(self, page):
        self.pages.append(page)

    def on_action(self, event: ActionEvent):
        self.actions.append(event)


class TestBrowser:
    def test_get_parses_page(self):
        browser = Browser(_demo_server())
        page = browser.get("http://demo.com/")
        assert page.title == "Home"

    def test_follow_named(self):
        browser = Browser(_demo_server())
        browser.get("http://demo.com/")
        page = browser.follow_named("Search")
        assert page.title == "Search"

    def test_submit(self):
        browser = Browser(_demo_server())
        browser.get("http://demo.com/search")
        page = browser.submit_by_attribute({"q": "jaguar"})
        assert "jaguar" in page.title

    def test_navigation_error_on_404(self):
        browser = Browser(_demo_server())
        with pytest.raises(NavigationError):
            browser.get("http://demo.com/missing")

    def test_navigation_error_on_unknown_host(self):
        browser = Browser(_demo_server())
        with pytest.raises(NavigationError):
            browser.get("http://missing.com/")

    def test_requires_page_for_follow(self):
        browser = Browser(_demo_server())
        with pytest.raises(NavigationError):
            browser.follow_named("Search")

    def test_page_counter_and_current_page(self):
        browser = Browser(_demo_server())
        browser.get("http://demo.com/")
        browser.follow_named("Search")
        assert browser.pages_fetched == 2
        assert browser.page.title == "Search"

    def test_network_time_charged(self):
        browser = Browser(_demo_server())
        browser.get("http://demo.com/")
        assert browser.clock.network_seconds == pytest.approx(0.5)

    def test_observer_sees_pages_and_actions(self):
        browser = Browser(_demo_server())
        recorder = _Recorder()
        browser.subscribe(recorder)
        browser.get("http://demo.com/")
        browser.follow_named("Search")
        browser.submit_by_attribute({"q": "x"})
        assert len(recorder.pages) == 3
        assert [a.kind for a in recorder.actions] == ["follow", "submit"]
        submit = recorder.actions[1]
        assert submit.values == (("q", "x"),)
        assert submit.source.title == "Search"

    def test_unsubscribe(self):
        browser = Browser(_demo_server())
        recorder = _Recorder()
        browser.subscribe(recorder)
        browser.unsubscribe(recorder)
        browser.get("http://demo.com/")
        assert recorder.pages == []

    def test_get_form_submission_uses_query_params(self):
        browser = Browser(_demo_server())
        browser.get("http://demo.com/search")
        page = browser.submit_by_attribute({"q": "ford"})
        assert page.url.params == {"q": "ford"}
