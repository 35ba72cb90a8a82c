"""Tests for navigation-map maintenance (site-change detection)."""

import pytest

from repro.domains.cars.sessions import map_kellys, map_newsday
from repro.navigation.maintenance import apply_auto_changes, check_site
from repro.sites.world import build_world
from repro.web import html as H
from repro.web.browser import Browser


@pytest.fixture()
def fresh():
    world = build_world()
    return world, map_newsday(world)


class TestCleanSite:
    def test_unchanged_site_reports_clean(self, fresh):
        world, builder = fresh
        report = check_site(builder.map, Browser(world.server))
        assert report.clean, report.summary()
        assert report.nodes_checked >= 2


class TestAutoChanges:
    def test_new_select_option_is_auto(self, fresh):
        world, builder = fresh
        site = world.server.site("www.newsday.com")

        def modified_search(request):
            # Kelley's-style 1999 addition: a new value in a selection list.
            form = H.form(
                "/cgi-bin/nclassy",
                H.labeled("Make", H.select("make", ["ford", "jaguar", "delorean"])),
                H.submit_button("Search"),
                method="post",
            )
            return H.page("Newsday Classifieds Search", form)

        site.route("/classified/cars", modified_search)
        report = check_site(builder.map, Browser(world.server))
        kinds = {c.kind for c in report.changes}
        assert "domain_value_added" in kinds
        assert all(c.auto for c in report.changes if c.kind.startswith("domain"))

    def test_apply_auto_refreshes_domain(self, fresh):
        world, builder = fresh
        site = world.server.site("www.newsday.com")

        def modified_search(request):
            form = H.form(
                "/cgi-bin/nclassy",
                H.labeled("Make", H.select("make", ["ford", "jaguar", "delorean"])),
                H.submit_button("Search"),
                method="post",
            )
            return H.page("Newsday Classifieds Search", form)

        site.route("/classified/cars", modified_search)
        report = check_site(builder.map, Browser(world.server))
        applied = apply_auto_changes(builder.map, report, Browser(world.server))
        assert applied >= 1
        search_node = [
            n for n in builder.map.nodes.values() if n.signature.path == "/classified/cars"
        ][0]
        form = next(iter(search_node.forms.values()))
        assert "delorean" in form.widget_for_attr("make").domain


class TestManualChanges:
    def test_new_form_attribute_is_manual(self, fresh):
        world, builder = fresh
        site = world.server.site("www.newsday.com")

        def modified_search(request):
            form = H.form(
                "/cgi-bin/nclassy",
                H.labeled("Make", H.select("make", ["ford", "jaguar"])),
                H.labeled("Max Price", H.text_input("maxprice")),
                H.submit_button("Search"),
                method="post",
            )
            return H.page("Newsday Classifieds Search", form)

        site.route("/classified/cars", modified_search)
        report = check_site(builder.map, Browser(world.server))
        manual_kinds = {c.kind for c in report.manual_changes}
        assert "new_form_attribute" in manual_kinds

    def test_removed_link_is_manual(self, fresh):
        world, builder = fresh
        site = world.server.site("www.newsday.com")
        site.route(
            "/",
            lambda request: H.page(
                "Newsday Classifieds", H.bullet_links([("Weather", "/weather")])
            ),
        )
        report = check_site(builder.map, Browser(world.server))
        kinds = {c.kind for c in report.changes}
        assert "missing_link" in kinds
        assert not [c for c in report.changes if c.kind == "missing_link" and c.auto]

    def test_new_link_is_reported(self, fresh):
        world, builder = fresh
        site = world.server.site("www.newsday.com")
        site.route(
            "/",
            lambda request: H.page(
                "Newsday Classifieds",
                H.bullet_links(
                    [
                        ("Auto", "/classified/cars"),
                        ("New Car Dealer", "/classified/dealers"),
                        ("Collectible Cars", "/classified/collectibles"),
                        ("Sport Utility", "/classified/suv"),
                        ("Boats", "/classified/boats"),
                    ]
                ),
            ),
        )
        report = check_site(builder.map, Browser(world.server))
        new_links = [c for c in report.changes if c.kind == "new_link"]
        assert new_links and "Boats" in new_links[0].detail

    def test_unreachable_entry_page(self, fresh):
        world, builder = fresh
        # Point the map at a host the server does not know.
        builder.map.host = "gone.example.com"
        for node in builder.map.nodes.values():
            node.sample_url = node.sample_url.__class__("gone.example.com", node.sample_url.path)
        report = check_site(builder.map, Browser(world.server))
        assert not report.clean
        assert report.changes[0].kind == "missing_link"


class TestOtherSites:
    def test_kellys_clean(self):
        world = build_world()
        builder = map_kellys(world)
        report = check_site(builder.map, Browser(world.server))
        assert report.clean, report.summary()
