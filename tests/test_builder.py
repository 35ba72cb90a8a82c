"""Unit tests for mapping by example (the map builder)."""

import pytest

from repro.navigation.builder import DesignerHints, MapBuilder
from repro.navigation.model import FormEdge, LinkEdge
from repro.navigation.navmap import MapError
from repro.web.browser import Browser


@pytest.fixture()
def newsday_session(world):
    browser = Browser(world.server)
    builder = MapBuilder("www.newsday.com")
    browser.subscribe(builder)
    return browser, builder


class TestEventCapture:
    def test_pages_become_nodes(self, newsday_session):
        browser, builder = newsday_session
        browser.get("http://www.newsday.com/")
        browser.follow_named("Auto")
        assert len(builder.map.nodes) == 2

    def test_actions_become_edges(self, newsday_session):
        browser, builder = newsday_session
        browser.get("http://www.newsday.com/")
        browser.follow_named("Auto")
        browser.submit_by_attribute({"make": "ford"})
        kinds = [type(e) for e in builder.map.edges]
        assert kinds == [LinkEdge, FormEdge]

    def test_revisits_do_not_duplicate(self, newsday_session):
        browser, builder = newsday_session
        browser.get("http://www.newsday.com/")
        browser.follow_named("Auto")
        browser.get("http://www.newsday.com/")
        browser.follow_named("Auto")
        assert len(builder.map.nodes) == 2
        assert len(builder.map.edges) == 1

    def test_foreign_hosts_ignored(self, newsday_session, world):
        browser, builder = newsday_session
        browser.get("http://www.kbb.com/")
        assert len(builder.map.nodes) == 0

    def test_root_is_first_page(self, newsday_session):
        browser, builder = newsday_session
        browser.get("http://www.newsday.com/")
        assert builder.map.root.signature.path == "/"


class TestWidgetInference:
    def test_select_without_empty_option_is_mandatory(self, newsday_session):
        browser, builder = newsday_session
        browser.get("http://www.newsday.com/classified/cars")
        node = builder.map.node_by_signature(browser.page)
        form = next(iter(node.forms.values()))
        assert form.widget_for_attr("make").mandatory

    def test_select_with_empty_option_is_optional(self, world):
        browser = Browser(world.server)
        builder = MapBuilder("www.nytimes.com")
        browser.subscribe(builder)
        browser.get("http://www.nytimes.com/classified/autos")
        node = builder.map.node_by_signature(browser.page)
        form = next(iter(node.forms.values()))
        assert not form.widget_for_attr("model").mandatory

    def test_radio_is_mandatory(self, world):
        browser = Browser(world.server)
        builder = MapBuilder("www.kbb.com")
        browser.subscribe(builder)
        browser.get("http://www.kbb.com/usedcar")
        node = builder.map.node_by_signature(browser.page)
        form = next(iter(node.forms.values()))
        assert form.widget_for_attr("condition").mandatory
        assert form.widget_for_attr("condition").domain == ("excellent", "good", "fair")

    def test_text_needs_hint_to_be_mandatory(self, world):
        browser = Browser(world.server)
        hinted = MapBuilder("www.kbb.com", DesignerHints(mandatory_text={"model"}))
        browser.subscribe(hinted)
        browser.get("http://www.kbb.com/usedcar")
        node = hinted.map.node_by_signature(browser.page)
        form = next(iter(node.forms.values()))
        assert form.widget_for_attr("model").mandatory

        unhinted_browser = Browser(world.server)
        unhinted = MapBuilder("www.kbb.com")
        unhinted_browser.subscribe(unhinted)
        unhinted_browser.get("http://www.kbb.com/usedcar")
        node = unhinted.map.node_by_signature(unhinted_browser.page)
        form = next(iter(node.forms.values()))
        assert not form.widget_for_attr("model").mandatory

    def test_attr_renames_apply_to_widgets(self, world):
        browser = Browser(world.server)
        builder = MapBuilder("www.carfinance.com", DesignerHints(attr_renames={"zipcode": "zip_code"}))
        browser.subscribe(builder)
        browser.get("http://www.carfinance.com/rates")
        node = builder.map.node_by_signature(browser.page)
        form = next(iter(node.forms.values()))
        assert "zip_code" in form.attrs


class TestMarkDataPage:
    def test_mark_requires_a_loaded_page(self):
        builder = MapBuilder("www.newsday.com")
        with pytest.raises(MapError):
            builder.mark_data_page("r", {"a": "1"})

    def test_mark_sets_wrapper_and_name(self, newsday_session):
        browser, builder = newsday_session
        browser.get("http://www.newsday.com/classified/cars")
        page = browser.submit_by_attribute({"make": "saab"})
        row = page.tables()[0][1]
        builder.mark_data_page("newsday", {"make": row[0], "model": row[1]})
        node = builder.map.node_by_signature(page)
        assert node.is_data and node.relation_name == "newsday"

    def test_mark_counts_manual_facts(self, newsday_session):
        browser, builder = newsday_session
        before = builder.manual_facts
        browser.get("http://www.newsday.com/classified/cars")
        page = browser.submit_by_attribute({"make": "saab"})
        row = page.tables()[0][1]
        builder.mark_data_page("newsday", {"make": row[0]})
        assert builder.manual_facts == before + 2


class TestRowLinks:
    def test_detail_link_marked_as_row_link(self, newsday_session):
        browser, builder = newsday_session
        browser.get("http://www.newsday.com/classified/cars")
        page = browser.submit_by_attribute({"make": "saab"})
        row = page.tables()[0][1]
        builder.mark_data_page(
            "newsday",
            {"make": row[0], "url": str(page.link_named("Car Features").address)},
        )
        browser.follow(next(l for l in page.links if l.name == "Car Features"))
        edge = [e for e in builder.map.edges if isinstance(e, LinkEdge) and e.link_name == "Car Features"][0]
        assert edge.row_link

    def test_more_link_is_not_row_link(self, world):
        browser = Browser(world.server)
        builder = MapBuilder("www.autoweb.com")
        browser.subscribe(builder)
        browser.get("http://www.autoweb.com/marketplace")
        page = browser.submit_by_attribute({"make": "ford"})
        row = page.tables()[0][1]
        builder.mark_data_page("autoweb", {"year": row[0], "make": row[1]})
        browser.follow_named("More")
        edge = [e for e in builder.map.edges if isinstance(e, LinkEdge) and e.link_name == "More"][0]
        assert not edge.row_link
        assert edge.source == edge.target  # the More self-loop


class TestAutomationReport:
    def test_ratio_under_five_percent_for_newsday(self, world):
        from repro.domains.cars.sessions import map_newsday

        builder = map_newsday(world)
        report = builder.automation_report()
        assert report.objects > 15
        assert report.attributes > 50
        assert report.manual_ratio < 0.10

    def test_hints_count_as_manual(self):
        hints = DesignerHints(attr_renames={"a": "b"}, mandatory_text={"c"})
        builder = MapBuilder("h.com", hints)
        assert builder.manual_facts == 2
