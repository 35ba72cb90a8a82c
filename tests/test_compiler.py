"""Unit tests for compiling navigation maps into navigation expressions."""

import pytest

from repro.flogic.formulas import Choice, Pred, Serial
from repro.flogic.syntax import parse_rules
from repro.navigation.compiler import CompileError, compile_map
from repro.navigation.navmap import NavigationMap
from repro.domains.cars.sessions import (
    map_kellys,
    map_newsday,
    map_nytimes,
    map_yahoocars,
)


@pytest.fixture(scope="module")
def newsday_site(world_module):
    return compile_map(map_newsday(world_module).map)


@pytest.fixture(scope="module")
def world_module():
    from repro.sites.world import build_world

    return build_world()


class TestNewsdayProgram:
    """The compiled program must mirror Figure 4."""

    def test_two_relations(self, newsday_site):
        assert {r.name for r in newsday_site.relations} == {
            "newsday",
            "newsday_car_features",
        }

    def test_relation_rule_starts_at_entry(self, newsday_site):
        rules = newsday_site.program.rules_for(("newsday", 7))
        assert len(rules) == 1
        body = rules[0].body
        assert isinstance(body, Serial)
        assert body.parts[0].name == "nav_entry"
        assert body.parts[0].args[0] == "www.newsday.com"

    def test_form_submission_has_choice_of_targets(self, newsday_site):
        # form f1 leads to either the refinement page or a data page.
        choices = [
            part
            for rule in newsday_site.program.rules
            for part in (rule.body.parts if isinstance(rule.body, Serial) else [])
            if isinstance(part, Choice)
        ]
        assert choices, "expected a choice over f1's target nodes"

    def test_more_loop_is_recursive(self, newsday_site):
        data_rules = [
            rule
            for rule in newsday_site.program.rules
            if rule.head.name.startswith("newsday__")
            and isinstance(rule.body, Serial)
            and rule.body.parts[0].name == "nav_follow"
            and rule.body.parts[0].args[1] == "More"
        ]
        assert data_rules
        rule = data_rules[0]
        assert rule.body.parts[1].name == rule.head.name  # self-recursion

    def test_extraction_rule_uses_member(self, newsday_site):
        extract_rules = [
            rule
            for rule in newsday_site.program.rules
            if isinstance(rule.body, Serial) and rule.body.parts[0].name == "nav_extract"
        ]
        assert extract_rules
        assert all(r.body.parts[1].name == "member" for r in extract_rules)

    def test_program_round_trips_through_syntax(self, newsday_site):
        text = newsday_site.program.pretty()
        reparsed = parse_rules(text)
        assert reparsed.pretty() == text

    def test_handles(self, newsday_site):
        newsday = newsday_site.relation("newsday")
        assert [sorted(h.mandatory) for h in newsday.handles] == [["make"]]
        handle = newsday.handles[0]
        assert {"make", "model", "featrs"} <= set(handle.selection)
        assert handle.expression  # the pretty-printed navigation expression

    def test_detail_relation_handle(self, newsday_site):
        detail = newsday_site.relation("newsday_car_features")
        assert detail.kind == "detail"
        assert detail.url_attr == "url"
        assert [sorted(h.mandatory) for h in detail.handles] == [["url"]]
        assert detail.schema == ("url", "features", "picture")

    def test_detail_rule_starts_with_nav_get(self, newsday_site):
        rules = newsday_site.program.rules_for(("newsday_car_features", 3))
        assert rules[0].body.parts[0].name == "nav_get"

    def test_vector_is_outputs_then_inputs(self, newsday_site):
        newsday = newsday_site.relation("newsday")
        assert set(newsday.schema) <= set(newsday.vector)
        assert newsday.vector[: len(newsday.schema)] == newsday.schema
        assert "featrs" in newsday.vector and "featrs" not in newsday.schema


class TestOtherSites:
    def test_kellys_mandatory_set(self, world_module):
        site = compile_map(map_kellys(world_module).map)
        kellys = site.relation("kellys")
        assert [sorted(h.mandatory) for h in kellys.handles] == [
            ["condition", "make", "model"]
        ]

    def test_nytimes_single_form(self, world_module):
        site = compile_map(map_nytimes(world_module).map)
        nytimes = site.relation("nytimes")
        assert [sorted(h.mandatory) for h in nytimes.handles] == [["manufacturer"]]
        assert "model" in nytimes.handles[0].selection

    def test_yahoocars_labeled_extraction_compiles(self, world_module):
        site = compile_map(map_yahoocars(world_module).map)
        assert site.relation("yahoocars").schema == (
            "contact",
            "make",
            "model",
            "price",
            "year",
        )


class TestErrors:
    def test_empty_map_rejected(self):
        with pytest.raises(CompileError):
            compile_map(NavigationMap("h.com"))

    def test_map_without_data_pages_rejected(self, world_module):
        from repro.navigation.builder import MapBuilder
        from repro.web.browser import Browser

        browser = Browser(world_module.server)
        builder = MapBuilder("www.newsday.com")
        browser.subscribe(builder)
        browser.get("http://www.newsday.com/")
        with pytest.raises(CompileError):
            compile_map(builder.map)

    def test_duplicate_relation_names_rejected(self, world_module):
        builder = map_newsday(world_module)
        for node in builder.map.data_nodes():
            node.relation_name = "same"
        with pytest.raises(CompileError):
            compile_map(builder.map)
