"""Tests for the external schema: concepts, compatibility, maximal objects,
query parsing and planning."""

import pytest

from repro.ur.compat import (
    CompatibilityRule,
    allows,
    excludes,
    is_compatible,
    mutually_exclusive,
    requires,
)
from repro.ur.concepts import Concept, ConceptError
from repro.ur.maximal import covering_objects, maximal_objects
from repro.ur.query import QueryParseError, URQuery, parse_query
from repro.domains.cars.usedcars import (
    EXAMPLE_62_EXPECTED,
    EXAMPLE_62_RELATIONS,
    example_62_rules,
    used_car_hierarchy,
)
from repro.relational.conditions import And, Comparison, Or


class TestConcepts:
    def test_leaves_in_order(self):
        root = used_car_hierarchy()
        assert root.expand("Car") == ["make", "model", "year"]

    def test_find_and_path(self):
        root = used_car_hierarchy()
        assert root.find("safety") is not None
        assert root.path_to("bb_price") == ["UsedCarUR", "Value", "bb_price"]
        assert root.path_to("nope") is None

    def test_expand_leaf(self):
        root = used_car_hierarchy()
        assert root.expand("rate") == ["rate"]

    def test_expand_unknown_raises(self):
        with pytest.raises(ConceptError):
            used_car_hierarchy().expand("nope")

    def test_expand_root_lists_everything(self):
        root = used_car_hierarchy()
        assert len(root.expand("UsedCarUR")) == 12

    def test_validate_rejects_duplicate_homes(self):
        root = Concept("R").add(Concept("A").add("x"), Concept("B").add("x"))
        with pytest.raises(ConceptError):
            root.validate()

    def test_pretty_renders_tree(self):
        text = used_car_hierarchy().pretty()
        assert "UsedCarUR" in text and "  Car" in text


class TestCompatibility:
    def test_empty_set_compatible(self):
        assert is_compatible(set(), [])

    def test_axiom_admits_singleton(self):
        assert is_compatible({"a"}, allows("a"))

    def test_unadmitted_relation_incompatible(self):
        assert not is_compatible({"a"}, allows("b"))

    def test_positive_rule_requires_lhs_present(self):
        rules = allows("a") + [requires({"a"}, "b")]
        assert is_compatible({"a", "b"}, rules)
        assert not is_compatible({"b"}, rules)

    def test_negative_rule_blocks(self):
        rules = allows("a", "b") + [excludes({"a"}, "b")]
        assert is_compatible({"a"}, rules)
        assert not is_compatible({"a", "b"}, rules)

    def test_mutually_exclusive(self):
        rules = allows("a", "b") + mutually_exclusive("a", "b")
        assert not is_compatible({"a", "b"}, rules)

    def test_empty_lhs_negative_bans_everywhere(self):
        rules = allows("a", "t") + [excludes(set(), "t")]
        assert not is_compatible({"t"}, rules)
        assert not is_compatible({"a", "t"}, rules)

    def test_rule_repr(self):
        assert "->" in repr(requires({"a"}, "b"))
        assert "not" in repr(excludes({"a"}, "b"))


class TestMaximalObjects:
    def test_example_62_reproduces_exactly(self):
        objects = maximal_objects(EXAMPLE_62_RELATIONS, example_62_rules())
        assert sorted(objects, key=sorted) == sorted(EXAMPLE_62_EXPECTED, key=sorted)
        assert len(objects) == 5

    def test_trade_in_never_appears(self):
        objects = maximal_objects(EXAMPLE_62_RELATIONS, example_62_rules())
        assert all("trade_in_value" not in obj for obj in objects)

    def test_lease_objects_fully_insured_from_dealers(self):
        objects = maximal_objects(EXAMPLE_62_RELATIONS, example_62_rules())
        lease_objects = [o for o in objects if "lease" in o]
        assert lease_objects == [
            frozenset({"dealers", "lease", "full_coverage", "retail_value"})
        ]

    def test_all_compatible_universe_is_one_object(self):
        rules = allows("a", "b", "c")
        assert maximal_objects(["a", "b", "c"], rules) == [frozenset({"a", "b", "c"})]

    def test_oversized_universe_rejected(self):
        with pytest.raises(ValueError):
            maximal_objects(["r%d" % i for i in range(21)], [])


class TestCoveringObjects:
    SCHEMAS = {
        "ads": frozenset({"make", "price"}),
        "dealer_ads": frozenset({"make", "price", "zip"}),
        "bb": frozenset({"make", "bb_price"}),
    }

    def test_minimal_cover(self):
        rules = allows("ads", "dealer_ads", "bb")
        covers = covering_objects(self.SCHEMAS, rules, {"price", "bb_price"}, self.SCHEMAS)
        assert frozenset({"ads", "bb"}) in covers
        assert frozenset({"dealer_ads", "bb"}) in covers
        # Non-minimal covers are excluded.
        assert frozenset({"ads", "dealer_ads", "bb"}) not in covers

    def test_compatibility_filters_covers(self):
        rules = allows("ads", "dealer_ads", "bb") + mutually_exclusive("ads", "dealer_ads")
        covers = covering_objects(self.SCHEMAS, rules, {"zip", "price"}, self.SCHEMAS)
        assert covers == [frozenset({"dealer_ads"})]

    def test_homeless_attribute_raises(self):
        with pytest.raises(KeyError):
            covering_objects(self.SCHEMAS, allows("ads"), {"astrology"}, self.SCHEMAS)


class TestQueryParsing:
    def test_select_only(self):
        query = parse_query("SELECT make, model")
        assert query.outputs == ("make", "model")
        assert query.condition is None

    def test_simple_where(self):
        query = parse_query("SELECT make WHERE make = 'ford'")
        assert query.condition.evaluate({"make": "ford"})

    def test_numeric_literals(self):
        query = parse_query("SELECT make WHERE year >= 1993 AND rate < 7.5")
        assert query.condition.evaluate({"year": 1995, "rate": 7.0})
        assert not query.condition.evaluate({"year": 1990, "rate": 7.0})

    def test_attr_attr_comparison(self):
        query = parse_query("SELECT make WHERE price < bb_price")
        assert query.condition.evaluate({"price": 1, "bb_price": 2})

    def test_in_list(self):
        query = parse_query("SELECT make WHERE zip IN ('10001', '10025')")
        assert isinstance(query.condition, Or)
        assert query.condition.evaluate({"zip": "10025"})
        assert not query.condition.evaluate({"zip": "90210"})

    def test_keywords_case_insensitive(self):
        query = parse_query("select make where make = 'ford'")
        assert query.outputs == ("make",)

    def test_attributes_include_condition_attrs(self):
        query = parse_query("SELECT make WHERE price < bb_price AND zip = '10001'")
        assert query.attributes() == {"make", "price", "bb_price", "zip"}

    def test_errors(self):
        for bad in [
            "WHERE x = 1",
            "SELECT make WHERE",
            "SELECT make WHERE make ~ 'x'",
            "SELECT make WHERE make = 'unterminated",
            "SELECT make WHERE zip IN ('a' 'b')",
            "SELECT make WHERE zip IN (price)",
            "SELECT make WHERE make = 'a' OR x = 1",
        ]:
            with pytest.raises(QueryParseError):
                parse_query(bad)


class TestPlanner:
    def test_plan_uses_both_ad_sources(self, webbase):
        plan = webbase.plan("SELECT make, model, price WHERE make = 'jaguar'")
        relation_sets = {frozenset(o.relations) for o in plan.objects}
        assert frozenset({"classifieds"}) in relation_sets
        assert frozenset({"dealers"}) in relation_sets

    def test_plan_joins_when_attrs_span_relations(self, webbase):
        plan = webbase.plan(
            "SELECT make, model, price, bb_price "
            "WHERE make = 'jaguar' AND condition = 'good'"
        )
        for obj in plan.objects:
            assert "blue_price" in obj.relations

    def test_plan_orders_mandatory_last(self, webbase):
        plan = webbase.plan(
            "SELECT make, model, price, bb_price "
            "WHERE make = 'jaguar' AND condition = 'good'"
        )
        for obj in plan.feasible_objects:
            assert obj.relations.index("blue_price") > 0  # needs model fed in

    def test_infeasible_object_is_skipped_with_note(self, webbase):
        # Without a condition constant, blue_price's mandatory 'condition'
        # cannot be derived (no relation's schema supplies it).
        plan = webbase.plan("SELECT make, bb_price WHERE make = 'jaguar'")
        assert plan.objects and not plan.feasible_objects

    def test_answer_raises_when_nothing_evaluable(self, webbase):
        from repro.ur.planner import PlanError

        with pytest.raises(PlanError):
            webbase.query("SELECT make, bb_price WHERE make = 'jaguar'")

    def test_unknown_attribute_rejected(self, webbase):
        from repro.ur.planner import PlanError

        with pytest.raises((PlanError, KeyError)):
            webbase.plan("SELECT astrology")

    def test_resolve_concept_names(self, webbase):
        assert webbase.ur.resolve("Car") == ["make", "model", "year"]
        assert webbase.ur.resolve("zip_code") == ["zip"]

    def test_describe_mentions_objects(self, webbase):
        plan = webbase.plan("SELECT make WHERE make = 'ford'")
        assert "object" in plan.describe()

    def test_ur_attributes(self, webbase):
        assert "bb_price" in webbase.ur.attributes
        assert "url" not in webbase.ur.attributes  # internal plumbing only
