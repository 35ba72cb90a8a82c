"""Tests for Datalog view definitions over the VPS."""

import pytest

from repro.logical.datalog import (
    DatalogError,
    compile_program,
    compile_rule,
    define_datalog_views,
    parse_datalog,
)
from repro.relational.algebra import evaluate
from repro.relational.bindings import binding_sets
from repro.relational.relation import Relation


class Catalog:
    def __init__(self):
        self.data = {
            "ads": Relation(
                ["make", "model", "year", "price"],
                [
                    ("ford", "escort", 1995, 4800),
                    ("ford", "taurus", 1996, 9000),
                    ("jaguar", "xj6", 1993, 21000),
                ],
            ),
            "bb": Relation(
                ["make", "model", "year", "bbprice"],
                [("ford", "escort", 1995, 5000), ("jaguar", "xj6", 1993, 25000)],
            ),
            "pairs": Relation(["a", "b"], [(1, 1), (1, 2), (2, 2)]),
        }
        self.binds = {name: binding_sets(set()) for name in self.data}

    def base_schema(self, name):
        return self.data[name].schema

    def base_binding_sets(self, name):
        return self.binds[name]

    def fetch(self, name, given):
        relation = self.data[name]
        relevant = {relation.schema.index_of(k): v for k, v in given.items() if k in relation.schema}
        return relation.select_rows(lambda row: all(row[i] == v for i, v in relevant.items()))


@pytest.fixture()
def catalog():
    return Catalog()


class TestParsing:
    def test_simple_rule(self):
        rules = parse_datalog("p(X, Y) :- ads(X, Y, Year, Price).")
        assert rules[0].head == "p"
        assert rules[0].head_vars == ("X", "Y")
        assert rules[0].atoms[0].relation == "ads"

    def test_constants_and_comparisons(self):
        rules = parse_datalog(
            "p(M) :- ads(M, 'escort', Y, P), Y >= 1990, P < 5000."
        )
        rule = rules[0]
        assert rule.atoms[0].args[1] == "escort"
        assert len(rule.comparisons) == 2

    def test_comments_and_multiple_rules(self):
        rules = parse_datalog(
            """
            % classified ads
            p(X) :- ads(X, M, Y, P).
            p(X) :- bb(X, M, Y, B).
            """
        )
        assert len(rules) == 2

    def test_errors(self):
        for bad in [
            "p(X) :- .",  # empty body
            "p(x) :- ads(A, B, C, D).",  # head constant
            "p(X)",  # missing period
            "p(X) :- ads(A, B, C, D), 'lit'.",  # dangling literal
            "p(X) :- X(A).",  # variable relation
        ]:
            with pytest.raises(DatalogError):
                parse_datalog(bad)

    def test_facts_without_body_rejected(self):
        with pytest.raises(DatalogError):
            parse_datalog("p(X).")


class TestCompilation:
    def test_projection_and_rename(self, catalog):
        rules = parse_datalog("makes(Make) :- ads(Make, Model, Year, Price).")
        expr = compile_rule(rules[0], catalog)
        result = evaluate(expr, catalog)
        assert result.schema.attrs == ("make",)
        assert set(result.rows) == {("ford",), ("jaguar",)}

    def test_constant_selects(self, catalog):
        rules = parse_datalog("fords(Model) :- ads('ford', Model, Year, Price).")
        result = evaluate(compile_rule(rules[0], catalog), catalog)
        assert set(result.rows) == {("escort",), ("taurus",)}

    def test_join_on_shared_variables(self, catalog):
        rules = parse_datalog(
            "deal(Make, Model, P, B) :- "
            "ads(Make, Model, Year, P), bb(Make, Model, Year, B), P < B."
        )
        result = evaluate(compile_rule(rules[0], catalog), catalog)
        assert set(result.rows) == {
            ("ford", "escort", 4800, 5000),
            ("jaguar", "xj6", 21000, 25000),
        }

    def test_numeric_comparison(self, catalog):
        rules = parse_datalog(
            "recent(Make) :- ads(Make, Model, Year, Price), Year >= 1995."
        )
        result = evaluate(compile_rule(rules[0], catalog), catalog)
        assert set(result.rows) == {("ford",)}

    def test_repeated_variable_in_atom(self, catalog):
        rules = parse_datalog("same(A) :- pairs(A, A).")
        result = evaluate(compile_rule(rules[0], catalog), catalog)
        assert set(result.rows) == {(1,), (2,)}

    def test_arity_mismatch_rejected(self, catalog):
        rules = parse_datalog("p(X) :- ads(X, Y).")
        with pytest.raises(DatalogError):
            compile_rule(rules[0], catalog)

    def test_union_of_rules(self, catalog):
        rules = parse_datalog(
            """
            cars(Make, Model) :- ads(Make, Model, Y, P).
            cars(Make, Model) :- bb(Make, Model, Y, B).
            """
        )
        views = compile_program(rules, catalog)
        result = evaluate(views["cars"], catalog)
        assert len(result) == 3  # escort/taurus/xj6, deduplicated

    def test_head_mismatch_across_rules_rejected(self, catalog):
        rules = parse_datalog(
            """
            p(X) :- ads(X, M, Y, P).
            p(X, Y) :- bb(X, M, Y, B).
            """
        )
        with pytest.raises(DatalogError):
            compile_program(rules, catalog)


class TestAgainstRealVps:
    def _fresh_logical(self, webbase):
        # A private schema over the shared VPS, so the session-scoped
        # webbase's own logical layer is never mutated.
        from repro.logical.schema import LogicalSchema

        return LogicalSchema(webbase.vps)

    def test_datalog_view_over_the_webbase(self, webbase):
        logical = self._fresh_logical(webbase)
        names = define_datalog_views(
            logical,
            """
            dl_safety(Make, Model, Year, Safety) :-
                caranddriver(Make, Model, Safety, Year).
            """,
        )
        assert names == ["dl_safety"]
        result = logical.fetch("dl_safety", {"make": "bmw"})
        builtin = webbase.logical.fetch("reliability", {"make": "bmw"})
        got = {(d["make"], d["model"], d["safety"]) for d in result.to_dicts()}
        expected = {(d["make"], d["model"], d["safety"]) for d in builtin.to_dicts()}
        assert got == expected

    def test_datalog_view_inherits_binding_sets(self, webbase):
        logical = self._fresh_logical(webbase)
        define_datalog_views(
            logical,
            "dl_ads(Make, Model, Price) :- newsday(Contact, Make, Model, Price, Url, Year).",
        )
        sets = logical.base_binding_sets("dl_ads")
        assert sets == frozenset({frozenset({"make"})})

    def test_datalog_join_view_end_to_end(self, webbase):
        logical = self._fresh_logical(webbase)
        define_datalog_views(
            logical,
            """
            dl_bargains(Make, Model, Year, Price, Url) :-
                newsday(Contact, Make, Model, Price, Url, Year).
            """,
        )
        result = logical.fetch("dl_bargains", {"make": "saab"})
        expected = webbase.vps.fetch("newsday", {"make": "saab"})
        assert len(result) == len(expected)
