"""Unit and property tests for the algebra optimizer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational.algebra import (
    Base,
    Derive,
    Join,
    Project,
    Rename,
    Select,
    Union,
    evaluate,
)
from repro.relational.bindings import binding_sets
from repro.relational.conditions import And, Attr, Comparison, Const, Or, conj, eq
from repro.relational.optimize import optimize
from repro.relational.relation import Relation


class Catalog:
    def __init__(self):
        self.fetches = []
        self.data = {
            "ads": Relation(
                ["make", "model", "year", "price"],
                [
                    ("ford", "escort", 1995, 4800),
                    ("ford", "escort", 1990, 2100),
                    ("ford", "taurus", 1996, 9000),
                    ("jaguar", "xj6", 1993, 21000),
                    ("jaguar", "xj6", 1990, 11000),
                ],
            ),
            "bb": Relation(
                ["make", "model", "year", "bbprice"],
                [
                    ("ford", "escort", 1995, 5000),
                    ("ford", "escort", 1990, 2000),
                    ("jaguar", "xj6", 1993, 25000),
                    ("jaguar", "xj6", 1990, 10000),
                ],
            ),
        }
        self.binds = {"ads": binding_sets(set()), "bb": binding_sets(set())}

    def base_schema(self, name):
        return self.data[name].schema

    def base_binding_sets(self, name):
        return self.binds[name]

    def fetch(self, name, given):
        self.fetches.append((name, dict(given)))
        relation = self.data[name]
        relevant = {relation.schema.index_of(k): v for k, v in given.items() if k in relation.schema}
        return relation.select_rows(lambda row: all(row[i] == v for i, v in relevant.items()))


@pytest.fixture()
def catalog():
    return Catalog()


class TestRules:
    def test_merge_selects(self, catalog):
        expr = Select(Select(Base("ads"), eq("make", "ford")), eq("model", "escort"))
        out = optimize(expr, catalog)
        assert isinstance(out.expression, Select)
        assert isinstance(out.expression.child, Base)
        assert any(r.rule == "merge-selects" for r in out.rewrites)

    def test_push_through_project(self, catalog):
        expr = Select(Project(Base("ads"), ("make", "price")), eq("make", "ford"))
        out = optimize(expr, catalog)
        assert isinstance(out.expression, Project)
        assert isinstance(out.expression.child, Select)

    def test_push_through_rename(self, catalog):
        expr = Select(
            Rename(Base("ads"), (("make", "manufacturer"),)),
            eq("manufacturer", "ford"),
        )
        out = optimize(expr, catalog)
        assert isinstance(out.expression, Rename)
        inner = out.expression.child
        assert isinstance(inner, Select)
        assert inner.condition.attributes() == {"make"}

    def test_push_through_union(self, catalog):
        expr = Select(Union(Base("ads"), Base("ads")), eq("make", "ford"))
        out = optimize(expr, catalog)
        assert isinstance(out.expression, Union)
        assert isinstance(out.expression.left, Select)
        assert isinstance(out.expression.right, Select)

    def test_push_into_join_sides(self, catalog):
        cond = conj(
            eq("price", 4800),  # ads only
            eq("bbprice", 5000),  # bb only
            Comparison(Attr("price"), "<", Attr("bbprice")),  # spans both
        )
        expr = Select(Join(Base("ads"), Base("bb")), cond)
        out = optimize(expr, catalog)
        assert isinstance(out.expression, Select)  # the spanning conjunct stays
        join = out.expression.child
        assert isinstance(join, Join)
        assert isinstance(join.left, Select) and isinstance(join.right, Select)

    def test_push_through_derive_safe_conjuncts(self, catalog):
        expr = Select(
            Derive(Base("ads"), "price", lambda r: r["price"] // 1000),
            conj(eq("make", "ford"), eq("price", 4)),
        )
        out = optimize(expr, catalog)
        # make=ford moved below the derive; price=4 stayed above it.
        assert isinstance(out.expression, Select)
        assert out.expression.condition.attributes() == {"price"}

    def test_collapse_projects(self, catalog):
        expr = Project(Project(Base("ads"), ("make", "model", "year")), ("make",))
        out = optimize(expr, catalog)
        assert isinstance(out.expression, Project)
        assert isinstance(out.expression.child, Base)

    def test_drop_identity_project(self, catalog):
        expr = Project(Base("ads"), ("make", "model", "year", "price"))
        out = optimize(expr, catalog)
        assert out.expression == Base("ads")

    def test_explain_renders(self, catalog):
        expr = Select(Select(Base("ads"), eq("make", "ford")), eq("model", "escort"))
        out = optimize(expr, catalog)
        assert "merge-selects" in out.explain()

    def test_no_rewrites_on_plain_base(self, catalog):
        out = optimize(Base("ads"), catalog)
        assert out.expression == Base("ads")
        assert out.explain() == "(no rewrites applied)"


class TestEffectiveness:
    def test_pushed_selection_shrinks_dependent_join_fanout(self):
        """Filtering the outer side before a dependent join reduces the
        number of inner fetches — the Web-facing payoff."""
        catalog = Catalog()
        catalog.binds["bb"] = binding_sets({"make", "model"})
        cond = conj(eq("make", "jaguar"), Comparison(Attr("year"), ">=", Const(1993)))
        expr = Select(Join(Base("ads"), Base("bb")), cond)

        plain = evaluate(expr, catalog)
        plain_bb_fetches = len([f for f in catalog.fetches if f[0] == "bb"])

        catalog.fetches.clear()
        optimized = optimize(expr, catalog).expression
        improved = evaluate(optimized, catalog)
        optimized_bb_fetches = len([f for f in catalog.fetches if f[0] == "bb"])

        assert improved == plain
        assert optimized_bb_fetches < plain_bb_fetches


# -- generative equivalence ---------------------------------------------------------

_conditions = st.one_of(
    st.builds(lambda v: eq("make", v), st.sampled_from(["ford", "jaguar", "saab"])),
    st.builds(lambda v: eq("model", v), st.sampled_from(["escort", "xj6"])),
    st.builds(
        lambda n: Comparison(Attr("year"), ">=", Const(n)), st.integers(1988, 1998)
    ),
    st.builds(
        lambda n: Comparison(Attr("price"), "<", Const(n)), st.integers(1000, 30000)
    ),
)


def _exprs(depth=3):
    if depth == 0:
        return st.just(Base("ads"))
    sub = _exprs(depth - 1)
    return st.one_of(
        st.just(Base("ads")),
        st.builds(Select, sub, _conditions),
        st.builds(Select, sub, st.builds(lambda a, b: conj(a, b), _conditions, _conditions)),
        st.builds(lambda c: Project(c, ("make", "model", "year", "price")), sub),
        # Union requires matching schemas; normalize both sides first.
        st.builds(
            lambda l, r: Union(
                Project(l, ("make", "model", "year", "price")),
                Project(r, ("make", "model", "year", "price")),
            ),
            sub,
            sub,
        ),
        st.builds(lambda c: Join(c, Base("bb")), sub),
        st.builds(
            lambda c: Derive(c, "price", lambda row: (row["price"] or 0) * 2), sub
        ),
    )


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(_exprs())
    def test_optimization_preserves_results(self, expr):
        catalog = Catalog()
        baseline = evaluate(expr, catalog)
        rewritten = optimize(expr, catalog).expression
        assert evaluate(rewritten, catalog) == baseline

    @settings(max_examples=30, deadline=None)
    @given(_exprs(), st.sampled_from([{}, {"make": "ford"}, {"year": 1990}]))
    def test_optimization_preserves_results_under_given(self, expr, given):
        catalog = Catalog()
        baseline = evaluate(expr, catalog, dict(given))
        rewritten = optimize(expr, catalog).expression
        assert evaluate(rewritten, catalog, dict(given)) == baseline
