"""Unit tests for the binding-aware relational algebra evaluator."""

import math
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.relational.algebra import (
    Base,
    Derive,
    Fixed,
    Join,
    Project,
    Rename,
    Select,
    Union,
    binding_sets_of,
    evaluate,
    join_all,
    project,
    rename,
    schema_of,
    select,
    union_all,
)
from repro.relational.bindings import BindingError, binding_sets
from repro.relational.conditions import Attr, Comparison, Const, conj, eq
from repro.relational.relation import Relation
from repro.core.metrics import MetricsRegistry
from repro.relational.schema import Schema
from tests import reference_algebra


class RecordingCatalog:
    """A catalog over fixed data that records every fetch it serves."""

    def __init__(self):
        self.fetches = []
        self.data = {
            "ads": Relation(
                ["make", "model", "year", "price"],
                [
                    ("ford", "escort", 1995, 4800),
                    ("ford", "escort", 1994, 4100),
                    ("ford", "taurus", 1996, 9000),
                    ("jaguar", "xj6", 1993, 21000),
                ],
            ),
            "bb": Relation(
                ["make", "model", "year", "bbprice"],
                [
                    ("ford", "escort", 1995, 5000),
                    ("ford", "escort", 1994, 4000),
                    ("jaguar", "xj6", 1993, 25000),
                ],
            ),
            "free": Relation(["zip", "rate"], [("10001", 7.5), ("10025", 8.0)]),
        }
        self.binds = {
            "ads": binding_sets({"make"}),
            "bb": binding_sets({"make", "model"}),
            "free": binding_sets(set()),
        }

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
    return RecordingCatalog()


class TestStaticAnalyses:
    def test_schema_of_composites(self, catalog):
        expr = Project(
            Rename(Base("ads"), (("price", "asking"),)), ("make", "asking")
        )
        assert schema_of(expr, catalog) == Schema(["make", "asking"])

    def test_schema_of_join_unions_attrs(self, catalog):
        assert set(schema_of(Join(Base("ads"), Base("bb")), catalog).attrs) == {
            "make", "model", "year", "price", "bbprice",
        }

    def test_schema_of_derive_appends(self, catalog):
        expr = Derive(Base("ads"), "usd", lambda r: r["price"])
        assert "usd" in schema_of(expr, catalog)

    def test_binding_sets_select_absorbs(self, catalog):
        expr = Select(Base("ads"), eq("make", "ford"))
        assert binding_sets_of(expr, catalog) == binding_sets(set())

    def test_binding_sets_join(self, catalog):
        expr = Join(Base("ads"), Base("bb"))
        assert binding_sets_of(expr, catalog) == binding_sets({"make"})

    def test_binding_sets_fixed_is_free(self, catalog):
        rel = Relation(["x"], [(1,)])
        assert binding_sets_of(Fixed(rel), catalog) == binding_sets(set())

    def test_binding_sets_union(self, catalog):
        expr = Union(Base("ads"), Rename(Base("bb"), (("bbprice", "price"),)))
        sets = binding_sets_of(expr, catalog)
        assert sets == binding_sets({"make", "model"})


class TestEvaluation:
    def test_base_fetch_pushes_given(self, catalog):
        result = evaluate(Base("ads"), catalog, {"make": "ford"})
        assert len(result) == 3
        assert catalog.fetches == [("ads", {"make": "ford"})]

    def test_given_filters_even_if_catalog_ignores(self, catalog):
        # The catalog may return a superset; evaluate() must still filter.
        catalog.data["ads"] = catalog.data["ads"]  # unchanged
        result = evaluate(Base("ads"), catalog, {"make": "ford", "model": "escort"})
        assert all(d["model"] == "escort" for d in result.to_dicts())

    def test_select_pushes_constants_down(self, catalog):
        expr = Select(Base("ads"), conj(eq("make", "ford"), eq("model", "escort")))
        result = evaluate(expr, catalog)
        assert len(result) == 2
        assert catalog.fetches[0][1] == {"make": "ford", "model": "escort"}

    def test_select_residual_predicate_applied(self, catalog):
        expr = Select(
            Base("ads"),
            conj(eq("make", "ford"), Comparison(Attr("price"), "<", Const(5000))),
        )
        result = evaluate(expr, catalog)
        assert {d["price"] for d in result.to_dicts()} == {4800, 4100}

    def test_project_applies_given_before_dropping(self, catalog):
        expr = Project(Base("ads"), ("model",))
        result = evaluate(expr, catalog, {"make": "jaguar"})
        assert result.rows == (("xj6",),)

    def test_rename_translates_given(self, catalog):
        expr = Rename(Base("ads"), (("make", "manufacturer"),))
        result = evaluate(expr, catalog, {"manufacturer": "jaguar"})
        assert len(result) == 1
        assert catalog.fetches[0][1] == {"make": "jaguar"}

    def test_derive_blocks_pushdown_of_derived_attr(self, catalog):
        expr = Derive(Base("ads"), "price", lambda r: r["price"] // 1000)
        result = evaluate(expr, catalog, {"make": "ford", "price": 4})
        # price=4 filters *after* derivation; it is not pushed to the fetch.
        assert catalog.fetches[0][1] == {"make": "ford"}
        assert {d["price"] for d in result.to_dicts()} == {4}

    def test_union_evaluates_both_sides(self, catalog):
        expr = Union(
            Project(Base("ads"), ("make", "model")),
            Project(Base("bb"), ("make", "model")),
        )
        result = evaluate(expr, catalog, {"make": "ford", "model": "escort"})
        assert result.rows == (("ford", "escort"),)

    def test_union_infeasible_raises(self, catalog):
        expr = Union(
            Project(Base("ads"), ("make", "model")),
            Project(Base("bb"), ("make", "model")),
        )
        with pytest.raises(BindingError):
            evaluate(expr, catalog, {"make": "ford"})  # bb needs model too

    def test_relaxed_union_takes_feasible_side(self, catalog):
        expr = Union(
            Project(Base("ads"), ("make", "model")),
            Project(Base("bb"), ("make", "model")),
            relaxed=True,
        )
        result = evaluate(expr, catalog, {"make": "ford"})
        assert ("ford", "taurus") in result.rows

    def test_dependent_join_feeds_values(self, catalog):
        expr = Join(Base("ads"), Base("bb"))
        result = evaluate(expr, catalog, {"make": "ford"})
        assert len(result) == 2  # the two escorts with bb entries
        bb_fetches = [f for f in catalog.fetches if f[0] == "bb"]
        assert all("model" in given for _, given in bb_fetches)

    def test_dependent_join_empty_left_fetches_nothing(self, catalog):
        expr = Join(Base("ads"), Base("bb"))
        result = evaluate(expr, catalog, {"make": "nosuch"})
        assert result.is_empty
        assert [f for f in catalog.fetches if f[0] == "bb"] == []

    def test_join_orders_around_infeasible_side(self, catalog):
        # bb first in the AST, but only ads is feasible with {make}.
        expr = Join(Base("bb"), Base("ads"))
        result = evaluate(expr, catalog, {"make": "jaguar"})
        assert len(result) == 1

    def test_join_infeasible_raises(self, catalog):
        expr = Join(Base("ads"), Base("bb"))
        with pytest.raises(BindingError):
            evaluate(expr, catalog, {})

    def test_free_relation_needs_nothing(self, catalog):
        assert len(evaluate(Base("free"), catalog, {})) == 2

    def test_fixed_relation(self, catalog):
        rel = Relation(["x"], [(1,), (2,)])
        assert evaluate(Fixed(rel), catalog, {"x": 1}).rows == ((1,),)

    def test_helper_constructors(self, catalog):
        expr = select(Base("ads"), eq("make", "ford"))
        expr = project(expr, ["make", "model"])
        assert isinstance(expr, Project)
        assert union_all([Base("ads")]) == Base("ads")
        assert isinstance(join_all([Base("ads"), Base("bb")]), Join)
        with pytest.raises(ValueError):
            union_all([])
        with pytest.raises(ValueError):
            join_all([])

    def test_rename_helper_sorted(self):
        expr = rename(Base("x"), {"b": "y", "a": "z"})
        assert expr.mapping == (("a", "z"), ("b", "y"))

    def test_given_contradicting_selection_constant_is_empty(self, catalog):
        # Regression (found by the optimizer equivalence property): the
        # caller's binding must keep filtering even when the selection's
        # own equality constant overrides it during pushdown.
        expr = Select(Join(Base("ads"), Base("bb")), eq("make", "jaguar"))
        result = evaluate(expr, catalog, {"make": "ford"})
        assert result.is_empty

    def test_given_agreeing_with_selection_constant(self, catalog):
        expr = Select(Join(Base("ads"), Base("bb")), eq("make", "jaguar"))
        assert len(evaluate(expr, catalog, {"make": "jaguar"})) == 1


# -- the plan's static rules, on the plan and on the interpreter ----------------------

#: The compiled plans and the interpreter they replaced: each case runs on both.
ENGINES = {"plan": evaluate, "reference": reference_algebra.evaluate}
NAN = float("nan")


@pytest.fixture(params=sorted(ENGINES))
def run(request):
    return ENGINES[request.param]


class EngineCatalog(RecordingCatalog):
    """The fixed catalog with the engine-side fetch signature."""

    def fetch(self, name, given, context=None):
        return super().fetch(name, given)


class IgnoringCatalog(RecordingCatalog):
    """A catalog whose source ignores every binding: it returns the whole
    relation, however it was asked."""

    def fetch(self, name, given):
        self.fetches.append((name, dict(given)))
        return self.data[name]


class TracingContext:
    """An execution context's fan-out, spans and metrics, and nothing else."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.spans = []

    def map(self, fn, items):
        return [fn(item) for item in items]

    @contextmanager
    def span(self, kind, name):
        span = SimpleNamespace(attrs={})
        yield span
        self.spans.append((kind, name, span.attrs))


class TestStaticFilterRules:
    """A plan filters on the caller's bindings only where a result can
    disagree with them: after a base fetch, after a selection whose
    constant overrode a binding, after a derivation of a bound attribute.
    Each case gives what the interpreter's filter at every node gives."""

    def test_a_select_constant_contradicting_the_binding_is_empty(self, run, catalog):
        expr = Select(Base("ads"), eq("make", "jaguar"))
        assert run(expr, catalog, {"make": "ford"}).is_empty
        assert catalog.fetches == [("ads", {"make": "jaguar"})]  # the constant is fetched
        assert len(run(expr, catalog, {"make": "jaguar"})) == 1

    def test_a_derive_of_a_bound_attribute_filters_on_the_derived_value(self, run, catalog):
        expr = Derive(Base("ads"), "price", lambda r: r["price"] // 1000)
        result = run(expr, catalog, {"make": "ford", "price": 4})
        assert catalog.fetches == [("ads", {"make": "ford"})]  # not pushed down
        assert sorted(result.rows) == [("ford", "escort", 1994, 4), ("ford", "escort", 1995, 4)]

    def test_a_catalog_that_ignores_a_binding_is_filtered_after_the_fetch(self, run):
        catalog = IgnoringCatalog()
        expr = Project(Base("ads"), ("model", "year"))
        result = run(expr, catalog, {"make": "ford", "model": "escort"})
        assert catalog.fetches == [("ads", {"make": "ford", "model": "escort"})]
        assert sorted(result.rows) == [("escort", 1994), ("escort", 1995)]

    def test_a_constant_a_filter_and_a_test_disagree_on_is_still_tested(self, run, catalog):
        """``None`` equals ``None`` for the filter, but no comparison with
        it holds: the selection's own test still runs."""
        rel = Relation(["make", "model"], [(None, "x"), ("ford", "escort")])
        assert run(Select(Fixed(rel), eq("make", None)), catalog).is_empty
        assert len(run(Select(Fixed(rel), eq("make", "ford")), catalog)) == 1

    def test_nan_and_unhashable_bindings_keep_the_scan_semantics(self, run, catalog):
        """A scan compares one column with ``==`` (NaN never matches) and
        several as tuples (identity first); a value a dict cannot hold is
        scanned.  The relation is probed as a cached fetch is: scanned,
        then indexed, then read from the index."""
        assert math.isnan(NAN)
        relation = Fixed(Relation(("a", "b"), [(NAN, 1), (NAN, 2), (0.0, 1)]))
        for _ in range(3):
            assert run(relation, catalog, {"a": NAN}).is_empty
            assert len(run(relation, catalog, {"a": NAN, "b": 1})) == 1
            assert len(run(relation, catalog, {"a": float("nan"), "b": 1})) == 0
            assert len(run(relation, catalog, {"a": -0.0})) == 1
            assert run(Fixed(Relation(("a",), [("x",)])), catalog, {"a": ["x"]}).is_empty


class TestEmptyOuterPrune:
    def test_an_empty_outer_side_issues_no_inner_fetch(self, run):
        """A dependent join whose outer side is empty fetches nothing of
        the inner one, counts ``planner.pruned_inner`` once and records
        one ``prune`` / ``empty-outer`` span naming the feed attributes."""
        catalog, context = EngineCatalog(), TracingContext()
        result = run(Join(Base("ads"), Base("bb")), catalog, {"make": "nosuch"}, context)
        assert result.is_empty
        assert set(result.schema.attrs) == {"make", "model", "year", "price", "bbprice"}
        assert [name for name, _ in catalog.fetches] == ["ads"]
        assert context.metrics.value("planner.pruned_inner") == 1
        assert context.spans == [("prune", "empty-outer", {"feeds": "make,model,year"})]
