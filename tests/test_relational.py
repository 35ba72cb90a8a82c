"""Unit and property tests for schemas and relation operators."""

import random
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro import CachePolicy, WebBase, WebBaseConfig
from repro.relational import relation as relation_module
from repro.relational.relation import Relation, _sort_key
from repro.relational.schema import Schema, SchemaError
from tests.conftest import repro_seed


R = Relation(
    ["make", "model", "price"],
    [("ford", "escort", 4800), ("ford", "taurus", 9000), ("jaguar", "xj6", 21000)],
)
S = Relation(
    ["make", "model", "bb"],
    [("ford", "escort", 5000), ("jaguar", "xj6", 25000), ("honda", "civic", 8000)],
)


class TestSchema:
    def test_duplicate_attrs_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["a", "a"])

    def test_equality_ignores_order(self):
        assert Schema(["a", "b"]) == Schema(["b", "a"])
        assert hash(Schema(["a", "b"])) == hash(Schema(["b", "a"]))

    def test_contains_and_index(self):
        schema = Schema(["a", "b"])
        assert "a" in schema and "c" not in schema
        assert schema.index_of("b") == 1
        with pytest.raises(SchemaError):
            schema.index_of("c")

    def test_common_and_union(self):
        a, b = Schema(["x", "y"]), Schema(["y", "z"])
        assert a.common(b) == {"y"}
        assert a.union(b).attrs == ("x", "y", "z")

    def test_project_validates(self):
        with pytest.raises(SchemaError):
            Schema(["a"]).project(["b"])

    def test_rename_passthrough(self):
        assert Schema(["a", "b"]).rename({"a": "x"}).attrs == ("x", "b")


class TestRelationBasics:
    def test_rows_are_deduplicated(self):
        rel = Relation(["a"], [(1,), (1,), (2,)])
        assert len(rel) == 2

    def test_rows_sorted_deterministically(self):
        rel1 = Relation(["a"], [(2,), (1,)])
        rel2 = Relation(["a"], [(1,), (2,)])
        assert rel1.rows == rel2.rows

    def test_width_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Relation(["a", "b"], [(1,)])

    def test_from_dicts(self):
        rel = Relation.from_dicts(["a", "b"], [{"a": 1, "b": 2}])
        assert rel.rows == ((1, 2),)

    def test_equality_modulo_column_order(self):
        left = Relation(["a", "b"], [(1, 2)])
        right = Relation(["b", "a"], [(2, 1)])
        assert left == right

    def test_to_dicts(self):
        assert Relation(["a"], [(1,)]).to_dicts() == [{"a": 1}]

    def test_heterogeneous_rows_sortable(self):
        rel = Relation(["a"], [(1,), ("x",), (2.5,), (None,)])
        assert len(rel) == 4

    def test_pretty_truncates(self):
        rel = Relation(["a"], [(i,) for i in range(30)])
        text = rel.pretty(limit=5)
        assert "more rows" in text


class TestOperators:
    def test_select(self):
        price = R.schema.index_of("price")
        cheap = R.select_rows(lambda row: row[price] < 10000)
        assert len(cheap) == 2

    def test_project(self):
        makes = R.project(["make"])
        assert makes.rows == (("ford",), ("jaguar",))

    def test_rename(self):
        renamed = R.rename({"price": "asking"})
        assert "asking" in renamed.schema

    def test_derive_new_attribute(self):
        taxed = R.derive("taxed", lambda row: row["price"] * 2)
        assert taxed.schema.attrs[-1] == "taxed"
        assert all(d["taxed"] == d["price"] * 2 for d in taxed.to_dicts())

    def test_derive_replaces_attribute(self):
        doubled = R.derive("price", lambda row: row["price"] * 2)
        assert doubled.schema == R.schema
        assert {d["price"] for d in doubled.to_dicts()} == {9600, 18000, 42000}

    def test_union_requires_same_schema(self):
        with pytest.raises(SchemaError):
            R.union(S)

    def test_union_aligns_column_order(self):
        left = Relation(["a", "b"], [(1, 2)])
        right = Relation(["b", "a"], [(4, 3)])
        merged = left.union(right)
        assert set(merged.rows) == {(1, 2), (3, 4)}

    def test_intersect_and_difference(self):
        a = Relation(["x"], [(1,), (2,), (3,)])
        b = Relation(["x"], [(2,), (3,), (4,)])
        assert a.intersect(b).rows == ((2,), (3,))
        assert a.difference(b).rows == ((1,),)

    def test_natural_join(self):
        joined = R.natural_join(S)
        assert joined.schema.attrs == ("make", "model", "price", "bb")
        assert len(joined) == 2  # escort + xj6

    def test_natural_join_no_common_is_product(self):
        a = Relation(["x"], [(1,), (2,)])
        b = Relation(["y"], [("u",), ("v",)])
        assert len(a.natural_join(b)) == 4

    def test_distinct_values(self):
        assert R.distinct_values(["make"]) == [("ford",), ("jaguar",)]


# -- property tests: relational algebra laws -----------------------------------------

rows_strategy = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 3)), max_size=8
)


def _rel(rows, attrs=("k", "v")):
    return Relation(list(attrs), rows)


class TestAlgebraLaws:
    @given(rows_strategy, rows_strategy)
    def test_join_is_commutative(self, rows1, rows2):
        a = _rel(rows1, ("k", "v"))
        b = _rel(rows2, ("k", "w"))
        assert a.natural_join(b) == b.natural_join(a)

    @given(rows_strategy, rows_strategy)
    def test_union_is_commutative(self, rows1, rows2):
        a, b = _rel(rows1), _rel(rows2)
        assert a.union(b) == b.union(a)

    @given(rows_strategy)
    def test_union_is_idempotent(self, rows):
        a = _rel(rows)
        assert a.union(a) == a

    @given(rows_strategy, rows_strategy)
    def test_select_distributes_over_union(self, rows1, rows2):
        a, b = _rel(rows1), _rel(rows2)
        pred = lambda row: row[1] > 1  # v
        assert a.union(b).select_rows(pred) == a.select_rows(pred).union(b.select_rows(pred))

    @given(rows_strategy)
    def test_project_to_full_schema_is_identity(self, rows):
        a = _rel(rows)
        assert a.project(["k", "v"]) == a

    @given(rows_strategy)
    def test_join_with_self_is_identity(self, rows):
        a = _rel(rows)
        assert a.natural_join(a) == a

    @given(rows_strategy, rows_strategy)
    def test_difference_then_union_recovers_superset(self, rows1, rows2):
        a, b = _rel(rows1), _rel(rows2)
        assert b.union(a.difference(b)) == a.union(b)


# -- property tests: lazy order and memoised operators against an eager reference -----

CELLS = st.sampled_from([0, 1, 2, 7, 0.5, 2.25, "a", "b", "1", None])  # no 1 == 1.0 twins
CONSTANTS = [0, 1, "a", None, 2.25]
#: Static derive functions (a plan holds its functions; a query never makes one).
DERIVES = {
    "kind": lambda row: type(next(iter(row.values()))).__name__,
    "seven": lambda row: 7,
    "first": lambda row: next(iter(row.values())),
}


class Eager:
    """The reference: a set of rows, every operator written out eagerly."""

    def __init__(self, attrs, rows):
        self.attrs, self.rows = tuple(attrs), {tuple(row) for row in rows}

    def dicts(self):
        return [dict(zip(self.attrs, row)) for row in self.rows]

    def of(self, attrs, dicts):
        return Eager(attrs, [tuple(d[a] for a in attrs) for d in dicts])

    def select_rows(self, pred):
        return Eager(self.attrs, [row for row in self.rows if pred(row)])

    def project(self, attrs):
        return self.of(attrs, self.dicts())

    def rename(self, mapping):
        return Eager([mapping.get(a, a) for a in self.attrs], self.rows)

    def derive(self, attr, fn):
        attrs = self.attrs if attr in self.attrs else self.attrs + (attr,)
        return self.of(attrs, [{**d, attr: fn(d)} for d in self.dicts()])

    def union(self, other):
        return self.of(self.attrs, self.dicts() + other.dicts())

    def intersect(self, other):
        theirs = other.project(self.attrs).rows
        return Eager(self.attrs, [row for row in self.rows if row in theirs])

    def difference(self, other):
        theirs = other.project(self.attrs).rows
        return Eager(self.attrs, [row for row in self.rows if row not in theirs])

    def natural_join(self, other):
        common = [a for a in self.attrs if a in other.attrs]
        attrs = self.attrs + tuple(a for a in other.attrs if a not in self.attrs)
        return self.of(
            attrs,
            [
                {**left, **right}
                for left in self.dicts()
                for right in other.dicts()
                if all(left[a] == right[a] for a in common)
            ],
        )

    def ordered(self):
        return tuple(sorted(set(self.rows), key=_sort_key))


def _draw_rows(data, width):
    return data.draw(st.lists(st.tuples(*[CELLS] * width), max_size=6))


def _draw_step(data, attrs):
    """One operator applicable to a relation over ``attrs``, as
    ``(method name, args for Relation, args for Eager)``."""
    op = data.draw(
        st.sampled_from(
            ["select_rows", "project", "rename", "derive", "union", "intersect",
             "difference", "natural_join"]
        )
    )  # fmt: skip
    if op == "select_rows":
        attr, value = data.draw(st.sampled_from(attrs)), data.draw(st.sampled_from(CONSTANTS))
        position = attrs.index(attr)
        pred = lambda row: row[position] == value  # noqa: E731
        return op, (pred,), (pred,)
    if op == "project":
        kept = data.draw(st.permutations(attrs))[: data.draw(st.integers(1, len(attrs)))]
        return op, (list(kept),), (tuple(kept),)
    if op == "rename":
        fresh = [name for name in ("x", "y", "z", "w") if name not in attrs]
        mapping = {data.draw(st.sampled_from(attrs)): data.draw(st.sampled_from(fresh))}
        return op, (mapping,), (mapping,)
    if op == "derive":
        attr = data.draw(st.sampled_from(list(attrs) + ["d"]))
        fn = DERIVES[data.draw(st.sampled_from(sorted(DERIVES)))]
        return op, (attr, fn), (attr, fn)
    if op == "natural_join":
        shared = data.draw(st.lists(st.sampled_from(attrs), unique=True, max_size=2))
        other_attrs = shared + [n for n in ("j",) if n not in attrs and data.draw(st.booleans())]
        if not other_attrs:
            other_attrs = [attrs[0]]
    else:  # union / intersect / difference: same attributes, any column order
        other_attrs = list(data.draw(st.permutations(attrs)))
    rows = _draw_rows(data, len(other_attrs))
    return op, (Relation(other_attrs, rows),), (Eager(other_attrs, rows),)


class TestLazyOrderAgainstEagerReference:
    @seed(repro_seed())
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_chains_match_the_reference_and_sort_once(self, data):
        attrs = ("a", "b", "c")
        rows = _draw_rows(data, 3)
        rel, ref = Relation(attrs, rows), Eager(attrs, rows)
        sorts = []

        def counting(rows, key=None):
            if key is _sort_key:
                sorts.append(len(rows))
            return sorted(rows, key=key)

        with mock.patch.object(relation_module, "sorted", counting, create=True):
            for _ in range(data.draw(st.integers(0, 6))):
                op, args, ref_args = _draw_step(data, rel.schema.attrs)
                rel, ref = getattr(rel, op)(*args), getattr(ref, op)(*ref_args)
                twin = Relation(ref.attrs, ref.rows)
                assert rel.schema.attrs == ref.attrs
                assert len(rel) == len(ref.rows) and rel.is_empty == (not ref.rows)
                assert rel == twin and hash(rel) == hash(twin)
            assert sorts == [], "an operator, len, == or hash paid for an order"
            assert rel.rows == ref.ordered()
            assert rel.rows is rel.rows and tuple(rel) == ref.ordered()
            assert len(sorts) <= 1, "one relation sorted more than once"

    @seed(repro_seed())
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_memoised_operator_is_the_unmemoised_computation(self, data):
        attrs = ("a", "b", "c")
        rel = Relation(attrs, _draw_rows(data, 3))
        op, args, _ = _draw_step(data, attrs)
        if op not in ("project", "rename", "derive"):
            return
        first = getattr(rel, op)(*args)
        assert getattr(rel, op)(*args) is first  # the second call is the memo
        fresh = getattr(Relation(attrs, rel.rows), op)(*args)  # never memoised before
        assert first == fresh and first.rows == fresh.rows and first is not fresh

    def test_an_operator_that_changes_nothing_returns_its_operand(self):
        assert R.select_rows(lambda row: True) is R
        assert R.project(["make", "model", "price"]) is R
        assert R.rename({"bb": "blue"}) is R and R.rename({}) is R
        assert R.union(Relation(["price", "model", "make"], [])) is R
        assert Relation(["make", "model", "price"], []).union(R) is R
        assert R.difference(S.rename({"bb": "price"})) is R  # nothing in common

    def test_the_memo_is_capped(self):
        for i in range(40):  # a fresh lambda per call: a new key each time
            R.derive("n", lambda row, i=i: i)
        assert len(R._memo) <= 8
        assert R.derive("n", lambda row: 41).rows[0][-1] == 41  # past the cap: still right


def _memo_sizes(relations) -> list[int]:
    """The memo size of every relation reachable from ``relations``."""
    sizes, stack, seen = [], list(relations), set()
    while stack:
        relation = stack.pop()
        if id(relation) not in seen:
            seen.add(id(relation))
            sizes.append(len(relation._memo))
            stack.extend(relation._memo.values())
    return sizes


def test_the_memo_never_gains_an_entry_from_a_query_constant(world):
    """Six bench families x ten makes x 20 drawn thresholds: what a cached
    relation remembers is bounded by the view definitions, and a new
    threshold adds nothing to it."""
    from bench.workloads import BOUNDS, FAMILIES, MODELS, POPULARITY
    from repro.relational.algebra import Derive, Project, Rename

    wb = WebBase(world, WebBaseConfig(cache=CachePolicy.lru()))
    static_nodes = 0
    for name in wb.logical.relation_names:
        stack = [wb.logical.relation(name).definition]
        while stack:
            node = stack.pop()
            static_nodes += isinstance(node, (Derive, Project, Rename))
            stack.extend(getattr(node, a) for a in ("child", "left", "right") if hasattr(node, a))
    rng = random.Random(repro_seed())
    totals = []
    for _ in range(20):
        for family in FAMILIES.values():
            for make in POPULARITY:
                text = family.template.format(make=make, model=MODELS[make][0])
                if family.bounds:
                    attr = rng.choice(family.bounds)
                    comparison, domain = BOUNDS[attr]
                    text += " AND %s %s %d" % (attr, comparison, rng.choice(domain))
                wb.query(text)
        sizes = _memo_sizes(entry.value for entry in wb.cache._cache.values())
        assert max(sizes) <= static_nodes
        totals.append(sum(sizes))
    assert totals[0] > 0, "nothing was memoised: the walk missed the cache"
    assert len(set(totals)) == 1, "a drawn threshold grew a memo: %r" % totals
