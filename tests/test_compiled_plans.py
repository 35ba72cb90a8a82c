"""Compile once per query shape, probe by index.

A query's plan depends on which attributes it names and binds, never on
the constants it binds them to, so ``StructuredUR.plan`` compiles each
*shape* once and binds each query's constants into the compiled template.
Texts drawn under ``REPRO_TEST_SEED`` over all three domains, differing
only in constants (thresholds, makes, ``IN`` lists, ``'x' = attr``), must

* share one compiled template per shape;
* plan exactly what compiling the query with its own constants plans, and
  return exactly its rows, on a cache-off webbase;
* when the shape has no plan, raise ``PlanError`` on every call.

The last section pins the probe index: a filtered probe returns what a
scan returns, for every value a scan can meet, whether it scanned or
read the relation's index.
"""

from __future__ import annotations

import math
import random
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro import WebBase, WebBaseConfig
from repro.domains import CARS, HARDWARE, JOBS
from tests.reference_algebra import _filter_given
from repro.relational.relation import Relation
from repro.ur.planner import PlanError, StructuredUR, URPlan
from repro.ur.query import parse_query

from tests.conftest import repro_seed

TEXTS_PER_SHAPE = 3


def _pick(rng: random.Random, values, k: int = 1) -> str:
    return ", ".join("'%s'" % v for v in rng.sample(list(values), k))


#: domain id -> (domain, world size, {shape: rng -> one text of that shape}).
SHAPES = {
    "cars": (
        CARS,
        (1999, 24),
        {
            "make, threshold": lambda r: "SELECT make, model, price WHERE make = %s "
            "AND price < %d" % (_pick(r, ("ford", "honda", "saab")), r.randrange(4000, 30000)),
            "reversed equality": lambda r: "SELECT make, model, year, price, contact "
            "WHERE %s = make AND year >= %d" % (_pick(r, ("ford", "toyota")), r.randrange(1991, 1999)),
            "IN list": lambda r: "SELECT make, model, price WHERE make = 'ford' "
            "AND model IN (%s)" % _pick(r, ("escort", "taurus", "explorer"), 2),
            "probe join": lambda r: "SELECT make, model, price, bb_price WHERE make = %s "
            "AND condition = 'good' AND price < bb_price" % _pick(r, ("ford", "jaguar", "honda")),
            "three objects": lambda r: "SELECT make, model, rate WHERE make = %s AND "
            "duration = %d" % (_pick(r, ("ford", "bmw")), r.choice((24, 36, 48))),
        },
    ),
    "hardware": (
        HARDWARE,
        (1998, 50),
        {
            "category, thresholds": lambda r: "SELECT brand, model, price, rating "
            "WHERE category = %s AND price < %d AND rating >= %d"
            % (_pick(r, ("laptop", "desktop", "printer")), r.randrange(800, 3000), r.randrange(2, 5)),
            "IN list": lambda r: "SELECT category, brand, model, price WHERE "
            "category = %s AND brand IN (%s)"
            % (_pick(r, ("laptop", "printer")), _pick(r, ("ibm", "dell", "hp", "apple"), 2)),
        },
    ),
    "jobs": (
        JOBS,
        (2026, 60),
        {
            "title, threshold": lambda r: "SELECT title, city, company, salary WHERE "
            "title = %s AND salary > %d" % (_pick(r, ("dba", "analyst", "sysadmin")), r.randrange(40000, 90000)),
            "attribute comparison": lambda r: "SELECT title, city, company, salary, "
            "median_salary WHERE %s = title AND city = %s AND salary > median_salary"
            % (_pick(r, ("software engineer", "dba")), _pick(r, ("new york", "boston"))),
        },
    ),
}


@pytest.fixture(scope="module", params=sorted(SHAPES))
def domain_case(request):
    """(name, cache-off webbase, {shape: drawn texts}) for one domain."""
    name = request.param
    domain, size, shapes = SHAPES[name]
    rng = random.Random("%d:compiled:%s" % (repro_seed(), name))
    texts = {}
    for shape, draw in shapes.items():
        drawn = {draw(rng) for _ in range(4 * TEXTS_PER_SHAPE)}
        texts[shape] = sorted(drawn)[:TEXTS_PER_SHAPE]
        assert len(texts[shape]) > 1, "%s: the draw must vary the constants" % shape
    return name, WebBase(domain.build_world(*size), WebBaseConfig(), domain), texts


def _compile_with_constants(ur: StructuredUR, text: str) -> URPlan:
    """The plan of ``text`` compiled from the query itself, constants and
    all — planning as it was before shapes were cached."""
    query = parse_query(text)
    return URPlan(query=query, objects=ur._compile(query), optimizer=ur.optimizer)


def _shape_of(objects):
    return [(o.relations, o.feasible, o.note, o.rewrites, o.estimate) for o in objects]


def test_texts_that_differ_in_constants_share_one_template(domain_case):
    name, webbase, texts = domain_case
    ur = StructuredUR(
        webbase.logical, webbase.ur.hierarchy, webbase.ur.rules, webbase.ur.relations,
        stats=webbase.ur.join_planner.model.stats,
    )  # a planner of its own: nothing compiled yet
    compile_ = StructuredUR._compile
    with mock.patch.object(StructuredUR, "_compile", autospec=True, side_effect=compile_) as spy:
        for shape, shape_texts in texts.items():
            calls = spy.call_count
            plans = [ur.plan(text) for text in shape_texts]
            assert spy.call_count == calls + 1, "%s/%s compiled more than once" % (name, shape)
            assert len({repr(_shape_of(p.objects)) for p in plans}) == 1
            for text, plan in zip(shape_texts, plans):
                assert plan.query == parse_query(text)  # the constants are the query's own
        for shape_texts in texts.values():  # every shape again: all compiled
            for text in shape_texts:
                ur.plan(text)
        assert spy.call_count == len(texts)


def test_a_compiled_plan_returns_what_a_fresh_plan_returns(domain_case):
    name, webbase, texts = domain_case
    answered = 0
    for shape, shape_texts in texts.items():
        for text in shape_texts:
            compiled = webbase.ur.plan(text)
            fresh = _compile_with_constants(webbase.ur, text)
            assert _shape_of(compiled.objects) == _shape_of(fresh.objects), text
            for ours, theirs in zip(compiled.objects, fresh.objects):
                assert ours.expression == theirs.expression, text
                assert ours.fingerprint == theirs.fingerprint, text
            rows = webbase.query(text).rows
            context = webbase.execution_context(label="fresh:%s" % text)
            expected = webbase.ur.answer(text, plan=fresh, context=context).rows
            assert rows == expected, "%s/%s: %s" % (name, shape, text)
            answered += bool(rows)
    assert answered, "%s: every drawn query came back empty" % name


@pytest.mark.parametrize("make", ["jaguar", "ford", "saab"])
def test_a_failing_shape_raises_plan_error_on_every_call(webbase, make):
    """``bb_price`` lies outside a planner over ``classifieds`` alone: the
    shape has no plan, and none is remembered for it."""
    ur = StructuredUR(
        webbase.logical, webbase.ur.hierarchy, webbase.ur.rules, ["classifieds"]
    )
    text = "SELECT make, bb_price WHERE make = '%s'" % make
    compile_ = StructuredUR._compile
    with mock.patch.object(StructuredUR, "_compile", autospec=True, side_effect=compile_) as spy:
        for attempt in range(1, 4):
            with pytest.raises(PlanError):
                ur.plan(text)
            assert spy.call_count == attempt
    # A shape that plans but cannot be evaluated fails at every answer too.
    with pytest.raises(PlanError):
        webbase.query(text)
    with pytest.raises(PlanError):
        webbase.query(text.replace(make, make + "x"))


# -- the probe index --------------------------------------------------------------

NAN = float("nan")
#: Values whose ``==`` a dict lookup must reproduce: ``None``, ``1`` / ``1.0``
#: / ``True`` (equal across types), ``0`` / ``-0.0``, strings, one shared NaN
#: object and fresh ones (NaN equals nothing, not even itself).
VALUES = st.sampled_from([None, 0, -0.0, 1, 1.0, True, 2, "a", "b", NAN]) | st.just(
    None
).map(lambda _: float("nan"))


def _scan(relation: Relation, given: dict) -> Relation:
    """The reference: one positional scan comparing with ``==``, as every
    probe filtered before relations kept an index."""
    bound = [(relation.schema.index_of(a), v) for a, v in given.items() if a in relation.schema]
    if not bound:
        return relation
    column = itemgetter(*(i for i, _ in bound))
    wanted = bound[0][1] if len(bound) == 1 else tuple(v for _, v in bound)
    return relation.select_rows(lambda row: column(row) == wanted)


def _same(probed: Relation, scanned: Relation, source: Relation) -> None:
    assert probed.schema.attrs == scanned.schema.attrs
    assert set(map(id, probed._rows)) == set(map(id, scanned._rows))
    assert (probed is source) == (scanned is source)


@seed(repro_seed())
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_indexed_probe_is_the_scan(data):
    """Single- and multi-column keys, keys the relation does not have,
    values it holds (the very objects, NaN included) and values it does
    not: each probe of one relation — scanned the first time, then read
    from the index built on the second — returns the scan's rows: the
    same row objects, and the relation itself exactly when the scan
    keeps every row."""
    rows = data.draw(st.lists(st.tuples(VALUES, VALUES, VALUES), max_size=12))
    relation = Relation(("a", "b", "c"), rows)
    for _ in range(data.draw(st.integers(1, 6))):
        attrs = data.draw(st.lists(st.sampled_from("abcz"), unique=True, max_size=3))
        if relation._rows and data.draw(st.booleans()):
            row = data.draw(st.sampled_from(relation._rows))
            probe = {a: row["abc".index(a)] if a in "abc" else None for a in attrs}
        else:
            probe = {a: data.draw(VALUES) for a in attrs}
        for _ in range(2):
            _same(_filter_given(relation, probe), _scan(relation, probe), relation)


def test_nan_is_matched_by_identity_only_inside_a_tuple():
    """A scan compares one column with ``==`` (NaN never matches) but
    several as tuples (identity first): the index agrees with both."""
    relation = Relation(("a", "b"), [(NAN, 1), (NAN, 2), (0.0, 1)])
    assert math.isnan(NAN)
    for _ in range(3):  # scanned, then indexed, then read from the index
        assert _filter_given(relation, {"a": NAN}).is_empty
        assert len(_filter_given(relation, {"a": NAN, "b": 1})) == 1
        assert len(_filter_given(relation, {"a": float("nan"), "b": 1})) == 0
        assert len(_filter_given(relation, {"a": -0.0})) == 1
        unhashable = Relation(("a",), [("x",)])
        assert _filter_given(unhashable, {"a": ["x"]}).is_empty  # no index lookup


def test_one_group_is_the_relation_itself():
    """A probe that keeps every row returns its input, so memos hanging
    off a cached relation keep hitting downstream; once indexed, a
    narrowed group is one object, so memos on it hit too."""
    relation = Relation(("make", "price"), [("ford", 1), ("ford", 2)])
    assert relation.where((0,), "ford") is relation  # scanned
    assert relation.where((0,), "ford") is relation  # indexed
    assert relation.where((1,), 2).rows == (("ford", 2),)  # scanned
    narrowed = relation.where((1,), 2)
    assert narrowed.rows == (("ford", 2),)
    assert relation.where((1,), 2) is narrowed  # read from the index
    assert relation.where((1,), 3).is_empty


def test_a_relation_probed_once_builds_no_index():
    """A relation built for one probe (a cache-off fetch, a derivation a
    full memo did not keep) is scanned, never indexed."""
    relation = Relation(("make", "price"), [("ford", 1), ("saab", 2)])
    with mock.patch.object(Relation, "_index", side_effect=AssertionError):
        assert relation.where((0,), "saab").rows == (("saab", 2),)
        assert relation.where((1,), 1).rows == (("ford", 1),)
