"""A warm query does only query-dependent work — counted, not timed.

Four rules, one per count:

* **order belongs to an answer** — a warm query sorts under ``_sort_key``
  at most once per :class:`Relation` whose ``.rows`` somebody reads (the
  answer, or one streamed piece), never per intermediate;
* **compile once, probe by index** — a query shape's joins are ordered
  once, whatever constants later texts of it bind, and a relation builds
  its index on a set of columns once;
* **a query starts no thread** — a query the result cache answers
  starts no thread at all, through ``WebBase.query`` and through the
  service's ``answer_stream`` path alike;
* **the fan-out overlaps accesses in the lane model, not on threads** —
  the same query on a cache-off webbase fetches on the calling thread
  alone, does exactly the Web work a one-worker run does, and its
  modelled busiest lane is shorter than the lane sum.

The last section pins the fan-out primitive itself: ``answer_stream``
runs one object at a time, in plan order, on the caller, and nested
fan-outs at ``max_workers=2`` finish.

The first three rules are counted with the answer memo off
(``memo_off``): they are about a warm object evaluated over its cached
inputs, which is what a repeat of an unchanged query would otherwise
skip.  The memo's section counts the rule of remembering on what was
read: an unchanged warm repeat makes no algebra call, no result-cache
lookup, starts no thread and sorts only its answer; a changed input (a
revision bump, a TTL expiry, an eviction) makes the object evaluate
again; the memo keeps neither an evicted input's relation nor a
dropped webbase alive; and a new threshold on an output of a remembered
base query is the base answer filtered, with no algebra and no lookup,
while a conjunct that is no such threshold still evaluates.

Counts only, so this cannot flake on a shared runner (it is the
``perf-smoke`` CI job's gate for the warm path).
"""

from __future__ import annotations

import gc
import random
import threading
import weakref
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from unittest import mock

import pytest

from bench.workloads import BOUNDS, COMPARE, FAMILIES, MODELS, POPULARITY
import repro.logical.schema as logical_module
import repro.relational.algebra as algebra_module
import repro.ur.planner as planner_module
from repro import CachePolicy, WebBase, WebBaseConfig
from repro.navigation.executor import NavigationExecutor
from repro.relational.algebra import Base
from repro.relational import relation as relation_module
from repro.relational.conditions import parameterize
from repro.relational.planner import JoinOrderPlanner
from repro.relational.relation import Relation
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, WebBaseService
from repro.ur.planner import ObjectPlan, URPlan
from repro.ur.query import parse_query
from repro.vps.cache import ResultCache
from tests.conftest import repro_seed

#: One query per ``bench/workloads.py`` family, with a drawn-style threshold
#: where the family takes one (the constant must not matter to any count).
QUERIES = {
    name: family.template.format(make="ford", model="escort")
    + (" AND price < 12000" if "price" in family.bounds else "")
    for name, family in FAMILIES.items()
}


class Counts:
    def __init__(self) -> None:
        self.thread_starts: list[str] = []
        self.sorts_of: dict[int, int] = {}  # id(relation) -> sorts its .rows reads ran
        self._read: list[Relation] = []  # keeps ids unique while counting
        self.other_sorts = 0  # ``_sort_key`` sorts of rows outside a .rows read


@contextmanager
def counting():
    """Count ``Thread.start`` calls and ``_sort_key`` sorts of row tuples,
    the latter per relation whose ``.rows`` is being read."""
    counts = Counts()
    reading: list[Relation] = []
    start, rows = threading.Thread.start, Relation.rows

    def counted_start(thread: threading.Thread) -> None:
        counts.thread_starts.append(thread.name)
        start(thread)

    def counted_sorted(values, key=None):
        if key is relation_module._sort_key and isinstance(values, tuple):
            if reading:
                counts.sorts_of[id(reading[-1])] += 1
            else:
                counts.other_sorts += 1
        return sorted(values, key=key)

    def counted_rows(relation: Relation):
        if id(relation) not in counts.sorts_of:
            counts.sorts_of[id(relation)] = 0
            counts._read.append(relation)
        reading.append(relation)
        try:
            return rows.fget(relation)
        finally:
            reading.pop()

    with mock.patch.object(threading.Thread, "start", counted_start), mock.patch.object(
        relation_module, "sorted", counted_sorted, create=True
    ), mock.patch.object(Relation, "rows", property(counted_rows)):
        yield counts


def _assert_warm(counts: Counts, relations_read: int) -> None:
    assert counts.thread_starts == [], "a cache-answered query started a thread"
    assert counts.other_sorts == 0, "an operator sorted an intermediate relation"
    assert len(counts.sorts_of) <= relations_read
    assert all(n <= 1 for n in counts.sorts_of.values()), "a relation sorted twice"


@pytest.fixture(scope="module")
def warm(world) -> WebBase:
    webbase = WebBase(world, WebBaseConfig(cache=CachePolicy.lru()))  # max_workers=8
    for text in QUERIES.values():
        webbase.query(text)  # the warm-up pass
    return webbase


@pytest.fixture
def memo_off(monkeypatch):
    """Evaluate every object over the cache: the answer memo would serve a
    repeat without running the path these counts are about."""
    monkeypatch.setattr(planner_module, "ANSWER_MEMO_ENTRIES", 0)


@pytest.mark.parametrize("family", sorted(QUERIES))
def test_a_warm_query_starts_no_thread_and_orders_only_its_answer(warm, memo_off, family):
    fetches = warm.metrics.value("engine.fetches")
    with counting() as counts:
        answer = warm.query(QUERIES[family])
        rows = answer.rows
        assert answer.rows is rows  # a second read is not a second sort
    assert rows and warm.metrics.value("engine.fetches") == fetches  # it was warm
    _assert_warm(counts, relations_read=1)


def test_the_service_path_starts_no_thread_either(warm, memo_off):
    """``answer_stream`` obeys the same rule: on an open connection a warm
    query is served by the worker that took it, and each streamed piece
    is ordered once."""
    service = WebBaseService(warm, ServiceConfig(port=0))
    host, port = service.start()
    try:
        with ServiceClient(host=host, port=port) as client:
            client.query(QUERIES["price"])  # connection and worker are up
            for family, text in sorted(QUERIES.items()):
                objects = len(warm.plan(text).feasible_objects)
                with counting() as counts:
                    outcome = client.query(text)
                assert sorted(outcome.rows) == sorted(warm.query(text).rows), family
                assert outcome.stats["fetches"] == 0, family
                _assert_warm(counts, relations_read=objects)
    finally:
        service.shutdown()


@pytest.mark.parametrize("family", sorted(QUERIES))
def test_a_cold_query_still_overlaps_its_accesses(world, warm, family):
    """Cache off, the fan-out goes live, and its overlap is modelled: at
    8 lanes and at 1, every fetch runs on the calling thread; rows, live
    pages and fetch count are equal; and the 8-lane busiest lane is
    shorter than the lane sum, which the 1-lane run spends in full."""
    text = QUERIES[family]
    seen: dict[int, set[int]] = {}
    fetch = NavigationExecutor.fetch

    def recording_fetch(executor, *args, **kwargs):
        seen[workers].add(threading.get_ident())
        return fetch(executor, *args, **kwargs)

    measured, lanes = {}, {}
    with mock.patch.object(NavigationExecutor, "fetch", recording_fetch):
        for workers in (8, 1):
            seen[workers] = set()
            webbase = WebBase(world, WebBaseConfig(max_workers=workers))
            ctx = webbase.execution_context()
            rows = webbase.query(text, context=ctx).rows
            value = webbase.metrics.value
            measured[workers] = (rows, value("nav.prefix_misses"), value("engine.fetches"))
            lanes[workers] = (ctx.network_seconds_critical, ctx.network_seconds_total)
    assert measured[8] == measured[1]
    assert measured[8][0] == warm.query(text).rows
    assert seen[8] == seen[1] == {threading.get_ident()}, "a fetch left the caller"
    assert lanes[8][1] == lanes[1][1] == lanes[1][0]
    assert measured[8][2] >= 2 and lanes[8][0] < lanes[8][1], "no modelled overlap"


def test_a_query_shape_is_ordered_once_and_a_relation_indexed_once(world, memo_off):
    """A block of drawn constants, run twice: ``JoinOrderPlanner.plan``
    runs once per covering object of each distinct shape — a new constant
    re-orders nothing — and no relation builds its index on the same
    columns twice, so a warm probe is a lookup, not a scan."""
    rng = random.Random(repro_seed())
    block = [
        family.template.format(make=make, model=MODELS[make][0])
        + "".join(
            " AND %s %s %d" % (attr, BOUNDS[attr][0], rng.choice(BOUNDS[attr][1]))
            for attr in family.bounds
        )
        for family in FAMILIES.values()
        for make in ("ford", "honda", "toyota")
        for _ in range(2)
    ]
    shapes = {}
    for text in block:
        query = parse_query(text)
        shapes.setdefault((query.outputs, parameterize(query.condition)[0]), text)
    assert len(shapes) < len(block)
    builds: dict[tuple, int] = {}
    held: list[Relation] = []  # keeps ids unique while counting
    index = Relation._index

    def counted_index(relation, positions):
        key = (id(relation), positions)
        builds[key] = builds.get(key, 0) + 1
        held.append(relation)
        return index(relation, positions)

    webbase = WebBase(world, WebBaseConfig(cache=CachePolicy.lru(), max_workers=1))
    with mock.patch.object(
        JoinOrderPlanner, "plan", autospec=True, side_effect=JoinOrderPlanner.plan
    ) as ordered, mock.patch.object(Relation, "_index", counted_index):
        for text in block:
            webbase.query(text)
        cold = ordered.call_count
        for text in block:
            webbase.query(text)
    assert cold == sum(len(webbase.plan(text).objects) for text in shapes.values())
    assert ordered.call_count == cold, "a warm query re-ordered its joins"
    assert builds and max(builds.values()) == 1, "a relation built one index twice"


def test_the_cpu_column_bills_a_query_its_own_threads(warm):
    """``cpu_seconds`` is thread time of the thread that drives the
    context: an unrelated thread burning cpu beside the query (another
    connection's query, under ``serve``) is not on the bill."""
    import hashlib
    import time

    stop = threading.Event()
    block = b"x" * (1 << 20)

    def spin() -> None:  # hashing a large buffer releases the interpreter lock
        while not stop.is_set():
            hashlib.sha256(block).digest()

    spinners = [threading.Thread(target=spin, daemon=True) for _ in range(2)]
    for spinner in spinners:
        spinner.start()
    try:
        for text in QUERIES.values():
            ctx = warm.execution_context()
            started = time.perf_counter()
            warm.query(text, context=ctx)
            wall = time.perf_counter() - started
            assert 0 < ctx.cpu_seconds <= wall, text
    finally:
        stop.set()
        for spinner in spinners:
            spinner.join(timeout=10)
    assert not any(spinner.is_alive() for spinner in spinners)


# -- the one fan-out primitive -------------------------------------------------------


class _ParkingCatalog:
    """A catalog double whose every fetch is a live access: it passes the
    engine checkpoint a real one passes, then parks long enough for any
    thread that may run beside it to show up.  Records peak concurrency,
    the fetching threads and the order of the fetches."""

    def __init__(self, context) -> None:
        self.context = context
        self.active = self.peak = 0
        self.threads: set[int] = set()
        self.order: list[str] = []
        self._lock = threading.Lock()

    def fetch(self, name, given, context=None) -> Relation:
        assert context is self.context
        context.check_cancelled("fetch:%s" % name)
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
            self.threads.add(threading.get_ident())
            self.order.append(name)
        threading.Event().wait(0.02)
        with self._lock:
            self.active -= 1
        return Relation(["make"], [(name,)])


def test_answer_stream_obeys_max_workers(warm):
    """Six objects at ``max_workers=2``: one access at a time, on the
    caller, in plan order — and each piece reaches the consumer before
    the next object starts (the old loop started helper threads)."""
    import copy

    context = warm.execution_context(max_workers=2)
    catalog = _ParkingCatalog(context)
    ur = copy.copy(warm.ur)
    ur.logical = catalog
    names = ["r%d" % i for i in range(6)]
    plan = URPlan(
        query=parse_query("SELECT make WHERE make = 'ford'"),
        objects=[ObjectPlan((name,), Base(name), feasible=True) for name in names],
    )
    before = threading.active_count()
    pieces = []
    for obj, piece in ur.answer_stream(plan.query, plan=plan, context=context):
        assert catalog.order == names[: len(pieces) + 1], "an object ran ahead"
        pieces.append((obj, piece))
    assert [obj.relations[0] for obj, _ in pieces] == names
    assert [piece.rows[0][0] for _, piece in pieces] == names
    assert catalog.peak == 1 and catalog.threads == {threading.get_ident()}
    assert threading.active_count() == before


def test_nested_fan_outs_at_two_workers_finish(warm):
    """Three levels of ``map`` at ``max_workers=2``, every leaf a
    checkpoint: every level works its items on the caller, so none waits
    on another, and no thread is left behind."""
    context = warm.execution_context(max_workers=2)

    def leaf(n: int) -> int:
        context.check_cancelled("leaf")
        threading.Event().wait(0.001)
        return n

    def level(depth: int):
        if depth == 0:
            return leaf
        return lambda n: sum(context.map(level(depth - 1), [3 * n, 3 * n + 1, 3 * n + 2]))

    before = threading.active_count()
    done: list[int] = []
    runner = threading.Thread(target=lambda: done.append(level(3)(0)), daemon=True)
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive(), "nested fan-outs deadlocked"
    assert done == [sum(range(27))]
    assert threading.active_count() == before


# -- the answer memo ---------------------------------------------------------------


@contextmanager
def algebra_and_lookups():
    """Count calls into the algebra (wherever it is imported) and into the
    result cache's two lookups."""
    calls = {"evaluate": 0, "fetch": 0, "fetch_batch": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    with ExitStack() as patches:
        for module in (algebra_module, logical_module, planner_module):
            for name in ("evaluate", "evaluate_batch"):
                if hasattr(module, name):
                    fn = getattr(module, name)
                    patches.enter_context(mock.patch.object(module, name, counted("evaluate", fn)))
        for name in ("fetch", "fetch_batch"):
            fn = getattr(ResultCache, name)
            patches.enter_context(mock.patch.object(ResultCache, name, counted(name, fn)))
        yield calls


def _remembered_reads(webbase: WebBase, text: str) -> list[tuple[ObjectPlan, tuple]]:
    """Each object of ``text``'s plan with the read tokens the memo holds
    for it, in plan order."""
    remembered = list(webbase.ur._memo.items())
    return [
        (obj, reads)
        for obj in webbase.plan(text).feasible_objects
        for (template, values, _types), (_answer, reads) in remembered
        if template is obj.template and values == obj.values
    ]


@pytest.mark.parametrize("family", sorted(QUERIES))
def test_an_unchanged_warm_repeat_runs_no_algebra_and_no_lookup(warm, family):
    """Every cached input of the query is as its last run read it, so each
    object is served from the answer memo: no algebra, no cache lookup,
    no thread, no sort but the answer's, and the same rows and cache hits
    as the run before."""
    text = QUERIES[family]
    rows = warm.query(text).rows
    hits = warm.cache.hits
    with algebra_and_lookups() as calls, counting() as counts:
        repeat = warm.execution_context()
        assert warm.query(text, context=repeat).rows == rows
    assert calls == {"evaluate": 0, "fetch": 0, "fetch_batch": 0}
    _assert_warm(counts, relations_read=1)
    objects = repeat.root.spans("object")
    assert objects and all(span.attrs.get("memo") == "hit" for span in objects)
    assert warm.cache.hits - hits == sum(
        1 for span in repeat.root.spans("fetch") if span.cache == "hit"
    )


def _evict(webbase: WebBase, key: tuple) -> None:
    """Make ``key`` the least recently used entry, then store one more
    result into a cache that is full."""
    cache = webbase.cache
    cache._cache.move_to_end(key, last=False)
    cache.policy = replace(cache.policy, max_entries=len(cache._cache))
    given = next(
        {"make": make}
        for make in POPULARITY
        if cache._key("newsday", {"make": make}) not in cache._cache
    )
    webbase.fetch_vps("newsday", given)
    assert key not in cache._cache


@pytest.mark.parametrize("change", ["bump_revision", "ttl_expiry", "eviction"])
def test_a_changed_input_makes_the_next_run_evaluate(world, change):
    """Change one input of one object (a drawn one of the entries it
    read): that object evaluates again — its algebra runs — and returns
    what it returned before, the world being unchanged."""
    now = [0.0]
    webbase = WebBase(world, WebBaseConfig(cache=CachePolicy.lru(ttl_seconds=60.0)))
    webbase.cache._clock = lambda: now[0]
    text = QUERIES["bb"]
    rows = webbase.query(text).rows
    rng = random.Random(repro_seed())
    obj, reads = rng.choice(_remembered_reads(webbase, text))
    key, host, _serial = rng.choice(reads)
    if change == "bump_revision":
        webbase.cache.bump_revision(host)
    elif change == "ttl_expiry":
        webbase.cache._cache[key].expires_at = now[0]
    else:
        _evict(webbase, key)
    with algebra_and_lookups() as calls:
        ctx = webbase.execution_context()
        assert webbase.query(text, context=ctx).rows == rows
    assert calls["evaluate"] > 0
    (span,) = [s for s in ctx.root.spans("object") if s.name == " ⋈ ".join(obj.relations)]
    assert "memo" not in span.attrs
    with algebra_and_lookups() as calls:
        assert webbase.query(text).rows == rows
    assert calls == {"evaluate": 0, "fetch": 0, "fetch_batch": 0}, "not remembered again"


def test_an_evicted_input_is_collectable(world):
    """The memo holds serials, not entries: once the cache evicts an
    input, nothing keeps its relation alive."""
    webbase = WebBase(world, WebBaseConfig(cache=CachePolicy.lru()))
    text = QUERIES["escort"]
    webbase.query(text)
    for _obj, reads in _remembered_reads(webbase, text):
        key = reads[0][0]
        ref = weakref.ref(webbase.cache._cache[key].value)
        _evict(webbase, key)
        gc.collect()
        assert ref() is None, "an evicted input outlived its entry"


def test_the_memo_keeps_no_webbase_alive(world):
    """The memo lives on the webbase's planner, and a remembered answer's
    template knows its catalog: once the webbase is dropped, neither it
    nor its logical schema, cache or memo survives."""
    webbase = WebBase(world, WebBaseConfig(cache=CachePolicy.lru()))
    webbase.query(QUERIES["escort"])
    assert _remembered_reads(webbase, QUERIES["escort"]), "nothing was remembered"
    parts = (webbase, webbase.ur, webbase.logical, webbase.cache)
    refs = [weakref.ref(part) for part in parts]
    del webbase, parts
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4, "something kept a dropped webbase alive"


# -- contained serves ------------------------------------------------------------------

#: Each family's base query, without a drawn threshold.
BASES = {name: family.template.format(make="ford", model="escort") for name, family in FAMILIES.items()}
#: (family, attribute) for every threshold a family draws, and ``rate``'s
#: own output, which it draws none on.
THRESHOLDS = [(name, attr) for name, family in sorted(FAMILIES.items()) for attr in family.bounds]
RESIDUALS = THRESHOLDS + [("rate", "rate")]


@pytest.fixture(scope="module")
def remembered(world) -> WebBase:
    """An LRU webbase that has answered every family's base query."""
    webbase = WebBase(world, WebBaseConfig(cache=CachePolicy.lru()))
    for text in BASES.values():
        webbase.query(text)
    return webbase


@pytest.mark.parametrize("family, attr", THRESHOLDS)
def test_a_new_threshold_on_a_remembered_base_runs_no_algebra_and_no_lookup(
    remembered, family, attr
):
    """A threshold never asked before, on an output of a base query the
    memo holds: every object is its core's answer filtered, with no
    algebra and no cache lookup, and the rows are the base rows kept by
    the comparison."""
    base = remembered.query(BASES[family])
    op, domain = BOUNDS[attr]
    bound = random.Random("%d:%s:%s" % (repro_seed(), family, attr)).choice(domain)
    text = "%s AND %s %s %d" % (BASES[family], attr, op, bound)
    with algebra_and_lookups() as calls:
        ctx = remembered.execution_context()
        rows = remembered.query(text, context=ctx).rows
    assert calls == {"evaluate": 0, "fetch": 0, "fetch_batch": 0}
    objects = ctx.root.spans("object")
    assert objects and all(span.attrs.get("memo") == "contained" for span in objects)
    column = list(base.schema).index(attr)
    keep = COMPARE[op]
    assert list(rows) == [
        row for row in base.rows if row[column] is not None and keep(row[column], bound)
    ]


@pytest.mark.parametrize(
    "base, text",
    [
        (
            "SELECT make, model WHERE make = 'ford'",
            "SELECT make, model WHERE make = 'ford' AND price < 9000",
        ),
        (
            "SELECT make, model, price WHERE make = 'ford'",
            "SELECT make, model, price WHERE make = 'ford' AND model IN ('escort', 'taurus')",
        ),
        (
            "SELECT make, model, price WHERE make = 'ford'",
            "SELECT make, model, price WHERE make = 'ford' AND model = 'escort'",
        ),
    ],
    ids=["threshold on a non-output", "IN list", "extra equality"],
)
def test_a_conjunct_that_is_no_residual_evaluates(remembered, base, text):
    """Only ``attr op constant`` on an output, ``op`` not ``=``, is
    residual: with the base query remembered, these still evaluate."""
    remembered.query(base)
    with algebra_and_lookups() as calls:
        ctx = remembered.execution_context()
        remembered.query(text, context=ctx)
    assert calls["evaluate"] > 0
    assert not any(span.attrs.get("memo") for span in ctx.root.spans("object"))


@pytest.mark.parametrize("family, attr", RESIDUALS)
def test_a_derived_core_is_the_base_shapes_template(remembered, family, attr):
    """Each object's core equals (and hashes as) the template the base
    query's own shape compiled, and keeps the base query's constants,
    whether the residual comes last or first."""
    base = remembered.plan(BASES[family]).feasible_objects
    op = BOUNDS[attr][0] if attr in BOUNDS else "<"
    residual = "%s %s 7" % (attr, op)
    for text in (
        "%s AND %s" % (BASES[family], residual),
        BASES[family].replace(" WHERE ", " WHERE %s AND " % residual),
    ):
        objects = remembered.plan(text).feasible_objects
        assert len(objects) == len(base)
        for obj, base_obj in zip(objects, base):
            assert obj.core == base_obj.template, text
            assert hash(obj.core) == hash(base_obj.template)
            assert tuple(obj.values[i] for i in obj.core_slots) == base_obj.values


def test_explain_tags_a_contained_serve(world):
    webbase = WebBase(world, WebBaseConfig(cache=CachePolicy.lru(), max_workers=1))
    webbase.query(BASES["price"])
    report = webbase.explain("%s AND price < 9000" % BASES["price"])
    assert report.objects and [obj.memo for obj in report.objects] == ["contained"] * len(
        report.objects
    )
    lines = [line for line in report.render().splitlines() if line.startswith("object ")]
    assert lines and all("memo contained" in line for line in lines)
    assert report.actual_fetches == 0
