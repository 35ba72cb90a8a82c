"""MQO's indexed gold lookup, judged against the linear scan it replaced.

``MultiQueryOptimizer.subsume`` reads the answer stored under the query's
own text, then one bucket of an index of gold answers keyed by join core
and singleton equalities, maintained as answers are written, built when
the store opens and pruned when it compacts.
``tests/reference_subsume.py`` keeps the scan over every current gold
answer.  The claim: on every query the
two agree on hit or miss, and a hit's rows equal the reference's and a
cache-off webbase's.

The stream is seeded (``REPRO_TEST_SEED``): ``cluster_mixed``'s five
families over three makes with drawn thresholds, plus ``IN`` lists,
``!=`` exclusions, an ``IN`` narrowed to one value by ``!=``, a
contradiction and a projection, among these events:

* ``auto`` — a site change absorbed by a maintenance sweep, and
  ``bump`` — a revision bump by hand; each is heard by the store only
  after the next query, the window in which the live authority has moved
  and the store has not;
* ``repersist`` — a gold text goes stale and is written again;
* ``restart`` — a warm restart that loads gold from disk;
* ``compact`` — ``store.compact()``; a lowered ``COMPACT_FLOOR_BYTES``
  makes the writer compact online too.

Also: the hardware and jobs domains, eight threads among sweeps and
bumps, and a count of the work one lookup does at two sizes of gold,
before and after a compaction.
"""

from __future__ import annotations

import random
import sys
import threading
from contextlib import contextmanager

import pytest

import repro.mqo.optimizer as optimizer
import repro.store.tiered as tiered
from bench.workloads import BOUNDS, FAMILIES, MODELS, POPULARITY
from repro import CachePolicy, WebBase, WebBaseConfig, build_world
from repro.domains import HARDWARE, JOBS
from repro.relational.relation import Relation
from repro.sites.world import mutate_site_listings
from tests.conftest import derive_seeds
from tests.reference_subsume import reference_subsume

MAKES = ("ford", "honda")
#: ``cluster_mixed``'s families.
CLUSTER_FAMILIES = ("rate", "safety", "bb", "price", "zip")
#: Queries beside the families' own: ``IN`` lists, ``!=`` exclusions, an
#: ``IN`` that ``!=`` narrows to one value, a contradiction, a projection.
EXTRAS = (
    "SELECT make, model, price WHERE make = '{make}' AND model IN ({models})",
    "SELECT make, model, price WHERE make = '{make}' AND model != '{model}'",
    "SELECT make, model, price WHERE make = '{make}' AND model IN ({models}) "
    "AND model != '{model}' AND price < {bound}",
    "SELECT make, model, price WHERE make IN ('{make}', 'saab') AND make != 'saab'",
    "SELECT make, model, year, price, safety WHERE make = '{make}' "
    "AND year IN (1995, 1996, 1997) AND year != 1996",
    "SELECT make, model, year, price, safety WHERE make = '{make}' "
    "AND year IN (1995, 1996) AND year != 1996",
    "SELECT make, model, price WHERE make = '{make}' AND make = 'saab'",
    "SELECT make, model WHERE make = '{make}' AND price < {bound}",
)
#: Hosts the stream edits; every family reads at least one.
HOSTS = ("www.newsday.com", "www.autoweb.com", "www.carpoint.com")
EVENTS = ("auto", "bump", "repersist", "restart", "compact")
STEPS = 180
THREADS = 8


def _draw_query(rng: random.Random) -> str:
    """A query over few bases, so that most are contained in a gold answer
    once its base has been asked, as on ``cluster_mixed``."""
    make = rng.choice(MAKES)
    model = rng.choice(MODELS[make])
    bound = rng.choice(BOUNDS["price"][1])
    if rng.random() < 0.2:
        models = ", ".join("'%s'" % name for name in MODELS[make][:2] + ("x",))
        return rng.choice(EXTRAS).format(
            make=make, model=MODELS[make][0], models=models, bound=bound
        )
    family = FAMILIES[rng.choice(CLUSTER_FAMILIES)]
    text = family.template.format(make=make, model=model)
    if family.bounds and rng.random() < 0.6:
        attr = rng.choice(family.bounds)
        comparison, values = BOUNDS[attr]
        text += " AND %s %s %d" % (attr, comparison, rng.choice(values))
    return text


def _outcome(webbase: WebBase, text: str):
    """The rows ``webbase`` answers, or the error it raises."""
    try:
        return webbase.query(text).rows
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc).__name__


@contextmanager
def _store_hears_late(webbase: WebBase):
    """Hold the store's revision notices until the block ends: the live
    authority moves at once, the store hears after."""
    subscribers = webbase.revisions._on_advance
    heard = webbase.store.record_revision
    position = subscribers.index(heard)
    held: list[tuple[str, int]] = []
    subscribers[position] = lambda host, revision: held.append((host, revision))
    try:
        yield
    finally:
        subscribers[position] = heard
        for host, revision in held:
            heard(host, revision)


class Arm:
    """One MQO webbase over a store, and a cache-off webbase over the same
    world that evaluates every query from the sites."""

    def __init__(self, store_dir: str, world=None, domain=None) -> None:
        self.domain = domain
        self.world = world or build_world()
        self.config = WebBaseConfig(
            cache=CachePolicy.lru(), store_dir=store_dir, mqo=True
        )
        self.hits = self.contained = self.restarts = self.compactions = 0
        self.webbase = self._assemble(self.config)
        self._fresh()

    def _assemble(self, config: WebBaseConfig) -> WebBase:
        if self.domain is None:
            return WebBase(self.world, config)
        return WebBase(self.world, config, self.domain)

    def _fresh(self) -> None:
        self.control = self._assemble(WebBaseConfig())
        self.expected: dict[str, object] = {}

    def step(self, text: str, where: str) -> None:
        """Ask ``text`` of the MQO webbase: hit or miss as the reference
        scan decides, a hit's rows as the reference's, and the rows as
        the cache-off webbase's."""
        webbase = self.webbase
        reference = reference_subsume(webbase, text)
        ctx = webbase.execution_context()
        try:
            got = webbase.query(text, context=ctx).rows
        except Exception as exc:  # noqa: BLE001 - compared, not hidden
            got = type(exc).__name__
        hit = bool(ctx.subsumed_by)
        assert hit == (reference is not None), "%s: %s hit=%s" % (where, text, hit)
        if hit:
            self.hits += 1
            self.contained += ctx.subsumed_by != text
            assert got == reference[1].rows, "%s: %s" % (where, text)
        if text not in self.expected:
            self.expected[text] = _outcome(self.control, text)
        assert got == self.expected[text], "%s: %s" % (where, text)

    def event(self, kind: str, rng: random.Random, next_text: str, where: str) -> None:
        webbase = self.webbase
        if kind in ("auto", "bump"):
            host = rng.choice(HOSTS)
            with _store_hears_late(webbase):
                if kind == "auto":
                    make = rng.choice(MAKES)
                    mutate_site_listings(
                        self.world, host, make=make, model=MODELS[make][0],
                        count=2, seed=rng.randrange(1 << 20), change="auto",
                    )  # fmt: skip
                    webbase.run_maintenance()
                    self._fresh()
                else:
                    webbase.cache.bump_revision(host)
                self.step(next_text, where + " (store not told yet)")
        elif kind == "repersist":
            # A base query's gold goes stale and is written again; a
            # narrowed variant must then be served from the new answer.
            make = rng.choice(MAKES)
            base = FAMILIES[rng.choice(("price", "safety", "zip"))].template.format(
                make=make
            )
            self.step(base, where + " (repersist: first)")
            record = webbase.store.answer(base)
            webbase.cache.bump_revision(sorted(record["revisions"])[0])
            self.step(base, where + " (repersist: again)")
            assert webbase.store.answer(base) is not record
            self.step(next_text, where + " (repersist: next)")
            self.step(base + " AND price < 9000", where + " (repersist: narrowed)")
        elif kind == "restart":
            self.compactions += webbase.store.compactions
            webbase.store.close()
            self.webbase = self._assemble(self.config)
            self.restarts += 1
        elif kind == "compact":
            webbase.store.compact()
        else:  # pragma: no cover - the stream draws only the kinds above
            raise ValueError(kind)

    def close(self) -> None:
        self.compactions += self.webbase.store.compactions
        self.webbase.store.close()


def test_the_index_serves_what_the_scan_serves(tmp_path, monkeypatch):
    (seed,) = derive_seeds("subsume-index", 1)
    rng = random.Random(seed)
    monkeypatch.setattr(tiered, "COMPACT_FLOOR_BYTES", 1 << 16)
    arm = Arm(str(tmp_path / "store"))
    try:
        for step in range(STEPS):
            where = "step %d" % step
            if step % 6 == 5:
                arm.event(rng.choice(EVENTS), rng, _draw_query(rng), where)
            else:
                arm.step(_draw_query(rng), where)
    finally:
        arm.close()
    assert arm.hits > STEPS // 10, "the stream was hardly ever subsumed"
    assert arm.contained, "no query was served from another query's answer"
    assert arm.restarts and arm.compactions, "no restart or no compaction ran"


@pytest.mark.parametrize(
    "domain, seed, ads, base, narrowed",
    [
        (
            HARDWARE, 1998, 50,
            "SELECT brand, model, price, rating WHERE category = 'laptop'",
            (
                "SELECT brand, model, price, rating WHERE category = 'laptop' "
                "AND price < 2500 AND rating >= 4",
                "SELECT brand, model WHERE category = 'laptop' AND rating > 3",
                "SELECT brand, model, price, rating WHERE category = 'desktop'",
            ),
        ),
        (
            JOBS, 2026, 60,
            "SELECT title, city, company, salary WHERE title = 'dba'",
            (
                "SELECT title, city, company, salary WHERE title = 'dba' "
                "AND salary >= 90000",
                "SELECT title, company WHERE title = 'dba' AND city != 'boston'",
                "SELECT title, city, company, salary WHERE title = 'dba' "
                "AND title = 'nurse'",
            ),
        ),
    ],
    ids=["hardware", "jobs"],
)  # fmt: skip
def test_other_domains_agree_with_the_scan(tmp_path, domain, seed, ads, base, narrowed):
    arm = Arm(str(tmp_path / "store"), domain.build_world(seed, ads), domain)
    try:
        for text in (*narrowed, base, *narrowed):
            arm.step(text, "before restart")
        arm.event("restart", random.Random(seed), "", "restart")
        for text in narrowed:
            arm.step(text, "after restart")
    finally:
        arm.close()
    assert arm.hits >= len(narrowed)


def test_eight_threads_agree_with_the_scan(tmp_path):
    """Eight threads ask drawn queries of one MQO webbase while a ninth
    bumps revisions and compacts: every answer equals a cache-off
    evaluation of that phase, and once the threads stop, the index agrees
    with the scan on every query asked."""
    (seed,) = derive_seeds("subsume-index:threads", 1)
    rng = random.Random(seed)
    arm = Arm(str(tmp_path / "store"))
    webbase = arm.webbase
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for phase in range(3):
            if phase:
                host = rng.choice(HOSTS)
                mutate_site_listings(arm.world, host, count=2, seed=phase, change="auto")
                webbase.run_maintenance()
                arm._fresh()
            streams = [[_draw_query(rng) for _ in range(10)] for _ in range(THREADS)]
            asked = sorted({text for stream in streams for text in stream})
            for text in asked:
                arm.expected[text] = _outcome(arm.control, text)
            bumps = [rng.choice(HOSTS) for _ in range(4)]
            barrier = threading.Barrier(THREADS + 1)
            wrong: list[str] = []
            errors: list[BaseException] = []

            def drive(stream: list[str]) -> None:
                try:
                    barrier.wait()
                    for text in stream:
                        if _outcome(webbase, text) != arm.expected[text]:
                            wrong.append(text)
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            def sweep() -> None:
                try:
                    barrier.wait()
                    for host in bumps:
                        webbase.cache.bump_revision(host)
                        webbase.store.compact()
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=drive, args=(s,), daemon=True) for s in streams]
            threads.append(threading.Thread(target=sweep, daemon=True))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads), "a thread hung"
            assert not errors, "phase %d raised: %r" % (phase, errors[:1])
            assert not wrong, "phase %d: wrong answers for %s" % (phase, sorted(set(wrong)))
            for text in asked:
                indexed = webbase.mqo.subsume(text)
                reference = reference_subsume(webbase, text)
                assert (indexed is None) == (reference is None), "phase %d: %s" % (phase, text)
                if indexed is not None:
                    assert indexed[1].rows == reference[1].rows, text
    finally:
        sys.setswitchinterval(switch)
        arm.close()
    assert webbase.metrics.value("mqo.subsumed") > 0


# -- the cost of one lookup ------------------------------------------------------

BASE = "SELECT make, model, price WHERE make = 'ford'"
NARROW = "SELECT make, model, price WHERE make = 'ford' AND price < 9000"


def _other_gold(count: int) -> list[str]:
    """``count`` query texts of other makes and families than ``BASE``'s."""
    texts = []
    for bound in range(5000, 40000, 50):
        for make in POPULARITY[1:]:
            for name in ("safety", "bb", "price", "zip"):  # the price-bounded
                family = FAMILIES[name]
                text = family.template.format(make=make, model=MODELS[make][0])
                texts.append("%s AND price < %d" % (text, bound))
                if len(texts) == count:
                    return texts
    raise AssertionError("not enough texts")


def _gold_of(tmp_path, others: int) -> WebBase:
    """A webbase whose gold holds ``BASE``'s answer and ``others`` more."""
    webbase = WebBase(
        build_world(),
        WebBaseConfig(cache=CachePolicy.lru(), store_dir=str(tmp_path / "store"), mqo=True),
    )
    webbase.query(BASE)
    for text in _other_gold(others):
        ctx = webbase.execution_context()
        outputs = [name.strip() for name in text[7 : text.index(" WHERE")].split(",")]
        assert webbase.persist_gold(text, Relation(outputs, []), ctx)
    assert len(webbase.store.answers()) == others + 1
    return webbase


def _counted_lookup(webbase: WebBase, monkeypatch, text: str):
    """``subsume(text)`` and the containment calls it made; listing the
    store's current answers fails it."""
    calls = {"parse_query": 0, "decompose": 0, "entails": 0}
    for name in calls:
        real = getattr(optimizer, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(optimizer, name, counted)

    def listed():
        raise AssertionError("subsume listed the store's current answers")

    monkeypatch.setattr(webbase.store, "current_answers", listed)
    return webbase.mqo.subsume(text), calls


@pytest.mark.parametrize("others", [10, 500])
def test_one_lookup_does_the_same_work_at_any_size_of_gold(tmp_path, monkeypatch, others):
    """One ``subsume`` of a narrowed query parses once, decomposes once and
    checks one containment, whether gold holds 10 or 500 answers of other
    makes and families, and never lists the store's current answers."""
    webbase = _gold_of(tmp_path, others)
    try:
        served, calls = _counted_lookup(webbase, monkeypatch, NARROW)
    finally:
        webbase.store.close()
    assert served is not None and served[0] == BASE
    assert calls == {"parse_query": 1, "decompose": 1, "entails": 1}


@pytest.mark.parametrize("others", [10, 500])
def test_a_lookup_after_a_compaction_parses_only_its_query(tmp_path, monkeypatch, others):
    """A compaction keeps every surviving gold record as the same object,
    so the index drops what the compaction dropped and re-parses nothing:
    the first lookup after it still makes one ``parse_query`` call."""
    webbase = _gold_of(tmp_path, others)
    try:
        webbase.store.compact()
        served, calls = _counted_lookup(webbase, monkeypatch, NARROW)
    finally:
        webbase.store.close()
    assert served is not None and served[0] == BASE
    assert calls == {"parse_query": 1, "decompose": 1, "entails": 1}
