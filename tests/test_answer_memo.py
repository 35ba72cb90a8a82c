"""The answer memo, judged against a twin that never remembers.

``StructuredUR._evaluate_object`` remembers a maximal object's answer on
the result-cache entries its run read, and serves it again while the
cache can replay every one of those reads.  The claim: a memo hit is
indistinguishable from re-running the object — the same rows, and the
same movement of every cache-layer counter.

Each test drives two webbases, each over its own world, through one
seeded stream (``REPRO_TEST_SEED``) of queries and events: the memo arm
as shipped, and a twin whose memo cap is patched to 0 whenever it runs.
The events are what can make a remembered answer wrong: LRU eviction at
a small ``max_entries``, TTL expiry on an injected clock, auto and manual
site changes with a maintenance sweep, lifting a quarantine without
evicting, bumping one host's revision, MQO's shared evaluation, and a
warm restart from the store.  After every query both arms must agree on
rows, on the result-frame ``cache_hits`` and on the cache counters below;
and the memo arm must really have served some objects from the memo.
"""

from __future__ import annotations

import random
import sys
import threading
from contextlib import contextmanager

import pytest

from bench.workloads import MODELS
import repro.ur.planner as planner
from repro import CachePolicy, WebBase, WebBaseConfig, build_world
from repro.domains import HARDWARE
from repro.domains.hardware import REVIEWS_HOST as HARDWARE_REVIEWS
from repro.domains.hardware import VENDORS as HARDWARE_VENDORS
from repro.sites.world import mutate_site_listings
from tests.conftest import derive_seeds

#: ``ford``: the listings ``mutate_site_listings`` adds are ford escorts.
MAKES = ("ford", "honda")
TEMPLATES = (
    "SELECT make, model, price WHERE make = '{make}' AND price < {bound}",
    "SELECT make, model, year, price, safety WHERE make = '{make}' AND year >= {year}",
    "SELECT make, model, rate WHERE make = '{make}' AND duration = 36",
)
#: Hosts the stream edits; each serves listings the queries above read.
HOSTS = ("www.newsday.com", "www.autoweb.com")
COUNTERS = (
    "cache.requests",
    "cache.hits",
    "cache.misses",
    "cache.invalidations",
    "cache.expirations",
    "cache.stale_serves",
    "store.warm_hits",
)
TTL_SECONDS = 30.0


#: A small pool, so objects repeat, and objects that differ only in their
#: threshold read the same cache entries.
QUERIES = sorted(
    {
        template.format(make=make, bound=bound, year=year)
        for template in TEMPLATES
        for make in MAKES
        for bound, year in ((9000, 1994), (15000, 1996))
    }
)


class Arm:
    """One webbase over its own world, with an injected cache clock."""

    def __init__(self, config: WebBaseConfig, memo: bool) -> None:
        self.config = config
        self.memo = memo
        self.now = [0.0]
        self.world = build_world()
        self.memo_hits = 0
        self.warm_replays = 0  # queries the memo served whole, warm hits among them
        self._assemble()

    def _assemble(self) -> None:
        self.webbase = WebBase(self.world, self.config)
        self.webbase.cache._clock = lambda: self.now[0]

    @contextmanager
    def _running(self, monkeypatch):
        with monkeypatch.context() as patch:
            if not self.memo:
                patch.setattr(planner, "ANSWER_MEMO_ENTRIES", 0)
            yield

    def query(self, text: str, monkeypatch) -> tuple:
        warm_hits = self.webbase.metrics.value("store.warm_hits")
        with self._running(monkeypatch):
            ctx = self.webbase.execution_context()
            rows = self.webbase.query(text, context=ctx).rows
        objects = ctx.root.spans("object")
        hits = sum(1 for span in objects if span.attrs.get("memo") == "hit")
        self.memo_hits += hits
        if hits == len(objects) and self.webbase.metrics.value("store.warm_hits") > warm_hits:
            self.warm_replays += 1
        frame_hits = sum(1 for span in ctx.root.spans("fetch") if span.cache in ("hit", "stale"))
        cache = self.webbase.cache
        value = self.webbase.metrics.value
        return (
            rows,
            frame_hits,
            cache.hits,
            cache.misses,
            tuple(value(name) for name in COUNTERS),
        )

    def event(self, kind: str, host: str, step: int) -> None:
        webbase = self.webbase
        if kind == "tick":
            self.now[0] += TTL_SECONDS / 2
        elif kind in ("auto", "manual"):
            mutate_site_listings(self.world, host, count=2, seed=step, change=kind)
            webbase.run_maintenance()
        elif kind == "lift":
            webbase.cache.clear_quarantine(host, evict=False)
        elif kind == "bump":
            webbase.cache.bump_revision(host)
        elif kind == "restart":
            webbase.store.close()
            self._assemble()
        else:  # pragma: no cover - the stream draws only the kinds above
            raise ValueError(kind)


def _run_stream(config, stream: str, events: tuple[str, ...], monkeypatch) -> Arm:
    """Drive both arms (``config(arm)`` gives each its config) through
    one drawn stream; returns the memo arm."""
    (seed,) = derive_seeds(stream, 1)
    rng = random.Random(seed)
    memo, twin = Arm(config("memo"), memo=True), Arm(config("twin"), memo=False)
    try:
        for step in range(120):
            if step % 4 == 3:
                kind, host = rng.choice(events), rng.choice(HOSTS)
                memo.event(kind, host, step)
                twin.event(kind, host, step)
                continue
            text = rng.choice(QUERIES)
            seen = memo.query(text, monkeypatch)
            assert seen == twin.query(text, monkeypatch), "step %d: %s" % (step, text)
    finally:
        for arm in (memo, twin):
            if arm.webbase.store is not None:
                arm.webbase.store.close()
    assert twin.memo_hits == 0
    assert memo.memo_hits > 0, "the stream never served an object from the memo"
    return memo


@pytest.mark.parametrize("stale_mode, mqo", [("refetch", False), ("serve_stale", True)])
def test_a_memo_hit_moves_what_a_re_evaluation_moves(stale_mode, mqo, monkeypatch):
    """Eviction, expiry, site changes under both stale modes, a lifted
    quarantine and a revision bump; with MQO on too."""
    policy = CachePolicy.lru(max_entries=48, ttl_seconds=TTL_SECONDS, stale_mode=stale_mode)
    _run_stream(
        lambda arm: WebBaseConfig(cache=policy, mqo=mqo),
        "answer-memo:%s" % stale_mode,
        ("tick", "auto", "manual", "lift", "bump"),
        monkeypatch,
    )


def test_entries_warmed_by_a_restart_replay_as_warm_hits(tmp_path, monkeypatch):
    """A warm restart assembles a new webbase over the store: what it
    warmed is read, and a memo hit on it counts ``store.warm_hits``."""
    policy = CachePolicy.lru(max_entries=48, ttl_seconds=TTL_SECONDS)
    memo = _run_stream(
        lambda arm: WebBaseConfig(cache=policy, store_dir=str(tmp_path / arm)),
        "answer-memo:restart",
        ("restart", "auto", "tick", "restart"),
        monkeypatch,
    )
    assert memo.warm_replays > 0, "no memo hit replayed an entry warmed from the store"


THREADS = 8


def test_eight_threads_share_the_memo_and_every_answer_is_right():
    """Eight threads query one LRU webbase through seeded streams while a
    ninth runs maintenance sweeps and revision bumps among them, with a
    site change between phases: every answer equals a cache-off
    evaluation over the same world in that phase, and some objects were
    served from the memo.  A short switch interval makes the threads
    interleave between a memo lookup and its replay."""
    (seed,) = derive_seeds("answer-memo:threads", 1)
    rng = random.Random(seed)
    world = build_world()
    webbase = WebBase(world, WebBaseConfig(cache=CachePolicy.lru(max_entries=64)))
    reference = WebBase(world, WebBaseConfig())
    memo_hits: list[int] = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for phase in range(3):
            if phase:
                host = rng.choice(HOSTS)
                mutate_site_listings(world, host, count=2, seed=phase, change="auto")
                webbase.run_maintenance()
            expected = {text: reference.query(text).rows for text in QUERIES}
            streams = [[rng.choice(QUERIES) for _ in range(12)] for _ in range(THREADS)]
            bumps = [rng.choice(HOSTS) for _ in range(6)]
            barrier = threading.Barrier(THREADS + 1)
            wrong: list[str] = []
            errors: list[BaseException] = []

            def drive(stream: list[str]) -> None:
                try:
                    barrier.wait()
                    for text in stream:
                        ctx = webbase.execution_context()
                        if webbase.query(text, context=ctx).rows != expected[text]:
                            wrong.append(text)
                        memo_hits.append(
                            sum(1 for s in ctx.root.spans("object") if s.attrs.get("memo"))
                        )
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            def sweep() -> None:
                try:
                    barrier.wait()
                    for host in bumps:
                        webbase.run_maintenance()
                        webbase.cache.bump_revision(host)
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
    finally:
        sys.setswitchinterval(switch)
    assert sum(memo_hits) > 0, "no thread was served from the memo"


def test_the_memo_holds_no_more_answers_than_its_cache_holds_entries():
    """An answer is only ever replayed from entries the cache still holds,
    so a small LRU caps the memo at its own size: a seeded stream of
    queries with many distinct constants leaves at most 32 answers on an
    LRU of 32 entries."""
    (seed,) = derive_seeds("answer-memo:bounded", 1)
    rng = random.Random(seed)
    webbase = WebBase(build_world(), WebBaseConfig(cache=CachePolicy.lru(max_entries=32)))
    keys = set()
    for _ in range(60):
        text = rng.choice(TEMPLATES).format(
            make=rng.choice(MAKES), bound=rng.randrange(5000, 20000), year=rng.randrange(1990, 1999)
        )
        webbase.query(text)
        keys.update(webbase.ur._memo)
        assert len(webbase.ur._memo) <= 32
    assert len(keys) > 32, "the stream never offered the memo more than 32 answers"


def test_an_answer_whose_replay_fails_is_forgotten():
    """A quarantined host's entries cannot replay, and a run that reads
    around them is not remembered: the answers that read the host leave
    the memo instead of lingering, and the others stay."""
    webbase = WebBase(build_world(), WebBaseConfig(cache=CachePolicy.lru()))
    text = QUERIES[0]
    webbase.query(text)
    memo = webbase.ur._memo
    read_host = {key for key, (_, reads) in memo.items() if any(h == HOSTS[0] for _, h, _ in reads)}
    assert read_host and set(memo) - read_host
    webbase.cache.quarantine(HOSTS[0])
    webbase.query(text)
    assert not read_host & set(memo)
    assert set(memo) - read_host


# -- contained serves ----------------------------------------------------------------
#
# An object that misses the memo is served from its *core* — the same
# object without the query's residual comparisons (``attr op constant`` on
# an output, ``op`` not ``=``) — filtered by them, when the core's answer
# replays.  Such a serve moves the core's reads, which can be more than
# the query's own run takes, so these streams judge rows only.

#: (base query, variants whose extra conjuncts are residual, variants that
#: must evaluate).  ``{n}`` / ``{m}`` are drawn prices, ``{y}`` a drawn year.
CONTAINED_POOL = (
    (
        "SELECT make, model, price WHERE make = '{make}'",
        (
            "SELECT make, model, price WHERE make = '{make}' AND price < {n}",
            "SELECT make, model, price WHERE price >= {m} AND make = '{make}'",
            "SELECT make, model, price WHERE make = '{make}' AND price != {n} AND price > {m}",
        ),
        (),
    ),
    (
        "SELECT make, model, year, price, safety WHERE make = '{make}'",
        (
            "SELECT make, model, year, price, safety WHERE make = '{make}' AND year >= {y}",
            "SELECT make, model, year, price, safety WHERE make = '{make}' "
            "AND year > {y} AND price <= {n}",
        ),
        (),
    ),
    (
        "SELECT make, model, price, bb_price WHERE make = '{make}' "
        "AND condition = 'good' AND price < bb_price",
        (
            "SELECT make, model, price, bb_price WHERE make = '{make}' "
            "AND condition = 'good' AND price < bb_price AND price < {n}",
        ),
        (),
    ),
    (
        "SELECT model, price WHERE make = '{make}'",
        ("SELECT model, price WHERE make = '{make}' AND price <= {n}",),
        # An equality binds a source, even on an output.
        ("SELECT model, price WHERE make = '{make}' AND model = '{model}'",),
    ),
    (
        "SELECT make, model WHERE make = '{make}'",
        (),
        # ``price`` is no output.
        ("SELECT make, model WHERE make = '{make}' AND price < {n}",),
    ),
)
HARDWARE_POOL = (
    (
        "SELECT brand, model, price, rating WHERE category = '{make}'",
        (
            "SELECT brand, model, price, rating WHERE category = '{make}' AND price < {n}",
            "SELECT brand, model, price, rating WHERE rating >= {y} AND category = '{make}'",
            "SELECT brand, model, price, rating WHERE category = '{make}' "
            "AND price <= {n} AND rating > {y}",
        ),
        (),
    ),
    (
        "SELECT brand, model WHERE category = '{make}'",
        (),
        # ``price`` is no output.
        ("SELECT brand, model WHERE category = '{make}' AND price < {n}",),
    ),
)
HARDWARE_HOSTS = (min(HARDWARE_VENDORS), HARDWARE_REVIEWS)


def _draw(rng: random.Random, pool, make: str, **constants) -> list[tuple[str, bool]]:
    """A round of (query, whether it must evaluate): one base query's
    variants, two of them, after the base itself one round in two."""
    base, residual, evaluating = rng.choice(pool)
    variants = [(text, False) for text in residual] + [(text, True) for text in evaluating]
    texts = [(base, False)] if rng.random() < 1 / 2 else []
    texts += [rng.choice(variants) for _ in range(2)]
    return [(text.format(make=make, **constants), evaluates) for text, evaluates in texts]


def _draw_cars(rng: random.Random) -> list[tuple[str, bool]]:
    """Drawn constants: most variants are new texts."""
    make = rng.choice(MAKES)
    n = rng.randrange(5000, 20000, 250)
    return _draw(
        rng,
        CONTAINED_POOL,
        make,
        model=rng.choice(MODELS[make]),
        n=n,
        m=n - rng.randrange(500, 4000, 250),
        y=rng.randrange(1991, 1999),
    )


def _draw_hardware(rng: random.Random) -> list[tuple[str, bool]]:
    make = rng.choice(("laptop", "desktop"))
    return _draw(rng, HARDWARE_POOL, make, n=rng.randrange(500, 3000, 50), y=rng.randrange(1, 5))


class HardwareArm(Arm):
    """An arm over the hardware domain's world."""

    def __init__(self, config: WebBaseConfig, memo: bool) -> None:
        self.config, self.memo, self.now = config, memo, [0.0]
        self.world = HARDWARE.build_world(1998, 50)
        self.memo_hits = self.warm_replays = 0
        self._assemble()

    def _assemble(self) -> None:
        self.webbase = WebBase(self.world, self.config, HARDWARE)
        self.webbase.cache._clock = lambda: self.now[0]


def _served(arm: Arm, text: str, monkeypatch) -> tuple[list, tuple]:
    """(each object span's ``memo`` tag, the rows) of ``text`` on ``arm``."""
    with arm._running(monkeypatch):
        ctx = arm.webbase.execution_context()
        rows = arm.webbase.query(text, context=ctx).rows
    return [span.attrs.get("memo") for span in ctx.root.spans("object")], rows


def _run_contained(config, stream, events, monkeypatch, arm=Arm, draw=_draw_cars, hosts=HOSTS):
    """Drive a memo arm and its memo-off twin through one drawn stream of
    base queries, their threshold variants and ``events``: equal rows
    after every query, some objects served ``memo=contained``, and none
    whose query adds no residual comparison to a base query."""
    (seed,) = derive_seeds(stream, 1)
    rng = random.Random(seed)
    memo, twin = arm(config("memo"), memo=True), arm(config("twin"), memo=False)
    contained = 0
    try:
        for step in range(80):
            if step % 4 == 3:
                kind, host = rng.choice(events), rng.choice(hosts)
                memo.event(kind, host, step)
                twin.event(kind, host, step)
                continue
            for text, evaluates in draw(rng):
                tags, rows = _served(memo, text, monkeypatch)
                twin_tags, twin_rows = _served(twin, text, monkeypatch)
                assert rows == twin_rows, "step %d: %s" % (step, text)
                assert not any(twin_tags)
                assert not (evaluates and "contained" in tags), "step %d: %s" % (step, text)
                contained += tags.count("contained")
    finally:
        for each in (memo, twin):
            if each.webbase.store is not None:
                each.webbase.store.close()
    assert contained, "the stream never served an object from its core"


@pytest.mark.parametrize("stale_mode, mqo", [("refetch", False), ("serve_stale", True)])
def test_a_contained_serve_answers_what_an_evaluation_answers(stale_mode, mqo, monkeypatch):
    """Eviction, expiry, site changes under both stale modes, a lifted
    quarantine and a revision bump; with MQO on too."""
    policy = CachePolicy.lru(max_entries=48, ttl_seconds=TTL_SECONDS, stale_mode=stale_mode)
    _run_contained(
        lambda arm: WebBaseConfig(cache=policy, mqo=mqo),
        "answer-memo:contained:%s" % stale_mode,
        ("tick", "auto", "manual", "lift", "bump"),
        monkeypatch,
    )


def test_a_contained_serve_after_a_warm_restart(tmp_path, monkeypatch):
    """With a store, so MQO's gold answers subsume some variants first."""
    policy = CachePolicy.lru(max_entries=48, ttl_seconds=TTL_SECONDS)
    _run_contained(
        lambda arm: WebBaseConfig(cache=policy, store_dir=str(tmp_path / arm), mqo=True),
        "answer-memo:contained:restart",
        ("restart", "auto", "tick", "restart"),
        monkeypatch,
    )


def test_a_contained_serve_on_the_hardware_domain(tmp_path, monkeypatch):
    """Hardware sites take no listing changes: eviction, expiry, bumps and
    warm restarts."""
    policy = CachePolicy.lru(max_entries=48, ttl_seconds=TTL_SECONDS)
    _run_contained(
        lambda arm: WebBaseConfig(cache=policy, store_dir=str(tmp_path / arm)),
        "answer-memo:contained:hardware",
        ("tick", "bump", "restart", "lift"),
        monkeypatch,
        arm=HardwareArm,
        draw=_draw_hardware,
        hosts=HARDWARE_HOSTS,
    )


def test_eight_threads_serve_contained_answers_that_are_right():
    """Eight threads ask base queries and drawn threshold variants of one
    LRU webbase while a ninth runs sweeps and revision bumps among them,
    with a site change between phases: every answer equals a cache-off
    evaluation over the same world in that phase, and some objects were
    served from their core."""
    (seed,) = derive_seeds("answer-memo:contained:threads", 1)
    rng = random.Random(seed)
    world = build_world()
    webbase = WebBase(world, WebBaseConfig(cache=CachePolicy.lru(max_entries=64)))
    reference = WebBase(world, WebBaseConfig())
    contained: list[int] = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for phase in range(3):
            if phase:
                host = rng.choice(HOSTS)
                mutate_site_listings(world, host, count=2, seed=phase, change="auto")
                webbase.run_maintenance()
            streams = [
                [text for _ in range(5) for text, _evaluates in _draw_cars(rng)]
                for _ in range(THREADS)
            ]
            expected = {text: reference.query(text).rows for text in sum(streams, [])}
            bumps = [rng.choice(HOSTS) for _ in range(6)]
            barrier = threading.Barrier(THREADS + 1)
            wrong: list[str] = []
            errors: list[BaseException] = []

            def drive(stream: list[str]) -> None:
                try:
                    barrier.wait()
                    for text in stream:
                        ctx = webbase.execution_context()
                        if webbase.query(text, context=ctx).rows != expected[text]:
                            wrong.append(text)
                        contained.append(
                            sum(s.attrs.get("memo") == "contained" for s in ctx.root.spans("object"))
                        )
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            def sweep() -> None:
                try:
                    barrier.wait()
                    for host in bumps:
                        webbase.run_maintenance()
                        webbase.cache.bump_revision(host)
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
    finally:
        sys.setswitchinterval(switch)
    assert sum(contained) > 0, "no thread was served from a core"
