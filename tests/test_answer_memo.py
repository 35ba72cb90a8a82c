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

import repro.ur.planner as planner
from repro import CachePolicy, WebBase, WebBaseConfig, build_world
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
