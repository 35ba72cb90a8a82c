"""The three-domain matrix: every application domain on the whole engine.

The paper's layers are domain-independent, so ``WebBase(world, config,
domain)`` is the one assembly path and cars, computer equipment and jobs
must all run on it — not just answer a query, but do so under every
stack the engine offers: no cache, the LRU result cache, and LRU over
the tiered store with multi-query optimization, including a warm restart
and an offline ``rebuild`` from the store's own logs.  Each query is
checked against ground truth computed from the world's dataset.
"""

from __future__ import annotations

import pytest

from repro import CachePolicy, WebBase, WebBaseConfig
from repro.domains import CARS, HARDWARE, JOBS
from repro.store.rebuild import rebuild

CAR_AD_HOSTS = (
    "www.newsday.com",
    "www.nytimes.com",
    "www.carpoint.com",
    "www.autoweb.com",
)


def _car_ads(dataset, **where):
    return [ad for host in CAR_AD_HOSTS for ad in dataset.ads_for(host, **where)]


def _hardware_listings(dataset, **where):
    from repro.domains.hardware import PCDIRECT_HOST, WAREHOUSE_HOST

    return [
        listing
        for host in (WAREHOUSE_HOST, PCDIRECT_HOST)
        for listing in dataset.listings_for(host, **where)
    ]


def _job_postings(dataset, title):
    from repro.domains.jobs import CAREER_HOST, MONSTER_HOST

    return [
        posting
        for host in (MONSTER_HOST, CAREER_HOST)
        for posting in dataset.postings_for(host, title)
    ]


def _ratings(dataset):
    return {(r.brand, r.model): r.rating for r in dataset.reviews}


def _medians(dataset):
    return {(m.title, m.city): m.median_salary for m in dataset.medians}


#: domain id -> (domain, world size, {query: ground truth from the dataset}).
DOMAINS = {
    "cars": (
        CARS,
        (1999, 24),
        {
            "SELECT make, model, year, price, contact "
            "WHERE make = 'ford' AND model = 'escort'": lambda d: {
                (a.car.make, a.car.model, a.car.year, a.price, a.contact)
                for a in _car_ads(d, make="ford", model="escort")
            },
            "SELECT make, model, price WHERE make = 'saab' AND price < 9000": lambda d: {
                (a.car.make, a.car.model, a.price)
                for a in _car_ads(d, make="saab")
                if a.price < 9000
            },
        },
    ),
    "hardware": (
        HARDWARE,
        (1998, 50),
        {
            "SELECT brand, model, price, rating "
            "WHERE category = 'laptop' AND price < 2500 AND rating >= 4": lambda d: {
                (l.brand, l.model, l.price, _ratings(d)[(l.brand, l.model)])
                for l in _hardware_listings(d, category="laptop")
                if l.price < 2500 and _ratings(d)[(l.brand, l.model)] >= 4.0
            },
            "SELECT category, brand, model, price "
            "WHERE category = 'printer' AND brand = 'hp'": lambda d: {
                (l.category, l.brand, l.model, l.price)
                for l in _hardware_listings(d, category="printer", brand="hp")
            },
        },
    ),
    "jobs": (
        JOBS,
        (2026, 60),
        {
            "SELECT title, city, company, salary, median_salary "
            "WHERE title = 'software engineer' AND city = 'new york' "
            "AND salary > median_salary": lambda d: {
                (p.title, p.city, p.company, p.salary, _medians(d)[(p.title, p.city)])
                for p in _job_postings(d, "software engineer")
                if p.city == "new york" and p.salary > _medians(d)[(p.title, p.city)]
            },
            "SELECT title, city, company, salary WHERE title = 'dba'": lambda d: {
                (p.title, p.city, p.company, p.salary) for p in _job_postings(d, "dba")
            },
        },
    ),
}


def _config(stack: str, tmp_path) -> WebBaseConfig:
    if stack == "noop":
        return WebBaseConfig()
    if stack == "lru":
        return WebBaseConfig(cache=CachePolicy.lru())
    return WebBaseConfig(
        cache=CachePolicy.lru(), store_dir=str(tmp_path / "store"), mqo=True
    )


@pytest.mark.parametrize("stack", ["noop", "lru", "lru+store+mqo"])
@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_every_domain_runs_on_the_whole_engine(name, stack, tmp_path):
    domain, size, truths = DOMAINS[name]
    config = _config(stack, tmp_path)
    world = domain.build_world(*size)
    webbase = WebBase(world, config, domain)
    try:
        for text, truth in truths.items():
            expected = truth(world.dataset)
            assert expected, "the seeded world must have answers to %r" % text
            ctx = webbase.execution_context()
            assert set(webbase.query(text, context=ctx).rows) == expected, text
            assert not ctx.failures
            # A repeat answers the same, whatever tier serves it.
            assert set(webbase.query(text).rows) == expected, text
        assert webbase.run_maintenance() == {}, "a fresh world's maps must agree"
        text, truth = next(iter(truths.items()))
        report = webbase.explain(text)
        assert report.rows == len(truth(world.dataset))
        assert report.render()
    finally:
        if webbase.store is not None:
            webbase.store.close()
    if config.store_dir is None:
        return

    # Warm restart: a second webbase over the same store answers the
    # repeats from disk — not one live fetch — and still correctly.
    restarted = WebBase(world, config, domain)
    try:
        for text, truth in truths.items():
            assert set(restarted.query(text).rows) == truth(world.dataset), text
        counters = restarted.metrics.snapshot()["counters"]
        assert counters.get("engine.fetches", 0) == 0
        # Offline rebuild: silver re-derives from bronze through the
        # persisted maps, gold from silver through *this domain's* views.
        verdict = rebuild(restarted.store, domain=domain)
        assert verdict.clean, verdict.summary()
        assert verdict.silver_matches > 0 and verdict.gold_matches == len(truths)
        assert not verdict.silver_recovered
    finally:
        restarted.store.close()


def test_a_world_too_large_for_a_direct_branch_still_maps_and_answers():
    """At 400 ads per host no make answers Newsday's first form with a
    data page, so the session's second demonstration goes through the
    refinement form too (it used to die with a bare ``StopIteration``)."""
    webbase = WebBase.create(WebBaseConfig(ads_per_host=400))
    text, truth = next(iter(DOMAINS["cars"][2].items()))
    ctx = webbase.execution_context()
    assert set(webbase.query(text, context=ctx).rows) == truth(webbase.world.dataset)
    assert not ctx.failures


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_a_session_with_nothing_to_mark_names_the_host_and_branch(name):
    """An empty world has no example tuple to point at: the session says
    where it was looking instead of leaking an ``IndexError``."""
    from repro.navigation.navmap import MapError

    domain = DOMAINS[name][0]
    with pytest.raises(MapError, match=r"^\S+: no .+ to mark on the .+ branch"):
        WebBase(domain.build_world(1, 0), domain=domain)
