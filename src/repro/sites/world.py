"""Assembles the full simulated Web: one server hosting every site.

``build_world`` is the single entry point the examples, tests and
benchmarks use to stand up the paper's evaluation environment.  Per-site
latency models are seeded deterministically so the timing table varies by
site (as the paper's does) but is reproducible.
"""

from __future__ import annotations

import random

from repro.sites import (
    caranddriver,
    carfinance,
    dealers,
    extra,
    kellys,
    newsday,
    nytimes,
    usedcarmart,
)
from repro.sites.base import CarSite
from repro.sites.dataset import Ad, Car, FEATURE_POOL, NY_ZIPCODES, generate
from repro.web.clock import LatencyModel
from repro.web.server import Site, WebServer, World

# The ten sites of the paper's Section 7 timing table, plus the two
# non-classified sources (blue book, reliability, finance) from Table 1.
TIMING_TABLE_HOSTS = [
    "www.autoweb.com",
    "www.wwwheels.com",
    "www.nytimes.com",
    "www.carreviews.com",
    "www.nydailynews.com",
    "www.caranddriver.com",
    "www.autoconnect.com",
    "www.newsday.com",
    "cars.yahoo.com",
    "www.kbb.com",
]


def mutate_site_listings(
    world: World,
    host: str,
    make: str = "ford",
    model: str = "escort",
    count: int = 3,
    seed: int = 0,
    change: str = "auto",
) -> list[Ad]:
    """Churn one live site between queries (the dynamic-content hazard).

    Posts ``count`` new classified ads for ``make model`` on ``host`` —
    so query answers genuinely change — and applies one *structural* edit
    the maintenance machinery can detect on its next sweep:

    * ``change="auto"``   — the search form's make list gains an option
      (``domain_value_added``, absorbed by ``apply_auto_changes``; the
      cache invalidates the host via a revision bump);
    * ``change="manual"`` — the search form grows a brand-new text
      attribute (``new_form_attribute``; the cache quarantines the host
      until a designer re-demonstrates the flow).

    Returns the ads added.  Deterministic for a given ``seed``.
    """
    site = world.site(host)
    if not isinstance(site, CarSite):
        raise ValueError("host %r is not a mutable classified/dealer site" % host)
    rng = random.Random("%s:mutate:%s:%s" % (seed, host, change))
    added: list[Ad] = []
    for _ in range(count):
        car = Car(make=make, model=model, year=rng.choice(range(1993, 2000)))
        added.append(
            world.dataset.add_ad(
                Ad(
                    ad_id=world.dataset.next_ad_id(),
                    host=host,
                    car=car,
                    price=int(round(rng.uniform(4000, 9000), -1)),
                    contact="New Seller %d" % rng.randint(100, 999),
                    zipcode=rng.choice(NY_ZIPCODES),
                    features=tuple(sorted(rng.sample(FEATURE_POOL, 2))),
                    picture="/pics/new%d.jpg" % rng.randint(1, 99),
                    condition=rng.choice(["excellent", "good"]),
                )
            )
        )
    if change == "auto":
        # Every call must produce a *fresh* structural divergence, or a
        # second mutation would be invisible to the map diff and the cache
        # would serve the pre-change answers: new select option when the
        # form has one, otherwise a new (auto-classified) entry-page link.
        if site.config.make_widget == "select":
            site.extra_makes.append("newmake%d" % (len(site.extra_makes) + 1))
        else:
            idx = len(site.config.extra_entry_links) + 1
            path = "/specials%d" % idx
            site.config.extra_entry_links.append(("Specials %d" % idx, path))
            site.route(path, site.dead_end_page)
    elif change == "manual":
        field = "extra%d" % (len(site.extra_search_widgets) + 1)
        site.extra_search_widgets.append(("Extra %s" % field, field))
    else:
        raise ValueError("change must be 'auto' or 'manual'; got %r" % change)
    return added


def build_world(seed: int = 1999, ads_per_host: int = 120) -> World:
    """Build the dataset and register every simulated site on one server."""
    dataset = generate(seed=seed, ads_per_host=ads_per_host)
    server = WebServer()
    sites: list[Site] = [
        newsday.build(dataset),
        nytimes.build(dataset),
        dealers.build_carpoint(dataset),
        dealers.build_autoweb(dataset),
        kellys.build(dataset),
        caranddriver.build(dataset),
        carfinance.build(dataset),
        extra.build_wwwheels(dataset),
        extra.build_carreviews(dataset),
        extra.build_nydailynews(dataset),
        extra.build_autoconnect(dataset),
        extra.build_yahoocars(dataset),
        usedcarmart.build(dataset),
    ]
    for site in sites:
        # Deterministic per-host network characteristics: distant sites have
        # larger round trips, so the elapsed column varies by site.
        roll = random.Random("%s:latency:%s" % (seed, site.host))
        site.latency = LatencyModel(
            rtt=round(roll.uniform(0.2, 0.8), 3),
            per_kilobyte=round(roll.uniform(0.008, 0.02), 4),
        )
        server.add_site(site)
    return World(server=server, dataset=dataset)
