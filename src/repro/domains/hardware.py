"""The paper's other named application domain: computer equipment.

Section 2 calls out "used car ads, computer equipment, etc." as the
domains external schemas are built for.  This is the computer-equipment
webbase: two mail-order vendors with different vocabularies plus a
hardware-review site, written down as the :data:`HARDWARE` domain value
and run — like cars and jobs — by ``WebBase(world, config, HARDWARE)``.

Flagship query: *laptops under $2,500 with a review rating of 4 or
better* — prices from whichever vendor carries the machine, ratings from
the review site, joined on brand and model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from repro.domains import Domain
from repro.domains.designer import follow_more, mark_table, open_session
from repro.logical.schema import LogicalSchema
from repro.logical.standardize import to_percent, to_usd
from repro.navigation.builder import MapBuilder
from repro.relational.algebra import Base as BaseRel
from repro.relational.algebra import Catalog, Derive, Project, Union, rename
from repro.ur.compat import allows
from repro.ur.concepts import Concept
from repro.web import html as H
from repro.web.http import Request, Url
from repro.web.server import Site, WebServer, World

CATEGORIES = ["laptop", "desktop", "monitor", "printer"]
BRANDS = ["ibm", "compaq", "dell", "apple", "hp"]
MODELS = {
    "ibm": ["tp600", "tp770"],
    "compaq": ["armada", "presario"],
    "dell": ["inspiron", "optiplex"],
    "apple": ["powerbook", "imac"],
    "hp": ["omnibook", "pavilion"],
}

WAREHOUSE_HOST = "www.compuwarehouse.com"
PCDIRECT_HOST = "www.pcdirect.com"
REVIEWS_HOST = "www.hardwarereviews.net"

#: The two vendors: host -> (entry link, VPS relation, the listing columns
#: in the site's own vocabulary — category, brand, model, price).
VENDORS = {
    WAREHOUSE_HOST: (
        "Shop Online",
        "warehouse",
        ["category", "brand", "model", "price"],
    ),
    PCDIRECT_HOST: (
        "Direct Sales",
        "pcdirect",
        ["type", "maker", "model", "our_price"],
    ),
}


@dataclass(frozen=True)
class Listing:
    host: str
    category: str
    brand: str
    model: str
    price: int


@dataclass(frozen=True)
class Review:
    brand: str
    model: str
    rating: float


class HardwareDataset:
    """Vendor listings plus review ratings, seeded."""

    def __init__(self, seed: int = 1998, listings_per_host: int = 50) -> None:
        base_price = {"laptop": 2800, "desktop": 1800, "monitor": 700, "printer": 400}
        self.reviews: list[Review] = []
        for brand in BRANDS:
            for model in MODELS[brand]:
                roll = random.Random("%s:rev:%s:%s" % (seed, brand, model))
                self.reviews.append(
                    Review(brand, model, round(roll.uniform(2.5, 5.0), 1))
                )
        rating_index = {(r.brand, r.model): r.rating for r in self.reviews}

        self.listings: list[Listing] = []
        for host in (WAREHOUSE_HOST, PCDIRECT_HOST):
            rng = random.Random("%s:hw:%s" % (seed, host))
            for i in range(listings_per_host):
                if i < 3:
                    # Guarantee well-reviewed cheap laptops at each vendor.
                    category = "laptop"
                    brand, model = max(
                        ((b, m) for b in BRANDS for m in MODELS[b]),
                        key=lambda bm: rating_index[bm],
                    )
                    price = int(rng.uniform(1800, 2400))
                else:
                    category = rng.choice(CATEGORIES)
                    brand = rng.choice(BRANDS)
                    model = rng.choice(MODELS[brand])
                    price = int(base_price[category] * rng.uniform(0.7, 1.4))
                self.listings.append(
                    Listing(host, category, brand, model, int(round(price, -1)))
                )

    def listings_for(
        self, host: str, category: str | None = None, brand: str | None = None
    ) -> list[Listing]:
        return [
            l
            for l in self.listings
            if l.host == host
            and (category is None or l.category == category)
            and (brand is None or l.brand == brand)
        ]

    def reviews_for(self, brand: str) -> list[Review]:
        return [r for r in self.reviews if r.brand == brand]


class _VendorSite(Site):
    """Shared vendor skeleton; vocabulary injected per store."""

    def __init__(self, host: str, dataset: HardwareDataset) -> None:
        super().__init__(host)
        self.dataset = dataset
        self.link_name, _relation, columns = VENDORS[host]
        self.category_field, self.brand_field = columns[:2]
        self.headers = [column.replace("_", " ").title() for column in columns]
        self.route("/", self.entry)
        self.route("/catalog", self.search)
        self.route("/cgi-bin/stock", self.results)

    def entry(self, request: Request) -> H.Element:
        return H.page(self.host, H.bullet_links([(self.link_name, "/catalog")]))

    def search(self, request: Request) -> H.Element:
        form = H.form(
            "/cgi-bin/stock",
            H.labeled("Category", H.select(self.category_field, CATEGORIES)),
            H.labeled("Brand", H.select(self.brand_field, [""] + BRANDS)),
            H.submit_button("Browse"),
            method="get",
        )
        return H.page("%s Catalog" % self.host, form)

    def results(self, request: Request) -> H.Element:
        params = request.params
        listings = self.dataset.listings_for(
            self.host,
            params.get(self.category_field) or None,
            params.get(self.brand_field) or None,
        )
        start = int(params.get("start", "0") or 0)
        chunk = listings[start : start + 10]
        rows = [
            [l.category, l.brand, l.model, "${:,}".format(l.price)] for l in chunk
        ]
        body = [H.table(self.headers, rows)]
        if start + 10 < len(listings):
            next_params = dict(params)
            next_params["start"] = str(start + 10)
            more = Url(self.host, "/cgi-bin/stock").with_params(next_params)
            body.append(H.el("p", H.link(str(more), "More")))
        return H.page("%s Stock" % self.host, *body)


class ReviewsSite(Site):
    def __init__(self, dataset: HardwareDataset) -> None:
        super().__init__(REVIEWS_HOST)
        self.dataset = dataset
        self.route("/", self.entry)
        self.route("/ratings", self.search)
        self.route("/cgi-bin/rate", self.results)

    def entry(self, request: Request) -> H.Element:
        return H.page("Hardware Reviews", H.bullet_links([("Ratings", "/ratings")]))

    def search(self, request: Request) -> H.Element:
        form = H.form(
            "/cgi-bin/rate",
            H.labeled("Brand", H.select("brand", BRANDS)),
            H.submit_button("Show"),
            method="get",
        )
        return H.page("Ratings Lookup", form)

    def results(self, request: Request) -> H.Element:
        brand = request.params.get("brand", "")
        rows = [
            [r.brand, r.model, "%.1f" % r.rating]
            for r in self.dataset.reviews_for(brand)
        ]
        if not rows:
            return H.page("Ratings", H.el("p", "No reviews for %s." % brand))
        return H.page("Ratings", H.table(["Brand", "Model", "Rating"], rows))


def build_hardware_world(seed: int = 1998, listings_per_host: int = 50) -> World:
    dataset = HardwareDataset(seed=seed, listings_per_host=listings_per_host)
    server = WebServer()
    for host in VENDORS:
        server.add_site(_VendorSite(host, dataset))
    server.add_site(ReviewsSite(dataset))
    return World(server=server, dataset=dataset)


def _map_vendor(world: World, host: str) -> MapBuilder:
    """Browse one vendor's laptop shelf to its last page, marking the
    first listing."""
    link_name, relation, columns = VENDORS[host]
    browser, builder = open_session(world, host)
    browser.follow_named(link_name)
    page = browser.submit_by_attribute({columns[0]: "laptop"})
    mark_table(builder, page, relation, columns)
    follow_more(browser)
    return builder


def _map_reviews(world: World) -> MapBuilder:
    browser, builder = open_session(world, REVIEWS_HOST)
    browser.follow_named("Ratings")
    page = browser.submit_by_attribute({"brand": "ibm"})
    mark_table(builder, page, "reviews", ["brand", "model", "rating"])
    return builder


LISTING_SCHEMA = ("category", "brand", "model", "price")


def hardware_logical_schema(vps: Catalog) -> LogicalSchema:
    logical = LogicalSchema(vps)
    warehouse = Project(
        Derive(BaseRel("warehouse"), "price", lambda r: to_usd(r.get("price"))),
        LISTING_SCHEMA,
    )
    pcdirect = Project(
        Derive(
            rename(
                BaseRel("pcdirect"),
                {"type": "category", "maker": "brand", "our_price": "price"},
            ),
            "price",
            lambda r: to_usd(r.get("price")),
        ),
        LISTING_SCHEMA,
    )
    logical.define("stock", Union(warehouse, pcdirect))
    logical.define(
        "ratings",
        Derive(BaseRel("reviews"), "rating", lambda r: to_percent(r.get("rating"))),
    )
    return logical


def hardware_hierarchy() -> Concept:
    root = Concept("HardwareUR")
    root.add(
        Concept("Product").add("category", "brand", "model"),
        Concept("Offer").add("price"),
        Concept("Opinion").add("rating"),
    )
    root.validate()
    return root


HARDWARE = Domain(
    build_world=build_hardware_world,
    sessions={
        **{host: partial(_map_vendor, host=host) for host in VENDORS},
        REVIEWS_HOST: _map_reviews,
    },
    logical_schema=hardware_logical_schema,
    hierarchy=hardware_hierarchy,
    rules=tuple(allows("stock", "ratings")),
    relations=("stock", "ratings"),
)
