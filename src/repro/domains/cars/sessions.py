"""Scripted designer sessions: mapping every simulated site by example.

In the paper a human webbase designer browses each site for ~30 minutes
while the map builder watches.  These functions are those browsing
sessions, scripted: each one drives a browser through the site's flows
(including the dynamically generated second form and the "More" loop
where the site has them), points at one example tuple per data page, and
returns the finished :class:`~repro.navigation.builder.MapBuilder`.

The hints passed to each builder are the session's *manual* facts — the
attribute renames and mandatory-text declarations the paper quantifies as
"less than 5% of the information in the map".
"""

from __future__ import annotations

from typing import Callable

from repro.domains.designer import (
    follow_more,
    mark_block,
    mark_table,
    open_session,
    row_link,
)
from repro.navigation.builder import DesignerHints, MapBuilder
from repro.web.server import World


def _reach_data_page(
    browser, make_field: str, make: str, model_field: str, model: str = ""
):
    """Submit the first form; if the site answers with a refinement form
    (too many matches), fill it too — with ``model``, or with the form's
    own first model when any will do.  Mirrors what a designer would do
    and keeps sessions robust across world sizes."""
    page = browser.submit_by_attribute({make_field: make})
    if page.forms:
        refine = page.form_with_attribute(model_field)
        model = model or refine.widget(model_field).domain[0]
        page = browser.submit_by_attribute({model_field: model})
    return page


def map_newsday(world: World) -> MapBuilder:
    """Figure 2: link(auto), form f1(make), the conditional form f2, data
    pages with More, and per-row Car Features detail pages."""
    browser, builder = open_session(world, "www.newsday.com")
    browser.follow_named("Auto")
    page = _reach_data_page(browser, "make", "ford", "model", "escort")
    mark_table(
        builder,
        page,
        "newsday",
        ["make", "model", "year", "price", "contact"],
        url=str(row_link(page, "Car Features", "ford/escort").address),
    )
    follow_more(browser)
    # Demonstrate the direct branch (few ads -> data page immediately; in a
    # world too large for any make to be few, through the refinement form
    # again), the More loop, and a detail page.
    browser.get("http://www.newsday.com/classified/cars")
    _reach_data_page(browser, "make", "saab", "model")
    follow_more(browser)
    detail = browser.follow(row_link(browser.page, "Car Features", "saab"))
    mark_block(builder, detail, "newsday_car_features", ["features", "picture"])
    return builder


def map_nytimes(world: World) -> MapBuilder:
    browser, builder = open_session(world, "www.nytimes.com")
    browser.follow_named("Automobiles")
    page = browser.submit_by_attribute({"manufacturer": "ford"})
    mark_table(
        builder,
        page,
        "nytimes",
        ["manufacturer", "model", "year", "features", "asking_price", "contact"],
    )
    follow_more(browser)
    return builder


def map_carpoint(world: World) -> MapBuilder:
    hints = DesignerHints(attr_renames={"zipcode": "zip"})
    browser, builder = open_session(world, "www.carpoint.com", hints)
    browser.follow_named("Used Inventory")
    page = _reach_data_page(browser, "make", "ford", "model", "escort")
    mark_table(
        builder,
        page,
        "carpoint",
        ["make", "model", "year", "price", "features", "zip", "dealer"],
    )
    follow_more(browser)
    browser.get("http://www.carpoint.com/used")
    browser.submit_by_attribute({"make": "saab"})  # few -> direct data page
    follow_more(browser)
    return builder


def map_autoweb(world: World) -> MapBuilder:
    hints = DesignerHints(attr_renames={"zip": "zip_code"})
    browser, builder = open_session(world, "www.autoweb.com", hints)
    browser.follow_named("Browse Cars")
    page = browser.submit_by_attribute({"make": "ford"})
    mark_table(
        builder,
        page,
        "autoweb",
        ["year", "make", "model", "options", "price", "zip_code", "seller"],
    )
    follow_more(browser)
    return builder


def map_kellys(world: World) -> MapBuilder:
    hints = DesignerHints(
        attr_renames={"blue_book_price": "bb_price"}, mandatory_text={"model"}
    )
    browser, builder = open_session(world, "www.kbb.com", hints)
    browser.follow_named("Used Car Values")
    page = browser.submit_by_attribute(
        {"make": "ford", "model": "escort", "condition": "good"}
    )
    mark_table(
        builder,
        page,
        "kellys",
        ["make", "model", "year", "condition", "bb_price"],
    )
    return builder


def map_caranddriver(world: World) -> MapBuilder:
    browser, builder = open_session(world, "www.caranddriver.com")
    browser.follow_named("Safety Ratings")
    page = browser.submit_by_attribute({"make": "jaguar"})
    mark_table(builder, page, "caranddriver", ["make", "model", "year", "safety"])
    return builder


def map_carfinance(world: World) -> MapBuilder:
    hints = DesignerHints(
        attr_renames={"zipcode": "zip_code"}, mandatory_text={"zip_code"}
    )
    browser, builder = open_session(world, "www.carfinance.com", hints)
    browser.follow_named("Loan Rates")
    page = browser.submit_by_attribute({"zipcode": "10001"})
    mark_table(builder, page, "carfinance", ["zip_code", "duration", "rate"])
    return builder


def map_wwwheels(world: World) -> MapBuilder:
    browser, builder = open_session(world, "www.wwwheels.com")
    browser.follow_named("Find a Car")
    page = browser.submit_by_attribute({"make": "ford"})
    mark_table(
        builder,
        page,
        "wwwheels",
        ["make", "model", "year", "price", "zip", "contact"],
    )
    follow_more(browser)
    return builder


def map_carreviews(world: World) -> MapBuilder:
    browser, builder = open_session(world, "www.carreviews.com")
    browser.follow_named("Classifieds")
    page = browser.submit_by_attribute({"make": "ford"})
    mark_table(
        builder,
        page,
        "carreviews",
        ["make", "model", "year", "price", "contact"],
    )
    follow_more(browser)
    return builder


def map_nydailynews(world: World) -> MapBuilder:
    browser, builder = open_session(world, "www.nydailynews.com")
    browser.follow_named("Auto Classifieds")
    page = _reach_data_page(browser, "make", "ford", "model", "escort")
    mark_table(builder, page, "nydaily", ["make", "model", "year", "price", "contact"])
    follow_more(browser)
    browser.get("http://www.nydailynews.com/classified/auto")
    browser.submit_by_attribute({"make": "saab"})  # direct branch
    follow_more(browser)
    return builder


def map_autoconnect(world: World) -> MapBuilder:
    browser, builder = open_session(world, "www.autoconnect.com")
    browser.follow_named("Dealer Search")
    page = _reach_data_page(browser, "make", "ford", "model", "escort")
    mark_table(
        builder,
        page,
        "autoconnect",
        ["make", "model", "year", "price", "equipment", "location", "contact"],
    )
    follow_more(browser)
    browser.get("http://www.autoconnect.com/dealers")
    browser.submit_by_attribute({"make": "saab"})
    follow_more(browser)
    return builder


def map_yahoocars(world: World) -> MapBuilder:
    browser, builder = open_session(world, "cars.yahoo.com")
    browser.follow_named("Used Car Listings")
    page = browser.submit_by_attribute({"make": "ford"})
    mark_block(
        builder,
        page,
        "yahoocars",
        ["make", "model", "year", "price", "contact"],
    )
    follow_more(browser)
    return builder


def map_usedcarmart(world: World) -> MapBuilder:
    """The multi-handle site: the designer demonstrates *both* access
    forms (by make and by zip code), so the compiler derives two handles
    with different mandatory sets for the same relation (Section 3)."""
    browser, builder = open_session(world, "www.usedcarmart.com")
    browser.follow_named("Search by Make")
    page = browser.submit_by_attribute({"make": "ford"})
    mark_table(
        builder,
        page,
        "usedcarmart",
        ["make", "model", "year", "price", "zip", "contact"],
    )
    follow_more(browser)
    browser.get("http://www.usedcarmart.com/")
    browser.follow_named("Search by Zip Code")
    browser.submit_by_attribute({"zip": "10001"})
    follow_more(browser)
    return builder


SESSIONS: dict[str, Callable[[World], MapBuilder]] = {
    "www.newsday.com": map_newsday,
    "www.nytimes.com": map_nytimes,
    "www.carpoint.com": map_carpoint,
    "www.autoweb.com": map_autoweb,
    "www.kbb.com": map_kellys,
    "www.caranddriver.com": map_caranddriver,
    "www.carfinance.com": map_carfinance,
    "www.wwwheels.com": map_wwwheels,
    "www.carreviews.com": map_carreviews,
    "www.nydailynews.com": map_nydailynews,
    "www.autoconnect.com": map_autoconnect,
    "cars.yahoo.com": map_yahoocars,
    "www.usedcarmart.com": map_usedcarmart,
}


def build_all_builders(world: World) -> dict[str, MapBuilder]:
    """Run every designer session; returns host -> builder (with stats)."""
    return {host: session(world) for host, session in SESSIONS.items()}
