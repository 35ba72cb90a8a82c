"""The order of a navigation choice's alternatives is observable.

On the hand-written sites of the three domains at most one alternative of
a choice yields on any page, so the order in which a submit's targets run
cannot be seen there.  This site is built so that it can: for a make with
many listings, its result page is *both* a data page (a table of every
match) and a page offering a refining form (pick a model), so the
``f1`` submit from the entry page continues on two map nodes that both
yield on the same page.  The rules order the choice "data page ; refine
form" (the targets sorted by node id, the data node demonstrated first),
and rows come out in the order the calculus derives them: the whole
table first, in table order, and then nothing new from the refinements.
Run the other way round, the refinements would come first and group the
rows by model.
"""

from __future__ import annotations

import pytest

from repro.domains.designer import mark_table, open_session
from repro.navigation.compiler import compile_map
from repro.navigation.executor import NavigationExecutor
from repro.web import html as H
from repro.web.browser import request_key
from repro.web.http import Request
from repro.web.server import Site, WebServer, World
from tests.test_navigation_plan import ReferenceExecutor

HOST = "www.refine.test"
MANY = 2  # more matches than this, and the result page offers a refinement

#: (make, model, price), in the order the result table lists them.
LISTINGS = [
    ("ford", "escort", "1000"),
    ("ford", "taurus", "2000"),
    ("ford", "escort", "3000"),
    ("ford", "mustang", "4000"),
    ("saab", "900", "5000"),
]
HEADERS = ["Make", "Model", "Price"]


def _search(request: Request) -> H.Element:
    make = request.params.get("make", "")
    model = request.params.get("model", "")
    rows = [
        list(row)
        for row in LISTINGS
        if row[0] == make and (not model or row[1] == model)
    ]
    body = [H.table(HEADERS, rows)]
    if not model and len(rows) > MANY:
        models = sorted({row[1] for row in rows})
        body.append(
            H.form(
                "/search",
                H.hidden_input("make", make),
                H.labeled("Model", H.select("model", models)),
                H.submit_button("Refine"),
                method="get",
            )
        )
    return H.page("Results", *body)


def _world() -> World:
    site = Site(HOST)
    site.route(
        "/",
        lambda request: H.page(
            "Listings",
            H.form(
                "/search",
                H.labeled("Make", H.select("make", ["ford", "saab"])),
                H.submit_button(),
                method="get",
            ),
        ),
    )
    site.route("/search", _search)
    server = WebServer()
    server.add_site(site)
    return World(server, LISTINGS)


def _compiled(world: World):
    """The designer's session: the few-matches branch (a plain data page,
    marked by example), then the many-matches branch and its refinement,
    which lands on a page of the data page's shape."""
    browser, builder = open_session(world, HOST)
    few = browser.submit_by_attribute({"make": "saab"})
    mark_table(builder, few, "listing", ["make", "model", "price"])
    browser.get("http://%s/" % HOST)
    many = browser.submit_by_attribute({"make": "ford"})
    assert many.forms and many.tables()[0][1:], "a data page that also refines"
    browser.submit_by_attribute({"model": "escort"})
    return compile_map(builder.map)


def _fetch(executor: NavigationExecutor, server: WebServer, given: dict) -> tuple:
    sent: list = []
    server.page_sink = lambda request, _response: sent.append(request_key(request))
    try:
        rows = executor.fetch("listing", dict(given))
    finally:
        server.page_sink = None
    return [(r["make"], r["model"], r["price"]) for r in rows], sent


@pytest.fixture(scope="module")
def site():
    world = _world()
    return world, _compiled(world)


def test_the_submit_continues_on_two_nodes(site):
    _world, compiled = site
    (relation,) = compiled.relations
    entry = relation.plan.goals["listing"][0].targets[0]
    (submit,) = entry
    data, refine = submit.targets
    assert len(data) == 1 and type(data[0]).__name__ == "_Extract"
    assert [type(step).__name__ for step in refine] == ["_Submit"]


def test_rows_come_out_data_page_first(site):
    world, compiled = site
    executor = NavigationExecutor(world.server)
    executor.add_site(compiled)
    rows, sent = _fetch(executor, world.server, {"make": "ford"})
    assert rows == [row for row in LISTINGS if row[0] == "ford"]
    # The entry page, the make's result page, then one refinement per
    # model, in the widget's domain order.
    search = "http://%s/search?make=ford" % HOST
    assert [url for _method, url, _params in sent] == [
        "http://%s/" % HOST,
        search,
        search + "&model=escort",
        search + "&model=mustang",
        search + "&model=taurus",
    ]


def test_the_plan_follows_the_rules_order(site):
    """The printed rules, run by the reference interpreter, give the same
    rows in the same order, over the same requests."""
    world, compiled = site
    plan = NavigationExecutor(world.server)
    reference = ReferenceExecutor(world.server)
    plan.add_site(compiled)
    reference.add_site(compiled)
    for given in ({"make": "ford"}, {"make": "saab"}, {"make": "ford", "model": "escort"}):
        assert _fetch(plan, world.server, given) == _fetch(reference, world.server, given)
