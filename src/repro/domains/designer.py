"""The scripted designer's hands: the moves every mapping session makes.

In the paper a human designer browses a site while the map builder
watches, and points at one example tuple per data page.  The sessions of
every domain are that browsing, scripted; these are the steps they share.
A session that cannot find the example it is about to mark fails with a
:class:`~repro.navigation.navmap.MapError` naming the host and the branch
it was demonstrating — the world was built too small or too large for the
script, and the designer has to look.
"""

from __future__ import annotations

from repro.navigation.builder import DesignerHints, MapBuilder
from repro.navigation.navmap import MapError
from repro.web.browser import Browser
from repro.web.page import Link, WebPage
from repro.web.server import World


def open_session(
    world: World, host: str, hints: DesignerHints | None = None
) -> tuple[Browser, MapBuilder]:
    """A browser on ``host``'s entry page with a fresh map builder watching."""
    browser = Browser(world.server)
    builder = MapBuilder(host, hints)
    browser.subscribe(builder)
    browser.get("http://%s/" % host)
    return browser, builder


def follow_more(browser: Browser) -> None:
    """Page through a listing the way a designer demonstrating the More
    loop would (one More click records the self-edge; we walk to the end
    so sessions also serve as full-listing sanity checks)."""
    while browser.page is not None and browser.page.has_link_named("More"):
        browser.follow_named("More")


def _nothing_to_mark(page: WebPage, what: str, branch: str) -> MapError:
    return MapError(
        "%s: no %s to mark on the %s branch (%s)"
        % (page.url.host, what, branch, page.url)
    )


def mark_table(
    builder: MapBuilder, page: WebPage, relation: str, columns: list[str], **extra: str
) -> None:
    """Declare ``page`` the data page of ``relation`` by pointing at the
    first row of its data table (``extra``: link-valued attributes the
    row carries besides its cells)."""
    for table in page.tables():
        if len(table) >= 2:
            builder.mark_data_page(relation, {**dict(zip(columns, table[1])), **extra})
            return
    raise _nothing_to_mark(page, "data row", relation)


def mark_block(
    builder: MapBuilder, page: WebPage, relation: str, labels: list[str]
) -> None:
    """Declare ``page`` the data page of ``relation`` by pointing at its
    first labeled block (``dl``)."""
    blocks = page.dom.find_all("dl")
    if not blocks:
        raise _nothing_to_mark(page, "labeled block", relation)
    values = [dd.text() for dd in blocks[0].find_all("dd")]
    builder.mark_data_page(relation, dict(zip(labels, values)))


def row_link(page: WebPage, link_name: str, branch: str) -> Link:
    """The first per-row link called ``link_name`` (a detail-page link)."""
    if not page.has_link_named(link_name):
        raise _nothing_to_mark(page, "%r link" % link_name, branch)
    return page.link_named(link_name)
