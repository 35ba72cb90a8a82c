"""The page memo: :func:`repro.web.page.parse_page` parses each distinct
``(url, body)`` once.

A page served from the memo shares the first parse's title, links, forms
and extracted rows, and parses its own DOM only when asked.  That is
sound only while nothing edits what is shared, so the suites below
compare every entry, after seeded streams in all three domains and after
designer sessions, a maintenance sweep and more queries, against a fresh
parse of the same body.  Also here: the memo's bound, its behaviour under
threads, a changed site missing it, and an idle webbase holding no pages.
"""

from __future__ import annotations

import gc
import importlib
import random
import threading

import pytest

from repro import WebBase
from repro.navigation.extract import wrapper_from_headers
from repro.sites.world import build_world, mutate_site_listings
from repro.web import html as H
from repro.web.browser import Browser
from repro.web.http import Url
from repro.web.page import WebPage, _memo, parse_page
from tests.conftest import derive_seeds

page_module = importlib.import_module("repro.web.page")


def _wrappers_by_host(webbase: WebBase) -> dict[str, list]:
    return {
        compiled.host: list(compiled.wrappers.values())
        for compiled in webbase.compiled.values()
    }


def _assert_every_entry_is_a_fresh_parse(wrappers_by_host: dict[str, list]) -> int:
    """Each memo entry, served as a hit, against the page a fresh parse of
    its body gives: title, links, forms, and every wrapper's rows.
    Returns the number of entries checked."""
    assert len(_memo) < page_module.PAGE_MEMO_ENTRIES, "nothing may have been evicted"
    keys = list(_memo)
    for url, body in keys:
        hit = parse_page(url, body)
        assert hit._dom is None, "served from the memo, without a parse"
        rows = {w: w.extract(hit) for w in wrappers_by_host.get(url.host, ())}
        del _memo[(url, body)]
        fresh = parse_page(url, body)
        assert fresh._parsed is not hit._parsed
        assert (hit.url, hit.title, hit.links, hit.forms) == (
            fresh.url,
            fresh.title,
            fresh.links,
            fresh.forms,
        ), url
        for wrapper, extracted in rows.items():
            assert extracted == wrapper.extract(fresh), (url, wrapper)
    return len(keys)


def _domain_webbase(name: str) -> tuple[WebBase, list[str]]:
    """A freshly mapped webbase of one domain and its seeded query stream:
    a ``cold_navigate`` block for cars, the truth queries elsewhere."""
    from bench.workloads import WORKLOADS, OpStream
    from tests.test_domains import DOMAINS

    if name == "cars":
        (seed,) = derive_seeds("page-memo-cold-block", 1)
        texts = [op.text for op in OpStream(WORKLOADS["cold_navigate"], seed).block()]
        return WebBase.create(), texts
    app, size, truths = DOMAINS[name]
    return WebBase(app.build_world(*size), domain=app), list(truths)


@pytest.mark.parametrize("name", ["cars", "hardware", "jobs"])
def test_every_page_of_a_stream_equals_a_fresh_parse(name):
    _memo.clear()
    webbase, texts = _domain_webbase(name)
    for text in texts:
        webbase.query(text)
    assert _assert_every_entry_is_a_fresh_parse(_wrappers_by_host(webbase)) >= 10


def test_nothing_edits_a_shared_entry():
    """Designer sessions model the forms they see, maintenance rewrites the
    maps' widgets from live forms, and queries extract rows: none of it
    may reach into the pages' shared title, links, forms or rows."""
    _memo.clear()
    world = build_world()
    webbase = WebBase(world)
    text = "SELECT make, model, price WHERE make = 'ford' AND model = 'escort'"
    webbase.query(text)
    mutate_site_listings(world, "www.autoweb.com", make="ford", change="auto", seed=3)
    assert "www.autoweb.com" in webbase.run_maintenance()
    webbase.query(text)
    webbase.query("SELECT make, model, year, price WHERE make = 'saab'")
    assert _assert_every_entry_is_a_fresh_parse(_wrappers_by_host(webbase)) > 20


def test_two_fetches_are_two_pages():
    browser = Browser(build_world().server)
    first = browser.get("http://www.newsday.com/")
    second = browser.get("http://www.newsday.com/")
    assert first is not second and first != second
    assert second._parsed is first._parsed  # one parse, shared
    assert second.dom is not first.dom  # each page parses its own DOM
    assert second.links == first.links and second.forms == first.forms


def test_a_changed_site_misses_and_shows_its_new_rows():
    world = build_world()
    webbase = WebBase(world)
    given = {"make": "ford", "model": "escort"}
    before = webbase.executor.fetch("newsday", dict(given))
    known = set(_memo)
    added = mutate_site_listings(world, "www.newsday.com", change="auto", seed=11)
    after = webbase.executor.fetch("newsday", dict(given))
    new_rows = {tuple(sorted(row.items())) for row in after} - {
        tuple(sorted(row.items())) for row in before
    }
    assert len(new_rows) == len(added)
    assert any(url.host == "www.newsday.com" for url, _body in set(_memo) - known)


def _body(index: int) -> str:
    return H.page(
        "Page %d" % index,
        H.bullet_links([("Next", "/p%d" % (index + 1)), ("Home", "/")]),
        H.form("/search", H.labeled("Make", H.select("make", ["ford", "saab"])), H.submit_button()),
        H.table(["Make", "Price"], [["ford", str(index)], ["saab", str(index * 2)]]),
    ).render()


def test_the_memo_holds_at_most_its_cap(monkeypatch):
    monkeypatch.setattr(page_module, "PAGE_MEMO_ENTRIES", 4)
    _memo.clear()
    url = Url("h.com", "/p")
    for index in range(10):
        parse_page(url, _body(index))
        assert len(_memo) <= 4
        parse_page(url, _body(0))  # keep the first body recently used
    assert {body for _url, body in _memo} == {_body(0), _body(7), _body(8), _body(9)}
    assert parse_page(url, _body(1))._dom is not None  # evicted: parsed again


def test_threads_parsing_the_same_bodies_agree():
    url = Url("h.com", "/p")
    bodies = [_body(index) for index in range(24)]
    wrapper = wrapper_from_headers({"Make": "make", "Price": "price"})
    _memo.clear()
    expected = [_summary(parse_page(url, body), wrapper) for body in bodies]
    _memo.clear()
    start = threading.Barrier(8)
    results: dict[int, list] = {}

    def parse_all(worker: int) -> None:
        order = list(range(len(bodies)))
        random.Random(worker).shuffle(order)
        start.wait()
        seen = [None] * len(bodies)
        for _ in range(3):
            for index in order:
                seen[index] = _summary(parse_page(url, bodies[index]), wrapper)
        results[worker] = seen

    threads = [threading.Thread(target=parse_all, args=(n,)) for n in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert sorted(results) == list(range(8))
    for seen in results.values():
        assert seen == expected
    assert len(_memo) == len(bodies)


def _summary(page: WebPage, wrapper) -> tuple:
    return page.title, page.links, page.forms, wrapper.extract(page)


def _live_pages() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is WebPage)


def test_an_idle_webbase_holds_no_query_pages():
    """The webbase keeps no context: a context it made for one call, its
    navigation stack and every page the call fetched die when the call
    ends.  A context the caller passes in keeps its pages."""
    webbase = WebBase(build_world())
    idle = _live_pages()
    webbase.query("SELECT make, model, price WHERE make = 'ford'")
    assert _live_pages() == idle
    webbase.fetch_vps("newsday", {"make": "saab"})
    assert _live_pages() == idle
    webbase.fetch_logical("classifieds", {"make": "saab"})
    assert _live_pages() == idle

    ctx = webbase.execution_context(label="session")
    webbase.fetch_vps("newsday", {"make": "saab"}, context=ctx)
    held = len(ctx.page_cache)
    assert held > 0
    webbase.query("SELECT make, model, price WHERE make = 'ford'", context=ctx)
    assert len(ctx.page_cache) > held


def test_the_page_submodule_is_not_hidden_by_a_package_attribute():
    """``repro.web`` exports no name ``page``, so ``import repro.web.page``
    binds the module that parses pages."""
    import repro.web.page as module

    assert module is page_module
    assert callable(module.parse_page)
