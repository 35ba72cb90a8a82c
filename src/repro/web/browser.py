"""The programmatic browser driving the simulated Web.

The paper instruments a real browser with JavaScript handlers so that the
map builder can observe the designer's actions ("actions are dynamically
intercepted by JavaScript handlers ... when a new page is loaded into the
browser, it is parsed, and a new node corresponding to the page is inserted
into the navigation map").

:class:`Browser` provides the same two event streams — page loads and
actions — through :class:`BrowserObserver` hooks, and offers the three
primitive moves the navigation calculus needs: ``get`` a URL, ``follow`` a
link, and ``submit`` a form.  All three return immutable :class:`WebPage`
values, so the calculus interpreter can backtrack by simply holding on to
earlier pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import WebBaseError
from repro.web.clock import SimClock
from repro.web.http import Request, Response, Url
from repro.web.page import FormSpec, Link, WebPage, parse_page
from repro.web.server import HttpError, TransientHttpError, WebServer


class NavigationError(WebBaseError):
    """A navigation step could not be completed (bad page, failed fetch)."""


class TransientNetworkError(NavigationError):
    """A navigation step failed transiently: retrying may well succeed.

    Raised for injected :class:`~repro.web.server.TransientHttpError`
    outcomes; unlike a plain :class:`NavigationError` (broken site,
    vanished page), callers with a retry budget should re-issue the fetch
    rather than degrade to an empty answer."""


@dataclass(frozen=True)
class ActionEvent:
    """One browsing action, as observed by the map builder.

    ``kind`` is ``"follow"`` or ``"submit"``.  ``source`` is the page the
    action started from; ``target`` the page it produced.  For submits,
    ``form`` is the submitted form spec and ``values`` the attribute values
    the designer supplied (hidden state excluded).
    """

    kind: str
    source: WebPage
    target: WebPage
    link: Link | None = None
    form: FormSpec | None = None
    values: tuple[tuple[str, str], ...] = ()


class BrowserObserver:
    """Subscriber interface for browser events (the JS handlers' stand-in)."""

    def on_page(self, page: WebPage) -> None:  # pragma: no cover - interface
        """A page finished loading."""

    def on_action(self, event: ActionEvent) -> None:  # pragma: no cover - interface
        """The user performed a navigation action."""


def request_key(request: Request) -> tuple:
    """The canonical identity of a request: ``(method, url, form params)``.

    Two requests with the same key fetch the same page on the simulated
    Web (pages are immutable between site *changes*, which bump the
    navigation-map revision).  This is the key of the
    :class:`PrefixPageCache` every navigation reads its pages through.
    """
    return (
        request.method,
        str(request.url),
        tuple(sorted(request.form_params.items())),
    )


class PrefixPageCache:
    """A query-scoped, revision-stamped page cache shared across fetches.

    The navigation expressions of one compiled site share a *prefix* —
    the entry page and the intermediate link/form pages leading to the
    final submission.  Within one query, that prefix is identical across
    every probe binding, so this cache lets the shared pages be fetched
    once per query instead of once per binding.

    Entries are keyed ``(host, request_key)`` and stamped with the host's
    navigation-map revision as reported by ``revision_of`` (wired to
    :meth:`repro.revisions.Revisions.current`, which site maintenance
    advances when it absorbs a change).  Every read re-reads the
    *current* revision and drops a mismatched entry (:meth:`_current`),
    so no page captured under an old map is ever served across a
    revision bump; a page whose host's revision moved while it was being
    fetched is never stored, and neither is a failure.

    The cache belongs to one execution context, and one thread drives a
    context, so it has no lock and no in-flight table: a second request
    for a key always comes after the first one has finished.  Counts
    ``nav.prefix_hits`` / ``nav.prefix_misses`` into ``metrics`` when
    given.
    """

    def __init__(
        self,
        revision_of: Callable[[str], int] | None = None,
        metrics: Any = None,
    ) -> None:
        self._revision_of = revision_of or (lambda host: 0)
        self.metrics = metrics
        self._pages: dict[tuple, tuple[int, WebPage]] = {}

    def __len__(self) -> int:
        return len(self._pages)

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _current(self, host: str, key: tuple, revision: int) -> WebPage | None:
        """The one staleness check: the page under ``key`` if it is
        stamped ``revision``.  A superseded entry is dropped."""
        entry = self._pages.get((host, key))
        if entry is None:
            return None
        if entry[0] == revision:
            return entry[1]
        del self._pages[(host, key)]
        return None

    def lookup(self, host: str, key: tuple) -> WebPage | None:
        """The cached page under ``key``, or ``None`` — dropping (and not
        serving) entries stored under a superseded map revision."""
        return self._current(host, key, self._revision_of(host))

    def claim(self, host: str, key: tuple) -> tuple[WebPage | None, int]:
        """Look ``key`` up for a fetch, counting a hit or a miss:
        ``(page, revision)`` when cached, ``(None, revision)`` when the
        caller must fetch the page and hand it to :meth:`store` with that
        revision."""
        revision = self._revision_of(host)
        page = self._current(host, key, revision)
        self._count("nav.prefix_hits" if page is not None else "nav.prefix_misses")
        return page, revision

    def store(self, host: str, key: tuple, page: WebPage, revision: int) -> None:
        """Keep a page fetched after :meth:`claim` returned ``revision`` —
        unless the host's revision moved while it was on the wire."""
        if revision == self._revision_of(host):
            self._pages[(host, key)] = (revision, page)


class Browser:
    """A stateful browser session over a :class:`WebServer`.

    Network time is charged to ``clock`` per the server's latency model;
    ``pages_fetched`` counts successful page loads (the paper's "# of
    pages" measure).
    """

    def __init__(self, server: WebServer, clock: SimClock | None = None) -> None:
        self.server = server
        self.clock = clock or SimClock()
        self.page: WebPage | None = None
        self.pages_fetched = 0
        self._observers: list[BrowserObserver] = []

    def subscribe(self, observer: BrowserObserver) -> None:
        self._observers.append(observer)

    def unsubscribe(self, observer: BrowserObserver) -> None:
        self._observers.remove(observer)

    # -- primitive moves ---------------------------------------------------

    def get(self, url: Url | str) -> WebPage:
        """Load ``url`` directly (typing into the location bar)."""
        if isinstance(url, str):
            from repro.web.http import parse_url

            url = parse_url(url)
        return self._load(Request("GET", url))

    def follow(self, link: Link) -> WebPage:
        """Follow ``link`` from the current page."""
        source = self._require_page()
        target = self._load(Request("GET", link.address))
        self._emit_action(ActionEvent("follow", source, target, link=link))
        return target

    def follow_named(self, name: str) -> WebPage:
        """Follow the link whose display text is ``name`` on the current page."""
        return self.follow(self._require_page().link_named(name))

    def submit(self, form: FormSpec, values: dict[str, str]) -> WebPage:
        """Fill out ``form`` with ``values`` and submit it."""
        source = self._require_page()
        params = form.fill(values)
        if form.method == "GET":
            request = Request("GET", form.action.with_params(params))
        else:
            request = Request("POST", form.action, form_params=params)
        target = self._load(request)
        self._emit_action(
            ActionEvent(
                "submit",
                source,
                target,
                form=form,
                values=tuple(sorted((k, str(v)) for k, v in values.items())),
            )
        )
        return target

    def submit_by_attribute(self, values: dict[str, str]) -> WebPage:
        """Submit the current page's form that carries the given attributes."""
        page = self._require_page()
        first_attr = next(iter(values))
        return self.submit(page.form_with_attribute(first_attr), values)

    def request(self, request: Request) -> WebPage:
        """Issue a raw request (used by the navigation executor, which
        computes requests from navigation expressions rather than from the
        browser's own current page)."""
        return self._load(request)

    def request_cached(
        self,
        request: Request,
        cache: PrefixPageCache,
        on_live: Callable[[], None] | None = None,
    ) -> tuple[WebPage, bool]:
        """Issue ``request`` through a :class:`PrefixPageCache`.

        Returns ``(page, live)`` where ``live`` says whether *this* call
        navigated the site (a cache hit costs no live traffic).
        ``on_live`` runs just before an actual navigation — the
        executor's page-budget check hooks in there, so cached pages never
        count against a fetch's budget.  Failed fetches are never cached.
        """
        key = request_key(request)
        host = request.url.host
        page, revision = cache.claim(host, key)
        if page is not None:
            return page, False
        if on_live is not None:
            on_live()
        page = self.request(request)
        cache.store(host, key, page, revision)
        return page, True

    # -- internals ----------------------------------------------------------

    def _require_page(self) -> WebPage:
        if self.page is None:
            raise NavigationError("no page loaded")
        return self.page

    MAX_REDIRECTS = 5

    def _fetch_following_redirects(self, request: Request) -> Response:
        """Issue ``request``, transparently following HTTP redirects (the
        POST-then-redirect-to-results pattern of CGI-era sites)."""
        from repro.web.http import parse_url

        for _ in range(self.MAX_REDIRECTS + 1):
            latency = self.server.latency_for(request.url.host)
            try:
                response = self.server.fetch(request)
            except TransientHttpError as exc:
                # The connection was made and dropped: the round trip is spent.
                self.clock.charge(latency.rtt)
                raise TransientNetworkError(str(exc)) from exc
            except HttpError as exc:
                raise NavigationError(str(exc)) from exc
            self.clock.charge(latency.cost(len(response)) + response.extra_latency)
            if response.status in (301, 302, 303, 307) and response.location:
                try:
                    target = parse_url(response.location, base=request.url)
                except ValueError as exc:
                    raise NavigationError(
                        "bad redirect %r from %s" % (response.location, request.url)
                    ) from exc
                request = Request("GET", target)
                continue
            return response
        raise NavigationError("too many redirects from %s" % request.url)

    def _load(self, request: Request) -> WebPage:
        response = self._fetch_following_redirects(request)
        if not response.ok:
            raise NavigationError(
                "HTTP %d fetching %s" % (response.status, request.url)
            )
        page = parse_page(response.final_url or request.url, response.body)
        self.page = page
        self.pages_fetched += 1
        for observer in self._observers:
            observer.on_page(page)
        return page

    def _emit_action(self, event: ActionEvent) -> None:
        for observer in self._observers:
            observer.on_action(event)
