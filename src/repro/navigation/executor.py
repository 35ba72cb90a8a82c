"""Executing navigation expressions against the (simulated) Web.

:func:`repro.navigation.compiler.compile_map` emits, beside the
Transaction F-logic rules it prints, each relation's *navigation plan*
(``CompiledRelation.plan``): per goal, the pages it starts from; per map
node, its steps in rule order.  :meth:`NavigationExecutor.add_site`
stores the site's relations and their plans as they are; it reads no
rule.  A step works on a flat list of attribute *slots*, one per
attribute of the relation's vector, where ``None`` means unbound:
binding a slot is an assignment and a conflict is a string compare.
There is no renaming, no unification and no resolution.

:meth:`NavigationExecutor.fetch` walks the plan depth first on an
explicit stack, so a "More" chain of any length is iterated, not
recursed.  Solutions come out in the order the calculus' interpreter
derives them from the rules, which stays the specification the tests
hold the plan to.  The four actions:

* *entry* / *get* — load the site's entry page, or an absolute URL;
* *follow* — follow a named link;
* *submit* — fill out and submit a form.  Bound attribute slots are sent
  to the server; *unbound* ones are handled the way a patient human would
  handle them: a select with an empty option is submitted unconstrained,
  a select or radio group without one is enumerated over its (finite,
  widget-supplied) domain — one submission per value, as alternatives —
  and a free-text field is simply left blank;
* *extract* — run the node's extraction wrapper and bind each row; on
  pages that do not match the wrapper it yields no rows, which is what
  makes the Figure-4 "data page or second form?" choice resolve itself.

Every page is read through a :class:`~repro.web.browser.PrefixPageCache`
keyed by request, so backtracking over alternatives does not re-fetch
pages.  The execution engine installs its query's cache, which shares
pages across the query's fetches; a bare executor reads through a fresh
one per :meth:`NavigationExecutor.fetch` call, so distinct calls hit the
live site again (the paper's per-fetch semantics).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.navigation.compiler import (
    CompiledRelation,
    CompiledSite,
    _Extract,
    _Follow,
    _Start,
    _Steps,
)
from repro.web.browser import (
    Browser,
    NavigationError,
    PrefixPageCache,
    TransientNetworkError,
)
from repro.web.clock import SimClock
from repro.web.http import Request, Url, parse_url
from repro.web.page import FormSpec, WebPage
from repro.web.server import WebServer

from repro.navigation.model import FormKey

from repro.errors import WebBaseError


class ExecutorError(WebBaseError):
    """Misconfiguration of the executor (unknown relation or goal)."""


class PageBudgetExceeded(ExecutorError):
    """One fetch navigated more pages than its budget allows.

    A safety rail against runaway maps (e.g. a pagination loop on a site
    that keeps generating More links): better to fail loudly than to
    hammer a live site indefinitely."""


class NavigationExecutor:
    """Runs compiled navigation plans; one browser, many sites."""

    def __init__(
        self,
        server: WebServer,
        clock: SimClock | None = None,
        max_pages_per_fetch: int = 500,
    ) -> None:
        self.browser = Browser(server, clock)
        self.max_pages_per_fetch = max_pages_per_fetch
        self._pages_this_fetch = 0
        self.sites: dict[str, CompiledSite] = {}
        self.relations: dict[str, tuple[CompiledSite, CompiledRelation]] = {}
        # The execution engine installs its query's revision-stamped page
        # cache here, shared across the query's fetches.  ``None`` (a bare
        # executor) gives each fetch a fresh cache of its own.
        self.page_cache: PrefixPageCache | None = None
        self._pages: PrefixPageCache | None = None  # what the running fetch reads through
        # Cooperative cancellation hook, installed per fetch by the
        # execution engine: polled before every page navigation, it raises
        # when the query driving this fetch was cancelled.  ``None`` = not
        # cancellable.
        self.cancel_check: Any = None

    # -- configuration ------------------------------------------------------

    def add_site(self, compiled: CompiledSite) -> None:
        if compiled.host in self.sites:
            raise ExecutorError("site %s already added" % compiled.host)
        self.sites[compiled.host] = compiled
        for rel in compiled.relations:
            if rel.name in self.relations:
                raise ExecutorError("relation %r defined twice" % rel.name)
            self.relations[rel.name] = (compiled, rel)

    def relation(self, name: str) -> CompiledRelation:
        try:
            return self.relations[name][1]
        except KeyError:
            raise ExecutorError("unknown relation %r" % name) from None

    @property
    def pages_last_fetch(self) -> int:
        """Pages actually navigated (page-cache misses) by the most recent
        :meth:`fetch` call — readable even when the fetch raised."""
        return self._pages_this_fetch

    # -- fetching -------------------------------------------------------------

    def fetch(
        self, name: str, given: dict[str, Any], goal: str | None = None
    ) -> list[dict[str, str | None]]:
        """All tuples of VPS relation ``name`` consistent with ``given``.

        ``given`` values are coerced to strings: VPS relations hold raw
        extracted text (typing is the logical layer's job).  ``goal``
        selects a specific handle's navigation expression (defaults to the
        relation's combined goal).
        """
        rel = self.relation(name)
        plan = rel.plan
        starts = plan.goals.get(goal or name)
        if starts is None:
            raise ExecutorError("relation %r has no navigation goal %r" % (name, goal))
        self._pages = self.page_cache if self.page_cache is not None else PrefixPageCache()
        self._pages_this_fetch = 0
        slots: list[str | None] = [None] * len(plan.slots)
        for attr, slot in plan.slots.items():
            if given.get(attr) is not None:
                slots[slot] = str(given[attr])
        rows: list[dict[str, str | None]] = []
        seen: set[tuple] = set()
        try:
            for _ in self._walk(starts, slots):
                row = {attr: slots[slot] for attr, slot in plan.columns}
                key = tuple(row.get(a) for a in rel.schema)
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
        finally:
            self._pages = None  # an idle executor holds no query's pages
        return rows

    def _walk(self, starts: tuple[_Start, ...], slots: list) -> Iterator[None]:
        """Depth first over the plan: yields each time ``slots`` hold a
        solution.  The stack holds one suspended step list per page on the
        current path, so its depth is a path's length, never Python's."""
        stack = [self._starts(starts, slots)]
        while stack:
            for item in stack[-1]:
                if item is None:
                    yield
                else:
                    stack.append(self._steps(item[0], item[1], slots))
                    break
            else:
                stack.pop()

    def _starts(self, starts: tuple[_Start, ...], slots: list) -> Iterator[tuple]:
        for start in starts:
            if start.host is not None:
                request = Request("GET", Url(start.host, "/"))
            else:
                target = slots[start.url_slot]
                if target is None:
                    continue  # a detail fetch without its key cannot run
                try:
                    request = Request("GET", parse_url(target))
                except ValueError:
                    continue
            page = self._fetch_page(request)
            if page is not None:
                for steps in start.targets:
                    yield page, steps

    def _steps(self, page: WebPage, steps: _Steps, slots: list) -> Iterator[tuple | None]:
        """A node's alternatives on ``page``, in rule order: ``None`` for a
        bound row, ``(next page, next node's steps)`` to continue on."""
        for step in steps:
            if isinstance(step, _Extract):
                for row in step.wrapper.extract(page):
                    bound = []
                    for slot, attr in step.columns:
                        value = row.get(attr, "")
                        held = slots[slot]
                        if held is None:
                            if value is not None:
                                slots[slot] = value
                                bound.append(slot)
                        elif held != value:
                            break
                    else:
                        yield None
                    for slot in bound:
                        slots[slot] = None
            elif isinstance(step, _Follow):
                try:
                    link = page.link_named(step.link)
                except KeyError:
                    continue
                target = self._fetch_page(Request("GET", link.address))
                if target is not None:
                    for following in step.targets:
                        yield target, following
            else:
                form = self._find_form(page, step.ident)
                if form is None:
                    continue
                for values in self._fills(form, step.pairs, slots):
                    try:
                        params = form.fill(values)
                    except ValueError:
                        continue
                    target = self._fetch_page(self._submit_request(form, params))
                    if target is not None:
                        for following in step.targets:
                            yield target, following

    # -- request plumbing ---------------------------------------------------------

    def _check_page_budget(self) -> None:
        # The budget bounds *live* navigations only: page-cache hits
        # return before this check runs, so reused pages never count
        # against it.
        if self._pages_this_fetch >= self.max_pages_per_fetch:
            raise PageBudgetExceeded(
                "fetch exceeded its budget of %d pages" % self.max_pages_per_fetch
            )

    def _fetch_page(self, request: Request) -> WebPage | None:
        if self.cancel_check is not None:
            self.cancel_check()
        try:
            page, live = self.browser.request_cached(
                request, self._pages, on_live=self._check_page_budget
            )
        except TransientNetworkError:
            # Retryable: let the execution engine's retry policy decide,
            # instead of silently degrading to an empty answer.
            raise
        except NavigationError:
            return None
        if live:
            self._pages_this_fetch += 1
        return page

    # -- helpers ------------------------------------------------------------------

    @staticmethod
    def _submit_request(form: FormSpec, params: dict[str, str]) -> Request:
        if form.method == "GET":
            return Request("GET", form.action.with_params(params))
        return Request("POST", form.action, form_params=params)

    def _find_form(self, page: WebPage, ident: str) -> FormSpec | None:
        for form in page.forms:
            if FormKey.of(form).ident == ident:
                return form
        return None

    @staticmethod
    def _fills(
        form: FormSpec, pairs: tuple[tuple[str, int], ...], slots: list
    ) -> Iterator[dict[str, str]]:
        """All ways to fill the form from the attribute slots: bound values
        are used as-is; unbound enumerable widgets are enumerated (binding
        their slot); unbound free widgets are left blank."""
        live = {w.name: w for w in form.widgets}
        values: dict[str, str] = {}

        def expand(index: int) -> Iterator[dict[str, str]]:
            if index == len(pairs):
                yield dict(values)
                return
            name, slot = pairs[index]
            widget = live.get(name)
            held = slots[slot]
            if widget is None:
                # The live form lost this widget; submit without it.
                yield from expand(index + 1)
            elif held is not None:
                values[name] = held
                yield from expand(index + 1)
                values.pop(name, None)
            elif widget.kind in ("select", "radio") and widget.domain:
                if "" in widget.domain:
                    # Submitting the empty option asks the server for
                    # everything; the slot is bound later by extraction.
                    values[name] = ""
                    yield from expand(index + 1)
                    values.pop(name, None)
                    return
                for option in widget.domain:
                    slots[slot] = option
                    values[name] = option
                    yield from expand(index + 1)
                    values.pop(name, None)
                slots[slot] = None
            else:
                # Text/checkbox left unfilled.
                yield from expand(index + 1)

        return expand(0)
