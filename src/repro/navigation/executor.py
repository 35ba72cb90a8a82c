"""Executing navigation expressions against the (simulated) Web.

The compiled programs of :mod:`repro.navigation.compiler` mention four
action predicates.  This module registers them as engine builtins bound to
a browser:

* ``nav_entry(Host, Page)`` — load a site's entry page;
* ``nav_get(Url, Page)`` — load an absolute URL (detail relations);
* ``nav_follow(Page, LinkName, Page2)`` — follow a named link;
* ``nav_submit(Page, FormIdent, Pairs, Page2)`` — fill out and submit a
  form.  Bound attribute variables are sent to the server; *unbound*
  variables are handled the way a patient human would handle them: a
  select with an empty option is submitted unconstrained, a select or
  radio group without one is enumerated over its (finite, widget-supplied)
  domain — one submission per value, as backtracking alternatives — and a
  free-text field is simply left blank;
* ``nav_extract(Page, WrapperId, Rows)`` — run the node's extraction
  wrapper; on pages that do not match the wrapper it yields no rows, which
  is what makes the Figure-4 "data page or second form?" choice resolve
  itself.

Within one :meth:`NavigationExecutor.fetch` call, responses are memoized
per request (a browser cache), so backtracking over alternatives does not
re-fetch pages; distinct ``fetch`` calls hit the live site again.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.flogic.engine import Engine
from repro.flogic.formulas import Pred, Program
from repro.flogic.terms import Struct, Var, resolve, unify
from repro.navigation.compiler import CompiledRelation, CompiledSite
from repro.web.browser import (
    Browser,
    NavigationError,
    PrefixPageCache,
    TransientNetworkError,
    request_key,
)
from repro.web.clock import SimClock
from repro.web.http import Request, Url, parse_url
from repro.web.page import FormSpec, WebPage
from repro.web.server import WebServer

from repro.navigation.model import FormKey

from repro.errors import WebBaseError


class ExecutorError(WebBaseError):
    """Misconfiguration of the executor (unknown relation/wrapper/form)."""


class PageBudgetExceeded(ExecutorError):
    """One fetch navigated more pages than its budget allows.

    A safety rail against runaway maps (e.g. a pagination loop on a site
    that keeps generating More links): better to fail loudly than to
    hammer a live site indefinitely."""


class NavigationExecutor:
    """Runs compiled navigation programs; one browser, many sites."""

    def __init__(
        self,
        server: WebServer,
        clock: SimClock | None = None,
        max_pages_per_fetch: int = 500,
    ) -> None:
        self.browser = Browser(server, clock)
        self.engine = Engine(Program())
        self.max_pages_per_fetch = max_pages_per_fetch
        self._pages_this_fetch = 0
        self.sites: dict[str, CompiledSite] = {}
        self.relations: dict[str, tuple[CompiledSite, CompiledRelation]] = {}
        self._wrappers: dict[str, Any] = {}
        self._forms: dict[str, Any] = {}
        self._memo: dict[tuple, WebPage] = {}
        # Batched-navigation hook, installed per query by the execution
        # engine: a query-scoped revision-stamped page cache shared across
        # fetches (and worker bundles).  Off by default, so a bare
        # executor keeps the paper's per-fetch navigation semantics.
        self.page_cache: PrefixPageCache | None = None
        # Cooperative cancellation hook, installed per fetch by the
        # execution engine: polled before every page navigation, it raises
        # when the query driving this fetch was cancelled.  ``None`` = not
        # cancellable.
        self.cancel_check: Any = None
        self._session_depth = 0
        self._register_builtins()

    # -- configuration ------------------------------------------------------

    def add_site(self, compiled: CompiledSite) -> None:
        if compiled.host in self.sites:
            raise ExecutorError("site %s already added" % compiled.host)
        self.sites[compiled.host] = compiled
        self.engine.program.extend(compiled.program)
        for rel in compiled.relations:
            if rel.name in self.relations:
                raise ExecutorError("relation %r defined twice" % rel.name)
            self.relations[rel.name] = (compiled, rel)
        self._wrappers.update(compiled.wrappers)
        self._forms.update(compiled.forms)

    def relation(self, name: str) -> CompiledRelation:
        try:
            return self.relations[name][1]
        except KeyError:
            raise ExecutorError("unknown relation %r" % name) from None

    @property
    def pages_last_fetch(self) -> int:
        """Pages actually navigated (memo misses) by the most recent
        :meth:`fetch` call — readable even when the fetch raised."""
        return self._pages_this_fetch

    @contextmanager
    def batch_session(self) -> Iterator[None]:
        """A navigation session spanning several :meth:`fetch` calls.

        Inside a session the per-request memo persists across fetches, so
        a batch of probe bindings walks the shared navigation prefix once
        and backtracks only over the parts that differ (the K form
        submissions).  The page budget still resets per fetch — it bounds
        each binding's *live* navigations, not the session's reuse.
        Re-entrant; the memo clears when the outermost session closes.
        """
        if self._session_depth == 0:
            self._memo.clear()
        self._session_depth += 1
        try:
            yield
        finally:
            self._session_depth -= 1
            if self._session_depth == 0:
                self._memo.clear()

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
        compiled_site, rel = self.relations.get(name, (None, None))
        if rel is None:
            raise ExecutorError("unknown relation %r" % name)
        if self._session_depth == 0:
            self._memo.clear()
        self._pages_this_fetch = 0
        args: list[Any] = []
        for attr in rel.vector:
            if attr in given and given[attr] is not None:
                args.append(str(given[attr]))
            else:
                args.append(Var("Q_" + attr))
        goal = Pred(goal or rel.name, tuple(args))
        rows: list[dict[str, str | None]] = []
        seen: set[tuple] = set()
        for subst, _state in self.engine.solve(goal):
            row: dict[str, str | None] = {}
            for attr, arg in zip(rel.vector, args):
                if attr not in rel.schema:
                    continue
                value = resolve(arg, subst)
                row[attr] = None if isinstance(value, Var) else value
            key = tuple(row.get(a) for a in rel.schema)
            if key not in seen:
                seen.add(key)
                rows.append(row)
        return rows

    # -- request plumbing ---------------------------------------------------------

    def _check_page_budget(self) -> None:
        # The budget bounds *live* navigations only: memo hits and prefix
        # page-cache hits return before this check runs, so reused pages
        # never count against it.
        if self._pages_this_fetch >= self.max_pages_per_fetch:
            raise PageBudgetExceeded(
                "fetch exceeded its budget of %d pages" % self.max_pages_per_fetch
            )

    def _fetch_page(self, request: Request) -> WebPage | None:
        key = request_key(request)
        if key in self._memo:
            return self._memo[key]
        if self.cancel_check is not None:
            self.cancel_check()
        try:
            if self.page_cache is not None:
                page, live = self.browser.request_cached(
                    request, self.page_cache, on_live=self._check_page_budget
                )
            else:
                self._check_page_budget()
                page = self.browser.request(request)
                live = True
        except TransientNetworkError:
            # Retryable: let the execution engine's retry policy decide,
            # instead of silently degrading to an empty answer.
            raise
        except NavigationError:
            return None
        if live:
            self._pages_this_fetch += 1
        self._memo[key] = page
        return page

    # -- builtins ----------------------------------------------------------------

    def _register_builtins(self) -> None:
        self.engine.register_builtin("nav_entry", 2, self._bi_entry)
        self.engine.register_builtin("nav_get", 2, self._bi_get)
        self.engine.register_builtin("nav_follow", 3, self._bi_follow)
        self.engine.register_builtin("nav_submit", 4, self._bi_submit)
        self.engine.register_builtin("nav_extract", 3, self._bi_extract)

    def _bi_entry(self, args, subst, state) -> Iterator:
        host = resolve(args[0], subst)
        if isinstance(host, Var):
            raise ExecutorError("nav_entry requires a bound host")
        page = self._fetch_page(Request("GET", Url(str(host), "/")))
        if page is None:
            return
        bound = unify(args[1], page, subst)
        if bound is not None:
            yield bound, state

    def _bi_get(self, args, subst, state) -> Iterator:
        target = resolve(args[0], subst)
        if isinstance(target, Var):
            return  # a detail fetch without its key cannot run
        try:
            url = parse_url(str(target))
        except ValueError:
            return
        page = self._fetch_page(Request("GET", url))
        if page is None:
            return
        bound = unify(args[1], page, subst)
        if bound is not None:
            yield bound, state

    def _bi_follow(self, args, subst, state) -> Iterator:
        page = resolve(args[0], subst)
        name = resolve(args[1], subst)
        if isinstance(page, Var) or isinstance(name, Var):
            raise ExecutorError("nav_follow requires a bound page and link name")
        if not isinstance(page, WebPage):
            return
        try:
            link = page.link_named(str(name))
        except KeyError:
            return
        target = self._fetch_page(Request("GET", link.address))
        if target is None:
            return
        bound = unify(args[2], target, subst)
        if bound is not None:
            yield bound, state

    def _bi_submit(self, args, subst, state) -> Iterator:
        page = resolve(args[0], subst)
        ident = resolve(args[1], subst)
        pairs = resolve(args[2], subst)
        if isinstance(page, Var) or isinstance(ident, Var):
            raise ExecutorError("nav_submit requires a bound page and form")
        if not isinstance(page, WebPage):
            return
        live_form = self._find_form(page, str(ident))
        if live_form is None:
            return
        for values, bound in self._assignments(live_form, pairs, subst):
            try:
                params = live_form.fill(values)
            except ValueError:
                continue
            request = self._submit_request(live_form, params)
            target = self._fetch_page(request)
            if target is None:
                continue
            final = unify(args[3], target, bound)
            if final is not None:
                yield final, state

    def _bi_extract(self, args, subst, state) -> Iterator:
        page = resolve(args[0], subst)
        wrapper_id = resolve(args[1], subst)
        if isinstance(page, Var) or isinstance(wrapper_id, Var):
            raise ExecutorError("nav_extract requires a bound page and wrapper")
        if not isinstance(page, WebPage):
            return
        wrapper = self._wrappers.get(str(wrapper_id))
        if wrapper is None:
            raise ExecutorError("unknown wrapper %r" % wrapper_id)
        rows = tuple(
            tuple(row.get(a, "") for a in wrapper.attrs)
            for row in wrapper.extract(page)
        )
        bound = unify(args[2], rows, subst)
        if bound is not None:
            yield bound, state

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

    def _assignments(
        self, form: FormSpec, pairs: Any, subst: dict
    ) -> Iterator[tuple[dict[str, str], dict]]:
        """All ways to fill the form given the (partially bound) attribute
        variables: bound values are used as-is; unbound enumerable widgets
        are enumerated; unbound free widgets are left blank."""
        if not isinstance(pairs, tuple):
            raise ExecutorError("nav_submit pairs must be a tuple")
        live = {w.name: w for w in form.widgets}

        def expand(index: int, values: dict[str, str], current: dict) -> Iterator:
            if index == len(pairs):
                yield dict(values), current
                return
            pair = pairs[index]
            if not (isinstance(pair, Struct) and pair.functor == "pair"):
                raise ExecutorError("malformed submit pair %r" % (pair,))
            widget_name, term = pair.args
            term = resolve(term, current)
            widget = live.get(str(widget_name))
            if widget is None:
                # The live form lost this widget; submit without it.
                yield from expand(index + 1, values, current)
                return
            if not isinstance(term, Var):
                values[widget_name] = str(term)
                yield from expand(index + 1, values, current)
                values.pop(widget_name, None)
                return
            # Unbound variable: decide by widget kind.
            if widget.kind in ("select", "radio") and widget.domain:
                if "" in widget.domain:
                    # Submitting the empty option asks the server for
                    # everything; the variable is bound later by extraction.
                    values[widget_name] = ""
                    yield from expand(index + 1, values, current)
                    values.pop(widget_name, None)
                    return
                for option in widget.domain:
                    bound = unify(term, option, current)
                    if bound is None:
                        continue
                    values[widget_name] = option
                    yield from expand(index + 1, values, bound)
                    values.pop(widget_name, None)
                return
            # Text/checkbox left unfilled.
            yield from expand(index + 1, values, current)

        yield from expand(0, {}, dict(subst))
