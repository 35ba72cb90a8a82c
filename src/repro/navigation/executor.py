"""Executing navigation expressions against the (simulated) Web.

:mod:`repro.navigation.compiler` writes every navigation expression as
Transaction F-logic rules of six fixed shapes: an *entry* rule (load the
site's entry page), a *get* rule (a detail relation: load the URL held
by its key attribute), a *union* over the handles of a multi-handle
relation, and, per map node, an *extract* rule (``nav_extract`` +
``member``), one *follow* rule per link and one *submit* rule per form,
each ending in a choice over the action's target nodes.

:meth:`NavigationExecutor.add_site` partial-evaluates those rules, once
per site, into a *navigation plan*: per goal, the pages it starts from;
per node, its steps in rule order.  A step works on a flat list of
attribute *slots*, one per attribute of the relation's vector, where
``None`` means unbound: binding a slot is an assignment and a conflict is
a string compare.  There is no renaming, no unification and no
resolution, and a rule of any other shape raises
:class:`~repro.navigation.compiler.CompileError`.

:meth:`NavigationExecutor.fetch` walks the plan depth first on an
explicit stack, so a "More" chain of any length is iterated, not
recursed.  Solutions come out in the order the calculus'
interpreter (:class:`repro.flogic.Engine`) derives them, which stays the
specification the tests hold the plan to.  The four actions:

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

from dataclasses import dataclass
from typing import Any, Iterator

from repro.flogic.formulas import Choice, Pred, Program, Rule, Serial, format_rule
from repro.flogic.terms import Struct, Var
from repro.navigation.compiler import CompiledRelation, CompiledSite, CompileError
from repro.navigation.extract import PageWrapper
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


# -- the navigation plan ------------------------------------------------------------


# A node's plan is its list of steps, in the order of its rules.
_Steps = list


@dataclass(frozen=True, eq=False)
class _Extract:
    wrapper: PageWrapper
    columns: tuple[tuple[int, str], ...]  # (slot, wrapper attribute)


@dataclass(frozen=True, eq=False)
class _Follow:
    link: str
    targets: tuple[_Steps, ...]


@dataclass(frozen=True, eq=False)
class _Submit:
    ident: str
    pairs: tuple[tuple[str, int], ...]  # (widget name, slot)
    targets: tuple[_Steps, ...]


@dataclass(frozen=True, eq=False)
class _Start:
    """A goal's first page: the entry page of ``host``, or (``host`` is
    ``None``) the URL bound in ``url_slot``."""

    host: str | None
    url_slot: int
    targets: tuple[_Steps, ...]


@dataclass(frozen=True, eq=False)
class _RelationPlan:
    slots: dict[str, int]  # attribute -> slot, in vector order
    columns: tuple[tuple[str, int], ...]  # the row's (attribute, slot)
    goals: dict[str, tuple[_Start, ...]]


def _plan_relation(
    program: Program, rel: CompiledRelation, wrappers: dict[str, PageWrapper]
) -> _RelationPlan:
    """Partial-evaluate ``rel``'s rules into one plan per goal: the
    relation itself and each handle's goal."""
    slots: dict[str, int] = {}
    for attr in rel.vector:
        slots.setdefault(attr, len(slots))
    nodes: dict[str, _Steps] = {}
    goals: dict[str, tuple[_Start, ...]] = {}

    def fail(rule: Rule) -> CompileError:
        return CompileError(
            "%s: not a rule the navigation compiler writes: %s" % (rel.name, format_rule(rule))
        )

    def bind(rule: Rule, vector: tuple) -> dict[Var, int]:
        """The head's attribute variables, each to its attribute's slot."""
        binding: dict[Var, int] = {}
        if len(vector) != len(rel.vector):
            raise fail(rule)
        for var, attr in zip(vector, rel.vector):
            if not isinstance(var, Var) or binding.setdefault(var, slots[attr]) != slots[attr]:
                raise fail(rule)
        return binding

    def slot_of(rule: Rule, binding: dict[Var, int], var: Any) -> int:
        if not isinstance(var, Var) or var not in binding:
            raise fail(rule)
        return binding[var]

    def targets(rule: Rule, page: Any, vector: tuple, body: Any) -> tuple[_Steps, ...]:
        """The node calls ending a rule: each passes on the page its action
        produced and the head's own attribute variables."""
        calls = body.parts if isinstance(body, Choice) else (body,)
        if not isinstance(page, Var) or page in vector:
            raise fail(rule)
        for call in calls:
            if not isinstance(call, Pred) or call.args != (page,) + vector:
                raise fail(rule)
        return tuple(node(call.name) for call in calls)

    def node(name: str) -> _Steps:
        if name in nodes:
            return nodes[name]
        steps = nodes[name] = []
        rules = program.rules_for((name, len(rel.vector) + 1))
        if not rules:
            raise CompileError("%s: no rules for node %s" % (rel.name, name))
        for rule in rules:
            page, *vector = rule.head.args
            vector = tuple(vector)
            binding = bind(rule, vector)
            if not isinstance(page, Var) or page in vector:
                raise fail(rule)
            match rule.body:
                case Serial(
                    (
                        Pred("nav_extract", (p, str(wid), rows)),
                        Pred("member", (tuple(outs), r)),
                    )
                ) if (
                    p == page
                    and r == rows
                    and isinstance(rows, Var)
                    and rows not in vector
                    and wid in wrappers
                    and len(outs) == len(wrappers[wid].attrs)
                ):
                    wrapper = wrappers[wid]
                    columns = tuple(
                        (slot_of(rule, binding, v), a) for v, a in zip(outs, wrapper.attrs)
                    )
                    steps.append(_Extract(wrapper, columns))
                case Serial((Pred("nav_follow", (p, str(link), page2)), rest)) if p == page:
                    steps.append(_Follow(link, targets(rule, page2, vector, rest)))
                case Serial(
                    (Pred("nav_submit", (p, str(ident), tuple(pairs), page2)), rest)
                ) if p == page:
                    filled = []
                    for pair in pairs:
                        match pair:
                            case Struct("pair", (widget, var)):
                                filled.append((str(widget), slot_of(rule, binding, var)))
                            case _:
                                raise fail(rule)
                    following = targets(rule, page2, vector, rest)
                    steps.append(_Submit(ident, tuple(filled), following))
                case _:
                    raise fail(rule)
        return steps

    def goal(name: str) -> tuple[_Start, ...]:
        if name not in goals:
            starts: list[_Start] = []
            for rule in program.rules_for((name, len(rel.vector))):
                vector = rule.head.args
                binding = bind(rule, vector)
                match rule.body:
                    case Serial((Pred("nav_entry", (str(host), page)), rest)):
                        starts.append(_Start(host, 0, targets(rule, page, vector, rest)))
                    case Serial((Pred("nav_get", (url, page)), rest)):
                        following = targets(rule, page, vector, rest)
                        starts.append(_Start(None, slot_of(rule, binding, url), following))
                    case Choice(parts) if all(
                        isinstance(p, Pred) and p.args == vector for p in parts
                    ):
                        for part in parts:
                            starts.extend(goal(part.name))
                    case _:
                        raise fail(rule)
            goals[name] = tuple(starts)
        return goals[name]

    for name in [rel.name] + [h.goal for h in rel.handles]:
        if program.rules_for((name, len(rel.vector))):
            goal(name)
    columns = tuple((attr, slot) for attr, slot in slots.items() if attr in rel.schema)
    return _RelationPlan(slots, columns, goals)


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
        self._plans: dict[str, _RelationPlan] = {}
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
            self._plans[rel.name] = _plan_relation(compiled.program, rel, compiled.wrappers)

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
        plan = self._plans[name]
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
