"""Differential suite: the navigation plan against the F-logic interpreter.

:class:`ReferenceExecutor` runs a relation's compiled rules through
:meth:`repro.flogic.Engine.solve`, with the executor's five action
builtins (``nav_entry``, ``nav_get``, ``nav_follow``, ``nav_submit``,
``nav_extract``), its ``fetch`` and its ``_assignments`` copied unchanged
from the executor that interpreted the rules.  That interpreter is the
specification of navigation, not the engine: the plan must return the
same rows in the same order, navigate the same pages, and raise the same
exception at the same request, on

* every relation × every handle goal × seeded bindings, in all three
  domains, with every site rendered clean and then sloppy;
* every fetch a seeded cold block issues (cars: a ``cold_navigate``
  block; hardware and jobs: ``tests/test_domains.py``'s queries);
* transient faults, a three-page budget and a cancel after *k* pages.

A More chain of 400+ pages, deeper than the interpreter's recursion
reaches, must return every row.

Run it under another seed with ``REPRO_TEST_SEED=31337 pytest
tests/test_navigation_plan.py``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Any, Iterator

import pytest

from repro.flogic.engine import Engine
from repro.flogic.formulas import Pred, Program
from repro.flogic.terms import Struct, Var, resolve, unify
from repro.navigation.compiler import CompiledSite
from repro.navigation.executor import (
    ExecutorError,
    NavigationExecutor,
    PageBudgetExceeded,
)
from repro.web.browser import PrefixPageCache, TransientNetworkError, request_key
from repro.web.html import RenderStyle
from repro.web.http import Request, Url, parse_url
from repro.web.page import FormSpec, WebPage
from repro.web.server import FaultPlan
from tests.conftest import derive_seeds


# -- the reference: the interpreter and its builtins, unchanged -----------------------


class ReferenceExecutor(NavigationExecutor):
    """The executor as it was when ``Engine.solve`` ran every fetch."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.engine = Engine(Program())
        self._wrappers: dict[str, Any] = {}
        self._register_builtins()

    def add_site(self, compiled: CompiledSite) -> None:
        super().add_site(compiled)
        self.engine.program.extend(compiled.program)
        self._wrappers.update(compiled.wrappers)

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
        self._pages = self.page_cache if self.page_cache is not None else PrefixPageCache()
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


# -- worlds, their compiled sites, and the fetches of a cold block ---------------------


class _Domain:
    """One mapped world, the fetches a seeded cold block issued against
    it, and every value seen per attribute (rows and widget domains)."""

    def __init__(self, name: str) -> None:
        from bench.workloads import WORKLOADS, OpStream
        from repro import WebBase
        from tests.test_domains import DOMAINS

        if name == "cars":
            webbase = WebBase.create()
            (seed,) = derive_seeds("nav-plan-cold-block", 1)
            texts = [op.text for op in OpStream(WORKLOADS["cold_navigate"], seed).block()]
        else:
            app, size, truths = DOMAINS[name]
            webbase = WebBase(app.build_world(*size), domain=app)
            texts = list(truths)
        self.world = webbase.world
        self.compiled = sorted(webbase.compiled.values(), key=lambda c: c.host)
        options: dict[str, list] = {}  # attribute -> its widgets' non-empty options
        for builder in webbase.builders.values():
            for node in builder.map.nodes.values():
                for form in node.forms.values():
                    for widget in form.widgets:
                        found = options.setdefault(widget.attr, [])
                        found += [v for v in widget.domain if v and v not in found]
        recorded: dict[tuple, tuple] = {}
        fetch = NavigationExecutor.fetch

        def recording(executor, rel, given, goal=None):
            rows = fetch(executor, rel, given, goal)
            key = (rel, tuple(sorted(given.items())), goal)
            recorded.setdefault(key, (rel, dict(given), goal, rows))
            return rows

        NavigationExecutor.fetch = recording
        try:
            for text in texts:
                webbase.query(text)
            # Rows for the relations the queries did not reach: each handle
            # with a mandatory attribute bound to a few of its options.
            reached = {rel for rel, _given, _goal in recorded}
            for compiled in self.compiled:
                for rel in compiled.relations:
                    for handle in rel.handles if rel.name not in reached else ():
                        for attr in sorted(handle.mandatory):
                            for option in options.get(attr, [])[:4]:
                                given = {attr: option}
                                webbase.executor.fetch(rel.name, given, goal=handle.goal)
        finally:
            NavigationExecutor.fetch = fetch
        self.calls = [(rel, given, goal) for rel, given, goal, _ in recorded.values()]
        self.rows: dict[str, list[dict]] = {}
        values = {attr: set(found) for attr, found in options.items()}
        for rel, _given, _goal, rows in recorded.values():
            self.rows.setdefault(rel, []).extend(rows)
            for row in rows:
                for attr, value in row.items():
                    if value is not None:
                        values.setdefault(attr, set()).add(value)
        self.pool = {attr: sorted(found) for attr, found in values.items()}

    def seeded_calls(self, seed: int, per_goal: int = 6) -> list[tuple]:
        """Every relation × every handle goal × ``per_goal`` seeded
        bindings: the goal's mandatory attributes bound (now and then one
        left free, for the widgets to enumerate), some optional or output
        attributes too, now and then to a value no site has.  Most draw
        their values from one row the cold block saw, so they hit."""
        rng = random.Random(seed)
        calls = []
        for compiled in self.compiled:
            for rel in compiled.relations:
                for goal in dict.fromkeys([rel.name] + [h.goal for h in rel.handles]):
                    # A handle's own goal, or the union of a multi-handle
                    # relation with every handle satisfied at once.
                    handles = [h for h in rel.handles if h.goal == goal] or rel.handles
                    mandatory = sorted(set().union(*(h.mandatory for h in handles)))
                    optional = sorted(
                        set(rel.schema).union(*(h.selection for h in handles)) - set(mandatory)
                    )
                    for _ in range(per_goal):
                        seen = self.rows.get(rel.name)
                        row = rng.choice(seen) if seen and rng.random() < 0.7 else {}

                        def value(attr: str) -> str:
                            if row.get(attr) is not None:
                                return row[attr]
                            return rng.choice(self.pool.get(attr) or ["none"])

                        given = {attr: value(attr) for attr in mandatory}
                        for attr in optional:
                            if rng.random() < 0.2:
                                given[attr] = value(attr)
                        if given and rng.random() < 0.15:
                            given[rng.choice(sorted(given))] = "no such value"
                        elif mandatory and rng.random() < 0.1:
                            del given[rng.choice(mandatory)]
                        calls.append((rel.name, given, goal))
        return calls

    def executors(self, **kwargs: Any) -> tuple[NavigationExecutor, ReferenceExecutor]:
        plan = NavigationExecutor(self.world.server, **kwargs)
        reference = ReferenceExecutor(self.world.server, **kwargs)
        for compiled in self.compiled:
            plan.add_site(compiled)
            reference.add_site(compiled)
        return plan, reference


@pytest.fixture(scope="module")
def domains() -> Any:
    """Each domain mapped and cold-queried once per module, on demand."""
    built: dict[str, _Domain] = {}

    def domain(name: str) -> _Domain:
        if name not in built:
            built[name] = _Domain(name)
        return built[name]

    return domain


@contextmanager
def _rendered(world: Any, style: str) -> Iterator[None]:
    """Every site of ``world`` rendered in one style, restored on exit."""
    sites = [world.server.site(host) for host in world.server.hosts]
    saved = [site.style for site in sites]
    for site in sites:
        site.style = RenderStyle.sloppy() if style == "sloppy" else RenderStyle.clean()
    try:
        yield
    finally:
        for site, old in zip(sites, saved):
            site.style = old


def _outcome(executor: NavigationExecutor, server: Any, call: tuple) -> tuple:
    """Rows in order — or the exception and its message — plus the pages
    the fetch navigated, the requests it sent (in order) and the faults
    it met."""
    name, given, goal = call
    sent: list = []
    faults = sum(stats.faults for stats in server.stats.values())
    server.page_sink = lambda request, _response: sent.append(request_key(request))
    try:
        result: Any = executor.fetch(name, dict(given), goal=goal)
    except Exception as exc:  # the failure point is part of the outcome
        result = (type(exc), str(exc))
    finally:
        server.page_sink = None
    faults = sum(stats.faults for stats in server.stats.values()) - faults
    return result, executor.pages_last_fetch, sent, faults


# -- the plan equals the interpreter ------------------------------------------------------


@pytest.mark.parametrize("style", ["clean", "sloppy"])
@pytest.mark.parametrize("name", ["cars", "hardware", "jobs"])
def test_the_plan_returns_what_the_interpreter_returns(domains, name, style):
    domain = domains(name)
    (seed,) = derive_seeds("nav-plan-bindings-%s" % name, 1)
    calls = domain.calls + domain.seeded_calls(seed)
    rows = 0
    with _rendered(domain.world, style):
        plan, reference = domain.executors()
        for call in calls:
            expected = _outcome(reference, domain.world.server, call)
            assert _outcome(plan, domain.world.server, call) == expected, call
            if isinstance(expected[0], list):
                rows += len(expected[0])
    assert rows > 0 and len(domain.calls) > 0, "the calls must navigate"


class _Cancelled(Exception):
    pass


@pytest.mark.parametrize("arm", ["faults", "budget", "cancel"])
def test_the_plan_fails_where_the_interpreter_fails(domains, arm):
    """The same exception after the same live requests: a transient fault
    (no retries here — they belong to the execution context), a page
    budget of three, and a cancel polled before the *k*-th page."""
    domain = domains("cars")
    (seed,) = derive_seeds("nav-plan-failures-%s" % arm, 1)
    rng = random.Random(seed)
    server = domain.world.server
    calls = domain.calls + domain.seeded_calls(seed, per_goal=1)
    plan, reference = domain.executors(max_pages_per_fetch=3 if arm == "budget" else 500)
    failures = {
        "faults": TransientNetworkError,
        "budget": PageBudgetExceeded,
        "cancel": _Cancelled,
    }[arm]
    failed = 0
    for call in calls:
        fault_seed, after = rng.randrange(2**31), rng.randrange(1, 8)
        outcomes = []
        for executor in (reference, plan):
            if arm == "faults":
                server.install_faults(FaultPlan(seed=fault_seed, error_rate=0.2))
            polls = []

            def cancel_check() -> None:
                polls.append(None)
                if arm == "cancel" and len(polls) >= after:
                    raise _Cancelled("cancelled before page %d" % len(polls))

            executor.cancel_check = cancel_check
            try:
                outcomes.append(_outcome(executor, server, call) + (len(polls),))
            finally:
                server.install_faults(None)
        assert outcomes[1] == outcomes[0], call
        result = outcomes[0][0]
        failed += isinstance(result, tuple) and issubclass(result[0], failures)
    assert failed > 0, "the %s arm must make some fetch fail" % arm


# -- pagination is a loop ---------------------------------------------------------------


def test_a_more_chain_of_400_pages_returns_every_row():
    from repro.domains.cars.sessions import map_newsday
    from repro.navigation.compiler import compile_map
    from repro.sites.world import build_world, mutate_site_listings

    world = build_world()
    executor = NavigationExecutor(world.server)
    executor.add_site(compile_map(map_newsday(world).map))
    mutate_site_listings(world, "www.newsday.com", "ford", "escort", count=4100)
    rows = executor.fetch("newsday", {"make": "ford"})
    expected = world.dataset.ads_for("www.newsday.com", make="ford")
    assert executor.pages_last_fetch >= 400
    assert len(rows) == len(expected)
    assert {r["contact"] for r in rows} == {ad.contact for ad in expected}
