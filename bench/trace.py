"""Spans at the layer boundaries, recorded from outside the program.

One table — :data:`BOUNDARIES` — maps each layer (a package under
``src/repro``) to the public callables at its boundary.  :class:`Tracer`
replaces each with a wrapper that records a span, keeps the spans in
memory, and puts the originals back on :meth:`Tracer.uninstall`.  A name
that no longer resolves raises :class:`BoundaryError`: losing a layer
silently would make every share computed from the trace wrong.

A span's *self time* is the CPU time its thread spent inside it minus
the CPU time of its child spans on the same thread.  CPU, not wall: the
engine fans one query out over up to eight threads that take turns on
the interpreter lock, so wall time inside parallel spans counts the same
interval once per waiting thread, while thread CPU time adds up to what
the query cost.  Children on other threads run on their own CPU clock
and are never subtracted.  Wall start and end are kept for durations
that a caller waits for (a sweep, a restart).
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

# -- counts taken at the boundary ---------------------------------------------------


def _count_result(args: tuple, result: Any) -> int:
    """Rows of a relation, a list of relations, or a result-stats dict."""
    if isinstance(result, dict):
        return int(result.get("rows", 0))
    if isinstance(result, (list, tuple)):
        return sum(len(item) for item in result)
    return len(result) if result is not None else 0


def _count_body(args: tuple, result: Any) -> int:
    return len(args[-1])  # parse_page(url, body)


def _count_response(args: tuple, result: Any) -> int:
    return len(args[-1].body)  # record_page(self, request, response)


def _count_objects(args: tuple, result: Any) -> int:
    return len(result.feasible_objects)


@dataclass(frozen=True)
class Boundary:
    """One span name and the callables recorded under it.

    ``targets`` are ``module:attribute`` or ``module:Class.method``.
    ``root`` spans start a query: every span below one shares its id.
    ``count`` takes a number at the boundary (rows, bytes) from the
    call's arguments and result."""

    span: str
    targets: tuple[str, ...]
    root: bool = False
    count: Callable[[tuple, Any], int] | None = None


#: layer -> its boundaries.  Layers are the packages under ``src/repro``.
BOUNDARIES: dict[str, tuple[Boundary, ...]] = {
    "service": (
        Boundary(
            "service.codec",
            (
                "repro.service.protocol:encode",
                "repro.service.protocol:decode_line",
                "repro.service.protocol:parse_request",
            ),
        ),
        Boundary(
            "service.execute",
            ("repro.service.server:WebBaseService._execute",),
            root=True,
            count=_count_result,
        ),
    ),
    "cluster": (
        Boundary(
            "cluster.dispatch", ("repro.cluster.router:ClusterRouter.dispatch",), root=True
        ),
        Boundary(
            "cluster.route",
            (
                "repro.cluster.router:ClusterRouter.plan_hosts",
                "repro.cluster.router:ClusterRouter.route_for",
            ),
        ),
    ),
    "mqo": (
        Boundary("mqo.subsume", ("repro.mqo.optimizer:MultiQueryOptimizer.subsume",)),
        Boundary("mqo.fingerprint", ("repro.relational.planner:plan_fingerprint",)),
    ),
    "ur": (
        Boundary("ur.plan", ("repro.ur.planner:StructuredUR.plan",), count=_count_objects),
        Boundary(
            "ur.answer",
            (
                "repro.ur.planner:StructuredUR.answer",
                "repro.ur.planner:StructuredUR.answer_stream",
            ),
        ),
    ),
    "relational": (
        Boundary("relational.order", ("repro.relational.planner:JoinOrderPlanner.plan",)),
        Boundary(
            "relational.algebra",
            (
                "repro.relational.algebra:evaluate",
                "repro.relational.algebra:evaluate_batch",
            ),
        ),
    ),
    "logical": (
        Boundary(
            "logical.fetch",
            (
                "repro.logical.schema:LogicalSchema.fetch",
                "repro.logical.schema:LogicalSchema.fetch_batch",
            ),
            count=_count_result,
        ),
    ),
    "vps": (
        Boundary(
            "vps.cache",
            ("repro.vps.cache:ResultCache.fetch", "repro.vps.cache:ResultCache.fetch_batch"),
        ),
    ),
    "core": (
        Boundary(
            "core.query", ("repro.core.webbase:WebBase.query",), root=True, count=_count_result
        ),
        Boundary(
            "core.run_fetch",
            (
                "repro.core.execution:ExecutionContext.run_fetch",
                "repro.core.execution:ExecutionContext.run_fetch_batch",
            ),
        ),
    ),
    "navigation": (
        Boundary("navigation.fetch", ("repro.navigation.executor:NavigationExecutor.fetch",)),
        Boundary(
            "navigation.extract",
            (
                "repro.navigation.extract:TableWrapper.extract",
                "repro.navigation.extract:LabeledWrapper.extract",
            ),
            count=_count_result,
        ),
        Boundary("navigation.sweep", ("repro.core.webbase:WebBase.run_maintenance",)),
    ),
    "flogic": (Boundary("flogic.solve", ("repro.flogic.engine:Engine.solve",)),),
    "web": (
        Boundary("web.parse", ("repro.web.page:parse_page",), count=_count_body),
        Boundary("web.browser", ("repro.web.browser:Browser.request",)),
    ),
    "sites": (Boundary("sites.render", ("repro.web.server:WebServer.fetch",)),),
    "store": (
        Boundary(
            "store.record_page",
            ("repro.store.tiered:TieredStore.record_page",),
            count=_count_response,
        ),
        Boundary(
            "store.write",
            (
                "repro.store.tiered:TieredStore.record_intent",
                "repro.store.tiered:TieredStore.persist_result",
                "repro.store.tiered:TieredStore.persist_answer",
            ),
        ),
    ),
}

LAYER_OF = {
    boundary.span: layer
    for layer, boundaries in BOUNDARIES.items()
    for boundary in boundaries
}


class BoundaryError(LookupError):
    """A name in :data:`BOUNDARIES` does not resolve to a callable."""


@dataclass(eq=False)
class Span:
    id: int
    parent: int  # 0 = none
    query: int  # 0 = outside any query
    name: str
    thread: int
    start_ns: int = 0  # wall, first entry
    end_ns: int = 0  # wall, last exit
    wall_ns: int = 0  # wall inside the span (less than end - start for a generator)
    cpu_ns: int = 0  # CPU of its thread inside the span
    count: int = 0
    entered_ns: int = 0  # wall and thread-CPU clocks at the latest entry
    entered_cpu_ns: int = 0

    @property
    def layer(self) -> str:
        return LAYER_OF[self.name]


class Tracer:
    """Installs the wrappers, holds the spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Off, a wrapper only tests this flag and calls through.
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- the span stack of a thread ---------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> tuple[int, int]:
        """(span id, query id) that new work on this thread belongs to."""
        stack = self._stack()
        if stack:
            return stack[-1].id, stack[-1].query
        return getattr(self._local, "adopted", (0, 0))

    def _open(self, boundary: Boundary) -> Span:
        parent, query = self._current()
        span = Span(next(self._ids), parent, query, boundary.span, threading.get_ident())
        if boundary.root and not query:
            span.query = span.id
        return span

    def _enter(self, span: Span) -> None:
        self._stack().append(span)
        span.entered_ns = time.perf_counter_ns()
        span.entered_cpu_ns = time.thread_time_ns()
        if not span.start_ns:
            span.start_ns = span.entered_ns

    def _exit(self, span: Span) -> None:
        span.cpu_ns += time.thread_time_ns() - span.entered_cpu_ns
        span.end_ns = time.perf_counter_ns()
        span.wall_ns += span.end_ns - span.entered_ns
        self._stack().remove(span)

    # -- wrappers ---------------------------------------------------------------------

    def _wrap(self, fn: Callable, boundary: Boundary) -> Callable:
        tracer = self

        def skip() -> bool:
            if not tracer.enabled:
                return True
            # evaluate() calls evaluate(): one span for the outermost call.
            stack = tracer._stack()
            return bool(stack) and stack[-1].name == boundary.span

        if inspect.isgeneratorfunction(fn):
            # The span is open only while the generator runs: what its
            # consumer does between two items belongs to the consumer.
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if skip():
                    yield from fn(*args, **kwargs)
                    return
                span = tracer._open(boundary)
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        tracer._enter(span)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(span)
                        yield item
                finally:
                    inner.close()
                    tracer.spans.append(span)

        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if skip():
                    return fn(*args, **kwargs)
                span = tracer._open(boundary)
                tracer._enter(span)
                try:
                    result = fn(*args, **kwargs)
                    if boundary.count is not None:
                        span.count = boundary.count(args, result)
                    return result
                finally:
                    tracer._exit(span)
                    tracer.spans.append(span)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _install_target(self, target: str, boundary: Boundary) -> None:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
            owner: Any = module
            *parents, attribute = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = owner.__dict__[attribute]
        except (ImportError, AttributeError, KeyError) as exc:
            raise BoundaryError("boundary %r does not resolve: %r" % (target, exc)) from exc
        if not callable(original):
            raise BoundaryError("boundary %r is not callable" % target)
        wrapped = self._wrap(original, boundary)
        if owner is not module:
            self._patch(owner, attribute, wrapped)
            return
        # A module-level function is also reachable under every name it
        # was imported by (``from x import f``): replace each reference.
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").split(".")[0] != "repro":
                continue
            for name, value in list(vars(other).items()):
                if value is original:
                    self._patch(other, name, wrapped)

    def install(self, boundaries: Iterable[Boundary] | None = None) -> None:
        """Wrap every boundary (default: all of :data:`BOUNDARIES`) and
        make new threads inherit the span that started them."""
        _import_all("repro")
        if boundaries is None:
            boundaries = [b for group in BOUNDARIES.values() for b in group]
        try:
            for boundary in boundaries:
                for target in boundary.targets:
                    self._install_target(target, boundary)
        except BaseException:
            self.uninstall()
            raise
        tracer = self
        start, run = threading.Thread.start, threading.Thread.run

        def traced_start(thread: threading.Thread) -> None:
            thread._bench_adopted = tracer._current()
            start(thread)

        def traced_run(thread: threading.Thread) -> None:
            tracer._local.adopted = getattr(thread, "_bench_adopted", (0, 0))
            run(thread)

        self._patch(threading.Thread, "start", traced_start)
        self._patch(threading.Thread, "run", traced_run)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def write(self, path: str) -> None:
        """The spans as JSON lines: (name, layer, start, end, parent, query, ...)."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({"layer": span.layer, **span.__dict__}) + "\n")


def _import_all(package: str) -> None:
    """Import every module of ``package`` so that a function imported by
    name somewhere is found wherever it is referenced."""
    import pkgutil

    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


# -- from spans to self times ----------------------------------------------------------


def self_cpu_ns(spans: Iterable[Span]) -> dict[int, int]:
    """span id -> CPU self time: the span's CPU minus that of its child
    spans on the same thread (children elsewhere have their own clock)."""
    spans = list(spans)
    thread_of = {span.id: span.thread for span in spans}
    own = {span.id: span.cpu_ns for span in spans}
    for span in spans:
        if span.parent in own and thread_of[span.parent] == span.thread:
            own[span.parent] -= span.cpu_ns
    return own
