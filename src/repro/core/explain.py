"""EXPLAIN: the planner's predictions paired with the measured run.

:func:`explain` plans a UR query, executes it on a fresh engine context,
and walks the resulting trace to put the cost model's per-relation fetch
estimates next to the counts the run actually produced.  The rendered
tree (``python -m repro explain <query>``) is how an operator judges the
cost model: a node whose error stays small is a statistic worth trusting;
one that drifts points at a stale cardinality or distinct-value guess.

A relation's *accesses* are its ``view`` spans under the object, and its
*live fetches* are the ``fetch`` spans with ``cache == "miss"`` beneath
those views — cache hits cost nothing on the Web, so they are not
charged.  The pages those fetches navigated are reported beside them;
the cost model predicts fetches, not pages.  Running a query through
EXPLAIN changes no estimate: the model is static.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.execution import TraceSpan
from repro.relational.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.webbase import WebBase


@dataclass
class ExplainNode:
    """One relation's slot in an object's join order: estimate vs. run."""

    relation: str
    mode: str  # scan | independent | probe
    est_accesses: float
    est_fetches: float
    actual_accesses: int
    actual_fetches: int
    actual_pages: int = 0  # pages the live fetches navigated

    @property
    def error_pct(self) -> float | None:
        """Signed estimate error relative to the actual live fetches
        (``None`` when the run fetched nothing — nothing to divide by)."""
        if self.actual_fetches == 0:
            return None
        return 100.0 * (self.est_fetches - self.actual_fetches) / self.actual_fetches

    def describe(self) -> str:
        if self.error_pct is None:
            error = "n/a"
        else:
            error = "%+.0f%%" % self.error_pct
        line = (
            "%s [%s]  est %.1f fetches / %.1f accesses, "
            "actual %d fetches / %d accesses, err %s"
            % (
                self.relation,
                self.mode,
                self.est_fetches,
                self.est_accesses,
                self.actual_fetches,
                self.actual_accesses,
                error,
            )
        )
        if self.actual_pages:
            line += ", %d page(s)" % self.actual_pages
        return line


@dataclass
class ExplainObject:
    """One maximal object: its chosen order with per-node numbers."""

    relations: tuple[str, ...]
    strategy: str
    nodes: list[ExplainNode] = field(default_factory=list)
    skipped: str = ""
    # The object's plan fingerprint prefix (when ``--mqo`` is on).
    fingerprint: str = ""
    # "hit" when the answer memo served the object without evaluating it
    # (its cache reads were all current), "contained" when it served the
    # object's core filtered by the residual: no view was accessed.
    memo: str = ""

    @property
    def est_fetches(self) -> float:
        return sum(n.est_fetches for n in self.nodes)

    @property
    def actual_fetches(self) -> int:
        return sum(n.actual_fetches for n in self.nodes)


@dataclass
class ExplainReport:
    """The full EXPLAIN for one UR query."""

    query_text: str
    optimizer: str
    objects: list[ExplainObject] = field(default_factory=list)
    rows: int = 0
    trace: TraceSpan | None = field(default=None, repr=False)
    # Containment verdict: the gold query whose revision-current answer
    # subsumed this one (zero fetches), or "" when it ran normally.
    subsumed_by: str = ""

    @property
    def est_fetches(self) -> float:
        return sum(o.est_fetches for o in self.objects)

    @property
    def actual_fetches(self) -> int:
        return sum(o.actual_fetches for o in self.objects)

    def render(self) -> str:
        lines = [
            "explain: %s" % self.query_text,
            "optimizer=%s, %d answer row(s)" % (self.optimizer, self.rows),
        ]
        if self.subsumed_by:
            lines.append(
                "subsumed by gold answer %r — served by filtering "
                "materialized rows, 0 live fetches" % self.subsumed_by
            )
        for obj in self.objects:
            if obj.skipped:
                lines.append(
                    "object %s  [skipped: %s]"
                    % (" ⋈ ".join(obj.relations), obj.skipped)
                )
                continue
            tags = [obj.strategy]
            if obj.fingerprint:
                tags.append("fp %s" % obj.fingerprint)
            if obj.memo:
                tags.append("memo %s" % obj.memo)
            lines.append(
                "object %s  [%s, est %.1f fetches, actual %d]"
                % (
                    " ⋈ ".join(obj.relations),
                    ", ".join(tags),
                    obj.est_fetches,
                    obj.actual_fetches,
                )
            )
            for depth, node in enumerate(obj.nodes):
                lines.append("  " * (depth + 1) + "→ " + node.describe())
        lines.append(
            "total: est %.1f live fetches, actual %d"
            % (self.est_fetches, self.actual_fetches)
        )
        return "\n".join(lines)


def _actuals(object_span: TraceSpan, relation: str) -> tuple[int, int, int]:
    """(accesses, live fetches, pages) for ``relation`` under one object
    span."""
    accesses = fetches = pages = 0
    for view in object_span.spans("view"):
        if view.name != relation:
            continue
        # A batched probe collapses K per-binding accesses into one view
        # span carrying ``batch=K`` — still K accesses for cost purposes.
        accesses += int(view.attrs.get("batch", 1))
        fetches += sum(1 for f in view.spans("fetch") if f.cache == "miss")
        pages += sum(f.pages for f in view.spans("fetch") if f.cache == "miss")
    return accesses, fetches, pages


def explain(webbase: "WebBase", text: str) -> ExplainReport:
    """Run ``text`` on the query path (:meth:`WebBase.query_stream`: a
    revision-current gold answer subsumes it, and an attached store gets
    its gold), then pair every plan node's estimate with the measured
    access/fetch counts from the run's trace."""
    ctx = webbase.execution_context(label="explain:%s" % text)
    pieces = list(webbase.query_stream(text, ctx))
    # A gold piece has no object: the query never reached the Web.
    subsumed = pieces[0][0] is None
    plan = webbase.plan(text)
    report = ExplainReport(
        query_text=text,
        optimizer=plan.optimizer,
        rows=len(Relation.union_of([piece for _, piece in pieces])),
        trace=None if subsumed else ctx.root,
        subsumed_by=webbase.mqo.last_subsumed_by if subsumed else "",
    )
    object_spans = {s.name: s for s in ctx.root.spans("object")}
    for obj in plan.objects:
        if not obj.feasible:
            report.objects.append(
                ExplainObject(obj.relations, strategy="-", skipped=obj.note)
            )
            continue
        strategy = obj.estimate.strategy if obj.estimate is not None else "fixed"
        explained = ExplainObject(
            obj.relations,
            strategy=strategy,
            fingerprint=obj.fingerprint[:12] if webbase.mqo is not None else "",
        )
        report.objects.append(explained)
        if subsumed:
            continue
        span = object_spans.get(" ⋈ ".join(obj.relations))
        if span is not None:
            explained.memo = str(span.attrs.get("memo", ""))
        steps = list(obj.estimate.steps) if obj.estimate is not None else []
        for position, relation in enumerate(obj.relations):
            step = steps[position] if position < len(steps) else None
            accesses, fetches, pages = (
                _actuals(span, relation) if span is not None else (0, 0, 0)
            )
            explained.nodes.append(
                ExplainNode(
                    relation=relation,
                    mode=step.mode if step is not None else "?",
                    est_accesses=step.est_accesses if step is not None else 0.0,
                    est_fetches=step.est_fetches if step is not None else 0.0,
                    actual_accesses=accesses,
                    actual_fetches=fetches,
                    actual_pages=pages,
                )
            )
    return report
