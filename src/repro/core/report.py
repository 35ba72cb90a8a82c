"""Query reports: observability and provenance for UR evaluation.

A webbase query fans out across sites; operators need to see where
answers came from and what they cost.  :func:`run_with_report` evaluates
a UR query *per maximal object* (instead of folding everything into one
union) on the execution engine and accounts for the Web work each object
caused: answer counts, pages fetched per host, simulated network seconds,
and measured cpu time — all read back from the engine's structured trace,
which the report also carries (``report.trace``) for span-level drill-down
(retries, cache hits, per-fetch costs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.execution import ExecutionContext, FetchFailure, TraceSpan
from repro.core.webbase import WebBase
from repro.relational.relation import Relation


@dataclass
class ObjectReport:
    """One maximal object's contribution and cost."""

    relations: tuple[str, ...]
    rows: int
    pages_by_host: dict[str, int]
    network_seconds: float
    cpu_seconds: float
    skipped: str = ""

    @property
    def pages(self) -> int:
        return sum(self.pages_by_host.values())


@dataclass
class QueryReport:
    """The full accounting of one UR query."""

    query_text: str
    answer: Relation
    objects: list[ObjectReport] = field(default_factory=list)
    trace: TraceSpan | None = field(default=None, repr=False)
    failures: list[FetchFailure] = field(default_factory=list)

    @property
    def total_pages(self) -> int:
        return sum(o.pages for o in self.objects)

    @property
    def total_network_seconds(self) -> float:
        return sum(o.network_seconds for o in self.objects)

    @property
    def total_cpu_seconds(self) -> float:
        return sum(o.cpu_seconds for o in self.objects)

    @property
    def total_retries(self) -> int:
        return self.trace.total_retries if self.trace is not None else 0

    def _cache_flag_count(self, flag: str) -> int:
        if self.trace is None:
            return 0
        return sum(1 for s in self.trace.spans("fetch") if s.cache == flag)

    @property
    def cache_hits(self) -> int:
        """Fetches served from a cache (per-context or cross-query)."""
        return self._cache_flag_count("hit")

    @property
    def cache_misses(self) -> int:
        """Fetches that went to the live site."""
        return self._cache_flag_count("miss")

    @property
    def stale_serves(self) -> int:
        """Quarantined entries served with the explicit staleness flag."""
        return self._cache_flag_count("stale")

    def pretty(self) -> str:
        lines = ["query: %s" % self.query_text]
        for obj in self.objects:
            if obj.skipped:
                lines.append("  %s: skipped (%s)" % (" ⋈ ".join(obj.relations), obj.skipped))
                continue
            hosts = ", ".join(
                "%s:%d" % (host, pages)
                for host, pages in sorted(obj.pages_by_host.items())
                if pages
            )
            lines.append(
                "  %s: %d row(s), %d page(s) [%s], %.2fs network, %.3fs cpu"
                % (
                    " ⋈ ".join(obj.relations),
                    obj.rows,
                    obj.pages,
                    hosts or "cache",
                    obj.network_seconds,
                    obj.cpu_seconds,
                )
            )
        lines.append(
            "total: %d answer row(s), %d page(s), %.2fs network, %.3fs cpu"
            % (
                len(self.answer),
                self.total_pages,
                self.total_network_seconds,
                self.total_cpu_seconds,
            )
        )
        if self.cache_hits or self.stale_serves:
            cache_line = "cache: %d hit(s), %d miss(es)" % (
                self.cache_hits,
                self.cache_misses,
            )
            if self.stale_serves:
                cache_line += ", %d served stale" % self.stale_serves
            lines.append(cache_line)
        if self.total_retries:
            lines.append("retries absorbed: %d" % self.total_retries)
        for failure in self.failures:
            lines.append("partial failure: %s" % failure.describe())
        return "\n".join(lines)


def _pages_by_host(span: TraceSpan) -> dict[str, int]:
    """Per-host page counts from the fetch spans under ``span``."""
    pages: dict[str, int] = {}
    for fetch in span.spans("fetch"):
        if fetch.pages:
            host = str(fetch.attrs.get("host", "?"))
            pages[host] = pages.get(host, 0) + fetch.pages
    return pages


def run_with_report(
    webbase: WebBase, query_text: str, context: ExecutionContext | None = None
) -> QueryReport:
    """Evaluate a UR query on the engine (:meth:`WebBase.evaluate_stream`:
    no gold, a real trace), reading each object's Web work and cpu off
    its ``object`` span; the objects' cpu leaves out planning."""
    ctx = context or webbase.execution_context(label=query_text)
    pieces = {
        obj.relations: piece
        for obj, piece in webbase.evaluate_stream(query_text, ctx)
    }
    spans = {span.name: span for span in ctx.root.spans("object")}
    report = QueryReport(
        query_text=query_text,
        answer=Relation.union_of([p for p in pieces.values() if p is not None]),
        trace=ctx.root,
        failures=list(ctx.failures),
    )
    for obj in webbase.plan(query_text).objects:
        if obj.relations not in pieces:
            report.objects.append(
                ObjectReport(obj.relations, 0, {}, 0.0, 0.0, skipped=obj.note)
            )
            continue
        piece = pieces[obj.relations]
        span = spans[" ⋈ ".join(obj.relations)]
        report.objects.append(
            ObjectReport(
                relations=obj.relations,
                rows=0 if piece is None else len(piece),
                pages_by_host=_pages_by_host(span),
                network_seconds=span.total_network_seconds,
                cpu_seconds=span.cpu_seconds,
                skipped=span.error if piece is None else "",
            )
        )
    return report
