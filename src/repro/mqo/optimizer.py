"""The multi-query optimizer facade: subsume from gold.

One :class:`MultiQueryOptimizer` attaches to a webbase when
``WebBaseConfig.mqo`` is on.  Before executing at all, :meth:`subsume`
looks for a revision-current gold-tier answer that *contains* the query
— same join core, all needed attributes retained, predicate implied
(:mod:`repro.mqo.containment`).  A hit is answered by filtering the
materialized rows: zero fetches, zero plan executions.  A miss executes
normally, and concurrent identical accesses of that execution merge in
the result cache's flights.

Staleness cannot leak through (the :mod:`repro.revisions` contract):
subsumption revalidates the stored answer's revision vector against the
live authority at answer time — one maintenance bump on any host *under
the answer's plan* and the gold answer is skipped.  The vector names the
plan's hosts, never the hosts a run's trace shows: a run whose accesses
all waited on another query's cache flights fetched nothing itself, and
would otherwise write an answer that depends on no host.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.mqo.containment import implies
from repro.relational.conditions import row_test
from repro.relational.relation import Relation
from repro.ur.query import QueryParseError, URQuery, parse_query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.webbase import WebBase


class MultiQueryOptimizer:
    """Containment-based answer reuse for one webbase."""

    def __init__(self, webbase: "WebBase") -> None:
        self.webbase = webbase
        # Gold queries replan identically every time (planning is pure
        # CPU over the catalog), so cache their join cores by text.
        self._cores: dict[str, frozenset[frozenset[str]]] = {}
        self._cores_lock = threading.Lock()
        #: The gold query text behind the most recent :meth:`subsume` hit
        #: on this thread's behalf (display only — EXPLAIN reads it).
        self.last_subsumed_by: str = ""

    # -- containment-based reuse ---------------------------------------------

    def subsume(self, text: str) -> Relation | None:
        """Answer ``text`` from a containing gold answer, or ``None``.

        A non-``None`` return is the complete, current answer — produced
        with zero fetches.  Every ``None`` is silent: the caller falls
        through to normal execution.
        """
        store = getattr(self.webbase, "store", None)
        if store is None:
            return None
        try:
            query = parse_query(text)
        except QueryParseError:
            return None  # normal execution surfaces the real error
        candidates = store.current_answers()
        if not candidates:
            return None
        needed = {name.lower() for name in query.attributes()}
        for record in candidates:
            # Stricter than the store's own currency check: the live
            # authority moves first on maintenance, the store hears after.
            if not self.webbase.revisions.all_current(record.get("revisions", {})):
                continue
            if record["query"] == text:
                return self._finish(record, query, exact=True)
            if not needed <= set(record["schema"]):
                continue
            try:
                gold_query = parse_query(record["query"])
            except QueryParseError:
                continue
            if self._join_core(text) != self._join_core(record["query"]):
                continue
            if not implies(query.condition, gold_query.condition):
                continue
            return self._finish(record, query, exact=False)
        return None

    def _finish(
        self, record: dict[str, Any], query: URQuery, exact: bool
    ) -> Relation | None:
        try:
            answer = Relation(
                record["schema"], [tuple(row) for row in record["rows"]]
            )
            if not exact:
                if query.condition is not None:
                    test = row_test(query.condition, answer.schema.attrs)
                    answer = answer.select_rows(test(()))
                answer = answer.project(query.outputs)
        except Exception:  # noqa: BLE001 - malformed record: fall through
            return None
        self.webbase.metrics.counter("mqo.subsumed").inc()
        self.last_subsumed_by = record["query"]
        return answer

    def _join_core(self, text: str) -> frozenset[frozenset[str]] | None:
        """The query's feasible maximal objects, as a set of relation
        sets — the "same join core" precondition of containment."""
        with self._cores_lock:
            core = self._cores.get(text)
        if core is not None:
            return core
        try:
            plan = self.webbase.ur.plan(text)
        except Exception:  # noqa: BLE001 - unplannable: not containable
            return None
        core = frozenset(
            frozenset(obj.relations) for obj in plan.feasible_objects
        )
        with self._cores_lock:
            if len(self._cores) > 512:
                self._cores.clear()
            self._cores[text] = core
        return core
