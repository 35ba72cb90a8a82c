"""The multi-query optimizer facade: subsume from gold.

One :class:`MultiQueryOptimizer` attaches to a webbase when
``WebBaseConfig.mqo`` is on.  Before executing at all, :meth:`subsume`
looks for a revision-current gold-tier answer that *contains* the query
— same join core, all needed attributes retained, predicate implied
(:mod:`repro.mqo.containment`).  A hit is answered by filtering the
materialized rows: zero fetches, zero plan executions.  A miss executes
normally, and concurrent identical accesses of that execution merge in
the result cache's flights.

The lookup never scans gold.  It reads the answer stored under the
query's own text, then one bucket of an index that keys every answer by
its join core and its condition's singleton equalities (``attr =
const``): a gold conjunct ``make = 'ford'`` is implied only by a query
whose surviving ``make`` values are ``{ford}`` (or none), so the answers
that can contain a query sit under subsets of its own singleton
survivors.  What containment reads of an answer — its parsed condition,
decomposed, its schema and its join core — is derived once, when
:meth:`WebBase.persist_gold` writes it (:meth:`note_answer`) or when the
index is rebuilt because the store opened or compacted.  A miss is always
sound: the query is evaluated.

Staleness cannot leak through (the :mod:`repro.revisions` contract):
subsumption revalidates the serving answer's revision vector against the
live authority at answer time — one maintenance bump on any host *under
the answer's plan* and the gold answer is skipped.  The vector names the
plan's hosts, never the hosts a run's trace shows: a run whose accesses
all waited on another query's cache flights fetched nothing itself, and
would otherwise write an answer that depends on no host.
"""

from __future__ import annotations

import threading
from itertools import combinations
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.mqo.containment import Decomposition, decompose, entails
from repro.relational.conditions import row_test
from repro.relational.relation import Relation
from repro.ur.query import QueryParseError, URQuery, parse_query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.webbase import WebBase

#: A query's feasible maximal objects, as a set of relation sets.
Core = frozenset[frozenset[str]]
#: ``(attribute, constant)`` pairs.
Equalities = frozenset[tuple[str, Any]]


class _Gold(NamedTuple):
    """One gold answer with what containment reads of it, derived once."""

    record: dict[str, Any]
    schema: frozenset[str]
    condition: Decomposition
    core: Core
    key: Equalities  # the condition's singleton equalities


class MultiQueryOptimizer:
    """Containment-based answer reuse for one webbase."""

    def __init__(self, webbase: "WebBase") -> None:
        self.webbase = webbase
        self._lock = threading.Lock()
        # The store the index mirrors, and its compaction count then.
        self._store: Any = None
        self._compactions = 0
        self._by_text: dict[str, _Gold] = {}
        self._buckets: dict[Core, dict[Equalities, dict[str, _Gold]]] = {}

    # -- containment-based reuse ---------------------------------------------

    def subsume(self, text: str) -> tuple[str, Relation] | None:
        """Answer ``text`` from a containing gold answer: the gold query's
        text and the answer, or ``None``.

        A non-``None`` answer is complete and current — produced with zero
        fetches.  Every ``None`` is silent: the caller falls through to
        normal execution.
        """
        store = getattr(self.webbase, "store", None)
        if store is None:
            return None
        record = store.answer(text)
        if record is not None and self._current(store, record):
            return self._finish(record, None)
        try:
            query = parse_query(text)
        except QueryParseError:
            return None  # normal execution surfaces the real error
        try:
            core = _join_core(self.webbase.ur.plan(query))
        except Exception:  # noqa: BLE001 - unplannable: not containable
            return None
        condition = decompose(query.condition)
        needed = {name.lower() for name in query.attributes()}
        for gold in self._candidates(store, core, condition):
            if (
                needed <= gold.schema
                and entails(condition, gold.condition)
                and self._current(store, gold.record)
            ):
                return self._finish(gold.record, query)
        return None

    def _current(self, store: Any, record: dict[str, Any]) -> bool:
        # Stricter than the store's own currency check: the live authority
        # moves first on maintenance, the store hears after.
        return store.answer_current(record) and self.webbase.revisions.all_current(
            record.get("revisions", {})
        )

    def _finish(
        self, record: dict[str, Any], query: URQuery | None
    ) -> tuple[str, Relation] | None:
        """``record``'s rows, filtered and projected for ``query`` unless it
        is the record's own query (``None``)."""
        try:
            answer = Relation(
                record["schema"], [tuple(row) for row in record["rows"]]
            )
            if query is not None:
                if query.condition is not None:
                    test = row_test(query.condition, answer.schema.attrs)
                    answer = answer.select_rows(test(()))
                answer = answer.project(query.outputs)
        except Exception:  # noqa: BLE001 - malformed record: fall through
            return None
        self.webbase.metrics.counter("mqo.subsumed").inc()
        return record["query"], answer

    # -- the index ---------------------------------------------------------------

    def note_answer(self, text: str) -> None:
        """Index the gold answer just written for ``text``, replacing the
        entry of the answer it superseded."""
        store = self.webbase.store
        with self._lock:
            if self._sync(store):
                return
            self._drop(text)
            record = store.answer(text)
            if record is not None:
                self._add(record)

    def _candidates(
        self, store: Any, core: Core, condition: Decomposition
    ) -> list[_Gold]:
        """The answers of ``core`` whose key the query's singleton
        survivors cover, by query text (the order the serving one is
        chosen in).  A contradiction covers every key."""
        singles, contradiction = _singleton_survivors(condition)
        with self._lock:
            self._sync(store)
            buckets = self._buckets.get(core)
            if not buckets:
                return []
            if contradiction or 1 << len(singles) > len(buckets):
                keys = [key for key in buckets if contradiction or key <= singles]
            else:
                keys = [
                    frozenset(subset)
                    for size in range(len(singles) + 1)
                    for subset in combinations(singles, size)
                ]
            found = [gold for key in keys for gold in buckets.get(key, {}).values()]
        found.sort(key=lambda gold: gold.record["query"])
        return found

    def _sync(self, store: Any) -> bool:
        """Rebuild the index when ``store`` is not the one it mirrors or
        has compacted since; whether it did (caller holds the lock)."""
        if store is self._store and store.compactions == self._compactions:
            return False
        self._store, self._compactions = store, store.compactions
        self._by_text, self._buckets = {}, {}
        for record in store.answers():
            self._add(record)
        return True

    def _add(self, record: dict[str, Any]) -> None:
        text = record["query"]
        try:
            query = parse_query(text)
            core = _join_core(self.webbase.ur.plan(query))
        except Exception:  # noqa: BLE001 - unplannable: contains nothing
            return
        condition = decompose(query.condition)
        gold = _Gold(
            record, frozenset(record["schema"]), condition, core, _equalities(condition)
        )
        self._by_text[text] = gold
        self._buckets.setdefault(core, {}).setdefault(gold.key, {})[text] = gold

    def _drop(self, text: str) -> None:
        gold = self._by_text.pop(text, None)
        if gold is None:
            return
        buckets = self._buckets[gold.core]
        del buckets[gold.key][text]
        if not buckets[gold.key]:
            del buckets[gold.key]
            if not buckets:
                del self._buckets[gold.core]


def _join_core(plan: Any) -> Core:
    """The plan's feasible maximal objects, as a set of relation sets — the
    "same join core" precondition of containment."""
    return frozenset(frozenset(obj.relations) for obj in plan.feasible_objects)


def _equalities(condition: Decomposition) -> Equalities:
    """The attributes a condition pins to one constant, with the constant."""
    return frozenset(
        (attr, next(iter(domain.allowed)))
        for attr, domain in condition.domains.items()
        if domain.allowed is not None and len(domain.allowed) == 1
    )


def _singleton_survivors(condition: Decomposition) -> tuple[Equalities, bool]:
    """The attributes whose one surviving value a query pins, and whether
    some attribute has no survivor at all (a contradiction)."""
    singles = set()
    contradiction = False
    for attr, domain in condition.domains.items():
        if domain.allowed is None or domain.unknown:
            continue
        survivors = [value for value in domain.allowed if domain.admits(value)]
        if not survivors:
            contradiction = True
        elif len(survivors) == 1:
            singles.add((attr, survivors[0]))
    return frozenset(singles), contradiction
