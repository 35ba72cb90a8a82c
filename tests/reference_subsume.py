"""The linear gold scan ``MultiQueryOptimizer.subsume`` used to run, kept
as the reference its indexed lookup is judged against
(``tests/test_subsume_index.py``).

Every query it walked every revision-current gold answer in text order,
re-parsed each candidate and re-planned it for its join core, and served
the first that is the query's own text or contains it.  It reads the
webbase and never writes: no counter moves and nothing is remembered.
"""

from __future__ import annotations

from typing import Any

from repro.mqo.containment import implies
from repro.relational.conditions import row_test
from repro.relational.relation import Relation
from repro.ur.query import QueryParseError, URQuery, parse_query


def reference_subsume(webbase: Any, text: str) -> tuple[str, Relation] | None:
    """``(gold query text, answer)`` from the first revision-current gold
    answer that is ``text``'s own or contains it, else ``None``."""
    store = getattr(webbase, "store", None)
    if store is None:
        return None
    try:
        query = parse_query(text)
    except QueryParseError:
        return None
    candidates = store.current_answers()
    if not candidates:
        return None
    needed = {name.lower() for name in query.attributes()}
    for record in candidates:
        # Stricter than the store's own currency check: the live
        # authority moves first on maintenance, the store hears after.
        if not webbase.revisions.all_current(record.get("revisions", {})):
            continue
        if record["query"] == text:
            return _finish(record, query, exact=True)
        if not needed <= set(record["schema"]):
            continue
        try:
            gold_query = parse_query(record["query"])
        except QueryParseError:
            continue
        if _join_core(webbase, text) != _join_core(webbase, record["query"]):
            continue
        if not implies(query.condition, gold_query.condition):
            continue
        return _finish(record, query, exact=False)
    return None


def _finish(
    record: dict[str, Any], query: URQuery, exact: bool
) -> tuple[str, Relation] | None:
    try:
        answer = Relation(record["schema"], [tuple(row) for row in record["rows"]])
        if not exact:
            if query.condition is not None:
                test = row_test(query.condition, answer.schema.attrs)
                answer = answer.select_rows(test(()))
            answer = answer.project(query.outputs)
    except Exception:  # noqa: BLE001 - malformed record: fall through
        return None
    return record["query"], answer


def _join_core(webbase: Any, text: str) -> frozenset[frozenset[str]] | None:
    """The query's feasible maximal objects, as a set of relation sets."""
    try:
        plan = webbase.ur.plan(text)
    except Exception:  # noqa: BLE001 - unplannable: not containable
        return None
    return frozenset(frozenset(obj.relations) for obj in plan.feasible_objects)
