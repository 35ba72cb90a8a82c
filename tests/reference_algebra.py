"""The relational algebra's interpreter: the reference the compiled plans
are checked against.

This is the evaluator :mod:`repro.relational.algebra` ran before it
compiled each expression into a plan: every call walks the expression
node by node, re-derives each join's and union's feasibility from the
binding sets, re-filters every node's result on its bindings, and tests
selection conditions on a dict per row.  It is the executable form of
the Section-5 rules, and ``tests/test_algebra_plans.py`` requires the
plans to agree with it on rows, fetch sequence, failures and trace.

:class:`ReferenceViews` evaluates a logical schema's views with this
interpreter too, so an object evaluated here shares no algebra code with
the plans.
"""

from __future__ import annotations

from typing import Any

from repro.relational.algebra import (
    Base,
    Catalog,
    Derive,
    Expr,
    Fixed,
    Join,
    Project,
    Rename,
    Select,
    Union,
    binding_sets_of,
    schema_of,
)
from repro.relational.bindings import BindingError, BindingSets, feasible
from repro.relational.conditions import equality_bindings
from repro.relational.relation import Relation
from repro.relational.schema import Schema


class ReferenceViews:
    """A logical schema as a catalog whose views run on the interpreter,
    with :class:`~repro.logical.schema.LogicalRelation`'s spans."""

    def __init__(self, logical: Any) -> None:
        self.logical = logical

    def base_schema(self, name: str) -> Schema:
        return self.logical.base_schema(name)

    def base_binding_sets(self, name: str) -> BindingSets:
        return self.logical.base_binding_sets(name)

    def fetch(self, name: str, given: dict[str, Any], context: Any = None) -> Relation:
        view = self.logical.relation(name)
        if context is None:
            return evaluate(view.definition, view._vps, given)
        with context.span("view", name):
            return evaluate(view.definition, view._vps, given, context)

    def fetch_batch(
        self, name: str, givens: list[dict[str, Any]], context: Any = None
    ) -> list[Relation]:
        view = self.logical.relation(name)
        if context is None:
            return [evaluate(view.definition, view._vps, given) for given in givens]
        with context.span("view", name) as span:
            span.attrs["batch"] = len(givens)
            return evaluate_batch(view.definition, view._vps, givens, context)


def _branches(expr: Join | Union, catalog: Catalog) -> tuple:
    """``(left sets, right sets, left schema, right schema)`` of a binary
    node: a property of the immutable node and its catalog, so derived
    once and remembered on the node.  A view definition's nodes live as
    long as the view, so its branch feasibility is worked out once per
    definition, not once per probe."""
    memo = expr.__dict__.get("_branches")
    if memo is None or memo[0] is not catalog:
        memo = (
            catalog,
            binding_sets_of(expr.left, catalog),
            binding_sets_of(expr.right, catalog),
            schema_of(expr.left, catalog),
            schema_of(expr.right, catalog),
        )
        expr.__dict__["_branches"] = memo  # frozen dataclass: not a field
    return memo[1:]



def evaluate(
    expr: Expr,
    catalog: Catalog,
    given: dict[str, Any] | None = None,
    context: Any = None,
) -> Relation:
    """Evaluate ``expr`` with the bound attribute values in ``given``.

    ``given`` values are pushed into base fetches (satisfying mandatory
    attributes and narrowing results at the source) and are additionally
    applied as equality filters, so the result is exactly the sub-relation
    consistent with ``given``.

    ``context`` is an :class:`~repro.core.execution.ExecutionContext` (or
    anything with its ``map``/``run_fetch`` shape).  When present, it is
    handed to base fetches and used to fan out the independent branches of
    the tree — both sides of a union, and the probe batch of a dependent
    join — through its one fan-out, which runs them in order and models
    their overlap on its lanes, so the answer is the sequential one.
    """
    given = dict(given or {})
    if isinstance(expr, Base):
        if context is None:
            relation = catalog.fetch(expr.name, given)
        else:
            relation = catalog.fetch(expr.name, given, context=context)
        return _filter_given(relation, given)
    if isinstance(expr, Fixed):
        return _filter_given(expr.relation, given)
    if isinstance(expr, Select):
        constants = equality_bindings(expr.condition)
        child_given = dict(given)
        child_given.update(constants)
        result = evaluate(expr.child, catalog, child_given, context)
        # The caller's bound values still constrain the result even when the
        # selection's own constants contradict them (contradiction => empty).
        return _filter_given(_select(result, expr.condition), given)
    if isinstance(expr, Project):
        # Bound values for projected-away attributes must be applied before
        # projecting; evaluate the child with all of them, then project.
        return evaluate(expr.child, catalog, given, context).project(expr.attrs)
    if isinstance(expr, Rename):
        reverse = {new: old for old, new in expr.mapping}
        child_given = {reverse.get(a, a): v for a, v in given.items()}
        return evaluate(expr.child, catalog, child_given, context).rename(
            expr.mapping_dict
        )
    if isinstance(expr, Derive):
        child_given = {a: v for a, v in given.items() if a != expr.attr}
        result = evaluate(expr.child, catalog, child_given, context).derive(
            expr.attr, expr.fn
        )
        return _filter_given(result, given)
    if isinstance(expr, Join):
        return _evaluate_join(expr, catalog, given, context)
    if isinstance(expr, Union):
        left_sets, right_sets, _, _ = _branches(expr, catalog)
        bound = frozenset(given)
        left_ok = feasible(left_sets, bound)
        right_ok = feasible(right_sets, bound)
        if left_ok and right_ok:
            if context is not None:
                left, right = context.map(
                    lambda side: evaluate(side, catalog, given, context),
                    [expr.left, expr.right],
                )
            else:
                left = evaluate(expr.left, catalog, given)
                right = evaluate(expr.right, catalog, given)
            return left.union(right)
        if expr.relaxed and (left_ok or right_ok):
            side = expr.left if left_ok else expr.right
            return evaluate(side, catalog, given, context)
        raise BindingError(
            "union not computable with bound attributes %s" % sorted(bound)
        )
    raise TypeError("unknown expression %r" % (expr,))


def _select(relation: Relation, condition: Any) -> Relation:
    """The rows ``condition`` accepts, tested on a dict per row."""
    attrs = relation.schema.attrs
    return relation.select_rows(lambda row: condition.evaluate(dict(zip(attrs, row))))


def _filter_given(relation: Relation, given: dict[str, Any]) -> Relation:
    """``relation`` cut down to the rows consistent with ``given``.  A
    relation probed again on the same columns — a fetched (cached)
    relation, a literal, a memoised derivation — reads an index
    (:meth:`Relation.where`)."""
    positions, picks = relation.schema.columns(tuple(given))
    if not positions:
        return relation
    values = tuple(given.values())
    if len(picks) == 1:
        return relation.where(positions, values[picks[0]])
    return relation.where(positions, tuple(values[i] for i in picks))


def evaluate_batch(
    expr: Expr,
    catalog: Catalog,
    givens: list[dict[str, Any]],
    context: Any = None,
) -> list[Relation]:
    """Evaluate ``expr`` under each binding in ``givens`` — the batched
    form of :func:`evaluate`, with identical per-binding results.

    This is the probe-batch fast path of a dependent join: instead of K
    independent evaluations (each walking a site's navigation prefix from
    the entry page), the batch descends the expression *together* and
    hands whole binding lists to base relations whose catalog supports
    ``fetch_batch``, so the engine runs them over one query-scoped page
    cache that walks the shared prefix once.  Nodes without a batched
    form (nested joins, heterogeneous union feasibility) fall back to
    per-binding evaluation fanned out on the context.
    """
    givens = [dict(given or {}) for given in givens]
    if not givens:
        return []
    if context is None or len(givens) == 1:
        return [evaluate(expr, catalog, given, context) for given in givens]
    if isinstance(expr, Base):
        fetch_batch = getattr(catalog, "fetch_batch", None)
        if fetch_batch is None:
            relations = context.map(
                lambda given: catalog.fetch(expr.name, given, context=context),
                givens,
            )
        else:
            relations = fetch_batch(expr.name, givens, context=context)
        return [
            _filter_given(relation, given)
            for relation, given in zip(relations, givens)
        ]
    if isinstance(expr, Fixed):
        return [_filter_given(expr.relation, given) for given in givens]
    if isinstance(expr, Select):
        constants = equality_bindings(expr.condition)
        child_givens = []
        for given in givens:
            child_given = dict(given)
            child_given.update(constants)
            child_givens.append(child_given)
        results = evaluate_batch(expr.child, catalog, child_givens, context)
        return [
            _filter_given(_select(result, expr.condition), given)
            for result, given in zip(results, givens)
        ]
    if isinstance(expr, Project):
        results = evaluate_batch(expr.child, catalog, givens, context)
        return [result.project(expr.attrs) for result in results]
    if isinstance(expr, Rename):
        reverse = {new: old for old, new in expr.mapping}
        child_givens = [
            {reverse.get(a, a): v for a, v in given.items()} for given in givens
        ]
        results = evaluate_batch(expr.child, catalog, child_givens, context)
        return [result.rename(expr.mapping_dict) for result in results]
    if isinstance(expr, Derive):
        child_givens = [
            {a: v for a, v in given.items() if a != expr.attr} for given in givens
        ]
        results = evaluate_batch(expr.child, catalog, child_givens, context)
        return [
            _filter_given(result.derive(expr.attr, expr.fn), given)
            for result, given in zip(results, givens)
        ]
    if isinstance(expr, Union):
        # Probe batches share one bound-attribute key set, so union
        # feasibility is uniform across the batch; when it is not (mixed
        # callers), fall back to per-binding evaluation.
        bound_sets = {frozenset(given) for given in givens}
        if len(bound_sets) == 1:
            bound = next(iter(bound_sets))
            left_sets, right_sets, _, _ = _branches(expr, catalog)
            left_ok = feasible(left_sets, bound)
            right_ok = feasible(right_sets, bound)
            if left_ok and right_ok:
                left_batch, right_batch = context.map(
                    lambda side: evaluate_batch(side, catalog, givens, context),
                    [expr.left, expr.right],
                )
                return [
                    left.union(right)
                    for left, right in zip(left_batch, right_batch)
                ]
            if expr.relaxed and (left_ok or right_ok):
                side = expr.left if left_ok else expr.right
                return evaluate_batch(side, catalog, givens, context)
            raise BindingError(
                "union not computable with bound attributes %s" % sorted(bound)
            )
    # Joins (and anything without a batched form): per-binding evaluation,
    # through the context's fan-out.
    return context.map(
        lambda given: evaluate(expr, catalog, given, context), givens
    )


def _evaluate_join(
    expr: Join, catalog: Catalog, given: dict[str, Any], context: Any = None
) -> Relation:
    bound = frozenset(given)
    left_sets, right_sets, left_schema, right_schema = _branches(expr, catalog)
    common = sorted(left_schema.common(right_schema))

    for first, first_sets, second, second_sets, second_schema in (
        (expr.left, left_sets, expr.right, right_sets, right_schema),
        (expr.right, right_sets, expr.left, left_sets, left_schema),
    ):
        if not feasible(first_sets, bound):
            continue
        if feasible(second_sets, bound):
            # Independent: both sides computable from the given bindings.
            if context is not None:
                first_rel, second_rel = context.map(
                    lambda side: evaluate(side, catalog, given, context),
                    [first, second],
                )
            else:
                first_rel = evaluate(first, catalog, given)
                second_rel = evaluate(second, catalog, given)
            return first_rel.natural_join(second_rel)
        if feasible(second_sets, bound | frozenset(common)):
            # Dependent: feed common-attribute values from the first side.
            first_rel = evaluate(first, catalog, given, context)
            feds = []
            for combo in first_rel.distinct_values(common):
                fed = dict(given)
                fed.update(zip(common, combo))
                feds.append(fed)
            if context is None:
                # The paper's per-binding rule, as written: the reference
                # the engine paths are checked against.
                pieces = [evaluate(second, catalog, fed) for fed in feds]
            elif feds:
                # The whole probe set descends the second side together, so
                # base relations receive one ``fetch_batch`` — one shared
                # navigation prefix, K submissions — instead of K walks.
                pieces = evaluate_batch(second, catalog, feds, context)
            else:
                # Empty outer side: every probe of the second side is
                # provably irrelevant, so none is issued.  Record the
                # decision so traces and metrics show the saved fetches.
                pieces = []
                span = getattr(context, "span", None)
                if span is not None:
                    with span("prune", "empty-outer") as pspan:
                        pspan.attrs["feeds"] = ",".join(common)
                metrics = getattr(context, "metrics", None)
                if metrics is not None:
                    metrics.counter("planner.pruned_inner").inc()
            if pieces:
                second_rel = Relation.union_of(pieces)
            else:
                second_rel = Relation(second_schema, [])
            return first_rel.natural_join(second_rel)
    raise BindingError(
        "join not computable: bound=%s, left needs %s, right needs %s"
        % (
            sorted(bound),
            [sorted(m) for m in left_sets],
            [sorted(m) for m in right_sets],
        )
    )
