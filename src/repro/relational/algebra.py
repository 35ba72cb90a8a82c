"""Relational algebra over binding-constrained sources.

Expressions are ASTs over base relations provided by a :class:`Catalog`
(in this system: the VPS layer, whose base relations are Web forms).  The
evaluator differs from a textbook one in exactly the way Section 5 of the
paper requires:

* every node knows its *binding sets* (via :mod:`repro.relational.bindings`);
* base relations are fetched with whatever bound attribute values are
  available, because that is the only way to access them;
* joins are *dependent* (bind joins): the side whose bindings are satisfied
  is evaluated first, and the values of the common attributes are fed into
  the other side's fetches — "order joins in such a way that the relation
  newsday ... is computed first".
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from repro.relational.bindings import (
    BindingError,
    BindingSets,
    NO_BINDINGS,
    bind_join,
    bind_project,
    bind_rename,
    bind_select,
    bind_union,
    feasible,
    minimize,
)
from repro.relational.conditions import Condition, bind_params, equality_bindings
from repro.relational.relation import Relation, RowDict
from repro.relational.schema import Schema


class Catalog(Protocol):
    """What the algebra needs from the layer below (the VPS)."""

    def base_schema(self, name: str) -> Schema:
        """Schema of base relation ``name``."""

    def base_binding_sets(self, name: str) -> BindingSets:
        """Alternative mandatory-attribute sets of base relation ``name``."""

    def fetch(self, name: str, given: dict[str, Any]) -> Relation:
        """Retrieve ``name`` using the bound values in ``given``."""


class Expr:
    """Base class for algebra expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Base(Expr):
    """A reference to a catalog base relation."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Fixed(Expr):
    """A literal relation embedded in the expression (mainly for tests)."""

    relation: Relation

    def __repr__(self) -> str:
        return "fixed(%r)" % (self.relation,)


@dataclass(frozen=True)
class Select(Expr):
    child: Expr
    condition: Condition

    def __repr__(self) -> str:
        return "select[%r](%r)" % (self.condition, self.child)


@dataclass(frozen=True)
class Project(Expr):
    child: Expr
    attrs: tuple[str, ...]

    def __repr__(self) -> str:
        return "project[%s](%r)" % (", ".join(self.attrs), self.child)


@dataclass(frozen=True)
class Rename(Expr):
    child: Expr
    mapping: tuple[tuple[str, str], ...]  # (old, new) pairs

    @property
    def mapping_dict(self) -> dict[str, str]:
        return dict(self.mapping)

    def __repr__(self) -> str:
        pairs = ", ".join("%s->%s" % (a, b) for a, b in self.mapping)
        return "rename[%s](%r)" % (pairs, self.child)


@dataclass(frozen=True)
class Derive(Expr):
    """Add or replace an attribute computed per row (value standardization)."""

    child: Expr
    attr: str
    fn: Callable[[RowDict], Any] = field(compare=False)

    def __repr__(self) -> str:
        return "derive[%s](%r)" % (self.attr, self.child)


@dataclass(frozen=True)
class Join(Expr):
    left: Expr
    right: Expr

    def __repr__(self) -> str:
        return "(%r join %r)" % (self.left, self.right)


@dataclass(frozen=True)
class Union(Expr):
    left: Expr
    right: Expr
    relaxed: bool = False

    def __repr__(self) -> str:
        op = "relaxed-union" if self.relaxed else "union"
        return "(%r %s %r)" % (self.left, op, self.right)


def select(child: Expr, condition: Condition) -> Select:
    return Select(child, condition)


def project(child: Expr, attrs: list[str] | tuple[str, ...]) -> Project:
    return Project(child, tuple(attrs))


def rename(child: Expr, mapping: dict[str, str]) -> Rename:
    return Rename(child, tuple(sorted(mapping.items())))


def union_all(exprs: list[Expr], relaxed: bool = False) -> Expr:
    if not exprs:
        raise ValueError("union of nothing")
    out = exprs[0]
    for nxt in exprs[1:]:
        out = Union(out, nxt, relaxed)
    return out


def join_all(exprs: list[Expr]) -> Expr:
    if not exprs:
        raise ValueError("join of nothing")
    out = exprs[0]
    for nxt in exprs[1:]:
        out = Join(out, nxt)
    return out


# -- static analyses ---------------------------------------------------------------


def schema_of(expr: Expr, catalog: Catalog) -> Schema:
    """The schema an expression produces, computed without evaluation."""
    if isinstance(expr, Base):
        return catalog.base_schema(expr.name)
    if isinstance(expr, Fixed):
        return expr.relation.schema
    if isinstance(expr, Select):
        return schema_of(expr.child, catalog)
    if isinstance(expr, Project):
        return schema_of(expr.child, catalog).project(expr.attrs)
    if isinstance(expr, Rename):
        return schema_of(expr.child, catalog).rename(expr.mapping_dict)
    if isinstance(expr, Derive):
        child = schema_of(expr.child, catalog)
        if expr.attr in child:
            return child
        return Schema(child.attrs + (expr.attr,))
    if isinstance(expr, Join):
        return schema_of(expr.left, catalog).union(schema_of(expr.right, catalog))
    if isinstance(expr, Union):
        return schema_of(expr.left, catalog)
    raise TypeError("unknown expression %r" % (expr,))


def base_names(expr: Expr) -> set[str]:
    """Every catalog base relation an expression reads."""
    names: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Base):
            names.add(node.name)
            continue
        for attr in ("child", "left", "right"):
            sub = getattr(node, attr, None)
            if sub is not None:
                stack.append(sub)
    return names


def bind_expression(expr: Expr, values: tuple[Any, ...]) -> Expr:
    """``expr`` with the :class:`~repro.relational.conditions.Param` slots
    of its selections bound to ``values`` (a compiled plan's constants).
    Subtrees without a selection are shared, not copied."""
    if not values or isinstance(expr, (Base, Fixed)):
        return expr
    changes: dict[str, Any] = {}
    for attr in ("child", "left", "right"):
        sub = getattr(expr, attr, None)
        if sub is not None:
            bound = bind_expression(sub, values)
            if bound is not sub:
                changes[attr] = bound
    if isinstance(expr, Select):
        changes["condition"] = bind_params(expr.condition, values)
    return dataclasses.replace(expr, **changes) if changes else expr


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


def binding_sets_of(expr: Expr, catalog: Catalog) -> BindingSets:
    """The Section-5 binding-propagation rules, applied bottom-up."""
    if isinstance(expr, Base):
        return minimize(catalog.base_binding_sets(expr.name))
    if isinstance(expr, Fixed):
        return NO_BINDINGS
    if isinstance(expr, Select):
        constants = equality_bindings(expr.condition)
        return bind_select(binding_sets_of(expr.child, catalog), constants)
    if isinstance(expr, Project):
        return bind_project(binding_sets_of(expr.child, catalog))
    if isinstance(expr, Rename):
        return bind_rename(binding_sets_of(expr.child, catalog), expr.mapping_dict)
    if isinstance(expr, Derive):
        return binding_sets_of(expr.child, catalog)
    if isinstance(expr, Join):
        return bind_join(
            binding_sets_of(expr.left, catalog),
            schema_of(expr.left, catalog).attrs,
            binding_sets_of(expr.right, catalog),
            schema_of(expr.right, catalog).attrs,
        )
    if isinstance(expr, Union):
        return bind_union(
            binding_sets_of(expr.left, catalog),
            binding_sets_of(expr.right, catalog),
            relaxed=expr.relaxed,
        )
    raise TypeError("unknown expression %r" % (expr,))


# -- evaluation ----------------------------------------------------------------------


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
        return _filter_given(result.select(expr.condition.evaluate), given)
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
            _filter_given(result.select(expr.condition.evaluate), given)
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
