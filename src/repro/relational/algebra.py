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

Those decisions depend on which attributes are bound, not on their values,
so :func:`evaluate` makes them once: it runs a plan compiled per expression,
catalog and bound-attribute set.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Protocol

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
from repro.relational.conditions import (
    And,
    Comparison,
    Condition,
    Param,
    bind_params,
    conj,
    equality_bindings,
    row_test,
)
from repro.relational.relation import Relation, RowDict, _sort_key
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




# -- evaluation: compiled plans (a query's constants are parameter slots) -----------


class _Node(NamedTuple):
    """One compiled ``(expression, bound-attribute set)``: ``run`` for one
    binding, ``batch`` for a probe batch (two or more, under a context);
    ``fixed``, the bound attributes every output row already agrees with."""

    run: Callable
    batch: Callable
    fixed: frozenset


_KEEP = object()


def _narrow(attrs: frozenset[str]) -> Callable[[Relation, dict], Relation]:
    """The step keeping the rows that agree with the binding on ``attrs``
    (:meth:`Relation.where`: an index on a relation probed again)."""
    names = tuple(sorted(attrs))

    def narrow(relation: Relation, given: dict) -> Relation:
        positions, picks = relation.schema.columns(names)
        if not positions:
            return relation
        if len(picks) == 1:
            return relation.where(positions, given[names[picks[0]]])
        return relation.where(positions, tuple([given[names[i]] for i in picks]))

    return narrow if names else lambda relation, given: relation


def _plain(value: Any) -> bool:
    """Whether ``==`` and a comparison's test agree on the constant."""
    return type(value) in (str, int, float) and value == value


def _raising(message: str) -> _Node:
    """A node its bindings cannot satisfy: it raises when reached."""

    def run(*_: Any) -> Relation:
        raise BindingError(message)

    return _Node(run, run, frozenset())


def _per_binding(run: Callable) -> Callable:
    """A join's batch: binding by binding, through the context's fan-out."""
    return lambda givens, context, params: context.map(
        lambda given: run(given, context, params), givens
    )


def _both(sides: tuple, given: dict, context: Any, params: tuple) -> list[Relation]:
    """Both sides of a union or an independent join, fanned out."""
    if context is None:
        return [side.run(given, None, params) for side in sides]
    return context.map(lambda side: side.run(given, context, params), sides)


def _unary(child: _Node, down: Callable | None, up_for: Callable, fixed: frozenset) -> _Node:
    """A node over one child: ``down`` maps the binding to the child's
    (``None``: the same), ``up_for(params)`` is the step on its result."""

    def run(given: dict, context: Any, params: tuple) -> Relation:
        sub = given if down is None else down(given, params)
        return up_for(params)(child.run(sub, context, params), given)

    def batch(givens: list[dict], context: Any, params: tuple) -> list[Relation]:
        subs = givens if down is None else [down(given, params) for given in givens]
        up = up_for(params)
        return [up(r, given) for r, given in zip(child.batch(subs, context, params), givens)]

    return _Node(run, batch, fixed)


def _compile(expr: Expr, catalog: Catalog, keys: frozenset[str]) -> _Node:
    """The plan of ``expr`` for bindings of exactly ``keys``: the
    interpreter's rules (the test suite keeps it as the reference),
    decided once.  A relation has the schema its catalog declares."""
    if isinstance(expr, (Base, Fixed)):
        return _compile_source(expr, catalog, keys)
    if isinstance(expr, Select):
        return _compile_select(expr, catalog, keys)
    if isinstance(expr, Join):
        return _compile_join(expr, catalog, keys)
    if isinstance(expr, Union):
        left_ok = feasible(binding_sets_of(expr.left, catalog), keys)
        right_ok = feasible(binding_sets_of(expr.right, catalog), keys)
        if not (left_ok and right_ok):
            if expr.relaxed and (left_ok or right_ok):
                return _compile(expr.left if left_ok else expr.right, catalog, keys)
            return _raising("union not computable with bound attributes %s" % sorted(keys))
        sides = (_compile(expr.left, catalog, keys), _compile(expr.right, catalog, keys))

        def run(given: dict, context: Any, params: tuple) -> Relation:
            left, right = _both(sides, given, context, params)
            return left.union(right)

        def batch(givens: list[dict], context: Any, params: tuple) -> list[Relation]:
            lefts, rights = context.map(lambda side: side.batch(givens, context, params), sides)
            return [left.union(right) for left, right in zip(lefts, rights)]

        return _Node(run, batch, sides[0].fixed & sides[1].fixed)
    out = keys & schema_of(expr, catalog).as_set()
    if isinstance(expr, Project):
        child, attrs = _compile(expr.child, catalog, keys), expr.attrs
        step = lambda relation, given: relation.project(attrs)  # noqa: E731
        return _unary(child, None, lambda params: step, child.fixed & out)
    if isinstance(expr, Rename):
        reverse = {new: old for old, new in expr.mapping}
        targets = [reverse.get(a, a) for a in keys]
        child, mapping = _compile(expr.child, catalog, frozenset(targets)), expr.mapping_dict
        down = None
        if keys & reverse.keys():
            down = lambda given, params: {reverse.get(a, a): v for a, v in given.items()}  # noqa: E731
        # Two bound names landing on one child attribute: one value reaches it.
        fixed = {a for a in out if reverse.get(a, a) in child.fixed}
        step = lambda relation, given: relation.rename(mapping)  # noqa: E731
        distinct = len(set(targets)) == len(targets)
        return _unary(child, down, lambda params: step, frozenset(fixed if distinct else ()))
    if isinstance(expr, Derive):
        attr, fn = expr.attr, expr.fn
        child = _compile(expr.child, catalog, keys - {attr})
        down = None
        if attr in keys:
            down = lambda given, params: {a: v for a, v in given.items() if a != attr}  # noqa: E731
        narrow = _narrow(out - (child.fixed - {attr}))
        step = lambda relation, given: narrow(relation.derive(attr, fn), given)  # noqa: E731
        return _unary(child, down, lambda params: step, out)
    raise TypeError("unknown expression %r" % (expr,))


def _compile_source(expr: Base | Fixed, catalog: Catalog, keys: frozenset[str]) -> _Node:
    """A catalog fetch with every binding (or a literal), then the filter
    on the bound attributes the relation has: a catalog may ignore one."""
    if isinstance(expr, Fixed):
        relation = expr.relation
        fixed = keys & relation.schema.as_set()
        narrow = _narrow(fixed)
        return _Node(
            lambda given, context, params: narrow(relation, given),
            lambda givens, context, params: [narrow(relation, g) for g in givens],
            fixed,
        )
    name = expr.name
    fixed = keys & catalog.base_schema(name).as_set() if keys else keys
    narrow = _narrow(fixed)

    def run(given: dict, context: Any, params: tuple) -> Relation:
        if context is None:
            return narrow(catalog.fetch(name, given), given)
        return narrow(catalog.fetch(name, given, context=context), given)

    def batch(givens: list[dict], context: Any, params: tuple) -> list[Relation]:
        fetch_batch = getattr(catalog, "fetch_batch", None)
        if fetch_batch is None:
            fetch = lambda given: catalog.fetch(name, given, context=context)  # noqa: E731
            relations = context.map(fetch, givens)
        else:
            relations = fetch_batch(name, givens, context=context)
        return [narrow(r, given) for r, given in zip(relations, givens)]

    return _Node(run, batch, fixed)


def _compile_select(expr: Select, catalog: Catalog, keys: frozenset[str]) -> _Node:
    """The child runs with the selection's equality constants bound (they
    override the caller's), then the condition, then a filter on the
    caller's bindings the constants overrode: a constant that contradicts
    one yields nothing.  An equality the child's filter already enforced is
    not tested again, unless its constant is one a test and a filter could
    disagree on (``None``, NaN, ...)."""
    constants = equality_bindings(expr.condition)
    slots = [(a, v.index if isinstance(v, Param) else None, v) for a, v in constants.items()]
    child = _compile(expr.child, catalog, keys | constants.keys())
    condition = expr.condition
    conjuncts = []  # (conjunct, the constant that makes it redundant, or _KEEP)
    for part in condition.parts if isinstance(condition, And) else (condition,):
        source = _KEEP
        if isinstance(part, Comparison):
            for attr, literal in equality_bindings(part).items():
                if constants.get(attr, _KEEP) is literal and attr in child.fixed:
                    source = literal
        conjuncts.append((part, source))
    overridden = keys & constants.keys()
    out = keys & schema_of(expr, catalog).as_set()
    narrow = _narrow(out & (overridden | (keys - child.fixed)))

    def down(given: dict, params: tuple) -> dict:
        sub = dict(given)
        for attr, slot, value in slots:
            sub[attr] = value if slot is None else params[slot]
        return sub

    def up_for(params: tuple) -> Callable[[Relation, dict], Relation]:
        kept = [
            part
            for part, source in conjuncts
            if source is _KEEP
            or not _plain(params[source.index] if isinstance(source, Param) else source)
        ]
        tests: dict[tuple[str, ...], Callable] = {}  # by the rows' attribute order

        def up(relation: Relation, given: dict) -> Relation:
            if kept:
                attrs = relation.schema.attrs
                test = tests.get(attrs)
                if test is None:
                    test = tests[attrs] = row_test(conj(*kept), attrs)(params)
                relation = relation.select_rows(test)
            return narrow(relation, given)

        return up

    return _unary(child, down, up_for, out)


def _compile_join(expr: Join, catalog: Catalog, keys: frozenset[str]) -> _Node:
    """Independent when both sides are computable from the bindings; else
    dependent: the side that is goes first and feeds the values of the
    common attributes into the other's fetches, as one probe batch."""
    left_sets = binding_sets_of(expr.left, catalog)
    right_sets = binding_sets_of(expr.right, catalog)
    left_schema, right_schema = schema_of(expr.left, catalog), schema_of(expr.right, catalog)
    common = sorted(left_schema.common(right_schema))
    for first, first_sets, second, second_sets, second_schema in (
        (expr.left, left_sets, expr.right, right_sets, right_schema),
        (expr.right, right_sets, expr.left, left_sets, left_schema),
    ):
        if not feasible(first_sets, keys):
            continue
        if feasible(second_sets, keys):
            sides = (_compile(first, catalog, keys), _compile(second, catalog, keys))

            def run(given: dict, context: Any, params: tuple) -> Relation:
                outer, inner = _both(sides, given, context, params)
                return outer.natural_join(inner)

            return _Node(run, _per_binding(run), sides[0].fixed | sides[1].fixed)
        fed = keys | frozenset(common)
        if feasible(second_sets, fed):
            outer, inner = _compile(first, catalog, keys), _compile(second, catalog, fed)
            return _dependent(outer, inner, common, second_schema, keys)
    return _raising(
        "join not computable: bound=%s, left needs %s, right needs %s"
        % (sorted(keys), [sorted(m) for m in left_sets], [sorted(m) for m in right_sets])
    )


def _dependent(
    first: _Node, second: _Node, common: list[str], second_schema: Schema, keys: frozenset[str]
) -> _Node:
    """The bind join.  The outer rows are grouped by their common values;
    each group is one probe (in sorted-value order, the fetch order) and
    joins the piece fetched under its own key, which agrees with it on the
    common attributes: no hash join over the union of the pieces."""
    grouped = set(common) <= second.fixed

    def run(given: dict, context: Any, params: tuple) -> Relation:
        outer = first.run(given, context, params)
        positions = [outer.schema.index_of(a) for a in common]
        groups: dict[tuple, list[tuple]] = {}
        for row in outer._rows:
            groups.setdefault(tuple([row[i] for i in positions]), []).append(row)
        combos = sorted(groups, key=_sort_key)
        feds = []
        for combo in combos:
            fed = dict(given)
            fed.update(zip(common, combo))
            feds.append(fed)
        if context is None:
            pieces = [second.run(fed, None, params) for fed in feds]
        elif len(feds) > 1:
            pieces = second.batch(feds, context, params)
        elif feds:
            pieces = [second.run(feds[0], context, params)]
        else:
            # Empty outer side: every probe of the inner side is provably
            # irrelevant, so none is issued.  Record the decision so
            # traces and metrics show the saved fetches.
            span = getattr(context, "span", None)
            if span is not None:
                with span("prune", "empty-outer") as pspan:
                    pspan.attrs["feeds"] = ",".join(common)
            metrics = getattr(context, "metrics", None)
            if metrics is not None:
                metrics.counter("planner.pruned_inner").inc()
            pieces = []
        if not pieces or not grouped:
            inner = Relation.union_of(pieces) if pieces else Relation(second_schema, [])
            return outer.natural_join(inner)
        head = pieces[0]
        extra = [i for i, a in enumerate(head.schema.attrs) if a not in outer.schema]
        joined: list[tuple] = []
        for combo, piece in zip(combos, pieces):
            tails = [tuple([row[i] for i in extra]) for row in head._operand(piece, "union")]
            joined.extend([row + tail for row in groups[combo] for tail in tails])
        return Relation(outer.schema.union(head.schema), joined, True)

    return _Node(run, _per_binding(run), first.fixed | (second.fixed & keys) - set(common))


def _plan(expr: Expr, catalog: Catalog, keys: frozenset[str]) -> _Node:
    """The plan of ``expr`` over ``catalog`` for bindings of ``keys``,
    compiled on first use and remembered on the (immutable) expression.
    A plan is a pure function of the expression and the catalog's schemas
    and binding sets, so nothing can make it stale."""
    plans = expr.__dict__.get("_plans")
    if plans is None or plans[0] is not catalog:
        plans = expr.__dict__["_plans"] = (catalog, {})  # frozen dataclass: not a field
    node = plans[1].get(keys)
    if node is None:
        node = plans[1][keys] = _compile(expr, catalog, keys)
    return node


def evaluate(
    expr: Expr,
    catalog: Catalog,
    given: dict[str, Any] | None = None,
    context: Any = None,
    params: tuple[Any, ...] = (),
) -> Relation:
    """Evaluate ``expr`` with the bound attribute values in ``given``: run
    its plan for ``given``'s attribute set.

    ``given`` values are pushed into base fetches (satisfying mandatory
    attributes and narrowing results at the source), and the result is
    exactly the sub-relation consistent with ``given``.  ``params`` fills
    the :class:`~repro.relational.conditions.Param` slots of a compiled
    query shape's conditions.

    ``context`` is an :class:`~repro.core.execution.ExecutionContext` (or
    anything with its ``map``/``run_fetch`` shape).  When present, it is
    handed to base fetches and fans out both sides of a union or of an
    independent join through its one fan-out, which runs them in order and
    models their overlap on its lanes; a dependent join's probes go to the
    inner side as one batch (:func:`evaluate_batch`'s path).
    """
    given = dict(given or {})
    return _plan(expr, catalog, frozenset(given)).run(given, context, params)


def evaluate_batch(
    expr: Expr,
    catalog: Catalog,
    givens: list[dict[str, Any]],
    context: Any = None,
    params: tuple[Any, ...] = (),
) -> list[Relation]:
    """Evaluate ``expr`` under each binding in ``givens``, with the
    per-binding results of :func:`evaluate`.

    This is a dependent join's probe batch: the plan hands the whole list
    to each base relation (``fetch_batch`` where the catalog has it: one
    walk of a site's shared prefix) and applies its compiled steps to each
    piece.  A join inside, or a batch whose bindings do not share one
    attribute set, runs binding by binding through the context's fan-out;
    a batch without a context, or of one binding, is :func:`evaluate`'s.
    """
    givens = [dict(given or {}) for given in givens]
    if context is None or len(givens) < 2:
        return [evaluate(expr, catalog, given, context, params) for given in givens]
    keys = givens[0].keys()
    if any(given.keys() != keys for given in givens):
        return context.map(lambda given: evaluate(expr, catalog, given, context, params), givens)
    return _plan(expr, catalog, frozenset(keys)).batch(givens, context, params)
