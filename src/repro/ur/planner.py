"""Planning and evaluating structured-UR queries.

A query's attributes select the minimal compatible covering sets of
logical relations (the query's maximal objects); each becomes a join —
ordered so every relation's mandatory attributes are bound when its turn
comes — wrapped in the query's selection and projection; and the final
answer is the union over the objects.  "Once translated, these queries can
be optimized and evaluated by standard query evaluation techniques."
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from time import thread_time
from typing import Any, Iterable, Iterator

from repro.logical.schema import LogicalSchema
from repro.relational.algebra import (
    Base,
    Expr,
    Join,
    Project,
    Select,
    bind_expression,
    evaluate,
)
from repro.relational.bindings import BindingError, JoinPart, order_joins
from repro.relational.conditions import (
    And,
    Attr,
    Comparison,
    Condition,
    Const,
    Param,
    RowTest,
    conj,
    equality_bindings,
    parameterize,
    row_test,
)
from repro.relational.cost import CatalogStats, CostModel
from repro.relational.optimize import optimize
from repro.relational.planner import JoinOrderPlanner, JoinPlan, plan_fingerprint
from repro.relational.relation import Relation
from repro.ur.compat import CompatibilityRule
from repro.ur.concepts import Concept
from repro.ur.maximal import covering_objects, maximal_objects
from repro.ur.query import URQuery, parse_query


#: Compiled query shapes one planner keeps; past it the oldest goes.
_COMPILED_LIMIT = 256

#: Maximal-object answers one planner remembers, least recently used out
#: first (see :meth:`StructuredUR._evaluate_object`); 0 remembers none.
#: A smaller result cache lowers the cap to its ``max_entries``: an answer
#: whose inputs the cache has evicted can never be replayed.
ANSWER_MEMO_ENTRIES = 512

#: The comparisons a residual conjunct may make: never ``=``, which binds a
#: source.
_RESIDUAL_OPS = frozenset(("<", "<=", ">", ">=", "!="))


class PlanError(Exception):
    """The query has no evaluable plan."""


@dataclass
class ObjectPlan:
    """One maximal object's contribution to the answer: ``template`` is the
    compiled shape's expression, whose plan runs with the query's constants
    (``values``) as the parameters of its ``Param`` slots."""

    relations: tuple[str, ...]  # in join order
    template: Expr
    feasible: bool
    note: str = ""
    rewrites: tuple[str, ...] = ()
    estimate: JoinPlan | None = None  # cost-planner predictions, when used
    values: tuple[Any, ...] = ()
    # The core: this object with the query's residual comparisons dropped
    # (see :func:`_split_residual`), the ``values`` slots it keeps, and the
    # residual over the object's output rows.  ``None`` without a residual.
    core: Expr | None = None
    core_slots: tuple[int, ...] = ()
    residual: RowTest | None = field(default=None, compare=False, repr=False)

    @cached_property
    def expression(self) -> Expr:
        """The template with ``values`` bound, for ``explain`` and the
        fingerprint; built when first read."""
        return bind_expression(self.template, self.values)

    @cached_property
    def fingerprint(self) -> str:
        """Canonical identity of ``expression`` (see
        :func:`repro.relational.planner.plan_fingerprint`); EXPLAIN prints
        it under ``--mqo``.  Empty for infeasible objects.  Hashed when
        first read: a query nobody explains never pays for it."""
        return plan_fingerprint(self.expression) if self.feasible else ""

    def bind(self, values: tuple[Any, ...]) -> "ObjectPlan":
        """This compiled object for a query with constants ``values``."""
        return replace(self, values=values)


@dataclass
class URPlan:
    """The full plan for one UR query."""

    query: URQuery
    objects: list[ObjectPlan] = field(default_factory=list)
    optimizer: str = "off"

    @property
    def feasible_objects(self) -> list[ObjectPlan]:
        return [o for o in self.objects if o.feasible]

    def describe(self) -> str:
        lines = [
            "UR plan: %d object(s), optimizer=%s" % (len(self.objects), self.optimizer)
        ]
        for obj in self.objects:
            status = "ok" if obj.feasible else "skipped (%s)" % obj.note
            if obj.estimate is not None:
                status += ", est %.1f fetches via %s" % (
                    obj.estimate.est_fetches,
                    obj.estimate.strategy,
                )
            lines.append("  %s  [%s]" % (" ⋈ ".join(obj.relations), status))
        return "\n".join(lines)

    def record_spans(self, context: Any) -> None:
        """Record the planner's join-order decisions as trace spans (one
        ``order`` span per object, under the caller's current span)."""
        for obj in self.objects:
            with context.span("order", " → ".join(obj.relations)) as span:
                if not obj.feasible:
                    span.status = "skipped"
                    span.error = obj.note
                    continue
                if obj.estimate is not None:
                    span.attrs["strategy"] = obj.estimate.strategy
                    span.attrs["est_fetches"] = round(obj.estimate.est_fetches, 1)


class StructuredUR:
    """The external schema: one universal relation over the logical layer.

    Planning is compiled once per query *shape*: the covering objects,
    their join orders, feasibility and rewrites depend on which attributes
    a query names and binds, never on the constants it binds them to, so
    :meth:`plan` lifts the constants out, looks the shape up, and hands
    the constants to each object as the parameters of its template, whose
    algebra plan (:func:`~repro.relational.algebra.evaluate`) is compiled
    once too.  Both are a function of the schema alone (no data), so
    nothing can make them stale.
    """

    def __init__(
        self,
        logical: LogicalSchema,
        hierarchy: Concept,
        rules: Iterable[CompatibilityRule],
        relations: Iterable[str] | None = None,
        optimize_plans: bool = True,
        optimizer: str = "cost",
        stats: CatalogStats | None = None,
    ) -> None:
        if optimizer not in ("cost", "off"):
            raise ValueError("optimizer must be 'cost' or 'off'; got %r" % optimizer)
        self.logical = logical
        self.hierarchy = hierarchy
        self.rules = list(rules)
        self.relations = sorted(relations or logical.relation_names)
        self.optimize_plans = optimize_plans
        self.optimizer = optimizer
        self.join_planner: JoinOrderPlanner | None = None
        if optimizer == "cost":
            if stats is None:
                stats = CatalogStats.from_catalog(logical, self.relations)
            self.join_planner = JoinOrderPlanner(CostModel(stats))
        self._schemas: dict[str, frozenset[str]] = {
            name: logical.base_schema(name).as_set() for name in self.relations
        }
        # (outputs, parameterized condition) -> objects.  The bound attribute
        # set is a function of the parameterized condition.
        self._compiled: dict[tuple, list[ObjectPlan]] = {}
        self._compiled_lock = threading.Lock()
        # The answer memo: _memo_key(template, values) -> (answer, the read
        # tokens of the run that made it).
        self._memo: OrderedDict[tuple, tuple[Relation, tuple]] = OrderedDict()
        self._memo_lock = threading.Lock()

    # -- schema introspection --------------------------------------------------

    @property
    def attributes(self) -> list[str]:
        """The universal relation's attribute list."""
        attrs: set[str] = set()
        for schema in self._schemas.values():
            attrs |= set(schema)
        return sorted(attrs)

    def maximal_objects(self) -> list[frozenset[str]]:
        return maximal_objects(self.relations, self.rules)

    def resolve(self, name: str) -> list[str]:
        """Resolve a user-typed name: a concept expands to its leaves, an
        attribute (possibly misspelled) to itself."""
        node = self.hierarchy.find(name)
        if node is not None:
            return [a for a in node.leaves() if a in self.attributes]
        return [self.logical.resolve_attribute(name)]

    # -- planning ------------------------------------------------------------------

    def plan(self, query: URQuery | str) -> URPlan:
        if isinstance(query, str):
            query = parse_query(query)
        template, values = query.condition, ()
        if template is not None:
            template, values = parameterize(template)
        key = (query.outputs, template)
        compiled = self._compiled.get(key)
        if compiled is None:
            # A racing duplicate compile is harmless: both are equal.
            compiled = self._compile(URQuery(query.outputs, template))
            with self._compiled_lock:
                self._compiled[key] = compiled
                if len(self._compiled) > _COMPILED_LIMIT:
                    del self._compiled[next(iter(self._compiled))]
        return URPlan(
            query=query,
            objects=[obj.bind(values) for obj in compiled],
            optimizer=self.optimizer,
        )

    def _compile(self, query: URQuery) -> list[ObjectPlan]:
        """The objects of a parameterized query: its covering maximal
        objects, each one's join order, feasibility and rewrites.  Raises
        :class:`PlanError` (and caches nothing) for a shape with no plan."""
        attrs = set()
        for name in query.attributes():
            resolved = self.logical.resolve_attribute(name)
            attrs.add(resolved)
        unknown = attrs - set(self.attributes)
        if unknown:
            raise PlanError("attributes outside the UR: %s" % sorted(unknown))

        bound = set(equality_bindings(query.condition))
        covers = covering_objects(self.relations, self.rules, attrs, self._schemas)
        if not covers:
            raise PlanError(
                "no compatible set of relations covers %s" % sorted(attrs)
            )
        split = _split_residual(query)
        objects: list[ObjectPlan] = []
        for cover in covers:
            parts = [
                JoinPart(
                    name,
                    self._schemas[name],
                    self.logical.base_binding_sets(name),
                )
                for name in sorted(cover)
            ]
            estimate: JoinPlan | None = None
            if self.join_planner is not None:
                estimate = self.join_planner.plan(parts, bound)
                order = list(estimate.order) if estimate is not None else None
            else:
                order = order_joins(parts, bound)
            if order is None:
                objects.append(
                    ObjectPlan(
                        relations=tuple(sorted(cover)),
                        template=Base("unorderable"),
                        feasible=False,
                        note="mandatory attributes not derivable from the query",
                    )
                )
                continue
            ordered_names = [parts[i].name for i in order]
            join: Expr = Base(ordered_names[0])
            for name in ordered_names[1:]:
                join = Join(join, Base(name))
            expr, rewrites = self._shape(join, query.condition, query.outputs)
            obj = ObjectPlan(
                relations=tuple(ordered_names),
                template=expr,
                feasible=True,
                rewrites=rewrites,
                estimate=estimate,
            )
            if split is not None:
                # The core's attributes and bindings are the query's, so it
                # covers with the same objects in the same order: its
                # template is the one its own text compiles to.
                core, obj.core_slots, obj.residual = split
                obj.core = self._shape(join, core, query.outputs)[0]
            objects.append(obj)
        return objects

    def _shape(
        self, join: Expr, condition: Condition | None, outputs: tuple[str, ...]
    ) -> tuple[Expr, tuple[str, ...]]:
        """An object's template — ``join`` under the query's selection and
        projection, optimised — and the rewrites that made it."""
        expr = join if condition is None else Select(join, condition)
        expr = Project(expr, outputs)
        if not self.optimize_plans:
            return expr, ()
        optimized = optimize(expr, self.logical)
        return optimized.expression, tuple(repr(r) for r in optimized.rewrites)

    def plan_hosts(self, plan: URPlan) -> dict[str, int]:
        """host → how many of the plan's relation accesses it serves, over
        the feasible objects: every host an answer under ``plan`` can
        depend on (its revision vector covers exactly these), weighted for
        the cluster router's affinity decision.  Derived from the plan, so
        it does not shrink when caching or sharing lets a run skip a host."""
        weights: dict[str, int] = {}
        for obj in plan.feasible_objects:
            for name in obj.relations:
                for host in self.logical.relation(name).hosts:
                    weights[host] = weights.get(host, 0) + 1
        return weights

    # -- evaluation -----------------------------------------------------------------

    def answer(
        self,
        query: URQuery | str,
        plan: URPlan | None = None,
        context: Any = None,
    ) -> Relation:
        """Evaluate a query: the union of its feasible objects' answers —
        :meth:`answer_stream` collected, so it skips and raises exactly
        as the stream does."""
        stream = self.answer_stream(query, plan=plan, context=context)
        return Relation.union_of([piece for _, piece in stream if piece is not None])

    def answer_stream(
        self,
        query: URQuery | str,
        plan: URPlan | None = None,
        context: Any = None,
    ) -> Iterator[tuple[ObjectPlan, Relation | None]]:
        """Evaluate a query *incrementally*: yield ``(object, piece)`` as
        each feasible maximal object completes — the one loop over a
        plan's objects, so a ``More``-loop query's first object reaches
        its consumer before the second starts fetching.

        Objects evaluate and arrive in plan order (with an execution
        context, through its fan-out,
        :meth:`~repro.core.execution.ExecutionContext.completed`).  A
        piece of ``None`` means the object contributed nothing
        (infeasible bindings or exhausted retries, recorded in
        ``context.failures`` — a partial answer, not an aborted query).
        The other errors are reported after the last object, as a fan-out
        reports them: a :class:`DeadlineExceeded` trumps the rest, one
        error re-raises as itself, several raise one :class:`FanoutError`.
        Raises :class:`PlanError` when no object was evaluable.
        """
        from repro.core.execution import _raise_collected

        if plan is None:
            plan = self.plan(query)
        feasible = plan.feasible_objects
        if context is None:
            outcomes: Iterable[tuple[int, Relation | None, Exception | None]] = (
                (index, self._evaluate_bare(obj), None)
                for index, obj in enumerate(feasible)
            )
        else:
            outcomes = context.completed(
                lambda obj: self._evaluate_object(obj, context), feasible
            )
        errors: list[Exception] = []
        evaluated = 0
        for index, piece, error in outcomes:
            if error is not None:
                errors.append(error)
                continue
            if piece is not None:
                evaluated += 1
            yield feasible[index], piece
        _raise_collected(errors, len(feasible))
        if evaluated == 0:
            detail = plan.describe()
            if context is not None and context.failures:
                detail += "\n" + context.failure_report()
            raise PlanError("no maximal object was evaluable; plan:\n%s" % detail)

    def _evaluate_bare(self, obj: ObjectPlan) -> Relation | None:
        """One maximal object without an engine (the paper's direct
        evaluation); ``None`` when its bindings are infeasible."""
        try:
            return evaluate(obj.template, self.logical, params=obj.values)
        except BindingError:
            return None

    def _evaluate_object(self, obj: ObjectPlan, context: Any) -> Relation | None:
        """Evaluate one maximal object under the engine; ``None`` means the
        object contributed nothing (infeasible bindings or exhausted
        retries — the partial-failure path).  The object span records the
        calling thread's cpu time for the object.

        When this planner's catalog is a result cache that stores, the
        answer is remembered on the cache entries its run read (the tokens
        the cache logs to ``context.reads``), and a later call with the
        same compiled object and constants serves it if the cache can
        replay every read (:meth:`~repro.vps.cache.ResultCache.replay`):
        those entries are current, so re-running the plan over them would
        return the same relation.  Nothing is remembered from a run that
        failed or took a read the cache cannot replay (coalesced,
        quarantined, stale, or a refused store), and an answer whose replay
        fails is forgotten.

        An object that misses looks up its core (the same object without
        the query's residual comparisons).  If the core's answer replays,
        the residual filters it and nothing is evaluated: the residual
        binds no source, so the query's own run would read a subset of the
        core's current entries.  A contained serve stores nothing."""
        from repro.core.execution import FanoutError, FetchFailedError

        cache = getattr(self.logical, "vps", None)
        policy = getattr(cache, "policy", None)
        with context.span("object", " ⋈ ".join(obj.relations)) as span:
            mark = thread_time()
            try:
                enabled = policy is not None and policy.enabled
                limit = min(ANSWER_MEMO_ENTRIES, policy.max_entries) if enabled else 0
                if limit <= 0:
                    return evaluate(obj.template, self.logical, context=context, params=obj.values)
                key = _memo_key(obj.template, obj.values)
                served = self._recall(key, cache, context)
                if served is not None:
                    span.attrs["memo"] = "hit"
                    return served
                if obj.core is not None:
                    values = tuple(obj.values[i] for i in obj.core_slots)
                    served = self._recall(_memo_key(obj.core, values), cache, context)
                    if served is not None:
                        span.attrs["memo"] = "contained"
                        return served.select_rows(obj.residual(obj.values))
                failures = len(context.failures)
                context.reads = reads = []
                try:
                    answer = evaluate(
                        obj.template, self.logical, context=context, params=obj.values
                    )
                finally:
                    kept, context.reads = context.reads is reads, None
                if (
                    kept
                    and reads
                    and answer is not None
                    and len(context.failures) == failures
                ):
                    with self._memo_lock:
                        self._memo[key] = (answer, tuple(reads))
                        if len(self._memo) > limit:
                            self._memo.popitem(last=False)
                return answer
            except BindingError as exc:
                span.status = "skipped"
                span.error = str(exc)
                return None
            except FetchFailedError as exc:
                # The failure is already on context.failures; degrade to a
                # partial answer instead of aborting the query.
                span.status = "error"
                span.error = str(exc)
                return None
            except FanoutError as exc:
                expected = (BindingError, FetchFailedError)
                if any(not isinstance(e, expected) for e in exc.errors):
                    raise  # a real defect, not a fetch/binding outcome
                span.status = "error"
                span.error = str(exc)
                return None
            finally:
                span.cpu_seconds = thread_time() - mark

    def _recall(self, key: tuple, cache: Any, context: Any) -> Relation | None:
        """The answer remembered under ``key``, if the cache can replay its
        reads; an answer whose replay fails is forgotten."""
        with self._memo_lock:
            remembered = self._memo.get(key)
            if remembered is None:
                return None
            self._memo.move_to_end(key)
        if cache.replay(remembered[1], context):
            return remembered[0]
        with self._memo_lock:
            # Unless another thread has remembered a newer one.
            if self._memo.get(key) is remembered:
                del self._memo[key]
        return None


def _memo_key(template: Expr, values: tuple[Any, ...]) -> tuple:
    """An answer memo key.  The types keep ``1`` and ``1.0`` apart, which
    compare equal."""
    return (template, values, tuple(map(type, values)))


def _split_residual(
    query: URQuery,
) -> tuple[Condition | None, tuple[int, ...], RowTest] | None:
    """``query``'s core condition, the parameter slots it keeps, and the
    residual's row test over the outputs; ``None`` without a residual.

    The residual is the top-level conjuncts ``attr op constant`` whose
    ``op`` is not ``=`` and whose ``attr`` is an output.  Such a conjunct
    binds no source and commutes with the projection, so the query's
    answer is its core's answer filtered by it."""
    condition = query.condition
    if condition is None:
        return None
    parts = condition.parts if isinstance(condition, And) else (condition,)
    residual = [
        isinstance(part, Comparison)
        and part.op in _RESIDUAL_OPS
        and isinstance(part.left, Attr)
        and part.left.name in query.outputs
        and isinstance(part.right, Const)
        for part in parts
    ]
    if not any(residual):
        return None
    kept = [part for part, drop in zip(parts, residual) if not drop]
    core: Condition | None = None
    slots: tuple[int, ...] = ()
    if kept:
        # Lifting the kept conjuncts' constants numbers their slots as the
        # core's own text would; what it lifts are the query's parameters.
        core, lifted = parameterize(conj(*kept))
        if not all(isinstance(value, Param) for value in lifted):
            return None  # a condition compiled with its literal constants
        slots = tuple(value.index for value in lifted)
    dropped = conj(*(part for part, drop in zip(parts, residual) if drop))
    return core, slots, row_test(dropped, query.outputs)
