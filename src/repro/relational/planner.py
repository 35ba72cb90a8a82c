"""Cost-based join ordering under binding constraints.

:func:`~repro.relational.bindings.order_joins` answers *whether* a
binding-feasible order exists (and returns the first one its backtracking
finds); this module answers *which* feasible order is cheapest, using a
:class:`~repro.relational.cost.CostModel` to score each placement by its
estimated live-fetch count.

The search is the classic subset dynamic program, run for every cover:
step costs and row estimates are set-determined, so the cheapest order
reaching a subset is a valid subproblem.  Covers are small — a maximal
object of the shipped domains joins at most four relations (16 subsets)
— so the exhaustive search is also the cheap one.

Infeasible placements are never scored: feasibility (some binding set
covered by the query constants plus the prefix's schemas) is checked
before the cost model is consulted, so the planner cannot choose — or
even enumerate — an order the evaluator would reject.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.relational.bindings import JoinPart, feasible
from repro.relational.cost import CostModel, StepEstimate, total_fetches


@dataclass(frozen=True)
class JoinPlan:
    """One chosen order with its per-step cost predictions."""

    order: tuple[int, ...]  # indices into the parts sequence
    steps: tuple[StepEstimate, ...]
    est_fetches: float
    est_rows: float
    strategy: str  # "trivial" | "dp"

    def names(self, parts: Sequence[JoinPart]) -> tuple[str, ...]:
        return tuple(parts[i].name for i in self.order)

    def describe(self) -> str:
        lines = [
            "join order (%s, est %.1f fetches):" % (self.strategy, self.est_fetches)
        ]
        lines += ["  %d. %s" % (i + 1, s.describe()) for i, s in enumerate(self.steps)]
        return "\n".join(lines)


class JoinOrderPlanner:
    """Search for the cheapest binding-feasible join order."""

    def __init__(self, model: CostModel | None = None) -> None:
        self.model = model or CostModel()

    def plan(
        self, parts: Sequence[JoinPart], initially_bound: Iterable[str] = ()
    ) -> JoinPlan | None:
        """The cheapest feasible order, or ``None`` when no order is
        feasible (exactly when
        :func:`~repro.relational.bindings.order_joins` finds none)."""
        const = frozenset(initially_bound)
        if not parts:
            return JoinPlan((), (), 0.0, 0.0, "trivial")
        order = self._dp(parts, const)
        if order is None:
            return None
        steps = tuple(self.model.estimate_order(parts, order, const))
        return JoinPlan(
            order=tuple(order),
            steps=steps,
            est_fetches=total_fetches(steps),
            est_rows=steps[-1].est_rows,
            strategy="dp",
        )

    # -- placement ----------------------------------------------------------

    def _placeable(
        self, part: JoinPart, const: frozenset[str], prefix: Sequence[JoinPart]
    ) -> bool:
        bound = const
        for other in prefix:
            bound |= other.schema
        return feasible(part.bindings, bound)

    def _step_cost(
        self, part: JoinPart, prefix: Sequence[JoinPart], const: frozenset[str]
    ) -> float:
        return self.model.step_estimate(part, prefix, const).est_fetches

    # -- exhaustive subset DP -----------------------------------------------

    def _dp(
        self, parts: Sequence[JoinPart], const: frozenset[str]
    ) -> list[int] | None:
        n = len(parts)
        # best[mask] = (cost, order): cheapest feasible order reaching the
        # subset; ties broken on relation names for determinism.
        best: dict[int, tuple[float, tuple[int, ...]]] = {0: (0.0, ())}
        for mask in range(1, 1 << n):
            winner: tuple[float, tuple[str, ...], tuple[int, ...]] | None = None
            for last in range(n):
                bit = 1 << last
                if not mask & bit:
                    continue
                prev = best.get(mask ^ bit)
                if prev is None:
                    continue
                prev_cost, prev_order = prev
                prefix = [parts[i] for i in prev_order]
                if not self._placeable(parts[last], const, prefix):
                    continue
                cost = prev_cost + self._step_cost(parts[last], prefix, const)
                order = prev_order + (last,)
                key = (cost, tuple(parts[i].name for i in order), order)
                if winner is None or key < winner:
                    winner = key
            if winner is not None:
                best[mask] = (winner[0], winner[2])
        full = best.get((1 << n) - 1)
        return list(full[1]) if full is not None else None


# -- plan fingerprinting (the MQO layer's identity function) -----------------
#
# Two logical plans share work only if the multi-query layer can prove
# they compute the same relation.  The proof is syntactic-but-normalized:
# a plan subtree is folded into a *canonical form* — a nested tuple of
# primitives in which every commutative operator's operands are sorted —
# and the fingerprint is a SHA-256 over that form's stable serialization.
# Equal canonical forms ⇒ equal answers (natural join and union are
# commutative/associative over set-semantics relations, and conjunction/
# disjunction over conditions likewise), so fingerprint equality is a
# sound sharing criterion; distinct forms collide only if SHA-256 does.
#
# Normalizations applied:
#
# * ``Join``/``Union`` chains are flattened into an operand multiset and
#   sorted by operand canonical form (commutative-join normalization).
# * ``And``/``Or`` conjunct/disjunct lists are flattened and sorted; the
#   symmetric comparisons ``=``/``!=`` sort their operands, and ``>`` /
#   ``>=`` are flipped into ``<`` / ``<=``.
# * ``Project`` keeps its attribute list IN ORDER (output column order is
#   part of the answer's identity); ``Rename`` pairs are stored sorted by
#   the dataclass already.
# * ``Derive`` hashes its target attribute and the function's qualname —
#   the function object itself is excluded from dataclass equality, and
#   rewrite-produced derivations are deterministic per attribute.
#
# The *binding signature* — the constants a caller would feed the plan —
# rides along as an explicitly sorted item list in
# :func:`plan_fingerprint`, so the same tree probed under different
# bindings fingerprints differently.


def canonical_condition(cond: object) -> tuple:
    """Canonical nested-tuple form of a condition AST (see module note)."""
    from repro.relational import conditions as C

    if isinstance(cond, C.Comparison):
        left = _operand_form(cond.left)
        right = _operand_form(cond.right)
        op = cond.op
        if op in (">", ">="):
            op = "<" if op == ">" else "<="
            left, right = right, left
        if op in ("=", "!=") and right < left:
            left, right = right, left
        return ("cmp", op, left, right)
    if isinstance(cond, (C.And, C.Or)):
        tag = "and" if isinstance(cond, C.And) else "or"
        parts: list[tuple] = []
        stack = list(cond.parts)
        while stack:
            part = stack.pop()
            if isinstance(part, type(cond)):
                stack.extend(part.parts)
            else:
                parts.append(canonical_condition(part))
        return (tag, tuple(sorted(parts)))
    if isinstance(cond, C.Not):
        return ("not", canonical_condition(cond.part))
    return ("opaque", repr(cond))


def _operand_form(operand: object) -> tuple:
    from repro.relational import conditions as C

    if isinstance(operand, C.Attr):
        return ("attr", operand.name)
    if isinstance(operand, C.Const):
        value = operand.literal
        return ("const", type(value).__name__, repr(value))
    return ("opaque", repr(operand))


def canonical_plan(expr: object) -> tuple:
    """Canonical nested-tuple form of a relational-algebra expression."""
    from repro.relational import algebra as A

    if isinstance(expr, A.Base):
        return ("base", expr.name)
    if isinstance(expr, A.Fixed):
        rel = expr.relation
        return ("fixed", tuple(rel.schema), tuple(map(repr, rel.rows)))
    if isinstance(expr, A.Select):
        return ("select", canonical_condition(expr.condition), canonical_plan(expr.child))
    if isinstance(expr, A.Project):
        # Attribute order is load-bearing: it fixes the answer's column
        # order, so two projections differing only in order must NOT share.
        return ("project", tuple(expr.attrs), canonical_plan(expr.child))
    if isinstance(expr, A.Rename):
        return ("rename", tuple(expr.mapping), canonical_plan(expr.child))
    if isinstance(expr, A.Derive):
        fn_name = getattr(expr.fn, "__qualname__", getattr(expr.fn, "__name__", ""))
        return ("derive", expr.attr, fn_name, canonical_plan(expr.child))
    if isinstance(expr, (A.Join, A.Union)):
        tag = "join" if isinstance(expr, A.Join) else "union"
        relaxed = bool(getattr(expr, "relaxed", False))
        operands: list[tuple] = []
        stack = [expr]
        while stack:
            node = stack.pop()
            same_kind = isinstance(node, type(expr)) and (
                not isinstance(node, A.Union) or node.relaxed == relaxed
            )
            if same_kind:
                stack.append(node.left)  # type: ignore[attr-defined]
                stack.append(node.right)  # type: ignore[attr-defined]
            else:
                operands.append(canonical_plan(node))
        if tag == "union":
            return (tag, relaxed, tuple(sorted(operands)))
        return (tag, tuple(sorted(operands)))
    return ("opaque", repr(expr))


def plan_fingerprint(expr: object, given: dict | None = None) -> str:
    """Stable hex fingerprint of a plan subtree (+ its binding signature).

    Equal fingerprints certify equal answers under set semantics; EXPLAIN
    labels each maximal object with one under ``--mqo``.
    """
    import hashlib

    form = canonical_plan(expr)
    if given:
        signature = tuple(
            (name, type(value).__name__, repr(value))
            for name, value in sorted(given.items())
        )
        form = ("bound", signature, form)
    return hashlib.sha256(repr(form).encode("utf-8")).hexdigest()
