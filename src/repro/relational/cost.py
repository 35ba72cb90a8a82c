"""Fetch-cost estimation for binding-constrained join plans.

The dominant cost of a webbase query is the number of *live Web fetches*
it causes, and that number is driven by the join order: a dependent (bind)
join probes its inner relation once per distinct combination of fed
attribute values, so the order decides how many probes each relation
absorbs.  This module estimates those fetch counts without touching the
Web, from two inputs:

* **handle binding sets** — which placements are even possible, and
  whether a relation placed after a prefix is evaluated *independently*
  (its mandatory attributes are satisfied by query constants pushed into
  its branch: one access) or *dependently* (probed once per distinct
  combination of common attributes fed from the prefix);
* **per-relation statistics** (:class:`RelationStats` inside a
  :class:`CatalogStats`): cardinality and per-attribute distinct-value
  counts, plus two facts derivable from a logical definition — the
  *fetch weight* (how many base fetches one access costs, e.g. a union
  of three site branches costs three) and the *probe attributes* (fed
  values that actually reach a base fetch; values consumed by a
  ``Derive`` standardization never do, so probes differing only there
  collapse onto one fetch key in the engine's per-context cache).

The model is static: nothing a query run observes feeds back into it, so
an estimate — and the join order chosen from it — is a function of the
query's shape and the catalog statistics alone.

Estimates use the classic independence assumptions (System R): equality
selection on attribute ``a`` divides rows by ``dv(a)``; a join on common
attributes divides the row product by the largest distinct count per
shared attribute; distinct counts are capped by row counts.  One
refinement matters for web catalogs whose attributes are hierarchical:
``CatalogStats.fd_parents`` declares functional dependencies such as
``model → make``, so fixing the parent scales the child's distinct count
(there are ~2 models per make, not 25).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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
    schema_of,
)
from repro.relational.bindings import JoinPart, feasible


# -- static analyses over logical definitions ----------------------------------------


def base_count(expr: Expr) -> int:
    """How many base fetches one access of ``expr`` costs (its Base nodes)."""
    if isinstance(expr, Base):
        return 1
    if isinstance(expr, Fixed):
        return 0
    if isinstance(expr, (Select, Project, Derive)):
        return base_count(expr.child)
    if isinstance(expr, Rename):
        return base_count(expr.child)
    if isinstance(expr, (Join, Union)):
        return base_count(expr.left) + base_count(expr.right)
    raise TypeError("unknown expression %r" % (expr,))


def pushable_attributes(expr: Expr, catalog: Catalog) -> frozenset[str]:
    """The output attributes whose *fed values* reach some base fetch.

    A value fed for an attribute consumed by a ``Derive`` standardization
    is stripped before the base fetch (``year`` fed into a view that
    derives ``year`` never varies the fetch key), so distinct fed values
    there cost nothing extra: the engine's per-context cache collapses
    them.  Probe-count estimates multiply distinct counts only over the
    attributes this function returns.
    """
    return schema_of(expr, catalog).as_set() - _unpushable(expr, catalog)


def _unpushable(expr: Expr, catalog: Catalog) -> frozenset[str]:
    if isinstance(expr, Base):
        return frozenset()
    if isinstance(expr, Fixed):
        return schema_of(expr, catalog).as_set()
    if isinstance(expr, (Select, Project)):
        return _unpushable(expr.child, catalog)
    if isinstance(expr, Rename):
        mapping = expr.mapping_dict
        return frozenset(mapping.get(a, a) for a in _unpushable(expr.child, catalog))
    if isinstance(expr, Derive):
        return _unpushable(expr.child, catalog) | {expr.attr}
    if isinstance(expr, (Join, Union)):
        left_schema = schema_of(expr.left, catalog).as_set()
        right_schema = schema_of(expr.right, catalog).as_set()
        left_dead = _unpushable(expr.left, catalog)
        right_dead = _unpushable(expr.right, catalog)
        out: set[str] = set()
        for attr in left_schema | right_schema:
            dead_left = attr not in left_schema or attr in left_dead
            dead_right = attr not in right_schema or attr in right_dead
            if dead_left and dead_right:
                out.add(attr)
        return frozenset(out)
    raise TypeError("unknown expression %r" % (expr,))


# -- statistics ----------------------------------------------------------------------


@dataclass(frozen=True)
class RelationStats:
    """What the optimizer knows about one relation.

    ``distinct`` maps attributes to distinct-value counts (missing
    attributes fall back to ``DEFAULT_DISTINCT``); ``fetch_weight`` is the
    number of base fetches one access costs; ``probe_attrs`` limits which
    fed attributes vary the fetch key (``None`` = all of them).
    """

    cardinality: float
    distinct: Mapping[str, float] = field(default_factory=dict)
    fetch_weight: float = 1.0
    probe_attrs: frozenset[str] | None = None


#: Guesses for what no statistic covers: the rows of a relation without
#: :class:`RelationStats`, and the distinct values of an attribute its
#: ``distinct`` map leaves out.
DEFAULT_CARDINALITY = 100.0
DEFAULT_DISTINCT = 10.0


class CatalogStats:
    """Per-relation statistics plus catalog-wide structural knowledge."""

    def __init__(
        self,
        relations: Mapping[str, RelationStats] | None = None,
        fd_parents: Mapping[str, str] | None = None,
    ) -> None:
        self.relations = dict(relations or {})
        self.fd_parents = dict(fd_parents or {})

    def for_relation(self, name: str) -> RelationStats:
        stats = self.relations.get(name)
        if stats is not None:
            return stats
        return RelationStats(cardinality=DEFAULT_CARDINALITY)

    @classmethod
    def from_catalog(
        cls,
        catalog: Catalog,
        names: Iterable[str],
        cardinalities: Mapping[str, float] | None = None,
        distinct: Mapping[str, Mapping[str, float]] | None = None,
        fd_parents: Mapping[str, str] | None = None,
    ) -> "CatalogStats":
        """Statistics enriched with what definitions reveal structurally.

        When the catalog exposes relation *definitions* (the logical
        layer does, via ``relation(name).definition``), fetch weights and
        probe attributes are derived from them; cardinalities and
        distinct counts come from the supplied mappings (or defaults).
        """
        cardinalities = dict(cardinalities or {})
        distinct = {k: dict(v) for k, v in (distinct or {}).items()}
        relations: dict[str, RelationStats] = {}
        for name in names:
            weight = 1.0
            probe: frozenset[str] | None = None
            getter = getattr(catalog, "relation", None)
            if getter is not None:
                definition = getattr(getter(name), "definition", None)
                if definition is not None:
                    inner = getattr(catalog, "vps", catalog)
                    weight = float(max(1, base_count(definition)))
                    probe = pushable_attributes(definition, inner)
            relations[name] = RelationStats(
                cardinality=float(cardinalities.get(name, DEFAULT_CARDINALITY)),
                distinct=distinct.get(name, {}),
                fetch_weight=weight,
                probe_attrs=probe,
            )
        return cls(relations, fd_parents=fd_parents)


# -- the model -----------------------------------------------------------------------


@dataclass(frozen=True)
class StepEstimate:
    """Predicted cost of placing one relation at one position of an order.

    ``mode`` is how the evaluator will compute it there: ``scan`` (first
    relation, one access with the query constants), ``independent`` (its
    mandatory attributes are covered by constants private to its branch:
    one access in parallel with the prefix) or ``probe`` (a dependent
    join: one access per distinct fed combination).
    """

    relation: str
    mode: str
    est_accesses: float
    est_fetches: float
    est_rows: float  # rows of the prefix joined through this relation

    def describe(self) -> str:
        return "%s %s: %.1f access(es), %.1f fetch(es), %.1f row(s)" % (
            self.relation,
            self.mode,
            self.est_accesses,
            self.est_fetches,
            self.est_rows,
        )


class CostModel:
    """Estimated fetch counts for join-order steps, from :class:`CatalogStats`
    alone: the same query shape always gets the same estimates."""

    def __init__(self, stats: CatalogStats | None = None) -> None:
        self.stats = stats or CatalogStats()

    # -- primitive estimates -------------------------------------------------

    def _dv(self, stats: RelationStats, attr: str, const_attrs: frozenset[str]) -> float:
        """Distinct values of ``attr`` within one relation, after the
        equality constants in ``const_attrs`` have been applied."""
        if attr in const_attrs:
            return 1.0
        d = float(stats.distinct.get(attr, DEFAULT_DISTINCT))
        d = min(d, max(1.0, stats.cardinality))
        parent = self.stats.fd_parents.get(attr)
        if parent is not None and parent in const_attrs:
            parent_dv = float(stats.distinct.get(parent, DEFAULT_DISTINCT))
            d = d / max(1.0, parent_dv)
        return max(1.0, d)

    def selected_rows(self, part: JoinPart, const_attrs: frozenset[str]) -> float:
        """Cardinality after the query's equality constants are applied."""
        stats = self.stats.for_relation(part.name)
        rows = max(1.0, float(stats.cardinality))
        for attr in sorted(part.schema & const_attrs):
            rows /= self._dv(stats, attr, const_attrs - {attr})
        return max(1.0, rows)

    def est_rows(
        self, parts: Sequence[JoinPart], const_attrs: frozenset[str]
    ) -> float:
        """Estimated rows of the natural join of ``parts`` (set-determined,
        so it is a valid dynamic-programming subproblem value)."""
        if not parts:
            return 1.0
        rows = 1.0
        per_attr: dict[str, list[float]] = {}
        for part in parts:
            selected = self.selected_rows(part, const_attrs)
            rows *= selected
            stats = self.stats.for_relation(part.name)
            for attr in part.schema:
                if attr in const_attrs:
                    continue
                dv = min(self._dv(stats, attr, const_attrs), selected)
                per_attr.setdefault(attr, []).append(max(1.0, dv))
        for attr, dvs in per_attr.items():
            if len(dvs) > 1:
                rows /= max(dvs) ** (len(dvs) - 1)
        return max(1.0, rows)

    def prefix_dv(
        self,
        parts: Sequence[JoinPart],
        attr: str,
        const_attrs: frozenset[str],
    ) -> float:
        """Distinct values of ``attr`` the joined prefix can feed."""
        if attr in const_attrs:
            return 1.0
        dvs = []
        for part in parts:
            if attr in part.schema:
                stats = self.stats.for_relation(part.name)
                dvs.append(
                    min(
                        self._dv(stats, attr, const_attrs),
                        self.selected_rows(part, const_attrs),
                    )
                )
        if not dvs:
            return 1.0
        return max(1.0, min(min(dvs), self.est_rows(parts, const_attrs)))

    # -- the step estimate ---------------------------------------------------

    def step_estimate(
        self,
        part: JoinPart,
        prefix: Sequence[JoinPart],
        const_attrs: frozenset[str],
    ) -> StepEstimate:
        """Cost of placing ``part`` after the relations in ``prefix``.

        Mirrors the evaluator: the first relation is one access; a later
        relation whose mandatory attributes are covered by constants
        *private to its branch* (on attributes the prefix does not share
        — shared ones are pushed into the prefix side) evaluates
        independently, also one access; otherwise it is probed once per
        estimated distinct combination of the fed common attributes, and
        live fetches are further limited to combinations that differ on
        the relation's probe attributes (the per-context cache collapses
        the rest).
        """
        stats = self.stats.for_relation(part.name)
        prefix_schema: frozenset[str] = frozenset()
        for other in prefix:
            prefix_schema |= other.schema
        common = part.schema & prefix_schema
        private_consts = (part.schema - prefix_schema) & const_attrs

        if not prefix:
            mode = "scan"
            accesses = keys = 1.0
        elif feasible(part.bindings, private_consts):
            mode = "independent"
            accesses = keys = 1.0
        else:
            mode = "probe"
            prefix_rows = self.est_rows(prefix, const_attrs)
            combos = 1.0
            for attr in sorted(common):
                combos *= self.prefix_dv(prefix, attr, const_attrs)
            accesses = max(1.0, min(prefix_rows, combos))
            probe_attrs = stats.probe_attrs
            key_combos = 1.0
            for attr in sorted(common):
                if probe_attrs is not None and attr not in probe_attrs:
                    continue
                key_combos *= self.prefix_dv(prefix, attr, const_attrs)
            keys = max(1.0, min(prefix_rows, key_combos))
        return StepEstimate(
            relation=part.name,
            mode=mode,
            est_accesses=accesses,
            est_fetches=keys * stats.fetch_weight,
            est_rows=self.est_rows(list(prefix) + [part], const_attrs),
        )

    def estimate_order(
        self,
        parts: Sequence[JoinPart],
        order: Sequence[int],
        const_attrs: Iterable[str],
    ) -> list[StepEstimate]:
        """Per-step estimates for one complete order (indices into parts)."""
        const = frozenset(const_attrs)
        steps: list[StepEstimate] = []
        prefix: list[JoinPart] = []
        for index in order:
            steps.append(self.step_estimate(parts[index], prefix, const))
            prefix.append(parts[index])
        return steps


def total_fetches(steps: Iterable[StepEstimate]) -> float:
    """Σ estimated fetches over a plan's steps."""
    return math.fsum(step.est_fetches for step in steps)
