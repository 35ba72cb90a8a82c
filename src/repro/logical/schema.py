"""The logical layer: site-independent relations over the VPS.

Each :class:`LogicalRelation` is a relational-algebra view over VPS
relations (Table 2 of the paper): unions of renamed/projected site
relations, with representation standardization (currency, numeric types)
applied through ``Derive`` nodes.  The :class:`LogicalSchema` is itself a
:class:`~repro.relational.algebra.Catalog`, so the external schema layer
can evaluate over logical relations exactly the way the logical layer
evaluates over the VPS.
"""

from __future__ import annotations

from typing import Any

from repro.relational.algebra import (
    Catalog,
    Expr,
    base_names,
    binding_sets_of,
    evaluate,
    evaluate_batch,
    schema_of,
)
from repro.relational.bindings import BindingSets
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.logical.standardize import fuzzy_match


class LogicalRelation:
    """A named view over the VPS."""

    def __init__(self, name: str, definition: Expr, vps: Catalog) -> None:
        self.name = name
        self.definition = definition
        self._vps = vps
        self.schema: Schema = schema_of(definition, vps)
        self.binding_sets: BindingSets = binding_sets_of(definition, vps)
        # What the view depends on is a property of its definition, not of
        # what one evaluation fetched: the host behind each base relation
        # it reads, in base-name order (a host repeats when it serves
        # several of them; empty over a catalog that knows no hosts).
        host_of = getattr(vps, "host_of", None)
        bases = sorted(base_names(definition)) if host_of is not None else []
        self.hosts: tuple[str, ...] = tuple(host_of(base) for base in bases)

    def fetch(self, given: dict[str, Any], context: Any = None) -> Relation:
        """Evaluate the view by running its definition's plan, compiled
        once per bound-attribute set it is called with; with an execution
        context, independent VPS fetches under the view fan out through it
        and the view gets its own trace span."""
        if context is None:
            return evaluate(self.definition, self._vps, given)
        with context.span("view", self.name):
            return evaluate(self.definition, self._vps, given, context)

    def fetch_batch(
        self, givens: list[dict[str, Any]], context: Any = None
    ) -> list[Relation]:
        """Evaluate the view for a whole batch of probe bindings at once.

        One ``view`` span covers the batch, carrying ``batch=K`` so EXPLAIN
        counts K accesses for it.  The definition's plan for the batch's
        bound-attribute set hands each VPS relation the whole batch (one
        result-cache lookup per distinct binding, the misses fetched on the
        batched engine path, the prefix pages shared through the query's
        page cache) and applies the view's compiled steps to each piece."""
        if context is None:
            return [evaluate(self.definition, self._vps, given) for given in givens]
        with context.span("view", self.name) as span:
            span.attrs["batch"] = len(givens)
            return evaluate_batch(self.definition, self._vps, givens, context)

    def __repr__(self) -> str:
        return "LogicalRelation(%s%s)" % (self.name, tuple(self.schema))


class LogicalSchema:
    """The catalog of logical relations (site independence boundary)."""

    def __init__(self, vps: Catalog) -> None:
        self.vps = vps
        self.relations: dict[str, LogicalRelation] = {}

    def define(self, name: str, definition: Expr) -> LogicalRelation:
        if name in self.relations:
            raise ValueError("logical relation %r already defined" % name)
        relation = LogicalRelation(name, definition, self.vps)
        self.relations[name] = relation
        return relation

    def relation(self, name: str) -> LogicalRelation:
        try:
            return self.relations[name]
        except KeyError:
            raise KeyError("no logical relation %r" % name) from None

    @property
    def relation_names(self) -> list[str]:
        return sorted(self.relations)

    def all_attributes(self) -> list[str]:
        """Every attribute appearing in some logical relation (the universe
        from which the universal relation is formed)."""
        attrs: set[str] = set()
        for relation in self.relations.values():
            attrs |= set(relation.schema.attrs)
        return sorted(attrs)

    def resolve_attribute(self, name: str) -> str:
        """Resolve a user-typed attribute name, falling back to fuzzy
        matching against the known attribute universe."""
        universe = self.all_attributes()
        if name in universe:
            return name
        matched = fuzzy_match(name, universe)
        if matched is None:
            raise KeyError("unknown attribute %r" % name)
        return matched

    def relations_with_attribute(self, attr: str) -> list[str]:
        return sorted(
            name
            for name, relation in self.relations.items()
            if attr in relation.schema
        )

    # -- the Catalog protocol (consumed by the external schema layer) -----------

    def base_schema(self, name: str) -> Schema:
        return self.relation(name).schema

    def base_binding_sets(self, name: str) -> BindingSets:
        return self.relation(name).binding_sets

    def fetch(self, name: str, given: dict[str, Any], context: Any = None) -> Relation:
        return self.relation(name).fetch(given, context=context)

    def fetch_batch(
        self, name: str, givens: list[dict[str, Any]], context: Any = None
    ) -> list[Relation]:
        return self.relation(name).fetch_batch(givens, context=context)
