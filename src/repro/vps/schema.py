"""The virtual physical schema: relations you can only reach through forms.

"The virtual physical database schema (VPS) represents all the data there
is to see by filing requests to the server."  A :class:`VpsSchema` is the
catalog of those relations: each one carries its handle family and its
compiled navigation expression, and is populated on demand by the
navigation executor.  The VPS is the :class:`~repro.relational.algebra.Catalog`
the logical layer's algebra evaluates over.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.relational.bindings import BindingSets, minimize
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.vps.handle import Handle, HandleError, check_handle_family

if TYPE_CHECKING:  # pragma: no cover - annotations only; avoids an import cycle
    from repro.navigation.compiler import CompiledRelation, CompiledSite
    from repro.navigation.executor import NavigationExecutor


class VirtualRelation:
    """One VPS relation: schema, handles, and the navigation to populate it."""

    def __init__(self, compiled: "CompiledRelation", executor: "NavigationExecutor") -> None:
        check_handle_family(compiled.handles)
        self.name = compiled.name
        self.host = compiled.host
        self.schema = Schema(compiled.schema)
        self.handles: list[Handle] = list(compiled.handles)
        self.kind = compiled.kind
        self.binding_sets: BindingSets = minimize(h.mandatory for h in self.handles)
        self._executor = executor

    def handle_for(self, given: frozenset[str]) -> Handle:
        """The handle whose mandatory attributes ``given`` satisfies, with
        the largest usable selection set (pushes the most work to the
        server)."""
        usable = [h for h in self.handles if h.accepts(given)]
        if not usable:
            raise HandleError(
                "relation %s requires one of %s; given %s"
                % (
                    self.name,
                    [sorted(h.mandatory) for h in self.handles],
                    sorted(given),
                )
            )
        return max(usable, key=lambda h: (len(h.selection & given), sorted(h.mandatory)))

    def _prepare(self, given: dict[str, Any]) -> tuple[dict[str, Any], str]:
        """Resolve one binding to its handle: the relevant bound values and
        the navigation goal to run them through."""
        keys = frozenset(a for a, v in given.items() if v is not None)
        handle = self.handle_for(keys)
        relevant = {
            a: v
            for a, v in given.items()
            if v is not None and (a in handle.selection or a in self.schema)
        }
        return relevant, handle.goal

    def fetch(
        self, given: dict[str, Any], executor: "NavigationExecutor | None" = None
    ) -> Relation:
        """Populate the relation for the bound values in ``given``.

        Values for attributes outside the handle's selection set and the
        relation schema are ignored (they belong to other relations in a
        larger expression).  ``executor`` substitutes the navigation stack
        of the execution context running this access for the schema's own
        one.
        """
        relevant, goal = self._prepare(given)
        rows = (executor or self._executor).fetch(self.name, relevant, goal=goal)
        return Relation.from_dicts(
            self.schema, [{a: r.get(a) for a in self.schema} for r in rows]
        )


class VpsSchema:
    """The catalog of all VPS relations known to the webbase."""

    def __init__(self, executor: "NavigationExecutor") -> None:
        self.executor = executor
        self.relations: dict[str, VirtualRelation] = {}

    def add_compiled_site(self, compiled: "CompiledSite") -> None:
        self.executor.add_site(compiled)
        for rel in compiled.relations:
            self.relations[rel.name] = VirtualRelation(rel, self.executor)

    def relation(self, name: str) -> VirtualRelation:
        try:
            return self.relations[name]
        except KeyError:
            raise KeyError("no VPS relation %r" % name) from None

    @property
    def relation_names(self) -> list[str]:
        return sorted(self.relations)

    def host_of(self, name: str) -> str:
        """The host serving one relation — the unit of maintenance-driven
        cache invalidation (a site change affects all of its relations)."""
        return self.relation(name).host

    # -- the Catalog protocol (consumed by the relational algebra) -------------

    def base_schema(self, name: str) -> Schema:
        return self.relation(name).schema

    def base_binding_sets(self, name: str) -> BindingSets:
        return self.relation(name).binding_sets

    def fetch(self, name: str, given: dict[str, Any], context: Any = None) -> Relation:
        """Fetch a relation, optionally through an execution context.

        With a context, the fetch runs on the engine — the context's
        navigation stack, per-context caching, retry, trace spans;
        without one it runs directly on the schema's own executor (the
        simple path test doubles and small tools use)."""
        if context is None:
            return self.relation(name).fetch(given)
        return context.run_fetch(self.relation(name), given)

    def fetch_batch(
        self, name: str, givens: list[dict[str, Any]], context: Any = None
    ) -> list[Relation]:
        """Fetch one relation for a whole batch of probe bindings.

        With a context the batch runs on the engine
        (:meth:`~repro.core.execution.ExecutionContext.run_fetch_batch`),
        whose query-scoped page cache walks the compiled program's prefix
        pages once for the whole batch; without one it is :meth:`fetch`
        per binding."""
        if context is None:
            return [self.fetch(name, given) for given in givens]
        return context.run_fetch_batch(self.relation(name), givens)
