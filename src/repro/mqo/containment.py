"""Containment-based answer reuse: filter a gold answer, fetch nothing.

A revision-current gold-tier answer (``store/tiered.py``) is the full
materialized result of an earlier query.  When a new query is *subsumed*
by it — same join core, outputs and predicate attributes all retained by
the gold projection, and a selection predicate that logically implies the
gold one — the new answer is exactly a select + project over the stored
rows: zero plan walks against the Web, zero fetches.

The implication check (:func:`implies`) is deliberately conservative.  A
condition is decomposed into conjuncts; each conjunct is either a
*per-attribute constraint* — an equality, a range bound, an exclusion, or
an ``Or`` of equalities over one attribute (the ``IN`` expansion), folded
into a :class:`Domain` — or an *opaque atom* (attribute-vs-attribute
comparisons, negations, mixed disjunctions), compared only by canonical
form.  ``implies(new, gold)`` holds only when every gold atom is matched
syntactically and every gold per-attribute constraint is entailed by the
new query's (tighter or equal) constraint on that attribute.  Anything
the analyzer cannot classify makes the check answer "no" — falling back
to normal execution is always sound.

Soundness of the rewrite, given ``implies(new, gold)``::

    new  = π_out(σ_new(J))                         # J: union of join cores
    gold = π_G(σ_gold(J)),  out ∪ attrs(new) ⊆ G
    σ_new(gold) = π_G(σ_new ∧ gold(J)) = π_G(σ_new(J))      # new ⇒ gold
    π_out(σ_new(gold)) = π_out(σ_new(J)) = new              # attrs ⊆ G

(projection and selection commute because the predicate only reads
retained attributes; set semantics make the projections idempotent).
Revision currency is checked by the caller against the *live* cache
revision vector, so a maintenance bump anywhere in the answer's host set
disqualifies it by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.relational import conditions as C
from repro.relational.planner import canonical_condition


@dataclass
class Domain:
    """The accumulated constraint on one attribute within a conjunction."""

    #: Finite allowed set (``x = v`` / ``x IN (...)``); ``None`` = unbounded.
    allowed: frozenset | None = None
    lower: Any = None  # (value, inclusive) or None
    lower_inclusive: bool = True
    upper: Any = None
    upper_inclusive: bool = True
    excluded: set = field(default_factory=set)  # x != v values
    #: A conjunct over this attribute the analyzer could not classify.
    unknown: bool = False

    def narrow_eq(self, values: Iterable[Any]) -> None:
        values = frozenset(values)
        self.allowed = values if self.allowed is None else self.allowed & values

    def narrow_range(self, op: str, value: Any) -> None:
        try:
            if op in ("<", "<="):
                if self.upper is None or _lt(value, self.upper):
                    self.upper, self.upper_inclusive = value, op == "<="
                elif value == self.upper:
                    self.upper_inclusive = self.upper_inclusive and op == "<="
            else:  # ">", ">="
                if self.lower is None or _lt(self.lower, value):
                    self.lower, self.lower_inclusive = value, op == ">="
                elif value == self.lower:
                    self.lower_inclusive = self.lower_inclusive and op == ">="
        except TypeError:
            self.unknown = True

    def admits(self, value: Any) -> bool:
        """Can ``value`` satisfy this constraint?  (Conservative: errors
        comparing heterogeneous types count as "yes, maybe".)"""
        if value in self.excluded:
            return False
        if self.allowed is not None and value not in self.allowed:
            return False
        try:
            if self.upper is not None and not (
                _lt(value, self.upper) or (self.upper_inclusive and value == self.upper)
            ):
                return False
            if self.lower is not None and not (
                _lt(self.lower, value) or (self.lower_inclusive and value == self.lower)
            ):
                return False
        except TypeError:
            return True
        return True


def _lt(a: Any, b: Any) -> bool:
    return bool(a < b)


@dataclass
class Decomposition:
    """One condition, split into per-attribute domains + opaque atoms."""

    domains: dict[str, Domain]
    atoms: set[tuple]
    analyzable: bool = True


def decompose(condition: C.Condition | None) -> Decomposition:
    """Split a condition into per-attribute :class:`Domain` constraints
    and canonical-form opaque atoms (see module docstring)."""
    domains: dict[str, Domain] = {}
    atoms: set[tuple] = set()
    if condition is None:
        return Decomposition(domains, atoms)
    for part in _conjuncts(condition):
        attr_op = _attr_const(part)
        if attr_op is not None:
            name, op, value = attr_op
            domain = domains.setdefault(name, Domain())
            if op == "=":
                domain.narrow_eq([value])
            elif op == "!=":
                domain.excluded.add(value)
            else:
                domain.narrow_range(op, value)
            continue
        values = _or_of_equalities(part)
        if values is not None:
            name, literals = values
            domains.setdefault(name, Domain()).narrow_eq(literals)
            continue
        atoms.add(canonical_condition(part))
    return Decomposition(domains, atoms)


def _conjuncts(condition: C.Condition) -> list[C.Condition]:
    flat: list[C.Condition] = []
    stack = [condition]
    while stack:
        node = stack.pop()
        if isinstance(node, C.And):
            stack.extend(node.parts)
        else:
            flat.append(node)
    return flat


def _attr_const(part: C.Condition) -> tuple[str, str, Any] | None:
    """``attr op const`` (either side), normalized to attr-on-the-left."""
    if not isinstance(part, C.Comparison):
        return None
    left, op, right = part.left, part.op, part.right
    if isinstance(left, C.Const) and isinstance(right, C.Attr):
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
        left, op, right = right, flip[op], left
    if isinstance(left, C.Attr) and isinstance(right, C.Const):
        return left.name, op, right.literal
    return None


def _or_of_equalities(part: C.Condition) -> tuple[str, list[Any]] | None:
    """``x = a OR x = b OR ...`` over ONE attribute (the ``IN`` shape)."""
    if not isinstance(part, C.Or):
        return None
    name: str | None = None
    literals: list[Any] = []
    for sub in part.parts:
        triple = _attr_const(sub)
        if triple is None or triple[1] != "=":
            return None
        attr, _, value = triple
        if name is None:
            name = attr
        elif attr != name:
            return None
        literals.append(value)
    if name is None:
        return None
    return name, literals


def implies(new: C.Condition | None, gold: C.Condition | None) -> bool:
    """Conservatively decide ``new ⇒ gold`` (every row satisfying the new
    query's predicate satisfies the gold one).  ``False`` means "could not
    prove it", never "proved the negation"."""
    if gold is None:
        return True
    return entails(decompose(new), decompose(gold))


def entails(new_d: Decomposition, gold_d: Decomposition) -> bool:
    """:func:`implies` over conditions already decomposed, for a caller
    that decomposes each condition once and compares it with many."""
    # Every opaque gold conjunct must appear verbatim (canonically) in new.
    if not gold_d.atoms <= new_d.atoms:
        return False
    for attr, gold_dom in gold_d.domains.items():
        if gold_dom.unknown:
            return False
        new_dom = new_d.domains.get(attr)
        if new_dom is None or new_dom.unknown:
            return False
        if not _domain_implies(new_dom, gold_dom):
            return False
    return True


def _domain_implies(new: Domain, gold: Domain) -> bool:
    """Does satisfying ``new`` force satisfying ``gold`` on one attribute?"""
    if new.allowed is not None:
        # Finite candidate set: check each surviving value directly.
        survivors = [v for v in new.allowed if new.admits(v)]
        return all(gold.admits(v) for v in survivors)
    if gold.allowed is not None:
        return False  # new is infinite, gold is finite: cannot be implied
    try:
        if gold.upper is not None:
            if new.upper is None:
                return False
            if _lt(gold.upper, new.upper):
                return False
            if (
                gold.upper == new.upper
                and new.upper_inclusive
                and not gold.upper_inclusive
            ):
                return False
        if gold.lower is not None:
            if new.lower is None:
                return False
            if _lt(new.lower, gold.lower):
                return False
            if (
                gold.lower == new.lower
                and new.lower_inclusive
                and not gold.lower_inclusive
            ):
                return False
    except TypeError:
        return False
    # Gold exclusions: every excluded value must be unreachable under new.
    for value in gold.excluded:
        if value in new.excluded:
            continue
        if new.admits(value):
            return False
    return True
