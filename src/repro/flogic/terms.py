"""Terms, substitutions and unification for the navigation calculus.

The calculus (a subset of serial-Horn Transaction F-logic) manipulates three
kinds of terms:

* :class:`Var` — logic variables (``Make``, ``P0``);
* :class:`Struct` — compound terms ``f(t1, ..., tn)``, also used for F-logic
  molecules after desugaring;
* plain Python constants — strings, numbers, tuples, and opaque host values
  (parsed :class:`~repro.web.page.WebPage` objects flow through navigation
  expressions as constants).

Unification is standard first-order unification with an occurs check.
Substitutions are immutable mappings; ``walk``/``resolve`` follow bindings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping


@dataclass(frozen=True)
class Var:
    """A logic variable, identified by name (plus an optional rename tag)."""

    name: str
    tag: int = 0

    def __repr__(self) -> str:
        return self.name if self.tag == 0 else "%s_%d" % (self.name, self.tag)


@dataclass(frozen=True)
class Struct:
    """A compound term ``functor(arg1, ..., argN)``."""

    functor: str
    args: tuple[Any, ...] = ()

    def __repr__(self) -> str:
        if not self.args:
            return self.functor
        return "%s(%s)" % (self.functor, ", ".join(map(repr, self.args)))

    @property
    def arity(self) -> int:
        return len(self.args)


Term = Any  # Var | Struct | constant
Subst = Mapping[Var, Term]

EMPTY_SUBST: dict[Var, Term] = {}


def walk(term: Term, subst: Subst) -> Term:
    """Follow variable bindings until a non-variable or free variable."""
    while isinstance(term, Var):
        bound = subst.get(term)
        if bound is None:
            return term
        term = bound
    return term


def resolve(term: Term, subst: Subst) -> Term:
    """Deep-substitute: replace every bound variable inside ``term``.

    Tuples are structural terms here (the calculus' list constants), so
    resolution descends into them as well as into :class:`Struct` args.
    """
    term = walk(term, subst)
    if isinstance(term, Struct):
        return Struct(term.functor, tuple(resolve(a, subst) for a in term.args))
    if isinstance(term, tuple):
        return tuple(resolve(a, subst) for a in term)
    return term


def occurs_in(var: Var, term: Term, subst: Subst) -> bool:
    """True when ``var`` occurs inside ``term`` under ``subst``."""
    term = walk(term, subst)
    if term == var:
        return True
    if isinstance(term, Struct):
        return any(occurs_in(var, a, subst) for a in term.args)
    if isinstance(term, tuple):
        return any(occurs_in(var, a, subst) for a in term)
    return False


def unify(left: Term, right: Term, subst: Subst | None = None) -> dict[Var, Term] | None:
    """Unify two terms, returning the extended substitution or None.

    The input substitution is never mutated; on success a new dict is
    returned (possibly the same object if no new bindings were needed).
    """
    if subst is None:
        subst = EMPTY_SUBST
    pairs = [(left, right)]
    out: dict[Var, Term] | None = None  # lazily copied
    current: Subst = subst
    while pairs:
        a, b = pairs.pop()
        a = walk(a, current)
        b = walk(b, current)
        if a is b:
            continue
        if isinstance(a, Var):
            if occurs_in(a, b, current):
                return None
            if out is None:
                out = dict(subst)
                current = out
            out[a] = b
        elif isinstance(b, Var):
            if occurs_in(b, a, current):
                return None
            if out is None:
                out = dict(subst)
                current = out
            out[b] = a
        elif isinstance(a, Struct) and isinstance(b, Struct):
            if a.functor != b.functor or a.arity != b.arity:
                return None
            pairs.extend(zip(a.args, b.args))
        elif isinstance(a, tuple) and isinstance(b, tuple):
            if len(a) != len(b):
                return None
            pairs.extend(zip(a, b))
        else:
            try:
                equal = bool(a == b)
            except Exception:
                equal = a is b
            if not equal:
                return None
    if out is None:
        return dict(subst) if not isinstance(subst, dict) else subst  # no new bindings
    return out


def variables_of(term: Term) -> set[Var]:
    """All variables occurring in ``term``."""
    found: set[Var] = set()
    stack = [term]
    while stack:
        item = stack.pop()
        if isinstance(item, Var):
            found.add(item)
        elif isinstance(item, Struct):
            stack.extend(item.args)
        elif isinstance(item, tuple):
            stack.extend(item)
    return found


def rename_term(term: Term, tag: int) -> Term:
    """Rename every variable in ``term`` to a fresh copy tagged ``tag``."""
    if isinstance(term, Var):
        return Var(term.name, tag)
    if isinstance(term, Struct):
        return Struct(term.functor, tuple(rename_term(a, tag) for a in term.args))
    if isinstance(term, tuple):
        return tuple(rename_term(a, tag) for a in term)
    return term


def is_ground(term: Term, subst: Subst | None = None) -> bool:
    """True when ``term`` contains no unbound variables under ``subst``."""
    if subst:
        term = resolve(term, subst)
    return not variables_of(term)
