"""Selection conditions for the relational layers.

Conditions are small ASTs evaluated against row dicts (the spec); a plan
tests rows through :func:`row_test`, the same condition compiled to a
predicate over row positions.  They also expose the two analyses the rest
of the system needs:

* :func:`equality_bindings` — the attribute=constant equalities a condition
  guarantees, which binding propagation absorbs (a selection on ``make =
  'ford'`` supplies the ``make`` binding to the underlying form);
* ``attributes`` — every attribute mentioned, which the UR planner uses to
  decide which logical relations a query touches.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

from repro.relational.relation import Row, RowDict


class Condition:
    """Base class for selection conditions."""

    def evaluate(self, row: RowDict) -> bool:
        raise NotImplementedError

    def attributes(self) -> set[str]:
        raise NotImplementedError

    def __call__(self, row: RowDict) -> bool:
        return self.evaluate(row)


@dataclass(frozen=True)
class Attr:
    """An attribute reference inside a condition."""

    name: str

    def value(self, row: RowDict) -> Any:
        return row[self.name]

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A literal constant inside a condition."""

    literal: Any

    def value(self, row: RowDict) -> Any:
        return self.literal

    def __repr__(self) -> str:
        return repr(self.literal)


Operand = Any  # Attr | Const

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Comparison(Condition):
    """``left op right`` where each side is an :class:`Attr` or :class:`Const`.

    Comparisons between attributes (``Price < BBPrice``) are what make the
    paper's Jaguar query more than a lookup.
    """

    left: Operand
    op: str
    right: Operand

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError("unknown comparison operator %r" % self.op)

    def evaluate(self, row: RowDict) -> bool:
        left = self.left.value(row)
        right = self.right.value(row)
        if left is None or right is None:
            return False
        try:
            return _OPS[self.op](left, right)
        except TypeError:
            return False

    def attributes(self) -> set[str]:
        found = set()
        if isinstance(self.left, Attr):
            found.add(self.left.name)
        if isinstance(self.right, Attr):
            found.add(self.right.name)
        return found

    def __repr__(self) -> str:
        return "%r %s %r" % (self.left, self.op, self.right)


@dataclass(frozen=True)
class And(Condition):
    parts: tuple[Condition, ...]

    def evaluate(self, row: RowDict) -> bool:
        return all(p.evaluate(row) for p in self.parts)

    def attributes(self) -> set[str]:
        found: set[str] = set()
        for p in self.parts:
            found |= p.attributes()
        return found

    def __repr__(self) -> str:
        return " AND ".join("(%r)" % p for p in self.parts)


@dataclass(frozen=True)
class Or(Condition):
    parts: tuple[Condition, ...]

    def evaluate(self, row: RowDict) -> bool:
        return any(p.evaluate(row) for p in self.parts)

    def attributes(self) -> set[str]:
        found: set[str] = set()
        for p in self.parts:
            found |= p.attributes()
        return found

    def __repr__(self) -> str:
        return " OR ".join("(%r)" % p for p in self.parts)


@dataclass(frozen=True)
class Not(Condition):
    part: Condition

    def evaluate(self, row: RowDict) -> bool:
        return not self.part.evaluate(row)

    def attributes(self) -> set[str]:
        return self.part.attributes()

    def __repr__(self) -> str:
        return "NOT (%r)" % (self.part,)


def conj(*parts: Condition) -> Condition:
    """Conjunction helper that flattens and drops the trivial case."""
    flat: list[Condition] = []
    for part in parts:
        if isinstance(part, And):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def eq(attr: str, value: Any) -> Comparison:
    """Shorthand for ``attr = constant``."""
    return Comparison(Attr(attr), "=", Const(value))


@dataclass(frozen=True)
class Param:
    """A lifted constant: slot ``index`` of the values a condition was
    parameterized on.  It stands in a :class:`Const` (``Const(Param(i))``),
    so every analysis that only asks *whether* an operand is a constant —
    :func:`equality_bindings`, selection pushdown — works on the template."""

    index: int


def parameterize(condition: Condition) -> tuple[Condition, tuple[Any, ...]]:
    """``condition`` with each constant replaced by a :class:`Param`, in
    traversal order, and the constants it took out: two conditions that
    differ only in their constants get equal templates."""
    values: list[Any] = []

    def lift(node: Condition) -> Condition:
        if isinstance(node, Comparison):
            return Comparison(slot(node.left), node.op, slot(node.right))
        if isinstance(node, (And, Or)):
            return type(node)(tuple(lift(part) for part in node.parts))
        if isinstance(node, Not):
            return Not(lift(node.part))
        raise TypeError("cannot parameterize condition %r" % (node,))

    def slot(operand: Operand) -> Operand:
        if not isinstance(operand, Const):
            return operand
        values.append(operand.literal)
        return Const(Param(len(values) - 1))

    return lift(condition), tuple(values)


def bind_params(condition: Condition, values: tuple[Any, ...]) -> Condition:
    """The inverse of :func:`parameterize`: each :class:`Param` replaced by
    its value."""

    def bind(node: Condition) -> Condition:
        if isinstance(node, Comparison):
            return Comparison(value(node.left), node.op, value(node.right))
        if isinstance(node, (And, Or)):
            return type(node)(tuple(bind(part) for part in node.parts))
        if isinstance(node, Not):
            return Not(bind(node.part))
        return node

    def value(operand: Operand) -> Operand:
        if isinstance(operand, Const) and isinstance(operand.literal, Param):
            return Const(values[operand.literal.index])
        return operand

    return bind(condition) if values else condition


def equality_bindings(condition: Condition | None) -> dict[str, Any]:
    """Attribute=constant equalities guaranteed by ``condition``.

    Only conjunctive contexts guarantee an equality (an equality under an
    ``Or`` or ``Not`` does not); the traversal therefore descends only
    through ``And``.
    """
    found: dict[str, Any] = {}
    if condition is None:
        return found
    stack = [condition]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.extend(node.parts)
        elif isinstance(node, Comparison) and node.op == "=":
            if isinstance(node.left, Attr) and isinstance(node.right, Const):
                found[node.left.name] = node.right.literal
            elif isinstance(node.right, Attr) and isinstance(node.left, Const):
                found[node.right.name] = node.left.literal
    return found


#: A compiled condition: the query's parameter values -> a row predicate.
RowTest = Callable[[tuple[Any, ...]], Callable[[Row], Any]]


def row_test(condition: Condition, attrs: tuple[str, ...]) -> RowTest:
    """``condition`` over rows of ``attrs``: given a query's parameter values
    (its :class:`Param` slots), the predicate over row tuples.  It answers
    as :meth:`Condition.evaluate` does on the row's dict: a ``None`` or
    incomparable operand is false, a missing attribute raises ``KeyError``."""
    index = {attr: i for i, attr in enumerate(attrs)}

    def operand(node: Operand, params: tuple) -> Callable[[Row], Any]:
        if isinstance(node, Attr):
            if node.name in index:
                return operator.itemgetter(index[node.name])
            return lambda row: {}[node.name]  # KeyError, as a row dict raises
        value = params[node.literal.index] if isinstance(node.literal, Param) else node.literal
        return lambda row: value

    def bind(node: Condition, params: tuple) -> Callable[[Row], Any]:
        if isinstance(node, Not):
            part = bind(node.part, params)
            return lambda row: not part(row)
        if isinstance(node, (And, Or)):
            parts = [bind(part, params) for part in node.parts]
            every = all if isinstance(node, And) else any
            return lambda row: every(part(row) for part in parts)
        left, right, op = operand(node.left, params), operand(node.right, params), _OPS[node.op]

        def test(row: Row) -> Any:
            a, b = left(row), right(row)
            if a is None or b is None:
                return False
            try:
                return op(a, b)
            except TypeError:
                return False

        return test

    return lambda params: bind(condition, params)
