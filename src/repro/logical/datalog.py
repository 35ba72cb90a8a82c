"""Datalog view definitions for the logical layer.

Section 5: the logical-to-VPS mapping "can be done using conventional
techniques (e.g., relational algebra, or Datalog rules)".  The hand-built
algebra views live with their domain (:mod:`repro.domains.cars.mapping`);
this module provides the Datalog alternative: conjunctive rules over VPS
relations, compiled into the same binding-aware algebra.

Syntax (classic positional Datalog)::

    cheap_fords(Make, Model, Price) :-
        newsday(Contact, Make, Model, Price, Url, Year), Make = 'ford'.
    cheap_fords(Make, Model, Price) :-
        nytimes(Price, Contact, Features, Make, Model, Year), Make = 'ford'.

* body atoms are VPS (or previously defined Datalog) relations; argument
  *positions* follow the relation's schema order;
* shared variables join; constants select; ``Var = const`` and
  ``Var < Var2`` comparisons select too;
* several rules with the same head union;
* the produced view's attributes are the head's variable names,
  lowercased.

Compilation per rule: each atom becomes ``Rename(Base(r), attr->var)``
(with equality selections for constant arguments), atoms natural-join on
shared variables, comparisons become a selection, and the head projects.
Binding propagation then applies to the result exactly as to hand-built
views — Datalog views are first-class logical relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.logical.schema import LogicalSchema
from repro.relational.algebra import (
    Base,
    Catalog,
    Expr,
    Join,
    Project,
    Rename,
    Select,
    Union,
)
from repro.relational.conditions import (
    And,
    Attr,
    Comparison,
    Condition,
    Const,
    conj,
)


class DatalogError(Exception):
    """Ill-formed Datalog program or rule."""


@dataclass(frozen=True)
class DatalogAtom:
    """One body atom: relation name + positional argument terms.

    Arguments are variable names (capitalized strings) or constants.
    """

    relation: str
    args: tuple[Any, ...]


@dataclass(frozen=True)
class DatalogComparison:
    """A body comparison ``left op right`` over variables/constants."""

    left: Any
    op: str
    right: Any


@dataclass(frozen=True)
class DatalogRule:
    head: str
    head_vars: tuple[str, ...]
    atoms: tuple[DatalogAtom, ...]
    comparisons: tuple[DatalogComparison, ...] = ()


def _is_var(term: Any) -> bool:
    return isinstance(term, str) and term[:1].isupper()


# -- parsing -------------------------------------------------------------------------


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(text)
    symbols = (":-", "<=", ">=", "!=", "(", ")", ",", ".", "=", "<", ">")
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "'":
            j = text.find("'", i + 1)
            if j == -1:
                raise DatalogError("unterminated string literal")
            tokens.append(text[i : j + 1])
            i = j + 1
            continue
        matched = False
        for sym in symbols:
            if text.startswith(sym, i):
                tokens.append(sym)
                i += len(sym)
                matched = True
                break
        if matched:
            continue
        j = i
        while j < n and (text[j].isalnum() or text[j] == "_"):
            j += 1
        if j == i:
            raise DatalogError("unexpected character %r" % ch)
        tokens.append(text[i:j])
        i = j
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        if self.pos >= len(self.tokens):
            raise DatalogError("unexpected end of program")
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise DatalogError("expected %r, got %r" % (token, got))

    def parse_term(self) -> Any:
        token = self.next()
        if token.startswith("'"):
            return token[1:-1]
        if token[:1].isdigit() or (token[:1] == "-" and token[1:2].isdigit()):
            return float(token) if "." in token else int(token)
        if not (token[:1].isalpha() or token[:1] == "_"):
            raise DatalogError("term expected, got %r" % token)
        return token  # variable (capitalized) or symbolic constant

    def parse_atom_or_comparison(self) -> DatalogAtom | DatalogComparison:
        first = self.parse_term()
        nxt = self.peek()
        if nxt == "(":
            if _is_var(first):
                raise DatalogError("relation name cannot be a variable: %r" % first)
            self.next()
            args = [self.parse_term()]
            while self.peek() == ",":
                self.next()
                args.append(self.parse_term())
            self.expect(")")
            return DatalogAtom(first, tuple(args))
        if nxt in ("=", "<", "<=", ">", ">=", "!="):
            op = self.next()
            right = self.parse_term()
            return DatalogComparison(first, op, right)
        raise DatalogError("atom or comparison expected near %r" % nxt)

    def parse_rule(self) -> DatalogRule:
        head = self.parse_atom_or_comparison()
        if not isinstance(head, DatalogAtom):
            raise DatalogError("rule head must be an atom")
        if not all(_is_var(a) for a in head.args):
            raise DatalogError("head arguments must be variables: %r" % (head,))
        atoms: list[DatalogAtom] = []
        comparisons: list[DatalogComparison] = []
        if self.peek() == ":-":
            self.next()
            while True:
                literal = self.parse_atom_or_comparison()
                if isinstance(literal, DatalogAtom):
                    atoms.append(literal)
                else:
                    comparisons.append(literal)
                if self.peek() == ",":
                    self.next()
                    continue
                break
        self.expect(".")
        if not atoms:
            raise DatalogError("rule for %s has no body atoms" % head.relation)
        return DatalogRule(head.relation, head.args, tuple(atoms), tuple(comparisons))

    def parse_program(self) -> list[DatalogRule]:
        rules = []
        while self.peek() is not None:
            rules.append(self.parse_rule())
        return rules


def parse_datalog(text: str) -> list[DatalogRule]:
    """Parse a Datalog program (a sequence of rules)."""
    return _Parser(text).parse_program()


# -- compilation ----------------------------------------------------------------------


def _operand(term: Any):
    if _is_var(term):
        return Attr(term.lower())
    return Const(term)


def _compile_atom(atom: DatalogAtom, catalog: Catalog) -> tuple[Expr, list[Condition]]:
    schema = catalog.base_schema(atom.relation)
    if len(atom.args) != len(schema):
        raise DatalogError(
            "atom %s/%d does not match schema %r"
            % (atom.relation, len(atom.args), tuple(schema))
        )
    expr: Expr = Base(atom.relation)
    selections: list[Condition] = []
    mapping: dict[str, str] = {}
    seen_vars: dict[str, str] = {}
    post_join: list[Condition] = []
    for attr, term in zip(schema.attrs, atom.args):
        if _is_var(term):
            var_attr = term.lower()
            if term in seen_vars:
                # Repeated variable within one atom: equality selection on
                # the two columns before renaming collapses them.
                selections.append(Comparison(Attr(attr), "=", Attr(seen_vars[term])))
            else:
                seen_vars[term] = attr
                mapping[attr] = var_attr
        else:
            selections.append(Comparison(Attr(attr), "=", Const(term)))
    if selections:
        expr = Select(expr, conj(*selections))
    # Project away columns bound to constants or duplicate variables, then
    # rename the surviving columns to the variable names.
    kept = tuple(seen_vars.values())
    expr = Project(expr, kept)
    expr = Rename(expr, tuple(sorted(mapping.items())))
    return expr, post_join


def compile_rule(rule: DatalogRule, catalog: Catalog) -> Expr:
    """Compile one conjunctive rule into an algebra expression."""
    expr: Expr | None = None
    for atom in rule.atoms:
        atom_expr, _ = _compile_atom(atom, catalog)
        expr = atom_expr if expr is None else Join(expr, atom_expr)
    assert expr is not None
    if rule.comparisons:
        parts = [
            Comparison(_operand(c.left), c.op, _operand(c.right))
            for c in rule.comparisons
        ]
        expr = Select(expr, conj(*parts))
    head_attrs = tuple(v.lower() for v in rule.head_vars)
    return Project(expr, head_attrs)


def compile_program(rules: list[DatalogRule], catalog: Catalog) -> dict[str, Expr]:
    """Compile a program: same-head rules union; later views may reference
    earlier ones is *not* supported (views are over the catalog only)."""
    by_head: dict[str, list[DatalogRule]] = {}
    for rule in rules:
        by_head.setdefault(rule.head, []).append(rule)
    views: dict[str, Expr] = {}
    for head, head_rules in by_head.items():
        widths = {len(r.head_vars) for r in head_rules}
        if len(widths) != 1:
            raise DatalogError("rules for %s disagree on arity" % head)
        attr_sets = {tuple(v.lower() for v in r.head_vars) for r in head_rules}
        if len(attr_sets) != 1:
            raise DatalogError(
                "rules for %s must use the same head variable names" % head
            )
        expr: Expr | None = None
        for rule in head_rules:
            compiled = compile_rule(rule, catalog)
            expr = compiled if expr is None else Union(expr, compiled)
        views[head] = expr
    return views


def define_datalog_views(logical: LogicalSchema, program_text: str) -> list[str]:
    """Parse ``program_text`` and register every view on ``logical``.

    Returns the list of defined relation names.
    """
    rules = parse_datalog(program_text)
    views = compile_program(rules, logical.vps)
    for name, expr in views.items():
        logical.define(name, expr)
    return sorted(views)
