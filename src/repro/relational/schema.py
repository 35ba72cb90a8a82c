"""Relation schemas.

Attributes are plain strings; a :class:`Schema` is an ordered collection of
distinct attribute names.  Order matters only for presentation — equality
and all set-style operations ignore it.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class SchemaError(ValueError):
    """Schemas are incompatible for the attempted operation."""


class Schema:
    """An ordered set of attribute names."""

    __slots__ = ("_attrs", "_index", "_columns")

    def __init__(self, attrs: Iterable[str]) -> None:
        attrs = tuple(attrs)
        if len(set(attrs)) != len(attrs):
            raise SchemaError("duplicate attributes in schema %r" % (attrs,))
        self._attrs = attrs
        self._index = {name: i for i, name in enumerate(attrs)}
        self._columns: dict[tuple[str, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}

    @property
    def attrs(self) -> tuple[str, ...]:
        return self._attrs

    def __iter__(self) -> Iterator[str]:
        return iter(self._attrs)

    def __len__(self) -> int:
        return len(self._attrs)

    def __contains__(self, attr: str) -> bool:
        return attr in self._index

    def __eq__(self, other: object) -> bool:
        """Schemas are equal when they have the same attributes (any order)."""
        if not isinstance(other, Schema):
            return NotImplemented
        return set(self._attrs) == set(other._attrs)

    def __hash__(self) -> int:
        return hash(frozenset(self._attrs))

    def __repr__(self) -> str:
        return "Schema(%s)" % ", ".join(self._attrs)

    def columns(self, names: tuple[str, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The positions of those of ``names`` this schema has, ascending,
        and where in ``names`` each comes from.  Which attributes a plan
        binds is plan-static, so the answer is remembered per ``names``."""
        found = self._columns.get(names)
        if found is None:
            bound = sorted((self._index[a], i) for i, a in enumerate(names) if a in self._index)
            found = self._columns[names] = (
                tuple(p for p, _ in bound),
                tuple(i for _, i in bound),
            )
        return found

    def index_of(self, attr: str) -> int:
        try:
            return self._index[attr]
        except KeyError:
            raise SchemaError("no attribute %r in %r" % (attr, self)) from None

    def common(self, other: "Schema") -> set[str]:
        """Attributes shared with ``other`` (the paper's ``E1 ∩ E2``)."""
        return set(self._attrs) & set(other._attrs)

    def union(self, other: "Schema") -> "Schema":
        """This schema extended with ``other``'s new attributes, in order."""
        extra = [a for a in other._attrs if a not in self._index]
        return Schema(self._attrs + tuple(extra))

    def project(self, attrs: Iterable[str]) -> "Schema":
        attrs = tuple(attrs)
        missing = [a for a in attrs if a not in self._index]
        if missing:
            raise SchemaError("cannot project %r out of %r" % (missing, self))
        return Schema(attrs)

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Rename attributes; unmapped names pass through."""
        return Schema(tuple(mapping.get(a, a) for a in self._attrs))

    def as_set(self) -> frozenset[str]:
        return frozenset(self._attrs)
