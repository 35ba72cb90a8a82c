"""Relations: schemas plus tuples, with the core operators.

Relations use set semantics (duplicate rows are removed) and present their
rows in a deterministic sorted order so results are stable across runs —
a requirement for the reproducibility of every benchmark table.  Order is
a property of an *answer*: the sort runs once, when ``rows`` is first
read; operators work on the unsorted rows and never pay for it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from repro.relational.schema import Schema, SchemaError

Row = tuple  # one tuple of values, positionally matching the schema
RowDict = dict[str, Any]


def _sort_key(row: Row) -> tuple:
    """A total order over heterogeneous rows (ints, floats, strings, None)."""
    return tuple((type(v).__name__, repr(v)) for v in row)


#: Memo entries one relation keeps: a view applies one operator to each relation
#: it builds; the cap is for a cached one meeting many client-chosen projections.
_MEMO_LIMIT = 8


class Relation:
    """An immutable relation instance."""

    # ``__weakref__``: whether an evicted cache entry's relation is garbage
    # is checked by holding only a weak reference to it.
    __slots__ = ("schema", "_rows", "_sorted", "_memo", "_indexes", "__weakref__")

    def __init__(
        self, schema: Schema | Iterable[str], rows: Iterable[Row] = (), _distinct=False, _sorted=False
    ) -> None:
        """``_distinct`` / ``_sorted``: an operator's promise that ``rows`` are
        distinct tuples of the schema's width / in :func:`_sort_key` order."""
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        if not _distinct:
            width = len(schema)
            rows = dict.fromkeys(map(tuple, rows))  # set semantics, insertion order
            for row in rows:
                if len(row) != width:
                    raise SchemaError("row %r does not match schema %r" % (row, schema))
        self.schema = schema
        self._rows: tuple[Row, ...] = tuple(rows)
        self._sorted = _sorted or len(self._rows) < 2
        self._memo: dict[tuple, Relation] = {}
        self._indexes: dict[tuple[int, ...], dict[Any, Relation]] | None = None

    @property
    def rows(self) -> tuple[Row, ...]:
        """The rows in :func:`_sort_key` order: sorted when first read, and
        the sorted tuple replaces the unsorted one."""
        if not self._sorted:
            self._rows = tuple(sorted(self._rows, key=_sort_key))
            self._sorted = True
        return self._rows

    def _memoised(self, key: tuple, build: Callable[[], "Relation"]) -> "Relation":
        """``build()``, remembered on this relation under ``key`` — an
        operator's plan-static arguments, never a query constant.  The memo
        lives as long as the relation does (a cache refill is a new
        object), so it cannot be stale."""
        result = self._memo.get(key)
        if result is None:
            result = build()
            if len(self._memo) < _MEMO_LIMIT:
                result = self._memo.setdefault(key, result)
        return result

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dicts(cls, schema: Schema | Iterable[str], dicts: Iterable[RowDict]) -> "Relation":
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        rows = [tuple(d[a] for a in schema) for d in dicts]
        return cls(schema, rows)

    # -- basics -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema != other.schema:
            return False
        return set(self._rows) == set(other._aligned_to(self.schema))

    def __hash__(self) -> int:
        return hash((self.schema, frozenset(self._aligned_to(Schema(sorted(self.schema))))))

    def __repr__(self) -> str:
        return "Relation(%s, %d rows)" % (", ".join(self.schema), len(self))

    def to_dicts(self) -> list[RowDict]:
        attrs = self.schema.attrs
        return [dict(zip(attrs, row)) for row in self.rows]

    @property
    def is_empty(self) -> bool:
        return not self._rows

    # -- operators ----------------------------------------------------------------
    # An operator that changes nothing returns its operand; one that cannot
    # introduce duplicates says so (``_distinct``) and skips the dedup.

    def select_rows(self, keep: Callable[[Row], bool]) -> "Relation":
        """The rows ``keep`` accepts (positional: it sees the row tuple)."""
        kept = [row for row in self._rows if keep(row)]
        if len(kept) == len(self._rows):
            return self
        return Relation(self.schema, kept, True, self._sorted)

    def where(self, positions: tuple[int, ...], wanted: Any) -> "Relation":
        """The rows whose values at ``positions`` equal ``wanted`` (a value
        for one position, a tuple for several) under ``==``, as a scan
        compares them.  The first probe on a set of columns scans; the
        second builds a hash index on them, kept for the relation's life.
        So a relation that outlives its query (a cached fetch, a literal, a
        memoised derivation) is indexed once, and one built for a single
        probe never pays for an index.  Which columns a plan binds is
        plan-static, so a relation holds few indexes, and none gains an
        entry from a query constant.  A value a dict lookup would not treat
        as ``==`` does (unhashable, or unequal to itself, like NaN) is
        answered by a scan."""
        index = None
        if wanted == wanted:
            indexes = self._indexes
            if indexes is None:
                indexes = self._indexes = {}
            if positions not in indexes:
                indexes[positions] = None  # probed once: scan
            else:
                index = indexes[positions]
                if index is None:
                    index = indexes[positions] = self._index(positions)
        if index is not None:
            try:
                match = index.get(wanted)
            except TypeError:  # unhashable
                pass
            else:
                if match is not None:
                    return match
                return Relation(self.schema, (), True, True) if self._rows else self
        column = itemgetter(*positions)
        return self.select_rows(lambda row: column(row) == wanted)

    def _index(self, positions: tuple[int, ...]) -> dict[Any, "Relation"]:
        """value at ``positions`` -> the sub-relation of the rows holding it;
        one group is this relation itself, so memos on it keep hitting."""
        column = itemgetter(*positions)
        groups: dict[Any, list[Row]] = {}
        for row in self._rows:
            groups.setdefault(column(row), []).append(row)
        if len(groups) == 1:
            return dict.fromkeys(groups, self)
        return {
            value: Relation(self.schema, rows, True, self._sorted)
            for value, rows in groups.items()
        }

    def project(self, attrs: Iterable[str]) -> "Relation":
        target = self.schema.project(attrs)
        if target.attrs == self.schema.attrs:
            return self
        build = lambda: Relation(target, self._aligned_to(target))
        return self._memoised(("project", target.attrs), build)

    def rename(self, mapping: dict[str, str]) -> "Relation":
        target = self.schema.rename(mapping)
        if target.attrs == self.schema.attrs:
            return self
        build = lambda: Relation(target, self._rows, True, self._sorted)  # shares the rows
        return self._memoised(("rename", target.attrs), build)

    def derive(self, attr: str, fn: Callable[[RowDict], Any]) -> "Relation":
        """Add (or replace) ``attr`` computed from each row by ``fn``, a pure
        function of the row (the result is remembered per ``fn``)."""

        def build() -> "Relation":
            attrs = self.schema.attrs
            at = self.schema.index_of(attr) if attr in self.schema else len(attrs)
            rows = [row[:at] + (fn(dict(zip(attrs, row))),) + row[at + 1 :] for row in self._rows]
            # Appending a column keeps distinct rows distinct; replacing one may not.
            return Relation(Schema(attrs[:at] + (attr,) + attrs[at + 1 :]), rows, at == len(attrs))

        return self._memoised(("derive", attr, fn), build)

    def _operand(self, other: "Relation", op: str) -> tuple[Row, ...]:
        """``other``'s rows in this relation's attribute order."""
        if self.schema != other.schema:
            raise SchemaError("%s schema mismatch: %r vs %r" % (op, self.schema, other.schema))
        return other._aligned_to(self.schema)

    def union(self, other: "Relation") -> "Relation":
        theirs = self._operand(other, "union")
        if not theirs:
            return self
        if not self._rows and self.schema.attrs == other.schema.attrs:
            return other
        return Relation(self.schema, self._rows + theirs)

    @staticmethod
    def union_of(relations: list["Relation"]) -> "Relation":
        """``relations[0].union(relations[1]).union(...)`` in one pass: one
        dedup over all the rows, where the pairwise fold re-dedups its
        growing prefix at every step.  Same result, and like ``union`` an
        operand is returned as it is when the others add nothing."""
        first = relations[0]
        rows = [first._operand(other, "union") for other in relations]
        filled = [i for i, part in enumerate(rows) if part]
        if not filled:
            return first
        if len(filled) == 1 and relations[filled[0]].schema.attrs == first.schema.attrs:
            return relations[filled[0]]
        return Relation(first.schema, [row for part in rows for row in part])

    def intersect(self, other: "Relation") -> "Relation":
        return self.select_rows(set(self._operand(other, "intersect")).__contains__)

    def difference(self, other: "Relation") -> "Relation":
        theirs = set(self._operand(other, "difference"))
        return self.select_rows(lambda row: row not in theirs)

    def _aligned_to(self, schema: Schema) -> tuple[Row, ...]:
        """Rows re-ordered (and cut down) to ``schema``'s attributes, in its order."""
        if self.schema.attrs == schema.attrs:
            return self._rows
        indices = [self.schema.index_of(a) for a in schema]
        return tuple(tuple(row[i] for i in indices) for row in self._rows)

    def natural_join(self, other: "Relation") -> "Relation":
        common = sorted(self.schema.common(other.schema))
        target = self.schema.union(other.schema)
        left_idx = [self.schema.index_of(a) for a in common]
        right_idx = [other.schema.index_of(a) for a in common]
        right_extra = [a for a in other.schema if a not in self.schema]
        right_extra_idx = [other.schema.index_of(a) for a in right_extra]

        # Hash join on the common attributes.
        buckets: dict[tuple, list[Row]] = {}
        for row in other._rows:
            buckets.setdefault(tuple(row[i] for i in right_idx), []).append(row)
        joined = []
        for row in self._rows:
            key = tuple(row[i] for i in left_idx)
            for match in buckets.get(key, ()):
                joined.append(row + tuple(match[i] for i in right_extra_idx))
        # Distinct operands join to distinct rows: a joined row fixes both sources.
        return Relation(target, joined, True)

    def distinct_values(self, attrs: Iterable[str]) -> list[tuple]:
        """Distinct value combinations of ``attrs``, sorted."""
        indices = [self.schema.index_of(a) for a in attrs]
        values = {tuple(row[i] for i in indices) for row in self._rows}
        return sorted(values, key=_sort_key)

    def pretty(self, limit: int = 20) -> str:
        """A fixed-width text rendering (for examples and benchmark output)."""
        attrs = list(self.schema.attrs)
        shown = [[str(v) for v in row] for row in self.rows[:limit]]
        widths = [len(a) for a in attrs]
        for row in shown:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(a.ljust(widths[i]) for i, a in enumerate(attrs))
        rule = "-+-".join("-" * w for w in widths)
        lines = [header, rule]
        for row in shown:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if len(self.rows) > limit:
            lines.append("... (%d more rows)" % (len(self.rows) - limit))
        return "\n".join(lines)
