"""Concept hierarchies for the structured universal relation (Figure 5).

"We propose to organize the attributes in the UR into a hierarchy of
concepts.  Each concept is a relation schema whose attributes are concepts
of a lower layer ... the top layer in this hierarchy is the universal
relation itself."

Concepts let the end user build queries incrementally (top-level concept →
subconcept → leaf attribute) and dissolve the unique-role assumption: an
attribute's meaning is given by its position in the hierarchy, not by its
bare name.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ConceptError(Exception):
    """Malformed hierarchy or failed resolution."""


@dataclass
class Concept:
    """A node of the hierarchy; leaves are UR attributes."""

    name: str
    children: list["Concept"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def add(self, *children: "Concept | str") -> "Concept":
        for child in children:
            if isinstance(child, str):
                child = Concept(child)
            self.children.append(child)
        return self

    # -- queries ---------------------------------------------------------------

    def leaves(self) -> list[str]:
        """All leaf attribute names under this concept, document order."""
        if self.is_leaf:
            return [self.name]
        found: list[str] = []
        for child in self.children:
            found.extend(child.leaves())
        return found

    def find(self, name: str) -> "Concept | None":
        """The first descendant (or self) called ``name``."""
        if self.name == name:
            return self
        for child in self.children:
            hit = child.find(name)
            if hit is not None:
                return hit
        return None

    def path_to(self, name: str) -> list[str] | None:
        """Concept path from this node to the attribute/concept ``name``."""
        if self.name == name:
            return [self.name]
        for child in self.children:
            sub = child.path_to(name)
            if sub is not None:
                return [self.name] + sub
        return None

    def expand(self, name: str) -> list[str]:
        """Resolve a user-named concept to its leaf attributes.

        Naming a leaf returns that attribute; naming an inner concept
        returns every attribute beneath it (selecting the "Car" concept
        selects make, model and year).
        """
        node = self.find(name)
        if node is None:
            raise ConceptError("no concept %r in hierarchy %r" % (name, self.name))
        return node.leaves()

    def validate(self) -> None:
        """Leaf names must be unique — each attribute has one home."""
        leaves = self.leaves()
        duplicates = {name for name in leaves if leaves.count(name) > 1}
        if duplicates:
            raise ConceptError("attributes with two homes: %s" % sorted(duplicates))

    def pretty(self, indent: int = 0) -> str:
        lines = ["%s%s" % ("  " * indent, self.name)]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)
