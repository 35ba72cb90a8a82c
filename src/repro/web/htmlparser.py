"""A tolerant HTML parser, written from scratch.

The paper's map builder "parses an HTML page and generates a set of F-logic
objects" and notes that its main practical difficulty was "the presence of
faulty HTML, in which case the parser needs to be able to recover from the
ill-formed documents".  This module provides that recovering parser:

* case-insensitive tag and attribute names,
* quoted and unquoted attribute values, valueless attributes,
* auto-closing of tags whose end tags are optional (``li``, ``p``, ``tr``,
  ``td``, ``option``, ...),
* stray end tags are dropped; unclosed elements are closed at EOF,
* character entities (named subset + numeric) are decoded in text.

:func:`parse_html` builds the tree in one pass over the source, and indexes
it as it goes: every element knows its pre-order position and where its
subtree ends, and the document keeps one element list and one text list in
document order, plus each tag's elements.  A subtree is a contiguous range
of those lists, so ``iter_nodes``, ``find_all`` and ``text`` read a slice
(``find_all`` bisects its tag's list) instead of walking the tree.  The DOM
of :class:`HtmlNode` objects is therefore read-only once parsed: a mutated
tree would no longer match its index.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from operator import attrgetter


VOID_TAGS = frozenset({"br", "hr", "img", "input", "meta", "link", "base"})

# When a start tag of the key arrives, any open element in the value set is
# implicitly closed first.  This covers the common 1999-era omissions.
_IMPLIED_CLOSE: dict[str, frozenset[str]] = {
    "li": frozenset({"li", "p"}),
    "p": frozenset({"p"}),
    "tr": frozenset({"tr", "td", "th"}),
    "td": frozenset({"td", "th"}),
    "th": frozenset({"td", "th"}),
    "option": frozenset({"option"}),
    "dt": frozenset({"dt", "dd"}),
    "dd": frozenset({"dt", "dd"}),
}

# Closing a table row/table must also pop any cells left open, etc.  Maps an
# end tag to the set of tags it may implicitly close on its way out.
_END_POPS: dict[str, frozenset[str]] = {
    "table": frozenset({"tr", "td", "th"}),
    "tr": frozenset({"td", "th"}),
    "ul": frozenset({"li", "p"}),
    "ol": frozenset({"li", "p"}),
    "select": frozenset({"option"}),
    "dl": frozenset({"dt", "dd"}),
    "form": frozenset({"p", "li"}),
    "body": frozenset({"p", "li", "td", "th", "tr"}),
    "html": frozenset({"p", "li", "td", "th", "tr", "body"}),
}

_NAMED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
    "nbsp": " ",
    "copy": "\N{COPYRIGHT SIGN}",
    "middot": "\N{MIDDLE DOT}",
}


def decode_entities(text: str) -> str:
    """Decode HTML character entities in ``text``; unknown ones pass through."""
    if "&" not in text:
        return text
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = text.find(";", i + 1)
        if end == -1 or end - i > 10:
            out.append(ch)
            i += 1
            continue
        name = text[i + 1 : end]
        if name.startswith("#"):
            try:
                code = int(name[2:], 16) if name[1:2] in ("x", "X") else int(name[1:])
                out.append(chr(code))
                i = end + 1
                continue
            except (ValueError, OverflowError):
                pass
        elif name.lower() in _NAMED_ENTITIES:
            out.append(_NAMED_ENTITIES[name.lower()])
            i = end + 1
            continue
        out.append(ch)
        i += 1
    return "".join(out)


# One piece of markup per match, in source order: text, a plain end tag, a
# plain start tag (name, then its attribute text), a comment or declaration
# (no group; unterminated, it runs to EOF), any other tag (its inner text,
# recovered by hand), or a "<" with no ">" after it (text).
_MARKUP = re.compile(
    r"([^<]+)|</([A-Za-z0-9]+)>|<([A-Za-z0-9]+)(\s[^>]*)?>"
    r"|<!--.*?(?:-->|\Z)|<![^>]*>?|<([^>]*)>|(<[^>]*)\Z",
    re.S,
)

# One attribute of a start tag: a name (up to whitespace or ``=``), then
# optionally ``=`` and a double-quoted, single-quoted or bare value.  An
# unterminated quote runs to the end of the tag.  The ``=`` is its own group
# so that ``checked`` (no value) and ``checked=""`` (empty value) differ.
_ATTRIBUTE = re.compile(r"""\s*([^\s=]*)\s*(?:(=)\s*(?:"([^"]*)"?|'([^']*)'?|(\S*)))?""")


class _Index:
    """The document-order index one parse shares among its nodes."""

    __slots__ = ("nodes", "texts", "tags")

    def __init__(self) -> None:
        self.nodes: list[HtmlNode] = []  # every element but the root, pre-order
        self.texts: list[str] = []  # every text piece, document order
        # tag -> its elements, document order.  One list per tag, no more:
        # a parsed page is cyclic garbage, so every container here is
        # work for the garbage collector.
        self.tags: dict[str, list[HtmlNode]] = {}


class HtmlNode:
    """One element in the parsed DOM.

    Only :func:`parse_html` builds these, and the tree is read-only after
    it returns.  Besides the tree (``parent`` / ``children``), a node holds
    its pre-order position ``pos`` and two ranges into the document's
    index: its descendants are ``nodes[pos + 1:end]`` and its text is
    ``texts[text_first:text_end]``.  Nodes compare by identity.
    """

    __slots__ = (
        "tag",
        "attrs",
        "children",
        "parent",
        "_index",
        "_pos",
        "_end",
        "_text_first",
        "_text_end",
    )

    def __init__(
        self, tag: str, attrs: dict[str, str], parent: "HtmlNode | None", index: _Index
    ) -> None:
        self.tag = tag
        self.attrs = attrs
        self.children: list[HtmlNode | str] = []
        self.parent = parent
        self._index = index
        # Open until parse_html closes it: the ends are set then.
        self._pos = len(index.nodes) if parent is not None else -1
        self._end = self._pos + 1
        self._text_first = self._text_end = len(index.texts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<HtmlNode %s %r (%d children)>" % (self.tag, self.attrs, len(self.children))

    def get(self, attr: str, default: str = "") -> str:
        """Attribute lookup (names are stored lowercase)."""
        return self.attrs.get(attr.lower(), default)

    def iter_nodes(self) -> "list[HtmlNode]":
        """All descendant element nodes, document order, self excluded."""
        return self._index.nodes[self._pos + 1 : self._end]

    def _range(self, tag: str) -> "list[HtmlNode]":
        """This tag's descendants, document order: a bisected slice."""
        nodes = self._index.tags.get(tag)
        if nodes is None:
            return []
        low = bisect_left(nodes, self._pos + 1, key=_POSITION)
        return nodes[low : bisect_left(nodes, self._end, low, key=_POSITION)]

    def find_all(self, tag: str, **attrs: str) -> "list[HtmlNode]":
        """All descendants with this tag whose attributes include ``attrs``."""
        found = self._range(tag.lower())
        if attrs:
            wanted = [(k.lower(), v) for k, v in attrs.items()]
            found = [n for n in found if all(n.attrs.get(k, "") == v for k, v in wanted)]
        return found

    def find_all_of(self, tags: "tuple[str, ...]") -> "list[HtmlNode]":
        """All descendants whose tag is one of ``tags`` (lowercase), in
        document order."""
        ranges = [found for found in map(self._range, tags) if found]
        if len(ranges) == 1:
            return ranges[0]
        return sorted((n for found in ranges for n in found), key=_POSITION)

    def find(self, tag: str, **attrs: str) -> "HtmlNode | None":
        """First descendant matching, or None."""
        found = self.find_all(tag, **attrs)
        return found[0] if found else None

    def text(self) -> str:
        """All text content of this subtree, whitespace-normalized."""
        pieces = self._index.texts[self._text_first : self._text_end]
        return " ".join(" ".join(pieces).split())

    def own_text(self) -> str:
        """Text directly inside this node (children's text excluded)."""
        pieces = [c for c in self.children if isinstance(c, str)]
        return " ".join(" ".join(pieces).split())

    def ancestors(self) -> "list[HtmlNode]":
        """Path from parent to the document root."""
        chain = []
        node = self.parent
        while node is not None:
            chain.append(node)
            node = node.parent
        return chain


_POSITION = attrgetter("_pos")


def _parse_attributes(source: str) -> dict[str, str]:
    """``href="x" checked`` -> ``{"href": "x", "checked": "checked"}``: a
    valueless attribute's value is its (lowercased) name."""
    attrs: dict[str, str] = {}
    for name, equals, double, single, bare in _ATTRIBUTE.findall(source):
        if name:
            name = name.lower()
            attrs[name] = decode_entities(double + single + bare if equals else name)
    return attrs


def parse_html(source: str) -> HtmlNode:
    """Parse (possibly faulty) HTML into a DOM rooted at a ``#document`` node.

    One pass: each piece of markup is found, recovered from and attached
    as it is read, and each element is indexed when it opens and when it
    closes (by its own end tag, an implied close or EOF)."""
    index = _Index()
    nodes, texts, tags = index.nodes, index.texts, index.tags
    root = HtmlNode("#document", {}, None, index)
    open_stack = [root]
    current = root

    def close(depth: int) -> None:
        """Close the open elements from ``depth`` up: their ranges end here."""
        end, text_end = len(nodes), len(texts)
        for node in open_stack[depth:]:
            node._end = end
            node._text_end = text_end
        del open_stack[depth:]

    for text, end_name, start_name, rest, other, tail in _MARKUP.findall(source):
        text = text or tail  # an unterminated tag is text
        if text:
            if "&" in text:
                text = decode_entities(text)
            if not text.isspace():
                current.children.append(text)
                texts.append(text)
            continue
        closing = bool(end_name)
        if start_name:
            tag = start_name.lower()
            if rest:
                rest = rest.rstrip()
                if rest.endswith("/"):
                    rest = rest[:-1].rstrip()
        elif end_name:
            tag = end_name.lower()
        elif other:
            inner = other.strip()
            if not inner:
                continue  # an empty tag
            if inner[0] == "/":
                tag = inner[1:].strip().lower()
                closing = True
            else:
                if inner[-1] == "/":
                    inner = inner[:-1].rstrip()
                name, *rests = inner.split(None, 1)
                tag = name.lower()
                if not tag.isalnum():
                    bare = tag.replace("-", "").replace("_", "")
                    if bare and not bare.isalnum():
                        continue  # not a tag name: the markup is dropped
                rest = rests[0] if rests else ""
        else:
            continue  # a comment or a declaration
        if closing:
            depth = len(open_stack)
            pops = _END_POPS.get(tag)
            if pops is not None:
                while depth > 1 and open_stack[depth - 1].tag in pops:
                    depth -= 1
            # The nearest open element it ends; if none, a stray end tag.
            for match in range(depth - 1, 0, -1):
                if open_stack[match].tag == tag:
                    depth = match
                    break
            if depth < len(open_stack):
                close(depth)
                current = open_stack[-1]
            continue
        implied = _IMPLIED_CLOSE.get(tag)
        if implied is not None:
            depth = len(open_stack)
            while depth > 1 and open_stack[depth - 1].tag in implied:
                depth -= 1
            if depth < len(open_stack):
                close(depth)
                current = open_stack[-1]
        node = HtmlNode(tag, _parse_attributes(rest) if rest else {}, current, index)
        current.children.append(node)
        nodes.append(node)
        same_tag = tags.get(tag)
        if same_tag is None:
            tags[tag] = [node]
        else:
            same_tag.append(node)
        if tag not in VOID_TAGS:
            open_stack.append(node)
            current = node
    close(0)
    return root
