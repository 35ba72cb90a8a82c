"""Differential suite: the one-pass parser and its index against the
two-pass parser it replaced.

The reference below — ``HtmlNode``, ``_tokenize``, ``_parse_tag_contents``
and ``parse_html``, copied unchanged from the parser that tokenized into a
list and walked the tree on every lookup — is the specification of
faulty-HTML recovery, not the engine.  The engine's DOM must equal it
(tag, attributes, children, text, in order) on seeded tag soup under
``REPRO_TEST_SEED`` and on every page a cold workload fetches in each of
the three domains, rendered clean and sloppy; and the engine's index must
answer ``iter_nodes``, ``find_all``, ``find`` and ``text`` on every node as
a recursive walk of its own tree does.

Run it under another seed with ``REPRO_TEST_SEED=31337 pytest
tests/test_htmlparser_reference.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

from repro.web import htmlparser as engine
from repro.web.html import Element, RenderStyle
from repro.web.htmlparser import (
    VOID_TAGS,
    _END_POPS,
    _IMPLIED_CLOSE,
    decode_entities,
)
from tests.conftest import derive_seeds


# -- the reference parser (the pre-index implementation, unchanged) -------------------


@dataclass
class HtmlNode:
    """One element in the parsed DOM."""

    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list["HtmlNode | str"] = field(default_factory=list)
    parent: "HtmlNode | None" = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<HtmlNode %s %r (%d children)>" % (self.tag, self.attrs, len(self.children))

    def get(self, attr: str, default: str = "") -> str:
        """Attribute lookup (names are stored lowercase)."""
        return self.attrs.get(attr.lower(), default)

    def iter_nodes(self) -> "list[HtmlNode]":
        """All descendant element nodes, document order, self excluded."""
        found: list[HtmlNode] = []
        stack = [c for c in reversed(self.children) if isinstance(c, HtmlNode)]
        while stack:
            node = stack.pop()
            found.append(node)
            stack.extend(
                c for c in reversed(node.children) if isinstance(c, HtmlNode)
            )
        return found

    def find_all(self, tag: str, **attrs: str) -> "list[HtmlNode]":
        """All descendants with this tag whose attributes include ``attrs``."""
        tag = tag.lower()
        matches = []
        for node in self.iter_nodes():
            if node.tag != tag:
                continue
            if all(node.get(k) == v for k, v in attrs.items()):
                matches.append(node)
        return matches

    def find(self, tag: str, **attrs: str) -> "HtmlNode | None":
        """First descendant matching, or None."""
        found = self.find_all(tag, **attrs)
        return found[0] if found else None

    def text(self) -> str:
        """All text content of this subtree, whitespace-normalized."""
        pieces: list[str] = []
        stack: list[HtmlNode | str] = list(reversed(self.children))
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                pieces.append(item)
            else:
                stack.extend(reversed(item.children))
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


@dataclass
class _Token:
    kind: str  # 'text' | 'start' | 'end'
    data: str = ""
    attrs: dict[str, str] = field(default_factory=dict)


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(source)
    while i < n:
        lt = source.find("<", i)
        if lt == -1:
            tokens.append(_Token("text", source[i:]))
            break
        if lt > i:
            tokens.append(_Token("text", source[i:lt]))
        if source.startswith("<!--", lt):
            close = source.find("-->", lt + 4)
            i = n if close == -1 else close + 3
            continue
        if source.startswith("<!", lt):  # doctype or bogus declaration
            close = source.find(">", lt)
            i = n if close == -1 else close + 1
            continue
        gt = source.find(">", lt)
        if gt == -1:
            tokens.append(_Token("text", source[lt:]))
            break
        inner = source[lt + 1 : gt].strip()
        i = gt + 1
        if not inner:
            continue
        if inner.startswith("/"):
            tokens.append(_Token("end", inner[1:].strip().lower()))
            continue
        if inner.endswith("/"):
            inner = inner[:-1].rstrip()
        tag, attrs = _parse_tag_contents(inner)
        if tag:
            tokens.append(_Token("start", tag, attrs))
    return tokens


def _parse_tag_contents(inner: str) -> tuple[str, dict[str, str]]:
    """Split ``a href="x" checked`` into tag name and attribute dict."""
    j = 0
    while j < len(inner) and not inner[j].isspace():
        j += 1
    tag = inner[:j].lower()
    if not all(c.isalnum() or c in "-_" for c in tag):
        return "", {}
    attrs: dict[str, str] = {}
    rest = inner[j:]
    k = 0
    while k < len(rest):
        while k < len(rest) and rest[k].isspace():
            k += 1
        if k >= len(rest):
            break
        name_start = k
        while k < len(rest) and not rest[k].isspace() and rest[k] != "=":
            k += 1
        name = rest[name_start:k].lower()
        while k < len(rest) and rest[k].isspace():
            k += 1
        if k < len(rest) and rest[k] == "=":
            k += 1
            while k < len(rest) and rest[k].isspace():
                k += 1
            if k < len(rest) and rest[k] in "\"'":
                quote_char = rest[k]
                k += 1
                value_start = k
                while k < len(rest) and rest[k] != quote_char:
                    k += 1
                value = rest[value_start:k]
                k += 1
            else:
                value_start = k
                while k < len(rest) and not rest[k].isspace():
                    k += 1
                value = rest[value_start:k]
        else:
            value = name  # valueless attribute, e.g. checked
        if name:
            attrs[name] = decode_entities(value)
    return tag, attrs


def parse_html(source: str) -> HtmlNode:
    """Parse (possibly faulty) HTML into a DOM rooted at a ``#document`` node."""
    root = HtmlNode("#document")
    open_stack: list[HtmlNode] = [root]

    def current() -> HtmlNode:
        return open_stack[-1]

    def close_implied(tags: frozenset[str]) -> None:
        while len(open_stack) > 1 and current().tag in tags:
            open_stack.pop()

    for token in _tokenize(source):
        if token.kind == "text":
            text = decode_entities(token.data)
            if text.strip():
                current().children.append(text)
        elif token.kind == "start":
            implied = _IMPLIED_CLOSE.get(token.data)
            if implied is not None:
                close_implied(implied)
            node = HtmlNode(token.data, token.attrs, parent=current())
            current().children.append(node)
            if token.data not in VOID_TAGS:
                open_stack.append(node)
        else:  # end tag
            tag = token.data
            pops = _END_POPS.get(tag)
            if pops is not None:
                close_implied(pops)
            # Find a matching open element; if none, this is a stray end tag.
            for depth in range(len(open_stack) - 1, 0, -1):
                if open_stack[depth].tag == tag:
                    del open_stack[depth:]
                    break
    return root


# -- comparing the two DOMs ------------------------------------------------------------


def _shape(node, node_class) -> tuple:
    """A DOM as nested tuples.  Every child must be text or an element of
    ``node_class``: each parser is read with its own class, so a child of
    the wrong class fails loudly instead of being skipped."""
    children = []
    for child in node.children:
        if isinstance(child, str):
            children.append(child)
        else:
            assert type(child) is node_class, "foreign child %r" % (child,)
            assert child.parent is node
            children.append(_shape(child, node_class))
    return (node.tag, node.attrs, tuple(children))


def assert_same_dom(source: str) -> engine.HtmlNode:
    """Parse ``source`` with both parsers, require equal trees, and return
    the engine's."""
    ours = engine.parse_html(source)
    assert _shape(ours, engine.HtmlNode) == _shape(parse_html(source), HtmlNode), source
    return ours


# -- the index against a walk ----------------------------------------------------------


def _walk(node) -> list:
    """Descendant elements in document order, by recursion over ``children``."""
    found = []
    for child in node.children:
        if not isinstance(child, str):
            found.append(child)
            found.extend(_walk(child))
    return found


def _walk_text(node) -> str:
    pieces = []

    def collect(n):
        for child in n.children:
            if isinstance(child, str):
                pieces.append(child)
            else:
                collect(child)

    collect(node)
    return " ".join(" ".join(pieces).split())


def assert_index_matches_walk(root: engine.HtmlNode) -> None:
    """Every lookup, on every node, answers what a recursive walk answers."""
    everything = [root] + _walk(root)
    tags = sorted({n.tag for n in everything}) + ["absent"]
    for node in everything:
        descendants = _walk(node)
        assert node.iter_nodes() == descendants
        assert node.text() == _walk_text(node)
        by_tag: dict[str, list] = {}
        for d in descendants:
            by_tag.setdefault(d.tag, []).append(d)
        for tag in tags:
            expected = by_tag.get(tag, [])
            assert node.find_all(tag) == expected
            assert node.find_all(tag.upper()) == expected
            assert node.find(tag) is (expected[0] if expected else None)
        pair = ("td", "th")
        assert node.find_all_of(pair) == [d for d in descendants if d.tag in pair]
        # Attribute filters, one per distinct (tag, attribute, value) among
        # the node's children: a range filtered inside, never re-walked.
        probes = {
            (child.tag, name, value)
            for child in node.children
            if not isinstance(child, str)
            for name, value in child.attrs.items()
        }
        for tag, name, value in sorted(probes):
            expected = [d for d in by_tag[tag] if d.get(name) == value]
            assert node.find_all(tag, **{name: value}) == expected
            assert node.find_all(tag, **{name.upper(): value}) == expected


# -- seeded tag soup -------------------------------------------------------------------

_TAG_NAMES = (
    "p", "li", "ul", "ol", "tr", "td", "th", "table", "option", "select",
    "dt", "dd", "dl", "form", "body", "html", "b", "a", "div", "br", "input",
    "img", "span", "x-y", "a_b", "h1",
)
_VALUES = ("x", "", "a b", "&amp;", "&lt;&#65;&#x42;", "&bogus;", "&", "1=2", "'", '"')
_TEXTS = (
    "x", " ", "a b", "\x1c", "\xa0", "\t\n", "&amp;", "&nbsp;", "&#65;", "&#x41;",
    "&#xzz;", "&", ";", "<", ">", "<>", "< >", "</>", "<!--", "-->", "<!-- c -->",
    "<!DOCTYPE html>", "<!", "<!x", "/", "=", '"', "'", "</ P >", "<p/>", "<br/>",
    "<%>", "<a\x1cb>", "<\xa0p>",
)


def _case(rng: random.Random, word: str) -> str:
    return rng.choice((word, word.upper(), word.capitalize()))


def _attribute(rng: random.Random) -> str:
    name = _case(rng, rng.choice(("href", "checked", "selected", "name", "value", "type")))
    value = rng.choice(_VALUES)
    form = rng.randrange(7)
    if form == 0:
        return name  # valueless
    if form == 1:
        return '%s="%s"' % (name, value.replace('"', ""))
    if form == 2:
        return "%s='%s'" % (name, value.replace("'", ""))
    if form == 3:
        return "%s=%s" % (name, value.replace(" ", ""))
    if form == 4:
        return "%s = \"%s" % (name, value)  # unterminated quote
    if form == 5:
        return "=%s" % value  # a value with no name
    return "%s=" % name


def _tag(rng: random.Random) -> str:
    name = _case(rng, rng.choice(_TAG_NAMES))
    if rng.random() < 0.35:
        return "</%s%s>" % (rng.choice(("", " ")), name)
    separators = (" ", "  ", "\t", "\n", "\x1c")
    attrs = "".join(
        rng.choice(separators) + _attribute(rng) for _ in range(rng.randrange(4))
    )
    if rng.random() < 0.1:
        attrs += rng.choice(('"x', "'y", "a=\"1\"b=2"))
    return "<%s%s%s>" % (name, attrs, rng.choice(("", "", "/", " /")))


def _soup(rng: random.Random) -> str:
    if rng.random() < 0.2:  # raw characters, markup only by accident
        return "".join(rng.choice("<>/!-=\"' ab&;#\x1c\xa0\tPLI") for _ in range(rng.randrange(40)))
    pieces = []
    for _ in range(rng.randrange(1, 60)):
        pieces.append(_tag(rng) if rng.random() < 0.6 else rng.choice(_TEXTS))
    return "".join(pieces)


@pytest.mark.parametrize("seed", derive_seeds("html-soup", 4))
def test_tag_soup_parses_as_the_reference_does(seed):
    rng = random.Random(seed)
    for _ in range(1500):
        assert_same_dom(_soup(rng))


@pytest.mark.parametrize("seed", derive_seeds("html-soup-index", 2))
def test_the_index_answers_as_a_walk_on_tag_soup(seed):
    rng = random.Random(seed)
    for _ in range(300):
        assert_index_matches_walk(engine.parse_html(_soup(rng)))


@pytest.mark.parametrize(
    "source",
    [
        "<input type=radio checked>",
        '<input type=radio CHECKED="">',
        "<a href=x TITLE='y'z=1>t</a>",
        '<a href="unterminated>t</a>',
        "<ul><li>one<li>two</ul><p>a<p>b",
        "<table><tr><td>a<td>b<tr><td>c</table>after",
        "<select><option>a<option selected>b</select>",
        "<dl><dt>k<dd>v<dt>k2<dd>v2</dl>",
        "<p>a</div>b</p></p></body>",
        "<div><p>never closed",
        "<p>a<!-- hidden -->b<!-- never closed",
        "<!DOCTYPE html><p>x</p><!bogus",
        "a < b > c",
        "<p>a</p><broken",
        "&amp;&nbsp;&#65;&#x41;&#xzz;&bogus;",
        "<p>\x1c</p><p>\xa0</p>",
        "<-->x</-->",
        "<A_B-1 c>x</a_b-1>",
        '<a href="x />t</a><a href=x/>u</a><br/><a\n href=y >v</a >',
        "<td\x1cclass=x>a</TD\x1c>",
        "<p><>< >x<\x1c>",
    ],
)
def test_recovery_cases_parse_as_the_reference_does(source):
    assert_index_matches_walk(assert_same_dom(source))


# -- the pages of a cold workload, three domains, clean and sloppy ---------------------


def _run_cold(domain: str, seed: int) -> None:
    """Map a fresh webbase of ``domain`` and query it cold: a seeded
    ``cold_navigate`` block for cars, ``tests/test_domains.py``'s queries
    for the other two."""
    from bench.workloads import WORKLOADS, OpStream
    from repro import WebBase
    from tests.test_domains import DOMAINS

    if domain == "cars":
        webbase = WebBase.create()
        texts = [op.text for op in OpStream(WORKLOADS["cold_navigate"], seed).block()]
    else:
        app, size, truths = DOMAINS[domain]
        webbase = WebBase(app.build_world(*size), domain=app)
        texts = list(truths)
    for text in texts:
        webbase.query(text)


@pytest.mark.parametrize("domain", ["cars", "hardware", "jobs"])
def test_every_page_of_a_cold_block_parses_as_the_reference_does(domain, monkeypatch):
    (seed,) = derive_seeds("html-cold-block", 1)
    trees: list[Element] = []
    render = Element.render

    def recording(self, style=None):
        trees.append(self)
        return render(self, style)

    monkeypatch.setattr(Element, "render", recording)
    _run_cold(domain, seed)
    monkeypatch.setattr(Element, "render", render)  # stop recording before re-rendering
    styles = (RenderStyle.clean(), RenderStyle.sloppy())
    bodies = {tree.render(style) for tree in trees for style in styles}
    assert len(bodies) > 20, "the workload must fetch pages"
    for body in sorted(bodies):
        assert_index_matches_walk(assert_same_dom(body))
