"""Parsed Web pages: the structures of Figure 3 extracted from raw HTML.

The navigation calculus models the Web with classes ``WebPage``, ``Link``,
``Form`` and ``AttrValPair``.  This module derives those structures from a
parsed DOM: for every form it collects the widgets with their types, default
values and — where the widget reveals them — attribute domains (select
options, radio values) and mandatoriness (radio buttons), exactly the
inferences the paper's map builder performs.

:func:`parse_page` is content-addressed: each distinct ``(url, body)`` is
parsed once per process, and every later page with that content shares
the result (its title, links, forms and the rows each wrapper extracts,
none of which anyone edits).  The memo keeps no DOM, which costs several
times the rest; a page parses its own when something reads ``dom``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.web.htmlparser import HtmlNode, parse_html
from repro.web.http import Url, parse_url


@dataclass(frozen=True)
class Link:
    """A hyperlink on a page: display name plus absolute target URL."""

    name: str
    address: Url

    def __str__(self) -> str:
        return "link(%s -> %s)" % (self.name, self.address)


@dataclass
class Widget:
    """One form input, carrying everything the map builder can infer from it.

    ``kind`` is one of ``text``, ``select``, ``radio``, ``checkbox`` or
    ``hidden``.  ``domain`` is the set of allowed values when the widget
    exposes one (select options, radio values).  ``mandatory`` starts as the
    widget-based inference (radio buttons are safely mandatory); the designer
    can override it through hints.
    """

    name: str
    kind: str
    default: str = ""
    domain: tuple[str, ...] = ()
    label: str = ""
    mandatory: bool = False
    max_length: int | None = None


@dataclass
class FormSpec:
    """A form found on a page: CGI target, method, and its widgets."""

    action: Url
    method: str
    widgets: list[Widget] = field(default_factory=list)
    name: str = ""

    @property
    def attribute_names(self) -> list[str]:
        return [w.name for w in self.widgets if w.kind != "hidden"]

    @property
    def hidden_state(self) -> dict[str, str]:
        """Hidden inputs — the form's baked-in state (paper: ``state``)."""
        return {w.name: w.default for w in self.widgets if w.kind == "hidden"}

    def widget(self, name: str) -> Widget:
        for w in self.widgets:
            if w.name == name:
                return w
        raise KeyError("form %s has no widget %r" % (self.action, name))

    def fill(self, values: dict[str, str]) -> dict[str, str]:
        """Compute submission parameters: hidden state, defaults, and ``values``.

        Raises :class:`ValueError` when a value falls outside a widget's
        domain — the browser refuses submissions a human could not make.
        """
        params = dict(self.hidden_state)
        for w in self.widgets:
            if w.kind == "hidden":
                continue
            if w.name in values:
                value = str(values[w.name])
                if w.domain and value not in w.domain:
                    raise ValueError(
                        "value %r not in domain of %r (%s)"
                        % (value, w.name, ", ".join(w.domain))
                    )
                params[w.name] = value
            elif w.default:
                params[w.name] = w.default
        unknown = set(values) - {w.name for w in self.widgets}
        if unknown:
            raise ValueError(
                "form %s has no widgets %s" % (self.action, ", ".join(sorted(unknown)))
            )
        return params


class WebPage:
    """A fetched and parsed page: the browser's unit of navigation state.

    Pages compare by identity, as their DOM nodes do: two fetches of one
    URL are two pages, which is what unifying them in the navigation
    calculus means.  Title, links, forms and rows come from the memo
    entry the page shares with every page of the same ``(url, body)``;
    the DOM is the page's own."""

    __slots__ = ("url", "title", "links", "forms", "_parsed", "_dom")

    def __init__(self, url: Url, parsed: _Parsed, dom: HtmlNode | None = None) -> None:
        self.url = url
        self.title = parsed.title
        self.links = parsed.links
        self.forms = parsed.forms
        self._parsed = parsed
        self._dom = dom

    @property
    def dom(self) -> HtmlNode:
        if self._dom is None:
            self._dom = parse_html(self._parsed.body)
        return self._dom

    def rows(
        self, wrapper: Hashable, extract: Callable[[WebPage], list[dict[str, str]]]
    ) -> list[dict[str, str]]:
        """``extract(self)``, computed once per ``wrapper`` and distinct
        ``(url, body)``: pages parsed from one response share the rows.
        ``wrapper`` is hashable and, with the page's url and body, decides
        what ``extract`` returns.  The rows are shared: read, never edit."""
        found = self._parsed.rows.get(wrapper)
        if found is None:
            found = self._parsed.rows[wrapper] = extract(self)
        return found

    def link_named(self, name: str) -> Link:
        """The first link whose display text equals ``name`` (case-insensitive)."""
        wanted = name.strip().lower()
        for link in self.links:
            if link.name.strip().lower() == wanted:
                return link
        raise KeyError("page %s has no link named %r" % (self.url, name))

    def has_link_named(self, name: str) -> bool:
        wanted = name.strip().lower()
        return any(l.name.strip().lower() == wanted for l in self.links)

    def form_with_attribute(self, attr: str) -> FormSpec:
        """The first form containing a non-hidden widget called ``attr``."""
        for spec in self.forms:
            if attr in spec.attribute_names:
                return spec
        raise KeyError("page %s has no form with attribute %r" % (self.url, attr))

    def tables(self) -> list[list[list[str]]]:
        """All tables as row-major cell text, header rows included."""
        extracted = []
        for table in self.dom.find_all("table"):
            rows = table.find_all("tr")
            extracted.append([[c.text() for c in tr.find_all_of(_CELL_TAGS)] for tr in rows])
        return extracted


@dataclass(frozen=True, eq=False)
class _Parsed:
    """What one ``(url, body)`` parses to, less the DOM: the page memo's
    entry.  ``rows`` fills in per wrapper as pages are extracted."""

    body: str
    title: str
    links: list[Link]
    forms: list[FormSpec]
    rows: dict[Hashable, list[dict[str, str]]] = field(default_factory=dict)


_CELL_TAGS = ("td", "th")
_LABEL_TAGS = ("b", "label", "strong")
_WIDGET_TAGS = ("input", "select")


def _nearest_label(node: HtmlNode) -> str:
    """Best-effort label for a widget: bold/label text in the same paragraph."""
    for ancestor in node.ancestors():
        if ancestor.tag in ("p", "td", "div", "label"):
            for child in ancestor.find_all_of(_LABEL_TAGS):
                text = child.text().rstrip(": ")
                if text:
                    return text
            break
    return ""


def _parse_forms(dom: HtmlNode, base: Url) -> list[FormSpec]:
    specs = []
    for form_node in dom.find_all("form"):
        action = parse_url(form_node.get("action") or str(base), base)
        spec = FormSpec(
            action=action,
            method=form_node.get("method", "get").upper() or "GET",
            name=form_node.get("name"),
        )
        radios: dict[str, Widget] = {}
        for node in form_node.find_all_of(_WIDGET_TAGS):
            if node.tag == "input":
                kind = node.get("type", "text").lower()
                name = node.get("name")
                if kind in ("submit", "reset", "image") or not name:
                    continue
                if kind == "radio":
                    widget = radios.get(name)
                    if widget is None:
                        # The paper: radio-button attributes are safely mandatory.
                        widget = Widget(
                            name,
                            "radio",
                            label=_nearest_label(node),
                            mandatory=True,
                        )
                        radios[name] = widget
                        spec.widgets.append(widget)
                    widget.domain = widget.domain + (node.get("value"),)
                    # Boolean attributes count by presence: checked="" checks.
                    if "checked" in node.attrs:
                        widget.default = node.get("value")
                elif kind == "checkbox":
                    spec.widgets.append(
                        Widget(
                            name,
                            "checkbox",
                            default=node.get("value") if "checked" in node.attrs else "",
                            domain=(node.get("value") or "on",),
                            label=_nearest_label(node),
                        )
                    )
                elif kind == "hidden":
                    spec.widgets.append(Widget(name, "hidden", default=node.get("value")))
                else:  # text and friends
                    maxlength = node.get("maxlength")
                    spec.widgets.append(
                        Widget(
                            name,
                            "text",
                            default=node.get("value"),
                            label=_nearest_label(node),
                            max_length=int(maxlength) if maxlength.isdigit() else None,
                        )
                    )
            else:  # select
                name = node.get("name")
                if not name:
                    continue
                options = []
                default = ""
                for option in node.find_all("option"):
                    value = option.get("value") or option.text()
                    options.append(value)
                    if "selected" in option.attrs:
                        default = value
                spec.widgets.append(
                    Widget(
                        name,
                        "select",
                        default=default,
                        domain=tuple(options),
                        label=_nearest_label(node),
                    )
                )
        specs.append(spec)
    return specs


#: How many distinct ``(url, body)`` pairs :func:`parse_page` remembers,
#: least recently used out first.  The car domain's designer sessions and
#: 200 cold queries parse about 320; an entry costs about 3.5 KB, its body
#: included (a DOM would add 18 KB).
PAGE_MEMO_ENTRIES = 1024

_memo: OrderedDict[tuple[Url, str], _Parsed] = OrderedDict()
_memo_lock = threading.Lock()


def parse_page(url: Url, body: str) -> WebPage:
    """Parse an HTTP response body into a :class:`WebPage`.

    A body already parsed at ``url`` is not parsed again: the new page
    shares the earlier parse's :class:`_Parsed` entry and parses its DOM
    only if something reads it.  An entry cannot go stale, since its key
    is the content it was derived from, and two threads that miss one key
    both parse it and store equal entries."""
    key = (url, body)
    with _memo_lock:
        parsed = _memo.get(key)
        if parsed is not None:
            _memo.move_to_end(key)
            return WebPage(url, parsed)
    dom = parse_html(body)
    title_node = dom.find("title")
    title = title_node.text() if title_node is not None else ""
    links = []
    for anchor in dom.find_all("a"):
        href = anchor.get("href")
        if not href:
            continue
        try:
            address = parse_url(href, base=url)
        except ValueError:
            continue
        links.append(Link(anchor.text(), address))
    parsed = _Parsed(body, title, links, _parse_forms(dom, url))
    with _memo_lock:
        _memo[key] = parsed
        if len(_memo) > PAGE_MEMO_ENTRIES:
            _memo.popitem(last=False)
    return WebPage(url, parsed, dom)
