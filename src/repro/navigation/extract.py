"""Data extraction from data pages, including wrapper induction by example.

The paper assumes "the designer provides an extraction script" per data
page.  Here an extraction script is a :class:`PageWrapper`:

* :class:`TableWrapper` — data laid out as an HTML table with a header
  row; columns map to attributes, and a column may carry a per-row link
  whose *target URL* is the attribute value (the ``Url`` attribute of the
  ``newsday`` relation);
* :class:`LabeledWrapper` — data laid out as repeated labeled blocks
  (``<dl>`` definition lists), one block per tuple.

Designers rarely write these by hand: :func:`induce_wrapper` builds one
from a single example tuple the designer points at on a live page —
mapping by example extended down to the extraction level.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.web.http import parse_url
from repro.web.page import WebPage


#: A labeled block's label and value elements.
_LABELED_TAGS = ("dt", "dd")


class ExtractionError(Exception):
    """A wrapper could not be induced or applied."""


def canonical_attr(raw: str, renames: dict[str, str] | None = None) -> str:
    """Canonicalize a header/label/widget name into an attribute name."""
    name = raw.strip().lower().replace(" ", "_")
    name = "".join(c for c in name if c.isalnum() or c == "_")
    if renames and name in renames:
        return renames[name]
    return name


class PageWrapper:
    """Interface: extract tuples (attr -> text) from a page."""

    attrs: tuple[str, ...]

    def matches(self, page: WebPage) -> bool:
        raise NotImplementedError

    def extract(self, page: WebPage) -> list[dict[str, str]]:
        """The page's tuples.  Implementations read them through
        :meth:`WebPage.rows`, so a wrapper scans each distinct page
        content once; the returned rows are shared and read-only."""
        raise NotImplementedError


@dataclass(frozen=True)
class TableWrapper(PageWrapper):
    """Extracts rows from the table whose header matches ``header_attrs``.

    ``header_attrs`` maps canonicalized header text to attribute names;
    ``link_attrs`` maps an attribute to the display name of a per-row link
    whose href becomes the attribute's value.
    """

    attrs: tuple[str, ...]
    header_attrs: tuple[tuple[str, str], ...]  # (canonical header, attr)
    link_attrs: tuple[tuple[str, str], ...] = ()  # (attr, link display name)

    def _header_map(self) -> dict[str, str]:
        return dict(self.header_attrs)

    def _find_table(self, page: WebPage) -> tuple[list[str | None], list] | None:
        """Locate the matching table: (attr per column, its rows)."""
        header_map = self._header_map()
        for table in page.dom.find_all("table"):
            rows = table.find_all("tr")
            if not rows:
                continue
            headers = [canonical_attr(c.text()) for c in rows[0].find_all("th")]
            if not headers:
                continue
            mapped = [header_map.get(h) for h in headers]
            found = [a for a in mapped if a]
            if found and set(found) >= set(header_map.values()):
                return (mapped, rows)
        return None

    def matches(self, page: WebPage) -> bool:
        return self._find_table(page) is not None

    def extract(self, page: WebPage) -> list[dict[str, str]]:
        return page.rows(self, self._scan)

    def _scan(self, page: WebPage) -> list[dict[str, str]]:
        located = self._find_table(page)
        if located is None:
            return []
        mapped, rows = located
        link_names = {attr: name for attr, name in self.link_attrs}
        tuples = []
        for tr in rows[1:]:
            cells = tr.find_all("td")
            if not cells:
                continue
            row: dict[str, str] = {}
            for index, attr in enumerate(mapped):
                if attr is None or index >= len(cells):
                    continue
                cell = cells[index]
                if attr in link_names:
                    anchor = cell.find("a")
                    if anchor is not None:
                        # Resolve to an absolute URL so the value can seed a
                        # detail-relation navigation (nav_get).
                        row[attr] = str(parse_url(anchor.get("href"), base=page.url))
                    else:
                        row[attr] = cell.text()
                else:
                    row[attr] = cell.text()
            if row:
                tuples.append(row)
        return tuples


@dataclass(frozen=True)
class LabeledWrapper(PageWrapper):
    """Extracts one tuple per labeled block (``<dl>`` with dt/dd pairs)."""

    attrs: tuple[str, ...]
    label_attrs: tuple[tuple[str, str], ...]  # (canonical label, attr)

    def _blocks(self, page: WebPage) -> list[dict[str, str]]:
        label_map = dict(self.label_attrs)
        blocks = []
        for dl in page.dom.find_all("dl"):
            block: dict[str, str] = {}
            label: str | None = None
            for child in dl.find_all_of(_LABELED_TAGS):
                if child.tag == "dt":
                    label = canonical_attr(child.text())
                elif label is not None:
                    attr = label_map.get(label)
                    if attr:
                        block[attr] = child.text()
                    label = None
            if set(block) >= set(label_map.values()):
                blocks.append(block)
        return blocks

    def matches(self, page: WebPage) -> bool:
        return bool(self._blocks(page))

    def extract(self, page: WebPage) -> list[dict[str, str]]:
        return page.rows(self, self._blocks)


def _induce_from_table(page: WebPage, example: dict[str, str]) -> TableWrapper | None:
    for table in page.dom.find_all("table"):
        rows = table.find_all("tr")
        if len(rows) < 2:
            continue
        headers = rows[0].find_all("th")
        if not headers:
            continue
        # Keys are the *raw* canonical headers (what extraction will see on
        # future pages); the designer's renames live in the attribute names.
        header_names = [canonical_attr(h.text()) for h in headers]
        for tr in rows[1:]:
            cells = tr.find_all("td")
            if not cells:
                continue
            texts = [c.text() for c in cells]
            hrefs = []
            link_names = []
            for cell in cells:
                anchor = cell.find("a")
                if anchor is not None:
                    hrefs.append(str(parse_url(anchor.get("href"), base=page.url)))
                    link_names.append(anchor.text())
                else:
                    hrefs.append(None)
                    link_names.append(None)
            # Try to locate every example value in this row.
            header_attrs: list[tuple[str, str]] = []
            link_attrs: list[tuple[str, str]] = []
            used: set[int] = set()
            for attr, value in example.items():
                value = str(value)
                hit = None
                for index, text in enumerate(texts):
                    if index in used:
                        continue
                    if text == value:
                        hit = (index, False)
                        break
                    if hrefs[index] is not None and hrefs[index] == value:
                        hit = (index, True)
                        break
                if hit is None:
                    header_attrs = []
                    break
                index, is_link = hit
                used.add(index)
                if index >= len(header_names):
                    header_attrs = []
                    break
                header_attrs.append((header_names[index], attr))
                if is_link:
                    link_attrs.append((attr, link_names[index] or ""))
            if header_attrs:
                ordered = tuple(sorted(example))
                return TableWrapper(
                    attrs=ordered,
                    header_attrs=tuple(sorted(header_attrs)),
                    link_attrs=tuple(sorted(link_attrs)),
                )
    return None


def _induce_from_labels(page: WebPage, example: dict[str, str]) -> LabeledWrapper | None:
    for dl in page.dom.find_all("dl"):
        pairs: dict[str, str] = {}
        label: str | None = None
        for child in dl.find_all_of(_LABELED_TAGS):
            if child.tag == "dt":
                label = canonical_attr(child.text())
            elif label is not None:
                pairs[label] = child.text()
                label = None
        label_attrs: list[tuple[str, str]] = []
        for attr, value in example.items():
            matched = [l for l, v in pairs.items() if v == str(value)]
            if not matched:
                label_attrs = []
                break
            label_attrs.append((matched[0], attr))
        if label_attrs:
            return LabeledWrapper(
                attrs=tuple(sorted(example)), label_attrs=tuple(sorted(label_attrs))
            )
    return None


def induce_wrapper(page: WebPage, example: dict[str, str]) -> PageWrapper:
    """Induce a wrapper from one example tuple the designer pointed at.

    ``example`` maps desired attribute names to the exact display values
    (or, for link-valued attributes, the target URL) of one tuple visible
    on ``page``.  Tabular layouts are tried first, then labeled blocks.
    """
    wrapper = _induce_from_table(page, example)
    if wrapper is None:
        wrapper = _induce_from_labels(page, example)
    if wrapper is None:
        raise ExtractionError(
            "no tuple matching %r found on %s" % (example, page.url)
        )
    extracted = wrapper.extract(page)
    if not any(all(row.get(a) == str(v) for a, v in example.items()) for row in extracted):
        raise ExtractionError("induced wrapper does not recover the example tuple")
    return wrapper


def wrapper_from_headers(
    attrs_by_header: dict[str, str], link_attrs: dict[str, str] | None = None
) -> TableWrapper:
    """Hand-written tabular extraction script (the paper's default path)."""
    attrs = tuple(sorted(attrs_by_header.values()))
    return TableWrapper(
        attrs=attrs,
        header_attrs=tuple(sorted((canonical_attr(h), a) for h, a in attrs_by_header.items())),
        link_attrs=tuple(sorted((link_attrs or {}).items())),
    )
