"""Navigation-map maintenance: detecting and absorbing site changes.

"Modifications to Web sites can be automatically detected by periodically
comparing the navigation map against its corresponding site ... certain
structural changes such as the addition of a new form attribute require
manual intervention, others can be applied automatically (e.g., the
addition of a cell in a selection list)."

:func:`check_site` re-walks the map's link structure against the live
site and classifies every divergence as *auto* (new/removed select
options, changed defaults — absorbed by :func:`apply_auto_changes`) or
*manual* (new or removed form attributes, vanished links — the designer
must re-demonstrate the affected flow).

:func:`reconcile_site` is the maintenance *driver*: it runs the check,
absorbs what it can, and pushes the outcome into an invalidation sink
(the cross-query result cache, in the assembled webbase) — an
auto-absorbed change bumps the host's map revision so the cache evicts
everything captured under the old map, while a manual-intervention
change quarantines the host's entries until the designer steps in.
That wiring is what makes a warm cache safe over *dynamic* content: the
same machinery that keeps the navigation maps truthful keeps the cached
answers truthful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.navigation.model import FormKey, LinkEdge, PageNode, WidgetModel
from repro.navigation.navmap import NavigationMap
from repro.web.browser import Browser, NavigationError
from repro.web.page import WebPage


@dataclass(frozen=True)
class Change:
    """One detected divergence between the map and the live site."""

    kind: str  # see CHANGE_KINDS
    node_id: str
    detail: str
    auto: bool


CHANGE_KINDS = (
    "missing_link",
    "new_link",
    "new_form_attribute",
    "removed_form_attribute",
    "domain_value_added",
    "domain_value_removed",
    "default_changed",
)


@dataclass
class MaintenanceReport:
    """The outcome of one map-vs-site comparison."""

    host: str
    changes: list[Change]
    nodes_checked: int

    @property
    def auto_changes(self) -> list[Change]:
        return [c for c in self.changes if c.auto]

    @property
    def manual_changes(self) -> list[Change]:
        return [c for c in self.changes if not c.auto]

    @property
    def clean(self) -> bool:
        return not self.changes

    def summary(self) -> str:
        lines = [
            "maintenance check of %s: %d nodes, %d changes (%d auto / %d manual)"
            % (
                self.host,
                self.nodes_checked,
                len(self.changes),
                len(self.auto_changes),
                len(self.manual_changes),
            )
        ]
        for change in self.changes:
            marker = "auto" if change.auto else "MANUAL"
            lines.append("  [%s] %s @%s: %s" % (marker, change.kind, change.node_id, change.detail))
        return "\n".join(lines)


def _diff_forms(node: PageNode, page: WebPage, changes: list[Change]) -> None:
    live_by_key = {FormKey.of(f): f for f in page.forms}
    live_by_action = {(f.action.path, f.method): f for f in page.forms}
    for key, model in node.forms.items():
        live = live_by_key.get(key)
        if live is None:
            # Same CGI endpoint, different widget set?
            live = live_by_action.get((key.action_path, key.method))
            if live is None:
                changes.append(
                    Change(
                        "removed_form_attribute",
                        node.node_id,
                        "form %s vanished" % key.ident,
                        auto=False,
                    )
                )
                continue
            live_names = {w.name for w in live.widgets if w.kind != "hidden"}
            for name in sorted(live_names - key.widgets):
                changes.append(
                    Change(
                        "new_form_attribute",
                        node.node_id,
                        "form %s grew attribute %r" % (key.action_path, name),
                        auto=False,
                    )
                )
            for name in sorted(key.widgets - live_names):
                changes.append(
                    Change(
                        "removed_form_attribute",
                        node.node_id,
                        "form %s lost attribute %r" % (key.action_path, name),
                        auto=False,
                    )
                )
            # The shared widgets may have changed too (new select options
            # alongside the new attribute) — diff them as well.
            _diff_widgets(node, model.widgets, live, changes)
            continue
        _diff_widgets(node, model.widgets, live, changes)


def _diff_widgets(node: PageNode, widgets: list[WidgetModel], live_form, changes: list[Change]) -> None:
    live_widgets = {w.name: w for w in live_form.widgets}
    for widget in widgets:
        live = live_widgets.get(widget.name)
        if live is None:
            continue  # covered by the key diff
        if widget.kind in ("select", "radio"):
            old_domain = set(widget.domain)
            new_domain = set(live.domain)
            for value in sorted(new_domain - old_domain):
                changes.append(
                    Change(
                        "domain_value_added",
                        node.node_id,
                        "%s gained option %r" % (widget.name, value),
                        auto=True,
                    )
                )
            for value in sorted(old_domain - new_domain):
                changes.append(
                    Change(
                        "domain_value_removed",
                        node.node_id,
                        "%s lost option %r" % (widget.name, value),
                        auto=True,
                    )
                )
        if live.default != widget.default:
            changes.append(
                Change(
                    "default_changed",
                    node.node_id,
                    "%s default %r -> %r" % (widget.name, widget.default, live.default),
                    auto=True,
                )
            )


def check_site(navmap: NavigationMap, browser: Browser) -> MaintenanceReport:
    """Re-walk the map's link structure and diff what the site serves now.

    Only link edges are traversed (form targets are dynamic); that covers
    every static page and every form *definition*, which is where the
    auto-vs-manual distinction lives.
    """
    changes: list[Change] = []
    if navmap.root_id is None:
        return MaintenanceReport(navmap.host, [], 0)
    try:
        root_page = browser.get(navmap.root.sample_url)
    except NavigationError as exc:
        return MaintenanceReport(
            navmap.host,
            [Change("missing_link", navmap.root_id, "entry page unreachable: %s" % exc, auto=False)],
            0,
        )
    pages: dict[str, WebPage] = {navmap.root_id: root_page}
    frontier = [navmap.root_id]
    visited = {navmap.root_id}
    while frontier:
        node_id = frontier.pop()
        node = navmap.node(node_id)
        page = pages[node_id]
        known_links = set()
        for edge in navmap.out_edges(node_id):
            if not isinstance(edge, LinkEdge) or edge.row_link:
                continue
            known_links.add(edge.link_name.strip().lower())
            if not page.has_link_named(edge.link_name):
                changes.append(
                    Change(
                        "missing_link",
                        node_id,
                        "link %r no longer present" % edge.link_name,
                        auto=False,
                    )
                )
                continue
            if edge.target in visited:
                continue
            try:
                target_page = browser.follow(page.link_named(edge.link_name))
            except NavigationError:
                changes.append(
                    Change(
                        "missing_link",
                        node_id,
                        "link %r is broken" % edge.link_name,
                        auto=False,
                    )
                )
                continue
            visited.add(edge.target)
            pages[edge.target] = target_page
            frontier.append(edge.target)
        for link in page.links:
            if link.address.host != navmap.host:
                continue
            name = link.name.strip().lower()
            if name in node.seen_link_names:
                continue  # present when the designer mapped the site
            if name not in known_links:
                changes.append(
                    Change(
                        "new_link",
                        node_id,
                        "unmapped link %r -> %s" % (link.name, link.address),
                        auto=True,
                    )
                )
        _diff_forms(node, page, changes)
    # Deduplicate (the same new link may appear on several result pages).
    unique = sorted(set(changes), key=lambda c: (c.node_id, c.kind, c.detail))
    return MaintenanceReport(navmap.host, unique, nodes_checked=len(visited))


class InvalidationSink(Protocol):
    """What maintenance needs from a cache to keep it truthful.

    :class:`~repro.vps.cache.ResultCache` implements this; any other
    cross-query store can participate by providing the same two hooks.
    """

    def bump_revision(self, host: str) -> int: ...

    def quarantine(self, host: str, cause: str) -> int: ...


def reconcile_site(
    navmap: NavigationMap,
    browser: Browser,
    invalidation: InvalidationSink | None = None,
) -> MaintenanceReport:
    """One maintenance cycle for one site: check, absorb, invalidate.

    Auto changes are absorbed into the map and — because anything cached
    before the change may describe a page that no longer exists — the
    host's cache revision is bumped, evicting its entries.  Manual
    changes cannot be absorbed, so the host's entries are quarantined
    instead: the cache serves them flagged as stale or bypasses them,
    per its :class:`~repro.vps.cache.CachePolicy`.

    Nothing above this layer is called: whoever else must hear of the
    change reads the returned report (the service's sweep refreshes its
    standing queries from it).
    """
    report = check_site(navmap, browser)
    if report.clean:
        return report
    if report.auto_changes:
        apply_auto_changes(navmap, report, browser)
        if invalidation is not None:
            invalidation.bump_revision(navmap.host)
    if report.manual_changes and invalidation is not None:
        invalidation.quarantine(navmap.host, "maintenance")
    return report


def apply_auto_changes(navmap: NavigationMap, report: MaintenanceReport, browser: Browser) -> int:
    """Absorb the automatically applicable changes into the map: refresh
    widget domains and defaults from the live forms.  Returns the number
    of changes applied."""
    applied = 0
    refreshed: dict[str, WebPage] = {}
    for change in report.auto_changes:
        if change.kind not in ("domain_value_added", "domain_value_removed", "default_changed"):
            continue
        node = navmap.node(change.node_id)
        page = refreshed.get(change.node_id)
        if page is None:
            try:
                page = browser.get(node.sample_url)
            except NavigationError:
                continue
            refreshed[change.node_id] = page
        live_by_action = {(f.action.path, f.method): f for f in page.forms}
        for key, model in node.forms.items():
            live = live_by_action.get((key.action_path, key.method))
            if live is None:
                continue
            live_widgets = {w.name: w for w in live.widgets}
            for widget in model.widgets:
                live_widget = live_widgets.get(widget.name)
                if live_widget is None:
                    continue
                if widget.domain != live_widget.domain or widget.default != live_widget.default:
                    widget.domain = live_widget.domain
                    widget.default = live_widget.default
        applied += 1
    return applied
