"""Compiling navigation maps into navigation expressions.

"Navigation expressions ... can be derived automatically directly from
the map in linear time in the size of the map."  This module performs
that derivation.  For every data node the compiler emits a small
Transaction F-logic program shaped exactly like Figure 4:

* one *relation rule* that starts a browsing process at the site entry
  (or, for detail relations, directly at a URL supplied as a mandatory
  attribute) and hands the page to the entry node's predicate;
* one *node rule* per action available at a node — following a link,
  or submitting a form with the attribute variables threaded through —
  with a choice over the action's possible target nodes;
* for data nodes, an *extraction rule* binding the output variables to a
  row of the page, and (when the map has a "More" self-loop) a recursive
  rule that continues to the next result page.

Handles are derived with the compilation: root-to-data paths are grouped
by the mandatory attributes of their *first* form.  One group yields one
handle whose goal is the relation itself; several groups (a site with
alternative access forms, Section 3's multi-handle case) yield one
navigation expression *per handle* — each restricted to its group's
paths — plus a combined relation rule that unions the accesses.

The rules are the calculus: what ``repro expression`` and Figure 4 print,
and the specification ``tests/test_navigation_plan.py`` interprets.  The
executor does not read them.  Beside each rule the compiler appends the
*plan step* it stands for, in the same pass: per goal, the pages it
starts from (:class:`_Start`); per map node, its steps in rule order
(:class:`_Extract`, :class:`_Follow`, :class:`_Submit`).  A step names
attributes by *slot*, their position in the relation's ``vector``, and
names the nodes it continues on by their step lists, so a "More"
self-loop is a step that points at its own list.  The plan is built once
per :func:`compile_map` and only read afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.flogic.formulas import Pred, Program, Rule, choice, format_rule, serial
from repro.flogic.terms import Struct, Var
from repro.navigation.extract import PageWrapper
from repro.navigation.model import Edge, FormEdge, FormModel, LinkEdge, PageNode
from repro.navigation.navmap import NavigationMap
from repro.vps.handle import Handle, check_handle_family


# -- the navigation plan ------------------------------------------------------------


# A node's plan is its list of steps, in the order of its rules.
_Steps = list


@dataclass(frozen=True, eq=False)
class _Extract:
    wrapper: PageWrapper
    columns: tuple[tuple[int, str], ...]  # (slot, wrapper attribute)


@dataclass(frozen=True, eq=False)
class _Follow:
    link: str
    targets: tuple[_Steps, ...]


@dataclass(frozen=True, eq=False)
class _Submit:
    ident: str
    pairs: tuple[tuple[str, int], ...]  # (widget name, slot)
    targets: tuple[_Steps, ...]


@dataclass(frozen=True, eq=False)
class _Start:
    """A goal's first page: the entry page of ``host``, or (``host`` is
    ``None``) the URL bound in ``url_slot``."""

    host: str | None
    url_slot: int
    targets: tuple[_Steps, ...]


@dataclass(frozen=True, eq=False)
class _RelationPlan:
    slots: dict[str, int]  # attribute -> slot, in vector order
    columns: tuple[tuple[str, int], ...]  # the row's (attribute, slot)
    goals: dict[str, tuple[_Start, ...]]  # the relation and each handle's goal


@dataclass
class CompiledRelation:
    """One VPS relation produced from a navigation map."""

    name: str
    host: str
    schema: tuple[str, ...]  # output attributes (extraction + detail key)
    vector: tuple[str, ...]  # all predicate arguments: schema + form-only attrs
    handles: list[Handle]
    kind: str  # 'site' | 'detail'
    plan: _RelationPlan  # what the executor walks
    url_attr: str | None = None  # for detail relations


@dataclass
class CompiledSite:
    """Everything the executor needs to serve a site's VPS relations."""

    host: str
    entry_url: str
    program: Program
    relations: list[CompiledRelation]
    wrappers: dict[str, PageWrapper] = field(default_factory=dict)

    def relation(self, name: str) -> CompiledRelation:
        for rel in self.relations:
            if rel.name == name:
                return rel
        raise KeyError("site %s has no relation %r" % (self.host, name))


class CompileError(Exception):
    """The map cannot be compiled (no data nodes, broken topology, ...)."""


def _attr_var(attr: str) -> Var:
    return Var(attr[0].upper() + attr[1:])


def _non_row_out_edges(navmap: NavigationMap, node_id: str):
    for edge in navmap.out_edges(node_id):
        if isinstance(edge, LinkEdge) and edge.row_link:
            continue
        yield edge


def _forward_reachable(navmap: NavigationMap, start: str) -> set[str]:
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for edge in _non_row_out_edges(navmap, current):
            if edge.target not in seen:
                seen.add(edge.target)
                frontier.append(edge.target)
    return seen


def _backward_reachable(navmap: NavigationMap, target: str) -> set[str]:
    seen = {target}
    changed = True
    while changed:
        changed = False
        for edge in navmap.edges:
            if isinstance(edge, LinkEdge) and edge.row_link:
                continue
            if edge.target in seen and edge.source not in seen:
                seen.add(edge.source)
                changed = True
    return seen


def _simple_paths(
    navmap: NavigationMap, source: str, target: str, limit: int = 200
) -> list[list[Edge]]:
    """Acyclic edge paths from ``source`` to ``target`` (row links excluded)."""
    paths: list[list[Edge]] = []

    def walk(current: str, visited: frozenset[str], trail: list[Edge]) -> None:
        if len(paths) >= limit:
            return
        if current == target:
            paths.append(list(trail))
            return
        for edge in _non_row_out_edges(navmap, current):
            if edge.target in visited:
                continue
            trail.append(edge)
            walk(edge.target, visited | {edge.target}, trail)
            trail.pop()

    walk(source, frozenset({source}), [])
    return paths


def _form_model(navmap: NavigationMap, edge: FormEdge) -> FormModel:
    node = navmap.node(edge.source)
    model = node.forms.get(edge.form_key)
    if model is None:
        model = navmap.form(edge.form_key)
    return model


@dataclass
class _HandleGroup:
    """Root-to-data paths sharing the same first-form mandatory set."""

    mandatory: frozenset[str]
    selection: set[str]
    paths: list[list[Edge]]


def _group_paths(
    navmap: NavigationMap, data_node: PageNode, root_id: str
) -> list[_HandleGroup]:
    paths = _simple_paths(navmap, root_id, data_node.node_id)
    if not paths:
        raise CompileError(
            "data node %s is unreachable from the root" % data_node.node_id
        )
    grouped: dict[frozenset[str], _HandleGroup] = {}
    for path in paths:
        form_edges = [e for e in path if isinstance(e, FormEdge)]
        if form_edges:
            first = _form_model(navmap, form_edges[0])
            mandatory = frozenset(first.mandatory_attrs)
        else:
            mandatory = frozenset()
        selection: set[str] = set(mandatory)
        for edge in form_edges:
            selection |= set(_form_model(navmap, edge).attrs)
        group = grouped.setdefault(mandatory, _HandleGroup(mandatory, set(), []))
        group.selection |= selection
        group.paths.append(path)
    return [grouped[key] for key in sorted(grouped, key=sorted)]


def _slots(vector: tuple[str, ...]) -> dict[str, int]:
    return {attr: slot for slot, attr in enumerate(dict.fromkeys(vector))}


def _columns(slots: dict[str, int], schema: tuple[str, ...]) -> tuple[tuple[str, int], ...]:
    return tuple((attr, slot) for attr, slot in slots.items() if attr in schema)


def _emit_node_rules(
    navmap: NavigationMap,
    node: PageNode,
    vector: tuple[str, ...],
    slots: dict[str, int],
    nodes: dict[str, _Steps],
    pred_of: Callable[[str], str],
    allowed: Callable[[Edge], bool],
    wrapper_id: str | None,
    program: Program,
) -> None:
    """Write ``node``'s rules into ``program`` and, beside each, its plan
    step into the node's step list in ``nodes`` (keyed by predicate)."""
    page = Var("Page")
    page2 = Var("Page2")
    vec_vars = tuple(_attr_var(a) for a in vector)
    head = Pred(pred_of(node.node_id), (page,) + vec_vars)
    steps = nodes.setdefault(head.name, [])

    def steps_of(targets: list[str]) -> tuple[_Steps, ...]:
        return tuple(nodes.setdefault(pred_of(t), []) for t in targets)

    if node.is_data and wrapper_id is not None:
        rows = Var("Rows")
        out_vars = tuple(_attr_var(a) for a in node.wrapper.attrs)
        program.add(
            Rule(
                head,
                serial(
                    Pred("nav_extract", (page, wrapper_id, rows)),
                    Pred("member", (out_vars, rows)),
                ),
            )
        )
        columns = tuple((slots[a], a) for a in node.wrapper.attrs)
        steps.append(_Extract(node.wrapper, columns))

    # Group actions: one rule per distinct action, choice over its targets.
    link_groups: dict[str, list[str]] = {}
    form_groups: dict[str, tuple[FormModel, list[str]]] = {}
    for edge in _non_row_out_edges(navmap, node.node_id):
        if not allowed(edge):
            continue
        if isinstance(edge, LinkEdge):
            link_groups.setdefault(edge.link_name, []).append(edge.target)
        else:
            model = _form_model(navmap, edge)
            group = form_groups.setdefault(model.key.ident, (model, []))
            group[1].append(edge.target)

    for link_name in sorted(link_groups):
        targets = sorted(set(link_groups[link_name]))
        continuation = choice(
            *[Pred(pred_of(t), (page2,) + vec_vars) for t in targets]
        )
        program.add(
            Rule(
                head,
                serial(Pred("nav_follow", (page, link_name, page2)), continuation),
            )
        )
        steps.append(_Follow(link_name, steps_of(targets)))

    for ident in sorted(form_groups):
        model, targets = form_groups[ident]
        targets = sorted(set(targets))
        pairs = tuple(
            Struct("pair", (w.name, _attr_var(w.attr))) for w in model.widgets
        )
        continuation = choice(*[Pred(pred_of(t), (page2,) + vec_vars) for t in targets])
        program.add(
            Rule(
                head,
                serial(Pred("nav_submit", (page, ident, pairs, page2)), continuation),
            )
        )
        filled = tuple((w.name, slots[w.attr]) for w in model.widgets)
        steps.append(_Submit(ident, filled, steps_of(targets)))


def _expression_text(program: Program, goals: Iterable[str]) -> str:
    prefixes = tuple(goals)
    lines = []
    for rule in program.rules:
        name = rule.head.name
        if name in prefixes or any(name.startswith(p + "__") for p in prefixes):
            lines.append(format_rule(rule))
    return "\n".join(lines)


def _compile_site_relation(
    navmap: NavigationMap, data_node: PageNode, site: CompiledSite
) -> None:
    relation = data_node.relation_name
    assert relation is not None and data_node.wrapper is not None
    root_id = navmap.root_id
    assert root_id is not None

    participating = _forward_reachable(navmap, root_id) & _backward_reachable(
        navmap, data_node.node_id
    )
    # Attribute vector: extraction outputs first, then form-only inputs.
    outputs = tuple(data_node.wrapper.attrs)
    inputs: list[str] = []
    for node_id in sorted(participating, key=lambda i: int(i[1:])):
        for key, form in sorted(
            navmap.node(node_id).forms.items(), key=lambda kv: kv[0].ident
        ):
            for widget in form.widgets:
                if widget.attr not in outputs and widget.attr not in inputs:
                    inputs.append(widget.attr)
    vector = outputs + tuple(inputs)
    vec_vars = tuple(_attr_var(a) for a in vector)
    slots = _slots(vector)
    nodes: dict[str, _Steps] = {}
    goals: dict[str, tuple[_Start, ...]] = {}

    wrapper_id = "%s_wrapper" % relation
    site.wrappers[wrapper_id] = data_node.wrapper

    groups = _group_paths(navmap, data_node, root_id)
    page = Var("Page")

    if len(groups) == 1:
        # The common case: one access path family, goal = the relation.
        def pred_of(node_id: str, _rel=relation) -> str:
            return "%s__%s" % (_rel, node_id)

        def allowed(edge: Edge, _p=frozenset(participating)) -> bool:
            return edge.target in _p and edge.source in _p

        site.program.add(
            Rule(
                Pred(relation, vec_vars),
                serial(
                    Pred("nav_entry", (navmap.host, page)),
                    Pred(pred_of(root_id), (page,) + vec_vars),
                ),
            )
        )
        root = nodes.setdefault(pred_of(root_id), [])
        goals[relation] = (_Start(navmap.host, 0, (root,)),)
        for node_id in sorted(participating, key=lambda i: int(i[1:])):
            _emit_node_rules(
                navmap,
                navmap.node(node_id),
                vector,
                slots,
                nodes,
                pred_of,
                allowed,
                wrapper_id if node_id == data_node.node_id else None,
                site.program,
            )
        handles = [
            Handle(relation, groups[0].mandatory, frozenset(groups[0].selection), relation)
        ]
    else:
        # Alternative access forms: one navigation expression per handle,
        # plus a combined relation rule unioning the accesses.
        handles = []
        for index, group in enumerate(groups):
            goal = "%s_h%d" % (relation, index)
            group_edges = {edge for path in group.paths for edge in path}
            group_nodes = {root_id}
            for edge in group_edges:
                group_nodes.add(edge.source)
                group_nodes.add(edge.target)

            def pred_of(node_id: str, _goal=goal) -> str:
                return "%s__%s" % (_goal, node_id)

            def allowed(edge: Edge, _edges=frozenset(group_edges), _nodes=frozenset(group_nodes)) -> bool:
                if edge in _edges:
                    return True
                # Keep self-loops (the More pagination) on group nodes.
                return edge.source == edge.target and edge.source in _nodes

            site.program.add(
                Rule(
                    Pred(goal, vec_vars),
                    serial(
                        Pred("nav_entry", (navmap.host, page)),
                        Pred(pred_of(root_id), (page,) + vec_vars),
                    ),
                )
            )
            root = nodes.setdefault(pred_of(root_id), [])
            goals[goal] = (_Start(navmap.host, 0, (root,)),)
            for node_id in sorted(group_nodes, key=lambda i: int(i[1:])):
                _emit_node_rules(
                    navmap,
                    navmap.node(node_id),
                    vector,
                    slots,
                    nodes,
                    pred_of,
                    allowed,
                    wrapper_id if node_id == data_node.node_id else None,
                    site.program,
                )
            handles.append(
                Handle(relation, group.mandatory, frozenset(group.selection), goal)
            )
        site.program.add(
            Rule(
                Pred(relation, vec_vars),
                choice(*[Pred(h.goal, vec_vars) for h in handles]),
            )
        )
        goals[relation] = tuple(start for h in handles for start in goals[h.goal])

    check_handle_family(handles)
    handles = [
        Handle(
            h.relation,
            h.mandatory,
            h.selection,
            h.goal,
            expression=_expression_text(site.program, [h.goal]),
        )
        for h in handles
    ]
    site.relations.append(
        CompiledRelation(
            name=relation,
            host=navmap.host,
            schema=outputs,
            vector=vector,
            handles=handles,
            kind="site",
            plan=_RelationPlan(slots, _columns(slots, outputs), goals),
        )
    )


def _compile_detail_relation(
    navmap: NavigationMap, data_node: PageNode, site: CompiledSite
) -> None:
    relation = data_node.relation_name
    assert relation is not None and data_node.wrapper is not None

    # Find the row link leading here and the source wrapper attribute whose
    # value is the link target URL.
    url_attr: str | None = None
    for edge in navmap.in_edges(data_node.node_id):
        if not (isinstance(edge, LinkEdge) and edge.row_link):
            continue
        source = navmap.node(edge.source)
        if source.wrapper is None:
            continue
        for attr, link_name in getattr(source.wrapper, "link_attrs", ()):
            if link_name.strip().lower() == edge.link_name.strip().lower():
                url_attr = attr
                break
    if url_attr is None:
        raise CompileError(
            "detail node %s has no row link with a matching URL attribute"
            % data_node.node_id
        )

    outputs = tuple(data_node.wrapper.attrs)
    vector = (url_attr,) + outputs
    wrapper_id = "%s_wrapper" % relation
    site.wrappers[wrapper_id] = data_node.wrapper

    page = Var("Page")
    vec_vars = tuple(_attr_var(a) for a in vector)
    slots = _slots(vector)
    nodes: dict[str, _Steps] = {}

    def pred_of(node_id: str) -> str:
        return "%s__%s" % (relation, node_id)

    site.program.add(
        Rule(
            Pred(relation, vec_vars),
            serial(
                Pred("nav_get", (vec_vars[0], page)),
                Pred(pred_of(data_node.node_id), (page,) + vec_vars),
            ),
        )
    )
    data = nodes.setdefault(pred_of(data_node.node_id), [])
    goals = {relation: (_Start(None, slots[url_attr], (data,)),)}
    _emit_node_rules(
        navmap,
        data_node,
        vector,
        slots,
        nodes,
        pred_of,
        lambda edge: edge.source == data_node.node_id and edge.target == data_node.node_id,
        wrapper_id,
        site.program,
    )
    handle = Handle(
        relation=relation,
        mandatory=frozenset({url_attr}),
        selection=frozenset({url_attr}),
        goal=relation,
        expression=_expression_text(site.program, [relation]),
    )
    site.relations.append(
        CompiledRelation(
            name=relation,
            host=navmap.host,
            schema=vector,
            vector=vector,
            handles=[handle],
            kind="detail",
            plan=_RelationPlan(slots, _columns(slots, vector), goals),
            url_attr=url_attr,
        )
    )


def compile_map(navmap: NavigationMap) -> CompiledSite:
    """Derive the navigation expressions and handles for every relation the
    map's data nodes define."""
    if navmap.root_id is None:
        raise CompileError("map of %s has no root" % navmap.host)
    data_nodes = navmap.data_nodes()
    if not data_nodes:
        raise CompileError("map of %s has no data pages marked" % navmap.host)
    names = [n.relation_name for n in data_nodes]
    if len(set(names)) != len(names):
        raise CompileError("duplicate relation names in map of %s" % navmap.host)

    site = CompiledSite(
        host=navmap.host,
        entry_url=str(navmap.root.sample_url),
        program=Program(),
        relations=[],
    )
    root_reachable = _forward_reachable(navmap, navmap.root_id)
    for data_node in sorted(data_nodes, key=lambda n: int(n.node_id[1:])):
        if data_node.node_id in root_reachable:
            _compile_site_relation(navmap, data_node, site)
        else:
            _compile_detail_relation(navmap, data_node, site)
    return site
