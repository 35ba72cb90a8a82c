"""Figure 2 — the navigation map for Newsday classified car ads.

Rebuilds the map by example (a scripted designer session standing in for
the paper's 30-minute browse) and checks its topology against the figure:
the entry page with link(auto) plus three side links, form f1(make) with
its two possible outcomes, the dynamically generated form f2(model,
featrs), the More self-loop on the data node, and the per-row Car Features
link into the detail node.
"""

from __future__ import annotations

from repro.domains.cars.sessions import map_newsday
from repro.navigation.model import FormEdge, LinkEdge


def test_fig2_newsday_navigation_map(benchmark, world):
    builder = benchmark(map_newsday, world)
    navmap = builder.map

    print("\nFigure 2 — navigation map for Newsday classified car ads")
    print(navmap.summary())

    # Node inventory: entry, used-car page, refine page, data page, detail.
    assert len(navmap.nodes) == 5
    assert navmap.root.signature.path == "/"

    link_edges = [e for e in navmap.edges if isinstance(e, LinkEdge)]
    form_edges = [e for e in navmap.edges if isinstance(e, FormEdge)]

    # link(auto) from the entry page.
    assert any(e.link_name == "Auto" and e.source == navmap.root_id for e in link_edges)
    # form f1(make) leads to two different node kinds (refine vs data).
    f1_targets = {
        e.target for e in form_edges if e.form_key.widgets == frozenset({"make"})
    }
    assert len(f1_targets) == 2
    # form f2(model, featrs) from the refine page.
    assert any(
        e.form_key.widgets == frozenset({"model", "featrs"}) for e in form_edges
    )
    # The More self-loop on the data node.
    assert any(
        e.link_name == "More" and e.source == e.target for e in link_edges
    )
    # The row link into the detail node.
    assert any(e.link_name == "Car Features" and e.row_link for e in link_edges)

    # Figure 3's object model: the map lowers to F-logic frames.
    store = navmap.to_store()
    data_pages = [o for o in store.all_objects() if store.is_member(o, "data_page")]
    assert len(data_pages) == 2
