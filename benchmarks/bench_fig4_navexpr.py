"""Figure 4 — the compiled navigation expressions for the Newsday site.

Times the map-to-calculus compilation (the paper: "derived automatically
directly from that map in linear time in the size of the map") and then
executes the expressions for the figure's scenario: retrieve used-car ads
given Make (branching into form f2 when the site demands refinement) and
given Make+Model.
"""

from __future__ import annotations

from repro.domains.cars.sessions import map_newsday
from repro.navigation.compiler import compile_map
from repro.navigation.executor import NavigationExecutor


def test_fig4_navigation_expressions(benchmark, world):
    builder = map_newsday(world)

    site = benchmark(compile_map, builder.map)

    print("\nFigure 4 — the navigation process of retrieving used car ads")
    print(site.program.pretty())

    executor = NavigationExecutor(world.server)
    executor.add_site(site)

    # Make+Model: f1 then f2 (ford has too many ads for a direct answer).
    rows = executor.fetch("newsday", {"make": "ford", "model": "escort"})
    expected = world.dataset.ads_for("www.newsday.com", make="ford", model="escort")
    assert len(rows) == len(expected)

    # Make only: the choice resolves per page shape; the unbound Model
    # select is enumerated behind the scenes.
    rows = executor.fetch("newsday", {"make": "ford"})
    assert len(rows) == len(world.dataset.ads_for("www.newsday.com", make="ford"))

    # Detail expression: Url is the only mandatory attribute.
    detail = executor.fetch("newsday_car_features", {"url": rows[0]["url"]})
    assert len(detail) == 1


def test_fig4_compilation_is_linear(world):
    """Compilation cost grows linearly-ish with map size: compiling twelve
    site maps costs about twelve times one map, not quadratically more."""
    import time

    from repro.domains.cars.sessions import build_all_builders

    builders = build_all_builders(world)
    single = min(builders.values(), key=lambda b: len(b.map.nodes))

    start = time.perf_counter()
    for _ in range(10):
        compile_map(single.map)
    single_cost = (time.perf_counter() - start) / 10

    start = time.perf_counter()
    for builder in builders.values():
        compile_map(builder.map)
    all_cost = time.perf_counter() - start

    assert all_cost < single_cost * len(builders) * 20
