"""Integration tests for executing navigation expressions."""

import pytest

from repro.domains.cars.sessions import (
    map_kellys,
    map_newsday,
    map_nytimes,
    map_yahoocars,
)
from repro.navigation.compiler import compile_map
from repro.navigation.executor import ExecutorError, NavigationExecutor
from repro.sites.world import build_world


@pytest.fixture(scope="module")
def setup():
    world = build_world()
    executor = NavigationExecutor(world.server)
    for session in (map_newsday, map_nytimes, map_kellys, map_yahoocars):
        executor.add_site(compile_map(session(world).map))
    return world, executor


class TestFetch:
    def test_bound_make_and_model(self, setup):
        world, executor = setup
        rows = executor.fetch("newsday", {"make": "ford", "model": "escort"})
        expected = world.dataset.ads_for("www.newsday.com", make="ford", model="escort")
        assert len(rows) == len(expected)
        assert all(r["make"] == "ford" and r["model"] == "escort" for r in rows)

    def test_make_only_traverses_refinement_and_more(self, setup):
        world, executor = setup
        rows = executor.fetch("newsday", {"make": "ford"})
        expected = world.dataset.ads_for("www.newsday.com", make="ford")
        assert len(rows) == len(expected)
        models = {r["model"] for r in rows}
        assert len(models) > 1  # the unbound model select was enumerated

    def test_values_are_raw_strings(self, setup):
        _, executor = setup
        row = executor.fetch("newsday", {"make": "jaguar"})[0]
        assert row["price"].startswith("$")
        assert row["year"].isdigit()

    def test_output_binding_filters_rows(self, setup):
        world, executor = setup
        rows = executor.fetch("newsday", {"make": "ford", "year": "1995"})
        expected = [
            ad
            for ad in world.dataset.ads_for("www.newsday.com", make="ford")
            if ad.car.year == 1995
        ]
        assert len(rows) == len(expected)

    def test_detail_relation_fetch(self, setup):
        world, executor = setup
        listing = executor.fetch("newsday", {"make": "saab"})[0]
        detail = executor.fetch("newsday_car_features", {"url": listing["url"]})
        assert len(detail) == 1
        assert detail[0]["picture"].startswith("/pics/")

    def test_detail_without_url_yields_nothing(self, setup):
        _, executor = setup
        assert executor.fetch("newsday_car_features", {}) == []

    def test_labeled_wrapper_site(self, setup):
        world, executor = setup
        rows = executor.fetch("yahoocars", {"make": "ford", "model": "escort"})
        expected = world.dataset.ads_for("cars.yahoo.com", make="ford", model="escort")
        assert len(rows) == len(expected)

    def test_kellys_needs_all_three(self, setup):
        _, executor = setup
        rows = executor.fetch(
            "kellys", {"make": "jaguar", "model": "xj6", "condition": "good"}
        )
        assert len(rows) == 10  # one per year
        assert all(r["condition"] == "good" for r in rows)

    def test_unknown_relation_raises(self, setup):
        _, executor = setup
        with pytest.raises(ExecutorError):
            executor.fetch("nosuch", {})

    def test_unknown_goal_raises_before_any_page(self, setup):
        world, executor = setup
        before = world.server.stats["www.newsday.com"].requests
        with pytest.raises(ExecutorError, match="nosuch"):
            executor.fetch("newsday", {"make": "ford"}, goal="nosuch")
        assert world.server.stats["www.newsday.com"].requests == before

    def test_unknown_make_yields_empty_not_error(self, setup):
        _, executor = setup
        # 'make' is a select; a value outside its domain cannot be submitted.
        assert executor.fetch("nytimes", {"manufacturer": "zeppelin"}) == []


class TestEfficiency:
    def test_request_memoization_within_fetch(self, setup):
        world, executor = setup
        stats = world.server.stats["www.newsday.com"]
        before = stats.requests
        executor.fetch("newsday", {"make": "saab", "model": "900"})
        first_run = world.server.stats["www.newsday.com"].requests - before
        # The two f1 targets (refine node vs data node) share one submission.
        assert first_run <= 4

    def test_separate_fetches_hit_the_site_again(self, setup):
        world, executor = setup
        stats = world.server.stats["www.newsday.com"]
        before = stats.requests
        executor.fetch("newsday", {"make": "saab", "model": "900"})
        executor.fetch("newsday", {"make": "saab", "model": "900"})
        assert world.server.stats["www.newsday.com"].requests - before >= 6

    def test_duplicate_sites_rejected(self, setup):
        world, executor = setup
        with pytest.raises(ExecutorError):
            executor.add_site(compile_map(map_newsday(world).map))
