"""The cost model and join-order search, pinned from first principles.

Estimates must move the right way when statistics move (more rows ahead
of a dependent join can never make it look cheaper), the search must
never even *score* a binding-infeasible placement, it must agree with
``order_joins`` about feasibility, every cover goes through the subset
DP, EXPLAIN must report the estimate-vs-actual error per plan node, and
no amount of traffic may move a plan: the model is static.
"""

from __future__ import annotations

import pytest

from bench.workloads import FAMILIES
from repro import CachePolicy
from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.relational.bindings import JoinPart, feasible, order_joins
from repro.relational.cost import CatalogStats, CostModel, RelationStats
from repro.relational.planner import JoinOrderPlanner


def _stats(outer_card: float = 100.0, outer_dv: float = 10.0) -> CatalogStats:
    return CatalogStats(
        relations={
            "outer": RelationStats(
                cardinality=outer_card, distinct={"k": outer_dv, "v": outer_card}
            ),
            "inner": RelationStats(cardinality=50.0, distinct={"k": 10.0, "w": 50.0}),
        }
    )


OUTER = JoinPart.make("outer", {"k", "v"}, [()])
INNER = JoinPart.make("inner", {"k", "w"}, [("k",)])  # must be probed


class TestMonotonicity:
    def test_probe_cost_monotone_in_outer_cardinality(self):
        """More (distinct) rows ahead of a dependent join ⇒ at least as
        many probes of the inner relation, never fewer."""
        costs = [
            CostModel(_stats(outer_card=card, outer_dv=card))
            .step_estimate(INNER, [OUTER], frozenset())
            .est_fetches
            for card in (1.0, 4.0, 16.0, 64.0, 256.0)
        ]
        assert costs == sorted(costs)
        assert costs[-1] > costs[0]

    def test_selected_rows_monotone_in_cardinality(self):
        rows = [
            CostModel(_stats(outer_card=card)).selected_rows(OUTER, frozenset({"k"}))
            for card in (10.0, 100.0, 1000.0)
        ]
        assert rows == sorted(rows)

    def test_constants_never_increase_cost(self):
        model = CostModel(_stats())
        free = model.step_estimate(INNER, [OUTER], frozenset())
        bound = model.step_estimate(INNER, [OUTER], frozenset({"k"}))
        assert bound.est_fetches <= free.est_fetches


class RecordingModel(CostModel):
    """Records every placement the planner asks to be scored."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scored: list[tuple[str, tuple[str, ...], frozenset]] = []

    def step_estimate(self, part, prefix, const_attrs):
        self.scored.append(
            (part.name, tuple(p.name for p in prefix), frozenset(const_attrs))
        )
        return super().step_estimate(part, prefix, const_attrs)


def _chain(n: int) -> list[JoinPart]:
    """c0 — c1 — ... — c(n-1), each needing the previous link's attribute:
    exactly one feasible order."""
    parts = [JoinPart.make("c0", {"x0"}, [()])]
    for i in range(1, n):
        parts.append(
            JoinPart.make("c%d" % i, {"x%d" % (i - 1), "x%d" % i}, [("x%d" % (i - 1),)])
        )
    return parts


class TestSearch:
    def test_infeasible_placements_are_never_scored(self):
        """Every (relation, prefix) pair the search consults the model for
        must already satisfy a binding set — at the largest real cover
        and well past it."""
        for n in (4, 9):
            model = RecordingModel(CatalogStats())
            parts = _chain(n)
            plan = JoinOrderPlanner(model).plan(parts)
            assert plan is not None
            assert model.scored, "the search never consulted the model"
            for name, prefix_names, const in model.scored:
                part = next(p for p in parts if p.name == name)
                bound = frozenset(const)
                for other_name in prefix_names:
                    bound |= next(p for p in parts if p.name == other_name).schema
                assert feasible(part.bindings, bound), (
                    "scored infeasible placement: %s after %s" % (name, prefix_names)
                )

    def test_feasibility_agrees_with_order_joins(self):
        parts = [
            JoinPart.make("a", {"x"}, [()]),
            JoinPart.make("b", {"y", "z"}, [("y",)]),  # y unreachable
        ]
        assert order_joins(parts, set()) is None
        assert JoinOrderPlanner(CostModel()).plan(parts, set()) is None
        # ...and becomes feasible exactly when order_joins says so.
        assert order_joins(parts, {"y"}) is not None
        assert JoinOrderPlanner(CostModel()).plan(parts, {"y"}) is not None

    def test_long_chain_uses_dp_and_respects_bindings(self):
        parts = _chain(7)  # longer than any real cover
        plan = JoinOrderPlanner(CostModel()).plan(parts)
        assert plan is not None
        assert plan.strategy == "dp"
        assert list(plan.names(parts)) == ["c%d" % i for i in range(7)]

    def test_short_join_uses_dp(self):
        parts = _chain(3)
        plan = JoinOrderPlanner(CostModel()).plan(parts)
        assert plan.strategy == "dp"
        assert len(plan.steps) == 3
        assert plan.steps[0].mode == "scan"
        assert all(s.mode == "probe" for s in plan.steps[1:])

    def test_empty_join_is_trivial(self):
        plan = JoinOrderPlanner(CostModel()).plan([])
        assert plan.strategy == "trivial"
        assert plan.order == ()
        assert plan.est_fetches == 0.0


@pytest.fixture(scope="module")
def webbase():
    return WebBase.create(WebBaseConfig(max_workers=1))


class TestExplain:
    QUERY = (
        "SELECT make, model, year, price, zip, rate, safety "
        "WHERE make = 'toyota' AND safety = 'excellent' AND duration = 36"
    )

    def test_explain_reports_estimates_actuals_and_error(self, webbase):
        report = webbase.explain(self.QUERY)
        text = report.render()
        assert "optimizer=cost" in text
        assert "est" in text and "actual" in text and "err" in text
        feasible_objects = [o for o in report.objects if not o.skipped]
        assert feasible_objects
        for obj in feasible_objects:
            assert obj.strategy in ("dp", "trivial")
            for node in obj.nodes:
                assert node.mode in ("scan", "independent", "probe")
                assert node.est_fetches >= 0.0
                if node.actual_fetches:
                    assert node.error_pct is not None
        # The per-node actuals reconcile with the object totals.
        assert report.actual_fetches == sum(
            o.actual_fetches for o in feasible_objects
        )

    def test_error_pct_semantics(self):
        from repro.core.explain import ExplainNode

        node = ExplainNode("r", "probe", 4.0, 6.0, 4, 4)
        assert node.error_pct == pytest.approx(50.0)
        silent = ExplainNode("r", "probe", 1.0, 1.0, 0, 0)
        assert silent.error_pct is None
        assert "n/a" in silent.describe()


class TestStaticModel:
    #: One query per ``bench/workloads.py`` family.
    QUERIES = {
        name: family.template.format(make="ford", model="escort")
        for name, family in FAMILIES.items()
    }

    def test_traffic_does_not_move_a_plan(self, world):
        """A warm cache is the traffic that would most flatter a learned
        fetch weight; after it, every text still gets the same join orders,
        the same per-step estimates and the same plan description."""
        webbase = WebBase(world, WebBaseConfig(cache=CachePolicy.lru()))

        def planned(text: str) -> tuple:
            plan = webbase.plan(text)
            return (
                [obj.relations for obj in plan.objects],
                [obj.estimate for obj in plan.objects],
                plan.describe(),
            )

        before = {name: planned(text) for name, text in self.QUERIES.items()}
        assert all("optimizer=cost" in described for _, _, described in before.values())
        for _ in range(3):
            for text in self.QUERIES.values():
                webbase.query(text)
        assert webbase.metrics.value("cache.hits") > 0  # the repeats ran warm
        assert {name: planned(text) for name, text in self.QUERIES.items()} == before
