"""Property suite: the cost-based join order is an *optimization*.

Over randomly generated catalogs and queries (seeded through the suite's
``REPRO_TEST_SEED`` knob, so failures replay under any seed), the
planner-chosen order must return exactly the rows the fixed
binding-feasible order returns — counted through a metrics registry by
the catalog itself, the same way the engine counts live fetches.  Fetch
cost is a property of the *estimator*, so it is asserted in aggregate:
across the whole seed set the planner must spend no more total fetches
than the fixed order, and may land on the expensive side of a near-tie
in at most a sliver of scenarios (the generator deliberately produces
sparse relations where independence assumptions legitimately miss).
Orders are only compared when the legacy path finds one at all; the
planner must agree on feasibility.
"""

from __future__ import annotations

import random

import pytest

from repro.core.metrics import MetricsRegistry
from repro.relational.algebra import Base, Expr, Join, Project, Select, evaluate
from repro.relational.bindings import (
    NO_BINDINGS,
    BindingError,
    BindingSets,
    JoinPart,
    binding_sets,
    feasible,
    order_joins,
)
from repro.relational.conditions import conj, eq
from repro.relational.cost import CatalogStats, CostModel, RelationStats
from repro.relational.optimize import optimize
from repro.relational.planner import JoinOrderPlanner
from repro.relational.relation import Relation
from repro.relational.schema import Schema

from tests.conftest import derive_seeds

ATTR_POOL = "abcdefgh"
SEEDS = derive_seeds("plan-equivalence", 120)
MIN_COMPARED = 40  # the generator must yield at least this many orderable cases


class CountingCatalog:
    """A Catalog over in-memory relations that enforces binding sets and
    counts every base fetch into a metrics registry."""

    def __init__(
        self,
        relations: dict[str, Relation],
        bindings: dict[str, BindingSets],
        metrics: MetricsRegistry,
    ) -> None:
        self.relations = relations
        self.bindings = bindings
        self.metrics = metrics

    def base_schema(self, name: str) -> Schema:
        return self.relations[name].schema

    def base_binding_sets(self, name: str) -> BindingSets:
        return self.bindings[name]

    def fetch(self, name: str, given: dict, context=None) -> Relation:
        bound = frozenset(a for a, v in given.items() if v is not None)
        if not feasible(self.bindings[name], bound):
            raise BindingError(
                "fetch of %s with %s satisfies no binding set" % (name, sorted(bound))
            )
        self.metrics.counter("catalog.fetches").inc()
        self.metrics.counter("catalog.fetches.%s" % name).inc()
        schema = self.relations[name].schema
        relevant = {schema.index_of(a): v for a, v in given.items() if a in schema}
        return self.relations[name].select_rows(
            lambda row: all(row[i] == v for i, v in relevant.items())
        )


def _generate(seed: int):
    """One random scenario: relations with rows/bindings, and a query."""
    rng = random.Random(seed)
    domains = {a: ["%s%d" % (a, i) for i in range(rng.randint(2, 6))] for a in ATTR_POOL}

    n_rel = rng.randint(2, 5)
    relations: dict[str, Relation] = {}
    bindings: dict[str, BindingSets] = {}
    schemas: dict[str, frozenset[str]] = {}
    for i in range(n_rel):
        name = "r%d" % i
        attrs = tuple(sorted(rng.sample(ATTR_POOL, rng.randint(2, 4))))
        # Row counts well above the attribute domain sizes keep the cost
        # model's independence assumptions honest; sparser relations make
        # single-fetch near-ties where an estimator can legitimately land
        # on the other side.
        rows = {
            tuple(rng.choice(domains[a]) for a in attrs)
            for _ in range(rng.randint(8, 40))
        }
        relations[name] = Relation(Schema(attrs), sorted(rows))
        schemas[name] = frozenset(attrs)
        if i == 0 or rng.random() < 0.5:
            bindings[name] = NO_BINDINGS
        else:
            sets = [
                rng.sample(attrs, rng.randint(1, min(2, len(attrs))))
                for _ in range(rng.randint(1, 2))
            ]
            bindings[name] = binding_sets(*sets)

    all_attrs = sorted(set().union(*schemas.values()))
    consts = {
        a: rng.choice(domains[a])
        for a in rng.sample(all_attrs, rng.randint(0, min(2, len(all_attrs))))
    }
    stats = CatalogStats(
        relations={
            name: RelationStats(
                cardinality=float(len(rel)),
                distinct={
                    a: float(len({row[i] for row in rel.rows}))
                    for i, a in enumerate(rel.schema.attrs)
                },
            )
            for name, rel in relations.items()
        }
    )
    return relations, bindings, schemas, consts, stats


def _expression(order_names: list[str], consts: dict, catalog) -> Expr:
    expr: Expr = Base(order_names[0])
    for name in order_names[1:]:
        expr = Join(expr, Base(name))
    if consts:
        expr = Select(expr, conj(*[eq(a, v) for a, v in sorted(consts.items())]))
    outputs = sorted(set().union(*(catalog.base_schema(n).as_set() for n in order_names)))
    expr = Project(expr, outputs)
    return optimize(expr, catalog).expression


def _run(order_names, relations, bindings, consts):
    metrics = MetricsRegistry()
    catalog = CountingCatalog(relations, bindings, metrics)
    expr = _expression(order_names, consts, catalog)
    result = evaluate(expr, catalog)
    return result, metrics.value("catalog.fetches")


def _scenario_orders(seed: int):
    relations, bindings, schemas, consts, stats = _generate(seed)
    parts = [
        JoinPart(name, schemas[name], bindings[name]) for name in sorted(relations)
    ]
    bound = set(consts)
    fixed = order_joins(parts, bound)
    plan = JoinOrderPlanner(CostModel(stats)).plan(parts, bound)
    return relations, bindings, consts, parts, fixed, plan


def test_planner_feasibility_matches_legacy():
    """The planner finds an order exactly when ``order_joins`` does."""
    for seed in SEEDS:
        _, _, _, _, fixed, plan = _scenario_orders(seed)
        assert (plan is None) == (fixed is None), "seed %d disagrees" % seed


def test_planner_order_equivalent_and_cheaper_in_aggregate():
    compared = 0
    baseline_total = 0
    chosen_total = 0
    regressed: list[tuple[int, int, int]] = []
    for seed in SEEDS:
        relations, bindings, consts, parts, fixed, plan = _scenario_orders(seed)
        if fixed is None:
            continue
        assert plan is not None
        fixed_names = [parts[i].name for i in fixed]
        chosen_names = [parts[i].name for i in plan.order]

        baseline, baseline_fetches = _run(fixed_names, relations, bindings, consts)
        chosen, chosen_fetches = _run(chosen_names, relations, bindings, consts)

        assert sorted(map(tuple, baseline.rows)) == sorted(map(tuple, chosen.rows)), (
            "seed %d: planner order %s returns different rows than %s"
            % (seed, chosen_names, fixed_names)
        )
        assert chosen.schema.attrs == baseline.schema.attrs
        baseline_total += baseline_fetches
        chosen_total += chosen_fetches
        if chosen_fetches > baseline_fetches:
            regressed.append((seed, chosen_fetches, baseline_fetches))
        compared += 1
    assert compared >= MIN_COMPARED, "generator too restrictive: %d cases" % compared
    # The estimator property, robust to any REPRO_TEST_SEED: a strict
    # aggregate win, and at most 5% of scenarios on the wrong side of a
    # near-tie.
    assert chosen_total <= baseline_total, (
        "planner costs more fetches in aggregate: %d > %d"
        % (chosen_total, baseline_total)
    )
    allowance = max(1, compared // 20)
    assert len(regressed) <= allowance, (
        "planner regressed %d of %d scenarios (allowance %d): %s"
        % (len(regressed), compared, allowance, regressed)
    )


def test_some_scenario_actually_improves():
    """The suite is not vacuous: at least one generated scenario must show
    the planner strictly beating the fixed order."""
    improved = 0
    for seed in SEEDS:
        relations, bindings, consts, parts, fixed, plan = _scenario_orders(seed)
        if fixed is None:
            continue
        fixed_names = [parts[i].name for i in fixed]
        chosen_names = [parts[i].name for i in plan.order]
        if fixed_names == chosen_names:
            continue
        _, baseline_fetches = _run(fixed_names, relations, bindings, consts)
        _, chosen_fetches = _run(chosen_names, relations, bindings, consts)
        if chosen_fetches < baseline_fetches:
            improved += 1
    assert improved >= 1


def test_counting_catalog_enforces_bindings():
    metrics = MetricsRegistry()
    rel = Relation(Schema(("a", "b")), [("a0", "b0")])
    catalog = CountingCatalog({"r": rel}, {"r": binding_sets({"a"})}, metrics)
    with pytest.raises(BindingError):
        catalog.fetch("r", {})
    assert len(catalog.fetch("r", {"a": "a0"})) == 1
    assert metrics.value("catalog.fetches") == 1
