"""Property suite: plan fingerprints are an *equivalence certificate*.

The sharing key of the multi-query optimizer is
:func:`repro.relational.planner.plan_fingerprint`.  Two properties make
it safe to collapse concurrent executions onto one:

1. **Completeness over the normalized rewrites** — plans that differ
   only in join/union operand order, conjunct/disjunct order, equality
   operand order, or ``>``/``>=`` spelling (versus the flipped
   ``<``/``<=``) must hash *equal*, or sharing silently never happens.
2. **Soundness (no collisions)** — randomly generated *distinct* plans
   must never hash equal, or one client receives another query's rows.

Both are checked over randomized plan trees seeded through
``REPRO_TEST_SEED`` (failures replay with the printed seed).  The suite
also pins the binding-signature variant used by probed subplans.
"""

from __future__ import annotations

import random

from repro.relational import algebra as A
from repro.relational import conditions as C
from repro.relational.planner import (
    canonical_condition,
    canonical_plan,
    plan_fingerprint,
)

from tests.conftest import derive_seeds

SEEDS = derive_seeds("plan-fingerprint", 80)

RELATION_POOL = ["cars", "dealers", "bluebook", "safety", "loans", "reviews"]
ATTR_POOL = ["make", "model", "year", "price", "city", "rating"]
VALUE_POOL = ["saab", "jaguar", "honda", 1995, 2000, 9.5, "chicago"]
OPS = ["=", "!=", "<", "<=", ">", ">="]


def _random_comparison(rng: random.Random) -> C.Comparison:
    attr = C.Attr(rng.choice(ATTR_POOL))
    const = C.Const(rng.choice(VALUE_POOL))
    op = rng.choice(OPS)
    if rng.random() < 0.5:
        return C.Comparison(attr, op, const)
    return C.Comparison(const, op, attr)


def _random_condition(rng: random.Random, depth: int = 0) -> C.Condition:
    roll = rng.random()
    if depth >= 2 or roll < 0.5:
        return _random_comparison(rng)
    parts = tuple(
        _random_condition(rng, depth + 1) for _ in range(rng.randint(2, 3))
    )
    if roll < 0.75:
        return C.And(parts)
    if roll < 0.9:
        return C.Or(parts)
    return C.Not(_random_condition(rng, depth + 1))


def _random_plan(rng: random.Random) -> A.Expr:
    names = rng.sample(RELATION_POOL, rng.randint(1, 4))
    expr: A.Expr = A.Base(names[0])
    for name in names[1:]:
        expr = A.Join(expr, A.Base(name))
    if rng.random() < 0.8:
        expr = A.Select(expr, _random_condition(rng))
    if rng.random() < 0.6:
        attrs = tuple(rng.sample(ATTR_POOL, rng.randint(1, 3)))
        expr = A.Project(expr, attrs)
    return expr


# -- equivalence-preserving rewrites ------------------------------------------


def _flip_comparison(cmp: C.Comparison, rng: random.Random) -> C.Comparison:
    """The same predicate, spelled the other way around."""
    flipped = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
    if rng.random() < 0.5:
        return C.Comparison(cmp.right, flipped[cmp.op], cmp.left)
    return cmp


def _shuffle_condition(cond: C.Condition, rng: random.Random) -> C.Condition:
    if isinstance(cond, C.Comparison):
        return _flip_comparison(cond, rng)
    if isinstance(cond, (C.And, C.Or)):
        parts = [_shuffle_condition(p, rng) for p in cond.parts]
        rng.shuffle(parts)
        return type(cond)(tuple(parts))
    if isinstance(cond, C.Not):
        return C.Not(_shuffle_condition(cond.part, rng))
    return cond


def _shuffle_plan(expr: A.Expr, rng: random.Random) -> A.Expr:
    """An equivalent plan: joins commuted, predicates reordered."""
    if isinstance(expr, A.Join):
        left = _shuffle_plan(expr.left, rng)
        right = _shuffle_plan(expr.right, rng)
        if rng.random() < 0.5:
            left, right = right, left
        return A.Join(left, right)
    if isinstance(expr, A.Union):
        left = _shuffle_plan(expr.left, rng)
        right = _shuffle_plan(expr.right, rng)
        if rng.random() < 0.5:
            left, right = right, left
        return A.Union(left, right, relaxed=expr.relaxed)
    if isinstance(expr, A.Select):
        return A.Select(
            _shuffle_plan(expr.child, rng), _shuffle_condition(expr.condition, rng)
        )
    if isinstance(expr, A.Project):
        # Attribute ORDER is identity-bearing: never shuffled.
        return A.Project(_shuffle_plan(expr.child, rng), expr.attrs)
    return expr


# -- properties ----------------------------------------------------------------


def test_equivalent_plans_share_a_fingerprint():
    """Rewrites that cannot change the answer never change the hash."""
    for seed in SEEDS:
        rng = random.Random(seed)
        plan = _random_plan(rng)
        reference = plan_fingerprint(plan)
        for _ in range(4):
            variant = _shuffle_plan(plan, rng)
            assert plan_fingerprint(variant) == reference, (
                "seed %d: equivalent rewrite changed the fingerprint\n"
                "  plan:    %r\n  variant: %r" % (seed, plan, variant)
            )


def test_distinct_plans_do_not_collide():
    """Across the whole randomized corpus, different canonical forms
    never share a hash (a collision would hand one client another
    query's rows)."""
    by_fingerprint: dict[str, tuple] = {}
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(6):
            plan = _random_plan(rng)
            form = canonical_plan(plan)
            fp = plan_fingerprint(plan)
            previous = by_fingerprint.setdefault(fp, form)
            assert previous == form, (
                "fingerprint collision between %r and %r" % (previous, form)
            )
    assert len(by_fingerprint) > len(SEEDS)  # the corpus actually varied


def test_comparison_normalization_is_exact():
    a, c = C.Attr("price"), C.Const(5000)
    assert canonical_condition(
        C.Comparison(a, ">", c)
    ) == canonical_condition(C.Comparison(c, "<", a))
    assert canonical_condition(
        C.Comparison(a, ">=", c)
    ) == canonical_condition(C.Comparison(c, "<=", a))
    assert canonical_condition(
        C.Comparison(a, "=", c)
    ) == canonical_condition(C.Comparison(c, "=", a))
    # Strict vs inclusive never merge.
    assert canonical_condition(
        C.Comparison(a, "<", c)
    ) != canonical_condition(C.Comparison(a, "<=", c))


def test_nested_conjunct_flattening():
    parts = [C.Comparison(C.Attr("a"), "=", C.Const(i)) for i in range(4)]
    nested = C.And((parts[0], C.And((parts[1], C.And((parts[2], parts[3]))))))
    flat = C.And(tuple(reversed(parts)))
    assert canonical_condition(nested) == canonical_condition(flat)


def test_projection_order_is_identity_bearing():
    base = A.Base("cars")
    assert plan_fingerprint(
        A.Project(base, ("make", "model"))
    ) != plan_fingerprint(A.Project(base, ("model", "make")))


def test_union_relaxedness_is_identity_bearing():
    left, right = A.Base("cars"), A.Base("dealers")
    strict = A.Union(left, right)
    relaxed = A.Union(left, right, relaxed=True)
    assert plan_fingerprint(strict) != plan_fingerprint(relaxed)
    assert plan_fingerprint(strict) == plan_fingerprint(A.Union(right, left))


def test_binding_signature_distinguishes_probes():
    plan = A.Base("cars")
    assert plan_fingerprint(plan, given={"make": "saab"}) != plan_fingerprint(
        plan, given={"make": "jaguar"}
    )
    assert plan_fingerprint(plan, given={"make": "saab"}) != plan_fingerprint(plan)
    # dict insertion order is not identity: the signature is sorted.
    assert plan_fingerprint(
        plan, given={"make": "saab", "year": 1995}
    ) == plan_fingerprint(plan, given={"year": 1995, "make": "saab"})
