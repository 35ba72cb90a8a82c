"""Example 6.2 — structured UR in action: maximal-object generation.

Regenerates the example's five maximal objects from its compatibility
constraints (lease/loan, full/liability, dealers/classifieds, the two
lease restrictions, and the inapplicability of trade-in values), and
shows the concept hierarchy of Figure 5.
"""

from __future__ import annotations

from repro.ur.maximal import maximal_objects
from repro.domains.cars.usedcars import (
    EXAMPLE_62_EXPECTED,
    EXAMPLE_62_RELATIONS,
    example_62_hierarchy,
    example_62_rules,
    used_car_hierarchy,
)


def test_example62_maximal_objects(benchmark):
    rules = example_62_rules()

    objects = benchmark(maximal_objects, EXAMPLE_62_RELATIONS, rules)

    print("\nExample 6.2 — compatibility constraints and maximal objects")
    for rule in rules:
        print("  %r" % (rule,))
    print("maximal objects:")
    for obj in objects:
        print("  %s" % " ⋈ ".join(sorted(obj)))

    assert sorted(objects, key=sorted) == sorted(EXAMPLE_62_EXPECTED, key=sorted)
    assert len(objects) == 5


def test_figure5_concept_hierarchy():
    print("\nFigure 5 — concept hierarchy for the used cars UR")
    print(used_car_hierarchy().pretty())
    print("\n(Example 6.2 universe)")
    print(example_62_hierarchy().pretty())
    hierarchy = used_car_hierarchy()
    assert hierarchy.expand("Car") == ["make", "model", "year"]
    assert set(hierarchy.leaves()) >= {"make", "price", "bb_price", "safety", "rate"}
