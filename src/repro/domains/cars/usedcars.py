"""The UsedCarUR: the structured universal relation of the car webbase,
plus the abstract Example 6.2 configuration.

The compatibility rules below encode Example 6.1's common-sense facts for
our schema: every Table-2 relation makes sense on its own, but a single
answer tuple cannot mix a dealer listing with a classified ad (a used car
is advertised at one kind of source).
"""

from __future__ import annotations

from repro.ur.compat import CompatibilityRule, allows, excludes, mutually_exclusive
from repro.ur.concepts import Concept

UR_RELATIONS = ["classifieds", "dealers", "blue_price", "reliability", "interest"]


def used_car_hierarchy() -> Concept:
    """The concept hierarchy of our UsedCarUR (the Figure 5 instance,
    extended with the attributes our logical schema actually carries)."""
    root = Concept("UsedCarUR")
    root.add(
        Concept("Car").add("make", "model", "year"),
        Concept("Advert").add("price", "contact", "features", "zip"),
        Concept("Value").add("bb_price", "condition"),
        Concept("Safety").add("safety"),
        Concept("Financing").add("duration", "rate"),
    )
    root.validate()
    return root


def used_car_rules() -> list[CompatibilityRule]:
    rules = allows(*UR_RELATIONS)
    rules += mutually_exclusive("classifieds", "dealers")
    return rules


# -- Example 6.2: the abstract insurance/financing universe ---------------------------

EXAMPLE_62_RELATIONS = [
    "dealers",
    "classifieds",
    "lease",
    "loan",
    "full_coverage",
    "liability",
    "retail_value",
    "trade_in_value",
]


def example_62_rules() -> list[CompatibilityRule]:
    """The compatibility constraints of Example 6.2.

    * a car source is dealers or classifieds, not both;
    * financing is a lease or a loan, not both;
    * insurance is full coverage or liability, not both;
    * "We cannot lease a car from its owner" — lease excludes classifieds;
    * "Leased cars have to be fully insured" — lease excludes liability;
    * "Trade-in values are not applicable" to used-car shopping.
    """
    rules = allows(
        "dealers",
        "classifieds",
        "lease",
        "loan",
        "full_coverage",
        "liability",
        "retail_value",
    )
    rules += mutually_exclusive("dealers", "classifieds")
    rules += mutually_exclusive("lease", "loan")
    rules += mutually_exclusive("full_coverage", "liability")
    rules.append(excludes({"lease"}, "classifieds"))
    rules.append(excludes({"lease"}, "liability"))
    rules.append(excludes(set(), "trade_in_value"))
    return rules


EXAMPLE_62_EXPECTED = [
    frozenset({"dealers", "lease", "full_coverage", "retail_value"}),
    frozenset({"dealers", "loan", "full_coverage", "retail_value"}),
    frozenset({"dealers", "loan", "liability", "retail_value"}),
    frozenset({"classifieds", "loan", "liability", "retail_value"}),
    frozenset({"classifieds", "loan", "full_coverage", "retail_value"}),
]


def example_62_hierarchy() -> Concept:
    root = Concept("UsedCarUR62")
    root.add(
        Concept("Source").add("dealers", "classifieds"),
        Concept("Financing").add("lease", "loan"),
        Concept("Insurance").add("full_coverage", "liability"),
        Concept("Value").add("retail_value", "trade_in_value"),
    )
    return root
