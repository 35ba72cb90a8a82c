"""The computer-equipment webbase (the paper's other named domain).

Run:  python examples/hardware_domain.py

Two mail-order vendors with different vocabularies ("category/brand" vs
"type/maker") and a hardware-review site, mapped by example and queried
through a HardwareUR: *laptops under $2,500 with a rating of 4 or
better*, prices and ratings joined across sites.  The domain is one
value, ``HARDWARE``; the webbase is the same ``WebBase`` the car examples
use, so the result cache (or a store, or MQO) is one config field away.
"""

from repro import CachePolicy, WebBase, WebBaseConfig
from repro.domains import HARDWARE


def main() -> None:
    print("Assembling the computer-equipment webbase...")
    hardware = WebBase.create(
        WebBaseConfig(seed=1998, ads_per_host=50, cache=CachePolicy.lru()),
        domain=HARDWARE,
    )

    print("\nVPS relations:")
    for name in hardware.vps.relation_names:
        relation = hardware.vps.relation(name)
        print("  %-10s(%s)" % (name, ", ".join(relation.schema)))

    query = (
        "SELECT brand, model, price, rating "
        "WHERE category = 'laptop' AND price < 2500 AND rating >= 4"
    )
    print("\nThe shopper's question:\n  %s\n" % query)
    print(hardware.plan(query).describe())
    result = hardware.query(query)
    print(result.pretty())
    print("\n%d well-reviewed bargain laptops across both vendors." % len(result))
    again = hardware.execution_context()
    hardware.query(query, context=again)
    print("asked again: %d live fetches, served by the result cache." % again.fetches)


if __name__ == "__main__":
    main()
