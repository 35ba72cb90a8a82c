"""Section 7 — map-builder automation statistics.

The paper: "for the Newsday site ... all objects that describe the
navigation map (85 objects with over 600 attributes in total) were
automatically extracted.  Less than 5% of the information in the map was
added manually, which consisted of 10 to 12 facts ... For other sites such
as New York Times and Daily News, the ratio was similar."

We regenerate the per-site accounting (objects, attribute facts, manual
designer facts, manual ratio).  Our simulated sites are leaner than the
1999 originals, so absolute object counts are smaller; the *shape* —
manual share in the low single-digit percent — is the reproduced result.
"""

from __future__ import annotations

from repro.domains.cars.sessions import build_all_builders


def test_sec7_automation_statistics(benchmark, world):
    builders = benchmark(build_all_builders, world)

    print("\nSection 7 — mapping-by-example automation statistics")
    print("  %-22s %8s %8s %8s %8s" % ("site", "objects", "attrs", "manual", "ratio"))
    total_objects = total_attrs = total_manual = 0
    for host, builder in sorted(builders.items()):
        report = builder.automation_report()
        total_objects += report.objects
        total_attrs += report.attributes
        total_manual += report.manual_facts
        print(
            "  %-22s %8d %8d %8d %7.1f%%"
            % (
                host,
                report.objects,
                report.attributes,
                report.manual_facts,
                report.manual_ratio * 100,
            )
        )
    overall = total_manual / (total_attrs + total_manual)
    print(
        "  %-22s %8d %8d %8d %7.1f%%"
        % ("TOTAL", total_objects, total_attrs, total_manual, overall * 100)
    )

    # The paper's headline shape: the map is overwhelmingly auto-extracted.
    assert overall < 0.10
    newsday = builders["www.newsday.com"].automation_report()
    assert newsday.manual_ratio < 0.10
    assert newsday.objects >= 15 and newsday.attributes >= 60
    # Across the full webbase the scale is comparable to the paper's site.
    assert total_objects >= 85
    assert total_attrs >= 600
