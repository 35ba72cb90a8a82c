"""A second application domain on the same framework: job hunting.

Run:  python examples/jobs_domain.py

The paper expects webbases to be built per application domain ("cars,
jobs, houses") by domain experts.  This example is the jobs webbase: two
job boards with different vocabularies plus a salary survey, mapped by
example and queried through a JobsUR — with the flagship cross-site
question no single 1999 job board could answer: *which New York postings
pay above the market median?*  The domain is one value, ``JOBS``, handed
to the same ``WebBase`` the car examples use — EXPLAIN included.
"""

from repro import WebBase, WebBaseConfig
from repro.domains import JOBS


def main() -> None:
    print("Assembling the jobs webbase (3 sites, mapped by example)...")
    jobs = WebBase.create(WebBaseConfig(seed=2026, ads_per_host=60), domain=JOBS)

    print("\nVPS relations (site vocabularies intact):")
    for name in jobs.vps.relation_names:
        relation = jobs.vps.relation(name)
        print(
            "  %-12s(%s)  mandatory=%s"
            % (
                name,
                ", ".join(relation.schema),
                [sorted(h.mandatory) for h in relation.handles],
            )
        )

    print("\nLogical relations (vocabularies unified):")
    for name in jobs.logical.relation_names:
        print("  %-10s(%s)" % (name, ", ".join(jobs.logical.relation(name).schema)))

    query = (
        "SELECT title, city, company, salary, median_salary "
        "WHERE title = 'software engineer' AND city = 'new york' "
        "AND salary > median_salary"
    )
    print("\nThe job hunter's question:\n  %s" % query)
    print("\n%s" % jobs.plan(query).describe())
    result = jobs.query(query)
    print(result.pretty())
    print("\n%d above-median offers, drawn from both boards." % len(result))
    print("\nEXPLAIN (the planner's estimates against the measured run):")
    print(jobs.explain(query).render())


if __name__ == "__main__":
    main()
