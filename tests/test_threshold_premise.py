"""A threshold on an output attribute is a filter on the base answer.

The answer memo serves ``base AND attr op N`` by filtering the base
query's remembered answer, and ``bench.workloads.Reference`` checks drawn
thresholds the same way.  Both rest on one identity of the paper's
semantics, checked here with no cache and no memo at all: on a cache-off
webbase, the rows of ``base AND attr op N`` are the base query's rows
kept by Python's own ``op`` against ``N``, a ``None`` never kept.

Every ``bench/workloads.py`` family × make, each with a comparison on its
threshold attributes (``rate``, which draws none, on its ``rate``), and a
hardware and a jobs query; every operator a residual may use, at several
``N`` drawn under ``REPRO_TEST_SEED`` — half of them values the column
holds, so the boundary of each operator is met.
"""

from __future__ import annotations

import operator
import random

import pytest

from bench.workloads import FAMILIES, MODELS, POPULARITY
from repro import WebBase, WebBaseConfig
from repro.domains import HARDWARE, JOBS
from tests.conftest import derive_seeds

OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "!=": operator.ne,
}
#: Thresholds drawn per (base query, attribute).
DRAWS = 3


def _check(webbase: WebBase, base: str, attrs: tuple[str, ...], rng: random.Random) -> int:
    """Check every drawn ``base AND attr op N``; returns how many
    comparisons kept some but not all of the base rows."""
    relation = webbase.query(base)
    schema, rows = list(relation.schema), relation.rows
    split = 0
    for attr in attrs:
        column = schema.index(attr)
        present = sorted({row[column] for row in rows if row[column] is not None})
        for _ in range(DRAWS):
            op = rng.choice(sorted(OPS))
            if present and rng.random() < 0.5:
                bound = rng.choice(present)
            else:
                low, high = (present[0], present[-1]) if present else (0, 100)
                bound = rng.randint(int(low) - 1, int(high) + 1)
            text = "%s AND %s %s %r" % (base, attr, op, bound)
            expected = [
                row
                for row in rows
                if row[column] is not None and OPS[op](row[column], bound)
            ]
            assert list(webbase.query(text).rows) == expected, text
            split += 0 < len(expected) < len(rows)
    return split


def test_every_bench_family_and_make(world):
    (seed,) = derive_seeds("threshold-premise:cars", 1)
    rng = random.Random(seed)
    webbase = WebBase(world, WebBaseConfig())
    split = 0
    for name, family in sorted(FAMILIES.items()):
        for make in POPULARITY:
            base = family.template.format(make=make, model=rng.choice(MODELS[make]))
            split += _check(webbase, base, family.bounds or ("rate",), rng)
    assert split, "no drawn threshold kept some rows and dropped others"


@pytest.mark.parametrize(
    "domain, size, base, attrs",
    [
        (
            HARDWARE,
            (1998, 50),
            "SELECT brand, model, price, rating WHERE category = 'laptop'",
            ("price", "rating"),
        ),
        (
            JOBS,
            (2026, 60),
            "SELECT title, city, company, salary WHERE title = 'dba'",
            ("salary",),
        ),
    ],
    ids=["hardware", "jobs"],
)
def test_other_domains(domain, size, base, attrs):
    (seed,) = derive_seeds("threshold-premise:%s" % base, 1)
    webbase = WebBase(domain.build_world(*size), WebBaseConfig(), domain)
    assert _check(webbase, base, attrs, random.Random(seed)), "no threshold split the rows"
