"""Ablation A4 — binding-batched navigation with prefix reuse.

The paper's navigation expressions re-drive the whole entry→form→submit
path for every binding, so a comparison session that runs the 3-way
jaguar join (classifieds ⋈ blue_price ⋈ reliability) across several
makes re-fetches each site's entry and intermediate form pages once per
make.  Batched navigation — the query-scoped prefix page cache and
batched dependent-join probes — walks each prefix once per session.  The reference arm is the context-free walk
(``webbase.ur.answer(text)`` with no execution context: the paper's
per-binding evaluation on a bare navigation executor, sharing no engine
code).  Acceptance: ≥ 2× fewer pages navigated (server-side live
requests *and* demand-path live navigations) than the reference on the
same seeded world, with byte-identical rows.  Results land in ``BENCH_prefix_reuse.json`` (see ``emit.py``);
CI's perf-smoke re-runs this on the small world and fails if pages
regress more than 10% above the committed baseline.
"""

from __future__ import annotations

import emit

from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase

#: The small world: enough ads that every make has listings, small enough
#: for CI's perf-smoke.
ADS_PER_HOST = 24
MAX_WORKERS = 4
SEED = 1999

#: One comparison session: the golden 3-way jaguar join, asked for each
#: make the buyer is considering (jaguar first — the paper's running
#: example), sharing one execution context the way the service layer
#: shares one per client session.
MAKES = ("jaguar", "bmw", "audi", "saab", "volvo", "lexus", "acura", "infiniti")
QUERY_TEMPLATE = (
    "SELECT make, model, year, price, bb_price, safety, contact "
    "WHERE make = '%s' AND year >= 1993 AND condition = 'good' "
    "AND safety IN ('good', 'excellent') AND price < bb_price"
)

TARGET_RATIO = 2.0
#: CI fails when batched pages exceed the committed baseline by more than this.
REGRESSION_HEADROOM = 1.10


def _build() -> WebBase:
    return WebBase.create(
        WebBaseConfig(seed=SEED, ads_per_host=ADS_PER_HOST, max_workers=MAX_WORKERS)
    )


def _live_requests(webbase: WebBase) -> int:
    """Server-side live requests so far: authoritative pages navigated."""
    return sum(s.requests for s in webbase.world.server.stats.values())


def _run_context_free() -> dict:
    webbase = _build()
    before = _live_requests(webbase)
    rows: list[tuple] = []
    for make in MAKES:
        rows.extend(webbase.ur.answer(QUERY_TEMPLATE % make).rows)
    return {
        "rows": sorted(map(tuple, rows)),
        "pages": _live_requests(webbase) - before,
    }


def _run_batched() -> dict:
    webbase = _build()
    before = _live_requests(webbase)
    context = webbase.execution_context(label="comparison-session")
    rows: list[tuple] = []
    for make in MAKES:
        rows.extend(webbase.query(QUERY_TEMPLATE % make, context=context).rows)
    pages = _live_requests(webbase) - before
    # Live navigations as the trace's fetch spans count them — asserting
    # on both catches pages fetched outside any fetch span.
    demand_pages = sum(
        s.pages for s in context.root.spans("fetch") if s.cache == "miss"
    )
    counters = webbase.metrics.snapshot()["counters"]
    return {
        "rows": sorted(map(tuple, rows)),
        "pages": pages,
        "demand_pages": demand_pages,
        "fetches": int(counters.get("engine.fetches", 0)),
        "prefix_hits": int(counters.get("nav.prefix_hits", 0)),
        "prefix_misses": int(counters.get("nav.prefix_misses", 0)),
        "elapsed_seconds": round(context.elapsed_seconds, 3),
    }


def test_prefix_reuse_ablation(benchmark):
    batched = _run_batched()
    plain = _run_context_free()

    print("\nAblation — batched navigation with prefix reuse")
    print("  session: 3-way jaguar join across %d makes" % len(MAKES))
    print("  context-free: %3d pages navigated" % plain["pages"])
    print(
        "  batched:      %3d pages navigated (%d demand), %d live fetches, "
        "prefix %d hit(s) / %d miss(es)"
        % (
            batched["pages"],
            batched["demand_pages"],
            batched["fetches"],
            batched["prefix_hits"],
            batched["prefix_misses"],
        )
    )
    ratio = plain["pages"] / batched["pages"]
    demand_ratio = plain["pages"] / max(1, batched["demand_pages"])
    print(
        "  ratio: %.2fx fewer pages (%.2fx demand-path), %d row(s) either way"
        % (ratio, demand_ratio, len(batched["rows"]))
    )

    # Correctness first: byte-identical answers.
    assert batched["rows"] == plain["rows"]
    assert len(batched["rows"]) > 0

    # The perf claim: a multiplicative drop in pages navigated.
    assert ratio >= TARGET_RATIO
    assert demand_ratio >= TARGET_RATIO
    assert batched["prefix_hits"] > 0

    # Perf-smoke gate: no silent regression against the committed numbers.
    baseline = emit.load_baseline("prefix_reuse")
    if baseline is not None:
        budget = baseline["batch"]["pages"] * REGRESSION_HEADROOM
        assert batched["pages"] <= budget, (
            "pages navigated regressed: %d > %.1f (baseline %d + %d%% headroom)"
            % (
                batched["pages"],
                budget,
                baseline["batch"]["pages"],
                round((REGRESSION_HEADROOM - 1) * 100),
            )
        )

    emit.emit(
        "prefix_reuse",
        {
            "benchmark": "prefix_reuse",
            "config": {
                "seed": SEED,
                "ads_per_host": ADS_PER_HOST,
                "max_workers": MAX_WORKERS,
                "makes": list(MAKES),
            },
            "batch": {k: v for k, v in batched.items() if k != "rows"},
            "context_free": {"pages": plain["pages"]},
            "pages_ratio": round(ratio, 2),
            "demand_pages_ratio": round(demand_ratio, 2),
            "rows": len(batched["rows"]),
        },
    )

    # Steady state under the timer: the batched session.
    timed = benchmark(_run_batched)
    assert timed["rows"] == batched["rows"]
