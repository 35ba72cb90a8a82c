"""Golden EXPLAIN snapshot for the flagship Jaguar query.

Pins the full rendered EXPLAIN — chosen join orders, search strategy,
per-node modes, estimated fetch counts and the measured actuals — for the
paper's flagship query.  Everything in the render is deterministic under a
single worker lane (estimates are pure arithmetic over the static
statistics; actuals are fixed by the simulated world's seed), so any cost
model retuning, plan change, or fetch-count drift shows up as a readable
text diff.  To accept an intentional change::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_explain.py
"""

from __future__ import annotations

import difflib
import os
import pathlib

from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.vps.cache import CachePolicy

GOLDEN = pathlib.Path(__file__).parent / "golden" / "jaguar_explain.txt"

# Same flagship query tests/test_golden_trace.py pins the trace skeleton for.
JAGUAR_QUERY = (
    "SELECT make, model, year, price, bb_price, safety, contact "
    "WHERE make = 'jaguar' AND year >= 1993 AND condition = 'good' "
    "AND safety IN ('good', 'excellent') AND price < bb_price"
)


def _current_render() -> str:
    webbase = WebBase.create(WebBaseConfig(max_workers=1))
    return webbase.explain(JAGUAR_QUERY).render().rstrip("\n") + "\n"


def test_jaguar_explain_matches_golden():
    actual = _current_render()
    if os.environ.get("UPDATE_GOLDEN"):
        GOLDEN.write_text(actual)
    expected = GOLDEN.read_text()
    if actual != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile="tests/golden/jaguar_explain.txt",
                tofile="current explain render",
            )
        )
        raise AssertionError(
            "Jaguar EXPLAIN drifted from the golden snapshot.\n"
            "If intentional, regenerate with UPDATE_GOLDEN=1.\n\n" + diff
        )


def test_explain_render_is_deterministic():
    assert _current_render() == _current_render()


def test_a_repeat_on_a_caching_webbase_is_tagged_memo_hit():
    """Run twice on one webbase whose result cache stores: the repeat's
    objects come from the answer memo, which EXPLAIN tags and which
    accesses no view."""
    webbase = WebBase.create(WebBaseConfig(max_workers=1, cache=CachePolicy.lru()))
    first = webbase.explain(JAGUAR_QUERY)
    second = webbase.explain(JAGUAR_QUERY)
    assert "memo" not in first.render()
    assert second.rows == first.rows
    assert [obj.memo for obj in second.objects] == ["hit"] * len(first.objects)
    lines = [line for line in second.render().splitlines() if line.startswith("object ")]
    assert lines and all("[dp, memo hit, " in line for line in lines)
    assert second.actual_fetches == 0
