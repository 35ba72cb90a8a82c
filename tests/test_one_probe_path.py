"""The dependent join has one probe path per mode: with an execution
context the probe set goes down together (``evaluate_batch`` →
``fetch_batch``), without one it is the paper's per-binding loop.

Three things are pinned here: the engine's answers equal the
context-free walk's on every bench family (a reference that shares no
engine code — no ``ExecutionContext``, no page cache, no batching); the
join reaches base relations through ``fetch_batch`` whenever there is a
context and more than one binding; and the settings that used to select
other paths are gone for good.
"""

from __future__ import annotations

import pytest

from bench.workloads import FAMILIES, MODELS
from repro.core.execution import WebBaseConfig
from repro.core.resilience import ResiliencePolicy
from repro.core.webbase import WebBase
from repro.relational.algebra import Base, Join, evaluate
from repro.service.server import ServiceConfig
from repro.sites.world import build_world
from repro.vps.cache import CachePolicy
from tests.test_algebra import RecordingCatalog


class TestEngineEqualsContextFreeWalk:
    @pytest.fixture(scope="class")
    def engine(self) -> WebBase:
        return WebBase(build_world())

    @pytest.fixture(scope="class")
    def reference(self) -> WebBase:
        return WebBase(build_world())

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_rows_match_for_every_make(self, family, engine, reference):
        for make, models in MODELS.items():
            text = FAMILIES[family].template.format(make=make, model=models[0])
            assert engine.query(text).rows == reference.ur.answer(text).rows, text


class BatchRecordingCatalog(RecordingCatalog):
    """``test_algebra``'s fixed catalog (``bb`` needs make and model bound,
    so joining it to ``ads`` is a dependent join fed from ``ads``), with
    the engine-side catalog shape: a ``context`` keyword and
    ``fetch_batch``."""

    def __init__(self) -> None:
        super().__init__()
        self.batches: list[tuple[str, list[dict]]] = []

    def fetch(self, name, given, context=None):
        return super().fetch(name, given)

    def fetch_batch(self, name, givens, context=None):
        self.batches.append((name, [dict(given) for given in givens]))
        return [self.fetch(name, given) for given in givens]


class InlineContext:
    """The smallest thing with an execution context's fan-out shape."""

    def map(self, fn, items):
        return [fn(item) for item in items]


class TestJoinReachesBasesThroughFetchBatch:
    EXPR = Join(Base("ads"), Base("bb"))

    def test_with_a_context_the_probe_set_is_one_fetch_batch(self):
        catalog = BatchRecordingCatalog()
        answer = evaluate(self.EXPR, catalog, {"make": "ford"}, InlineContext())
        assert sorted(row[1] for row in answer.rows) == ["escort", "escort"]
        assert [(name, len(givens)) for name, givens in catalog.batches] == [("bb", 3)]
        fed = sorted((g["model"], g["year"]) for g in catalog.batches[0][1])
        assert fed == [("escort", 1994), ("escort", 1995), ("taurus", 1996)]

    def test_without_a_context_each_binding_is_fetched_on_its_own(self):
        given = {"make": "ford"}
        batched = evaluate(self.EXPR, BatchRecordingCatalog(), given, InlineContext())
        catalog = BatchRecordingCatalog()
        assert evaluate(self.EXPR, catalog, given) == batched
        assert catalog.batches == []
        assert [name for name, _ in catalog.fetches] == ["ads", "bb", "bb", "bb"]

    def test_an_empty_outer_issues_no_probe_either_way(self):
        for context in (None, InlineContext()):
            catalog = BatchRecordingCatalog()
            assert len(evaluate(self.EXPR, catalog, {"make": "saab"}, context)) == 0
            assert catalog.batches == []
            assert [name for name, _ in catalog.fetches] == ["ads"]

    def test_a_traced_query_shows_one_view_span_per_probe_batch(self):
        webbase = WebBase(build_world())
        ctx = webbase.execution_context(label="bb")
        text = FAMILIES["bb"].template.format(make="jaguar", model="xj6")
        webbase.query(text, context=ctx)
        batched = [s for s in ctx.root.spans("view") if s.attrs.get("batch", 1) > 1]
        assert batched, "the bb join probes the blue book with K > 1 bindings"
        sizes = webbase.metrics.snapshot()["histograms"]["nav.batch_size"]
        assert sizes["max"] == max(span.attrs["batch"] for span in batched)


class TestRemovedSettingsStayRemoved:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: WebBaseConfig(batch=False),
            lambda: WebBaseConfig(store_warm=False),
            lambda: ResiliencePolicy(speculate_probes=True),
            lambda: ResiliencePolicy(prune=False),
            lambda: CachePolicy.lru(relation_ttls={}),
            lambda: ResiliencePolicy(bulkhead_per_host=2),
            lambda: WebBaseConfig(timeout_seconds=1.0),
            lambda: ServiceConfig(page_size=10),
        ],
        ids=[
            "batch", "store_warm", "speculate_probes", "prune", "relation_ttls",
            "bulkhead_per_host", "timeout_seconds", "page_size",
        ],
    )
    def test_the_old_keyword_is_a_type_error(self, build):
        with pytest.raises(TypeError):
            build()
