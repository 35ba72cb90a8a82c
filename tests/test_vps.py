"""Unit and property tests for the virtual physical schema layer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.vps.cache import CachePolicy, ResultCache
from repro.vps.handle import Handle, HandleError, check_handle_family


class TestHandle:
    def test_mandatory_must_be_subset_of_selection(self):
        with pytest.raises(ValueError):
            Handle("r", frozenset({"a"}), frozenset(), "r")

    def test_accepts(self):
        handle = Handle("r", frozenset({"make"}), frozenset({"make", "model"}), "r")
        assert handle.accepts(frozenset({"make", "zip"}))
        assert not handle.accepts(frozenset({"model"}))

    def test_family_requires_distinct_mandatory_sets(self):
        h1 = Handle("r", frozenset({"a"}), frozenset({"a"}), "r")
        h2 = Handle("r", frozenset({"a"}), frozenset({"a", "b"}), "r")
        with pytest.raises(ValueError):
            check_handle_family([h1, h2])

    def test_family_requires_single_relation(self):
        h1 = Handle("r", frozenset({"a"}), frozenset({"a"}), "r")
        h2 = Handle("s", frozenset({"b"}), frozenset({"b"}), "s")
        with pytest.raises(ValueError):
            check_handle_family([h1, h2])

    def test_family_rejects_empty(self):
        with pytest.raises(ValueError):
            check_handle_family([])

    def test_valid_family(self):
        h1 = Handle("r", frozenset({"a"}), frozenset({"a", "c"}), "r")
        h2 = Handle("r", frozenset({"b"}), frozenset({"b", "c"}), "r")
        check_handle_family([h1, h2])  # does not raise


class TestVirtualRelation:
    def test_handle_for_prefers_largest_usable_selection(self, webbase):
        relation = webbase.vps.relation("newsday")
        handle = relation.handle_for(frozenset({"make", "model"}))
        assert "model" in handle.selection

    def test_handle_for_unsatisfied_raises(self, webbase):
        relation = webbase.vps.relation("kellys")
        with pytest.raises(HandleError):
            relation.handle_for(frozenset({"make"}))

    def test_fetch_enforces_mandatory(self, webbase):
        with pytest.raises(HandleError):
            webbase.vps.fetch("kellys", {"make": "ford"})

    def test_fetch_returns_relation_with_declared_schema(self, webbase):
        result = webbase.vps.fetch("newsday", {"make": "saab"})
        assert result.schema == webbase.vps.base_schema("newsday")
        assert len(result) > 0

    def test_fetch_ignores_foreign_attributes(self, webbase):
        # 'safety' belongs to another relation; it must not break the fetch.
        result = webbase.vps.fetch("newsday", {"make": "saab", "safety": "good"})
        assert len(result) > 0

    def test_fetch_applies_schema_attr_filters(self, webbase, world):
        result = webbase.vps.fetch("newsday", {"make": "ford", "year": "1995"})
        expected = [
            ad
            for ad in world.dataset.ads_for("www.newsday.com", make="ford")
            if ad.car.year == 1995
        ]
        assert len(result) == len(expected)

    def test_binding_sets_come_from_handles(self, webbase):
        assert webbase.vps.base_binding_sets("kellys") == frozenset(
            {frozenset({"make", "model", "condition"})}
        )

    def test_unknown_relation(self, webbase):
        with pytest.raises(KeyError):
            webbase.vps.relation("nosuch")


class TestHandleAgreement:
    """The paper's consistency requirement: if S satisfies two handles of a
    relation, both return the same result."""

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(["ford", "jaguar", "saab", "honda"]))
    def test_site_and_schema_filters_agree(self, make):
        # Equivalent accesses: pass model to the form (selection attr) vs
        # filter the extracted rows (schema attr) — same tuples.
        webbase = _shared_webbase()
        via_form = webbase.vps.fetch("newsday", {"make": make, "model": "escort"})
        broad = webbase.vps.fetch("newsday", {"make": make})
        model = broad.schema.index_of("model")
        filtered = broad.select_rows(lambda row: row[model] == "escort")
        assert via_form == filtered


_WEBBASE = None


def _shared_webbase():
    global _WEBBASE
    if _WEBBASE is None:
        from repro.core.webbase import WebBase

        _WEBBASE = WebBase.create()
    return _WEBBASE


class TestCache:
    def _caching(self):
        webbase = _shared_webbase()
        return ResultCache(webbase.vps, CachePolicy.lru())

    def test_second_fetch_hits_cache(self):
        cache = self._caching()
        first = cache.fetch("newsday", {"make": "saab"})
        second = cache.fetch("newsday", {"make": "saab"})
        assert first == second
        assert cache.hits == 1 and cache.misses == 1

    def test_different_bindings_miss(self):
        cache = self._caching()
        cache.fetch("newsday", {"make": "saab"})
        cache.fetch("newsday", {"make": "honda"})
        assert cache.misses == 2

    def test_none_values_do_not_affect_key(self):
        cache = self._caching()
        cache.fetch("newsday", {"make": "saab", "model": None})
        cache.fetch("newsday", {"make": "saab"})
        assert cache.hits == 1

    def test_invalidate_all(self):
        cache = self._caching()
        cache.fetch("newsday", {"make": "saab"})
        assert cache.invalidate() == 1
        cache.fetch("newsday", {"make": "saab"})
        assert cache.misses == 2

    def test_invalidate_one_relation(self):
        cache = self._caching()
        cache.fetch("newsday", {"make": "saab"})
        cache.fetch("nytimes", {"manufacturer": "saab"})
        assert cache.invalidate("newsday") == 1
        assert cache.stats["entries"] == 1

    def test_lru_eviction(self):
        webbase = _shared_webbase()
        cache = ResultCache(webbase.vps, CachePolicy.lru(2))
        cache.fetch("newsday", {"make": "saab"})
        cache.fetch("newsday", {"make": "honda"})
        cache.fetch("newsday", {"make": "bmw"})
        assert cache.stats["entries"] == 2
        cache.fetch("newsday", {"make": "saab"})  # evicted -> miss again
        assert cache.misses == 4

    def test_catalog_protocol_delegation(self):
        cache = self._caching()
        assert cache.base_schema("newsday") == cache.inner.base_schema("newsday")
        assert cache.base_binding_sets("kellys") == cache.inner.base_binding_sets("kellys")
