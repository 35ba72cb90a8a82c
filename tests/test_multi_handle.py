"""Tests for multi-handle VPS relations (Section 3's alternative forms).

UsedCarMart has two access forms — by make and by zip code — so its VPS
relation carries two handles with different mandatory sets, each with its
own compiled navigation expression.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.vps.handle import HandleError
from tests.shared import _shared_webbase


class TestHandleFamily:
    def test_two_handles_with_distinct_mandatory_sets(self, webbase):
        relation = webbase.vps.relation("usedcarmart")
        assert [sorted(h.mandatory) for h in relation.handles] == [["make"], ["zip"]]

    def test_each_handle_has_its_own_expression(self, webbase):
        relation = webbase.vps.relation("usedcarmart")
        by_make, by_zip = relation.handles
        assert "Search by Make" in by_make.expression
        assert "Search by Make" not in by_zip.expression
        assert "Search by Zip Code" in by_zip.expression

    def test_binding_sets_offer_both(self, webbase):
        sets = webbase.vps.base_binding_sets("usedcarmart")
        assert sets == frozenset({frozenset({"make"}), frozenset({"zip"})})

    def test_expressions_parse_as_calculus(self, webbase):
        from repro.flogic.syntax import parse_rules

        for handle in webbase.vps.relation("usedcarmart").handles:
            program = parse_rules(handle.expression)
            assert len(program.rules) >= 3


class TestHandleSelection:
    def test_fetch_by_make(self, webbase, world):
        result = webbase.fetch_vps("usedcarmart", {"make": "ford"})
        expected = world.dataset.ads_for("www.usedcarmart.com", make="ford")
        assert len(result) == len(expected)

    def test_fetch_by_zip(self, webbase, world):
        result = webbase.fetch_vps("usedcarmart", {"zip": "10001"})
        expected = world.dataset.ads_for("www.usedcarmart.com", zipcode="10001")
        assert len(result) == len(expected)

    def test_fetch_with_neither_is_refused(self, webbase):
        with pytest.raises(HandleError):
            webbase.fetch_vps("usedcarmart", {"model": "escort"})

    def test_handle_choice_prefers_more_usable_selection(self, webbase):
        relation = webbase.vps.relation("usedcarmart")
        chosen = relation.handle_for(frozenset({"make", "model"}))
        assert chosen.mandatory == frozenset({"make"})
        chosen = relation.handle_for(frozenset({"zip", "model"}))
        assert chosen.mandatory == frozenset({"zip"})


class TestHandleAgreement:
    """The paper: handles of one relation must agree — if the supplied
    attributes satisfy several handles, each returns the same result."""

    @settings(max_examples=8, deadline=None)
    @given(
        st.sampled_from(["ford", "jaguar", "honda", "saab"]),
        st.sampled_from(["10001", "10025", "11201", "94110"]),
    )
    def test_both_handles_agree_when_both_satisfied(self, make, zipcode):
        webbase = _shared_webbase()
        relation = webbase.vps.relation("usedcarmart")
        given = {"make": make, "zip": zipcode}
        by_make = webbase.executor.fetch("usedcarmart", given, goal="usedcarmart_h0")
        by_zip = webbase.executor.fetch("usedcarmart", given, goal="usedcarmart_h1")
        key = lambda rows: sorted(tuple(sorted(r.items())) for r in rows)
        assert key(by_make) == key(by_zip)
