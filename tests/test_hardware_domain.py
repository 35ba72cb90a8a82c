"""Tests for the computer-equipment domain, run on the one ``WebBase``
(``tests/test_domains.py`` drives it through cache, store and MQO)."""

import pytest

from repro import WebBase
from repro.domains.hardware import (
    BRANDS,
    HARDWARE,
    PCDIRECT_HOST,
    REVIEWS_HOST,
    WAREHOUSE_HOST,
    HardwareDataset,
    build_hardware_world,
)


@pytest.fixture(scope="module")
def hardware():
    return WebBase(HARDWARE.build_world(1998, 50), domain=HARDWARE)


class TestDataset:
    def test_deterministic(self):
        assert HardwareDataset(seed=3).listings == HardwareDataset(seed=3).listings

    def test_guaranteed_bargain_laptops(self):
        data = HardwareDataset()
        ratings = {(r.brand, r.model): r.rating for r in data.reviews}
        for host in (WAREHOUSE_HOST, PCDIRECT_HOST):
            winners = [
                l
                for l in data.listings_for(host, category="laptop")
                if l.price < 2500 and ratings[(l.brand, l.model)] >= 4.0
            ]
            assert winners, host


class TestLayers:
    def test_vendor_vocabularies_differ_at_vps(self, hardware):
        assert "maker" in hardware.vps.relation("pcdirect").schema
        assert "brand" in hardware.vps.relation("warehouse").schema

    def test_logical_unifies_vocabularies(self, hardware):
        stock = hardware.logical.relation("stock")
        assert set(stock.schema.attrs) == {"category", "brand", "model", "price"}

    def test_stock_unions_both_vendors(self, hardware):
        result = hardware.logical.fetch("stock", {"category": "printer"})
        expected = len(
            hardware.world.dataset.listings_for(WAREHOUSE_HOST, category="printer")
        ) + len(hardware.world.dataset.listings_for(PCDIRECT_HOST, category="printer"))
        # Identical (vendor, price) duplicates collapse under set semantics.
        assert 0 < len(result) <= expected

    def test_reviews_site_mandatory_brand(self, hardware):
        handles = hardware.vps.relation("reviews").handles
        assert [sorted(h.mandatory) for h in handles] == [["brand"]]


class TestFlagshipQuery:
    QUERY = (
        "SELECT brand, model, price, rating "
        "WHERE category = 'laptop' AND price < 2500 AND rating >= 4"
    )

    def test_matches_ground_truth(self, hardware):
        data = hardware.world.dataset
        ratings = {(r.brand, r.model): r.rating for r in data.reviews}
        expected = {
            (l.brand, l.model, l.price, ratings[(l.brand, l.model)])
            for host in (WAREHOUSE_HOST, PCDIRECT_HOST)
            for l in data.listings_for(host, category="laptop")
            if l.price < 2500 and ratings[(l.brand, l.model)] >= 4.0
        }
        assert set(hardware.query(self.QUERY).rows) == expected

    def test_join_feeds_brand_to_reviews(self, hardware):
        plan = hardware.plan(self.QUERY)
        assert len(plan.feasible_objects) == 1
        relations = plan.feasible_objects[0].relations
        assert relations.index("ratings") > relations.index("stock")

    def test_world_isolation(self):
        assert len(build_hardware_world().server.hosts) == 3
