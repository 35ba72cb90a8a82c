"""Warm restart: a store-backed webbase answers repeats with zero live fetches.

The end-to-end durability story: run the canonical Jaguar query against a
cold store-backed webbase, tear the process down, rebuild the webbase
from the same store — and the same query answers with byte-identical
rows, **zero** live fetches (``ctx.fetches`` and the ``engine.fetches``
counter both stay at zero), and ``store.warm_hits`` accounting for every
relation that came off disk instead of the wire.

Also covered here: a mid-run storage crash (injected ``StorageFault``)
never propagates into query execution — answers stay correct, the store
goes sticky-crashed, and the recovered prefix still warms a fresh
webbase.
"""

from __future__ import annotations

import pytest

from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.sites.world import build_world
from repro.store.faults import StorageFault
from repro.store.tiered import TieredStore
from repro.vps.cache import CachePolicy

JAGUAR_QUERY = (
    "SELECT make, model, year, price, bb_price, safety, contact "
    "WHERE make = 'jaguar' AND year >= 1993 AND condition = 'good' "
    "AND safety IN ('good', 'excellent') AND price < bb_price"
)


def _config(tmp_path):
    return WebBaseConfig(cache=CachePolicy.lru(), store_dir=str(tmp_path / "store"))


def _query(webbase, label):
    ctx = webbase.execution_context(label=label)
    answer = webbase.query(JAGUAR_QUERY, context=ctx)
    return set(answer.rows), ctx


class TestWarmRestart:
    def test_restart_answers_identically_with_zero_live_fetches(self, tmp_path):
        config = _config(tmp_path)
        world = build_world(seed=config.seed, ads_per_host=config.ads_per_host)

        webbase = WebBase(world, config=config)
        cold_rows, cold_ctx = _query(webbase, "cold")
        assert cold_ctx.fetches > 0, "cold run must hit the live sites"
        assert cold_rows, "the Jaguar query has answers in the seeded world"
        webbase.store.close()

        webbase2 = WebBase(world, config=config)
        warm_rows, warm_ctx = _query(webbase2, "warm")
        try:
            assert warm_rows == cold_rows
            assert warm_ctx.fetches == 0, (
                "%d live fetches on a warm restart" % warm_ctx.fetches
            )
            counters = webbase2.metrics.snapshot()["counters"]
            assert counters.get("engine.fetches", 0) == 0
            assert counters.get("store.warm_hits", 0) > 0
            assert counters.get("store.warm_loads", 0) > 0
        finally:
            webbase2.store.close()

    def test_warm_metrics_visible_via_cli(self, tmp_path, capsys):
        """``python -m repro metrics --store DIR`` surfaces the warm
        counters once a prior run has populated the store."""
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        assert main(["--store", store_dir, "metrics"]) == 0
        capsys.readouterr()  # cold pass: populates the store
        assert main(["--store", store_dir, "metrics"]) == 0
        out = capsys.readouterr().out
        assert "store.warm_hits" in out
        assert "store.warm_loads" in out


class TestCrashDuringQueries:
    def test_storage_crash_never_reaches_the_query(self, tmp_path):
        """A fault that kills the store mid-write is the *store's*
        problem: the query still answers correctly, the store goes
        sticky-crashed, and the torn tail is dropped on recovery."""
        config = _config(tmp_path)
        world = build_world(seed=config.seed, ads_per_host=config.ads_per_host)
        webbase = WebBase(world, config=WebBaseConfig(cache=CachePolicy.lru()))
        # Attach by hand so the store carries an injected fault.
        fault = StorageFault(kill_at_byte=4096)
        store = TieredStore(str(tmp_path / "store"), fault=fault)
        webbase.attach_store(store)

        rows, ctx = _query(webbase, "crashing")
        expected = set(webbase.query(JAGUAR_QUERY).rows)
        assert rows == expected, "the storage crash leaked into the answer"
        assert fault.fired and store.crashed, (
            "the fault never fired; raise kill_at_byte usefulness check"
        )
        store.close()

        # The recovered prefix is still a valid store: it opens clean,
        # scans whole records only, and warms a fresh webbase that then
        # answers the query correctly (topping up with live fetches).
        recovered = TieredStore(str(tmp_path / "store"))
        try:
            assert not recovered.crashed
            webbase2 = WebBase(world, config=WebBaseConfig(cache=CachePolicy.lru()))
            webbase2.attach_store(recovered)
            rows2, _ = _query(webbase2, "recovered")
            assert rows2 == expected
        finally:
            recovered.close()
