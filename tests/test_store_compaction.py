"""Compaction of the tiered store: offline, online, concurrent, long-running.

The store keeps an index of its logs, not their records, and compaction
copies the live frames into fresh files and points the index at them.
Pinned here:

* **differential** — the record-replaying compaction the store used to
  run is kept below as :func:`reference_compact`; over seeded histories
  the new routine writes byte-for-byte what it writes;
* **online** — once the logs have doubled past the floor, the write path
  compacts, and the in-memory state afterwards equals a fresh open of the
  compacted files;
* **guards** — a crashed or closed store is never compacted;
* **concurrency** — threads appending while compactions run lose nothing;
* **soak** — over many churn cycles (queries, site edits plus a
  maintenance sweep, warm restarts) the logs stay within twice what a
  fresh compaction keeps, plus the floor, and the index stops growing;
* **navmaps** — ``meta.json`` is rewritten only when a map changed, and
  fsynced before its rename when the store is.

Histories are drawn from ``REPRO_TEST_SEED`` (see ``tests/conftest.py``).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import threading

import pytest

from repro.core.execution import WebBaseConfig
from repro.core.metrics import MetricsRegistry
from repro.core.webbase import WebBase
from repro.relational.relation import Relation
from repro.sites.world import build_world, mutate_site_listings
from repro.store import StorageFault, TieredStore
from repro.store import tiered
from repro.store.log import encode_record
from repro.store.tiered import TIER_FILES, key_from_json, page_key_from_json
from repro.vps.cache import CachePolicy
from tests.conftest import derive_seeds
from tests.test_store_recovery import _Req, _Resp

HOSTS = ["www.newsday.com", "www.autoweb.com", "www.kbb.com"]


# -- the reference: compaction as it was, over decoded records ----------------


def reference_compact(bronze, silver, gold):
    """Replay the three tiers' records and keep what the read path serves,
    in the order the record-holding store wrote it; returns the three
    record lists."""
    revisions: dict[str, int] = {}
    quarantined: set[str] = set()
    for record in bronze:
        if record.get("kind") == "revision":
            revisions[record["host"]] = record["revision"]
        elif record.get("kind") == "quarantine":
            if record["active"]:
                quarantined.add(record["host"])
            else:
                quarantined.discard(record["host"])
    segments = {}
    for record in silver:
        if record.get("kind") == "result":
            segments[(record["relation"], key_from_json(record["key"]))] = record
    answers, snapshots, standing = {}, {}, {}
    for record in gold:
        kind = record.get("kind")
        if kind == "answer":
            answers[record["query"]] = record
        elif kind == "snapshot":
            snapshots[record["query"]] = record
        elif kind == "standing":
            standing[record["query"]] = record["active"]

    keep_bronze = []
    last_page = {
        page_key_from_json(r["key"]): i
        for i, r in enumerate(bronze)
        if r.get("kind") == "page"
    }
    last_intent = {
        (r["relation"], json.dumps(r["key"])): i
        for i, r in enumerate(bronze)
        if r.get("kind") == "intent" and r["revision"] == revisions.get(r["host"], 0)
    }
    for i, record in enumerate(bronze):
        kind = record.get("kind")
        if kind == "page":
            if last_page.get(page_key_from_json(record["key"])) == i:
                keep_bronze.append(record)
        elif kind == "intent":
            if last_intent.get((record["relation"], json.dumps(record["key"]))) == i:
                keep_bronze.append(record)
    for host, revision in sorted(revisions.items()):
        keep_bronze.append({"kind": "revision", "host": host, "revision": revision})
    for host in sorted(quarantined):
        keep_bronze.append({"kind": "quarantine", "host": host, "active": True})

    keep_silver = [
        record
        for _, record in sorted(
            segments.items(),
            key=lambda item: (item[1]["host"], item[0][0], json.dumps(item[1]["key"])),
        )
        if record["revision"] == revisions.get(record["host"], 0)
    ]

    keep_gold = [
        record
        for _, record in sorted(answers.items())
        if all(revisions.get(h, 0) == r for h, r in record["revisions"].items())
    ]
    for query, active in sorted(standing.items()):
        if active:
            keep_gold.append({"kind": "standing", "query": query, "active": True})
            if query in snapshots:
                keep_gold.append(snapshots[query])
    return keep_bronze, keep_silver, keep_gold


# -- seeded histories ------------------------------------------------------------


def history(seed: int, steps: int) -> list[tuple[str, tuple]]:
    """A store operation schedule that revisits its keys, so later records
    supersede earlier ones in every tier."""
    rng = random.Random(("store-compaction-history", seed).__repr__())
    revisions = {host: 0 for host in HOSTS}
    makes = ["saab", "ford", "jaguar"]
    queries = ["SELECT make WHERE n = %d" % n for n in range(4)]
    standing = ["SELECT model WHERE make = '%s'" % make for make in makes[:2]]
    ops: list[tuple[str, tuple]] = []
    for step in range(steps):
        host = rng.choice(HOSTS)
        relation = rng.choice(("autoweb", "bluebook", "newsday"))
        key = (("make", rng.choice(makes)),)
        kind = rng.randrange(10)
        if kind < 3:
            path = "/page/%d" % rng.randrange(6)
            body = "<html>%s step %d %s</html>" % (host, step, "x" * rng.randrange(80))
            ops.append(("record_page", (_Req(host, path), _Resp(body))))
        elif kind == 3:
            ops.append(("record_intent", (relation, host, revisions[host], key)))
        elif kind == 4:
            revisions[host] += 1
            ops.append(("record_revision", (host, revisions[host])))
        elif kind == 5:
            ops.append(("record_quarantine", (host, bool(rng.randrange(2)))))
        elif kind == 6:
            rows = [("ford", 4000 + step + n) for n in range(rng.randrange(1, 4))]
            ops.append(("persist_result", (
                relation, host, revisions[host], key,
                Relation(["make", "price"], rows),
            )))
        elif kind == 7:
            ops.append(("persist_answer", (
                rng.choice(queries), Relation(["make"], [("saab",)]),
                {h: revisions[h] for h in rng.sample(HOSTS, 2)},
            )))
        elif kind == 8:
            ops.append(("persist_snapshot", (
                rng.choice(standing), ["model"], [("xj%d" % step,)],
                {host: revisions[host]}, step,
            )))
        else:
            ops.append(("record_standing", (rng.choice(standing), bool(rng.randrange(3)))))
    return ops


def _apply(store: TieredStore, ops) -> None:
    for name, args in ops:
        getattr(store, name)(*args)


def _tier_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for tier, name in TIER_FILES.items():
        with open(os.path.join(root, name), "rb") as handle:
            out[tier] = handle.read()
    return out


def state(store: TieredStore):
    """Everything the store serves and reports, as plain data."""
    described = store.describe()
    for tier in TIER_FILES:
        described[tier].pop("torn_bytes_recovered")
    described.pop("root")
    return (
        described,
        store.revisions(),
        store.quarantined(),
        store.page_index(),
        store.intents(current_only=False),
        store.silver_current(),
        store.current_answers(),
        store.standing_queries(),
    )


SEEDS = derive_seeds("store-compaction", 6)


class TestDifferentialCompaction:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_compact_writes_what_the_record_replaying_compaction_wrote(
        self, tmp_path, seed
    ):
        root = str(tmp_path / "store")
        store = TieredStore(root)
        _apply(store, history(seed, 120))
        tiers = (store.bronze.records, store.silver.records, store.gold.records)
        expected = dict(zip(TIER_FILES, reference_compact(*tiers)))
        outcome = store.compact()
        on_disk = _tier_bytes(root)
        for tier, records in expected.items():
            assert on_disk[tier] == b"".join(encode_record(r) for r in records), tier
        assert outcome["bytes_after"] == sum(len(data) for data in on_disk.values())
        assert outcome["freed"] == outcome["bytes_before"] - outcome["bytes_after"]
        # In memory, the remapped index serves what a fresh open serves.
        compacted = state(store)
        store.close()
        reopened = TieredStore(root)
        assert state(reopened) == compacted
        # Compaction is idempotent: nothing is left to drop.
        assert reopened.compact()["freed"] == 0
        assert _tier_bytes(root) == on_disk
        reopened.close()


class TestOnlineCompaction:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_write_path_compacts_and_matches_a_fresh_open(
        self, tmp_path, monkeypatch, seed
    ):
        monkeypatch.setattr(tiered, "COMPACT_FLOOR_BYTES", 2_000)
        root = str(tmp_path / "store")
        metrics = MetricsRegistry()
        store = TieredStore(root, metrics=metrics)
        peak = 0
        for op in history(seed, 300):
            _apply(store, [op])
            peak = max(peak, sum(len(d) for d in _tier_bytes(root).values()))
        compactions = metrics.snapshot()["counters"].get("store.compactions", 0)
        assert compactions >= 2
        served = state(store)
        store.close()
        reopened = TieredStore(root)
        assert state(reopened) == served
        live = reopened.compact()["bytes_after"]
        # The largest the logs ever got: about twice what compaction left
        # last time, bounded by what a compaction keeps now plus the floor.
        assert peak <= 2 * live + tiered.COMPACT_FLOOR_BYTES + 4_000
        reopened.close()

    def test_the_floor_keeps_small_stores_from_compacting(self, tmp_path):
        metrics = MetricsRegistry()
        store = TieredStore(str(tmp_path / "store"), metrics=metrics)
        _apply(store, history(SEEDS[0], 300))
        assert "store.compactions" not in metrics.snapshot()["counters"]
        store.close()


class TestCompactGuards:
    @staticmethod
    def _files(root: str):
        """(inode, bytes) per tier log, and any leftover temp file."""
        out = {}
        for name in TIER_FILES.values():
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                out[name] = (os.stat(path).st_ino, handle.read())
        out["tmp"] = sorted(n for n in os.listdir(root) if n.endswith(".tmp"))
        return out

    def test_crashed_store_compacts_nothing(self, tmp_path):
        root = str(tmp_path / "store")
        ops = history(SEEDS[0], 80)
        clean = TieredStore(str(tmp_path / "clean"))
        _apply(clean, ops)
        clean.close()
        written = sum(len(data) for data in _tier_bytes(str(tmp_path / "clean")).values())
        store = TieredStore(root, fault=StorageFault(written * 3 // 4))
        _apply(store, ops)
        assert store.crashed
        before = self._files(root)
        outcome = store.compact()
        assert outcome["freed"] == 0
        assert self._files(root) == before
        store.close()

    def test_closed_store_compacts_and_reopens_nothing(self, tmp_path):
        root = str(tmp_path / "store")
        store = TieredStore(root)
        _apply(store, history(SEEDS[1], 80))
        store.close()
        before = self._files(root)
        assert store.compact()["freed"] == 0
        assert self._files(root) == before
        # Still inert: a write after close is dropped, not appended.
        assert not store.record_revision("www.kbb.com", 99)
        assert self._files(root) == before
        store.close()


class TestConcurrentCompaction:
    def test_appending_threads_lose_no_record_while_compactions_run(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tiered, "COMPACT_FLOOR_BYTES", 4_000)
        root = str(tmp_path / "store")
        metrics = MetricsRegistry()
        store = TieredStore(root, metrics=metrics)
        rng = random.Random(("store-compaction-threads", SEEDS[2]).__repr__())
        rounds, keys = 120, 12
        pads = [rng.randrange(60) for _ in range(rounds)]
        errors: list[BaseException] = []

        def pages(worker: int) -> None:
            try:
                for n in range(rounds):
                    body = "w%d n%d %s" % (worker, n, "y" * pads[n])
                    request = _Req(HOSTS[0], "/w%d/%d" % (worker, n % keys))
                    assert store.record_page(request, _Resp(body))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def segments() -> None:
            try:
                for n in range(rounds):
                    assert store.persist_result(
                        "kbb", HOSTS[2], 0, (("n", n % keys),),
                        Relation(["n", "round"], [(n % keys, n)]),
                    )
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=pages, args=(w,)) for w in range(3)]
        threads.append(threading.Thread(target=segments))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the writers finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert metrics.snapshot()["counters"].get("store.compactions", 0) >= 2

        def expected_last(worker: int, slot: int) -> str:
            last = max(n for n in range(rounds) if n % keys == slot)
            return "w%d n%d %s" % (worker, last, "y" * pads[last])

        def check(store: TieredStore) -> None:
            bodies = {key[1]: page["body"] for key, page in store.page_index().items()}
            assert len(bodies) == 3 * keys
            for worker in range(3):
                for slot in range(keys):
                    assert bodies["http://%s/w%d/%d" % (HOSTS[0], worker, slot)] == (
                        expected_last(worker, slot)
                    )
            rows = {
                key: record["rows"] for key, record in store.silver_current().items()
            }
            assert len(rows) == keys
            for slot in range(keys):
                last = max(n for n in range(rounds) if n % keys == slot)
                assert rows[("kbb", (("n", slot),))] == [[slot, last]]

        check(store)
        served = state(store)
        store.close()
        reopened = TieredStore(root)
        check(reopened)
        assert state(reopened) == served
        reopened.close()


# -- soak: the churn_store cycle, count-based --------------------------------------

SOAK_QUERIES = (
    "SELECT make, model, price WHERE make = 'ford'",
    "SELECT make, model, year, price, safety WHERE make = 'honda'",
    "SELECT make, model, price, bb_price "
    "WHERE make = 'jaguar' AND condition = 'good' AND price < bb_price",
    "SELECT make, model, rate WHERE make = 'toyota' AND duration = 36",
)
SOAK_EDITS = (
    ("www.autoweb.com", "ford", "escort"),
    ("www.newsday.com", "jaguar", "xj6"),
    ("www.carpoint.com", "honda", "civic"),
)


def _fresh_compaction_bytes(root: str, scratch: str) -> int:
    """What a compaction of the store at ``root`` would keep, measured on
    a copy so the store under test is left alone."""
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(root, scratch)
    copy = TieredStore(scratch)
    try:
        return copy.compact()["bytes_after"]
    finally:
        copy.close()


class TestChurnSoak:
    CYCLES = 40

    def test_logs_stay_bounded_by_live_bytes_and_the_index_plateaus(
        self, tmp_path, monkeypatch
    ):
        floor = 64 * 1024
        monkeypatch.setattr(tiered, "COMPACT_FLOOR_BYTES", floor)
        root = str(tmp_path / "store")
        config = WebBaseConfig(
            ads_per_host=24, cache=CachePolicy.lru(max_entries=8), store_dir=root
        )
        world = build_world(seed=config.seed, ads_per_host=config.ads_per_host)
        webbase = WebBase(world, config)
        rng = random.Random(("store-compaction-soak", SEEDS[3]).__repr__())
        index_sizes = []
        compactions = 0
        try:
            for cycle in range(self.CYCLES):
                for text in rng.sample(SOAK_QUERIES, 2):
                    webbase.query(text)
                host, make, model = SOAK_EDITS[cycle % len(SOAK_EDITS)]
                mutate_site_listings(
                    world, host=host, make=make, model=model,
                    seed=rng.randrange(1 << 30), change="auto",
                )
                webbase.run_maintenance()
                if cycle % 5 == 4:
                    counters = webbase.metrics.snapshot()["counters"]
                    compactions += counters.get("store.compactions", 0)
                    webbase.store.close()
                    webbase = WebBase(world, config)
                store = webbase.store
                total = sum(len(data) for data in _tier_bytes(root).values())
                live = _fresh_compaction_bytes(root, str(tmp_path / "copy"))
                assert total <= 2 * live + floor, (
                    "cycle %d: %d log bytes for %d live" % (cycle, total, live)
                )
                described = store.describe()
                index_sizes.append(
                    described["bronze"]["pages"]
                    + described["bronze"]["intents"]
                    + described["silver"]["segments"]
                    + described["gold"]["answers"]
                )
            compactions += webbase.metrics.snapshot()["counters"].get(
                "store.compactions", 0
            )
        finally:
            webbase.store.close()
        assert compactions >= 2, "the soak never compacted online"
        half = self.CYCLES // 2
        assert max(index_sizes[half:]) <= max(index_sizes[:half]) * 1.25, index_sizes


# -- navmap metadata ----------------------------------------------------------------


class TestNavmapMetadata:
    def test_restart_over_unchanged_sites_leaves_meta_json_alone(self, tmp_path):
        config = WebBaseConfig(ads_per_host=24, store_dir=str(tmp_path / "store"))
        world = build_world(seed=config.seed, ads_per_host=config.ads_per_host)
        webbase = WebBase(world, config)
        webbase.store.close()
        path = os.path.join(config.store_dir, tiered.META_FILE)
        before = os.stat(path)
        restarted = WebBase(world, config)
        restarted.store.close()
        after = os.stat(path)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_a_changed_map_rewrites_and_fsyncs_meta_json(self, tmp_path, monkeypatch):
        config = WebBaseConfig(ads_per_host=24, store_dir=str(tmp_path / "store"))
        world = build_world(seed=config.seed, ads_per_host=config.ads_per_host)
        webbase = WebBase(world, config)
        webbase.store.close()
        path = os.path.join(config.store_dir, tiered.META_FILE)
        before = os.stat(path).st_ino
        synced: list[int] = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        store = TieredStore(config.store_dir, fsync=True)
        navmaps = store.load_navmaps()
        store.save_navmaps(navmaps)
        assert synced == [] and os.stat(path).st_ino == before  # nothing changed
        del navmaps[sorted(navmaps)[0]]  # the host set changed
        store.save_navmaps(navmaps)
        assert synced, "meta.json was replaced without an fsync"
        assert os.stat(path).st_ino != before
        assert sorted(store.load_navmaps()) == sorted(navmaps)
        store.close()
