"""Crash-replay property suite for the tiered persistent store.

The contract under test is the write-ahead one: kill the writing process
at *any* global byte offset — a record boundary, mid-header, mid-payload
— and the reopened store serves exactly the longest record-aligned
prefix of the clean run: no torn record, no reordering, no invention.
Resuming the remaining operations then converges every tier
byte-for-byte with the never-crashed run.

Kill offsets are scheduled (:class:`repro.store.faults.StorageFault`),
not random at run time, so a failing offset reproduces exactly.  The
suite sweeps every record boundary, one byte short of each, mid-record
points, and a seeded random sample — well past the 50-kill-point floor.

Also pinned here (the mutable-state-leak satellite): cache entries must
never survive a revision bump via warm loading or eviction-order luck —
silver admission is keyed by revision stamp, adopted *before* any
restart drift bump — and the quarantined ``serve_stale`` path must do
its lookup and LRU touch under one lock hold so a concurrent bump cannot
evict the key between them.
"""

from __future__ import annotations

import os
import random
import threading

import pytest

from repro.relational.relation import Relation
from repro.store import StorageFault, TieredStore
from repro.store.log import RecordLog, encode_record, scan_records

HOSTS = ["www.newsday.com", "www.autoweb.com", "www.kbb.com"]
RELATIONS = {"www.newsday.com": "newsday", "www.autoweb.com": "autoweb",
             "www.kbb.com": "bluebook"}


class _Url:
    def __init__(self, host: str, path: str) -> None:
        self.host = host
        self.path = path

    def __str__(self) -> str:
        return "http://%s%s" % (self.host, self.path)


class _Req:
    def __init__(self, host: str, path: str, params: tuple = ()) -> None:
        self.method = "GET"
        self.url = _Url(host, path)
        self.form_params = dict(params)


class _Resp:
    def __init__(self, body: str) -> None:
        self.status = 200
        self.body = body
        self.final_url = None
        self.location = None


def _script(seed: int) -> list[tuple[str, tuple]]:
    """A deterministic operation schedule; every op appends one record."""
    rng = random.Random(("store-recovery-script", seed).__repr__())
    ops: list[tuple[str, tuple]] = []
    revisions = {host: 0 for host in HOSTS}
    for step in range(16):
        host = rng.choice(HOSTS)
        relation = RELATIONS[host]
        kind = rng.randrange(8)
        if kind == 0:
            ops.append(("record_page", (
                _Req(host, "/page/%d" % step),
                _Resp("<html>body %d of %s</html>" % (step, host)),
            )))
        elif kind == 1:
            ops.append(("record_intent", (
                relation, host, revisions[host], (("make", "saab"),),
            )))
        elif kind == 2:
            revisions[host] += 1
            ops.append(("record_revision", (host, revisions[host])))
        elif kind == 3:
            ops.append(("record_quarantine", (host, bool(rng.randrange(2)))))
        elif kind == 4:
            ops.append(("persist_result", (
                relation, host, revisions[host],
                (("make", "ford"), ("model", "escort")),
                Relation(["make", "price"], [("ford", 4000 + step)]),
            )))
        elif kind == 5:
            ops.append(("persist_answer", (
                "SELECT make WHERE step = %d" % step,
                Relation(["make"], [("saab",)]),
                {host: revisions[host]},
            )))
        elif kind == 6:
            ops.append(("persist_snapshot", (
                "SELECT model WHERE make = 'jaguar'",
                ["model"], [("xj%d" % step,)], {host: revisions[host]}, step,
            )))
        else:
            ops.append(("record_standing", (
                "SELECT model WHERE make = 'jaguar'", bool(rng.randrange(2)),
            )))
    return ops


def _apply(store: TieredStore, op: tuple[str, tuple]) -> None:
    name, args = op
    getattr(store, name)(*args)


def _clean_run(tmp_path, ops, fsync):
    """Run the schedule uncrashed, capturing per-op (tier, record) and the
    global byte offset after each op (via the fault's write counter)."""
    fault = StorageFault(kill_at_byte=1 << 40)  # never fires
    store = TieredStore(str(tmp_path / "clean"), fsync=fsync, fault=fault)
    tiers = {"bronze": store.bronze, "silver": store.silver, "gold": store.gold}
    op_records: list[tuple[str, dict]] = []
    boundaries: list[int] = []
    counts = {name: 0 for name in tiers}
    for op in ops:
        _apply(store, op)
        grown = [n for n, log in tiers.items() if len(log) > counts[n]]
        assert len(grown) == 1, "every op must append exactly one record"
        tier = grown[0]
        counts[tier] = len(tiers[tier])
        op_records.append((tier, tiers[tier].records[-1]))
        boundaries.append(fault.written)
    tier_bytes = {
        name: b"".join(
            encode_record(r) for t, r in op_records if t == name
        )
        for name in tiers
    }
    state = _materialized(store)
    store.close()
    return op_records, boundaries, tier_bytes, state


def _materialized(store: TieredStore):
    """Everything the read path serves, as comparable plain data."""
    return (
        store.revisions(),
        store.quarantined(),
        sorted(store.page_index()),
        store.intents(current_only=False),
        sorted((k, r["revision"]) for k, r in store.silver_current().items()),
        store.current_answers(),
        store.standing_queries(),
    )


def _kill_points(boundaries, seed):
    total = boundaries[-1]
    points = {0}
    previous = 0
    for boundary in boundaries:
        points.add(boundary)  # crash exactly between two records
        points.add(boundary - 1)  # one byte short: torn checksum/payload
        points.add(previous + 4)  # torn inside the header
        points.add(previous + (boundary - previous) // 2)  # mid-payload
        previous = boundary
    points.update(StorageFault.sample_offsets(seed, total, 12))
    return sorted(p for p in points if 0 <= p < total)


class TestCrashReplayProperty:
    @pytest.mark.parametrize(
        "seed,fsync", [(0, False), (1, False), (2, False), (0, True)]
    )
    def test_every_kill_point_recovers_prefix_and_resumes_byte_identical(
        self, tmp_path, seed, fsync
    ):
        ops = _script(seed)
        op_records, boundaries, clean_bytes, clean_state = _clean_run(
            tmp_path, ops, fsync
        )
        kills = _kill_points(boundaries, seed)
        assert len(kills) >= 50, "the suite must sweep at least 50 kill points"
        for kill in kills:
            root = str(tmp_path / ("kill-%d" % kill))
            fault = StorageFault(kill_at_byte=kill)
            store = TieredStore(root, fsync=fsync, fault=fault)
            crashed_at = None
            for index, op in enumerate(ops):
                _apply(store, op)
                if crashed_at is None and store.crashed:
                    crashed_at = index
            assert crashed_at is not None, "kill %d never fired" % kill
            store.close()

            # Recovery: the reopened store serves exactly the ops that
            # completed before the crash — a record-aligned prefix.
            recovered = TieredStore(root, fsync=fsync)
            durable = op_records[:crashed_at]
            for tier_name in ("bronze", "silver", "gold"):
                log = getattr(recovered, tier_name)
                expected = [r for t, r in durable if t == tier_name]
                assert log.records == expected, (
                    "kill %d: %s served a non-prefix after recovery"
                    % (kill, tier_name)
                )
                with open(log.path, "rb") as handle:
                    on_disk = handle.read()
                assert on_disk == b"".join(encode_record(r) for r in expected)
                assert clean_bytes[tier_name].startswith(on_disk)
            # Torn bytes: exactly the part of the crashing op's frame that
            # reached the file before the kill.
            previous = boundaries[crashed_at - 1] if crashed_at else 0
            torn = (
                recovered.bronze.torn_bytes
                + recovered.silver.torn_bytes
                + recovered.gold.torn_bytes
            )
            assert torn == kill - previous, "kill %d: wrong torn tail" % kill

            # Resume the schedule from the crashed op: every tier converges
            # byte-for-byte with the clean run, as does the served state.
            for op in ops[crashed_at:]:
                _apply(recovered, op)
            for tier_name in ("bronze", "silver", "gold"):
                log = getattr(recovered, tier_name)
                with open(log.path, "rb") as handle:
                    assert handle.read() == clean_bytes[tier_name], (
                        "kill %d: %s did not converge after resume"
                        % (kill, tier_name)
                    )
            assert _materialized(recovered) == clean_state
            recovered.close()

    def test_crashed_store_goes_inert_not_raising(self, tmp_path):
        """After the fault fires, the store is a dead process' store: every
        further write is a silent no-op — upper layers (the fetch path!)
        must never see StorageCrash."""
        fault = StorageFault(kill_at_byte=10)
        store = TieredStore(str(tmp_path / "s"), fault=fault)
        assert not store.record_revision("www.newsday.com", 1)
        assert store.crashed
        assert not store.record_revision("www.newsday.com", 2)
        assert not store.persist_answer(
            "SELECT make", Relation(["make"], []), {}
        )
        store.close()

    def test_fault_counter_is_global_across_tiers(self, tmp_path):
        """One offset addresses the store's *total* write stream: bronze
        and silver share the counter, so a kill scheduled past the first
        bronze record fires inside the following silver write."""
        bronze_record = {"kind": "revision", "host": "h", "revision": 1}
        first = len(encode_record(bronze_record))
        fault = StorageFault(kill_at_byte=first + 3)
        store = TieredStore(str(tmp_path / "s"), fault=fault)
        assert store.record_revision("h", 1)
        assert not store.persist_result(
            "newsday", "h", 1, (("make", "saab"),),
            Relation(["make"], [("saab",)]),
        )
        assert store.crashed
        store.close()
        recovered = TieredStore(str(tmp_path / "s"))
        assert recovered.revisions() == {"h": 1}
        assert recovered.silver_current() == {}
        assert recovered.silver.torn_bytes == 3
        recovered.close()


class TestRecordLogRecovery:
    def test_torn_header_is_truncated(self, tmp_path):
        path = str(tmp_path / "log")
        frame = encode_record({"kind": "x", "n": 1})
        with open(path, "wb") as handle:
            handle.write(frame + frame[:5])
        log = RecordLog(path)
        assert len(log) == 1
        assert log.torn_bytes == 5
        with open(path, "rb") as handle:
            assert handle.read() == frame

    def test_torn_payload_is_truncated(self, tmp_path):
        path = str(tmp_path / "log")
        frame = encode_record({"kind": "x", "n": 1})
        with open(path, "wb") as handle:
            handle.write(frame + frame[:-3])
        log = RecordLog(path)
        assert log.records == [{"kind": "x", "n": 1}]
        assert log.torn_bytes == len(frame) - 3

    def test_corrupt_checksum_stops_the_scan(self, tmp_path):
        path = str(tmp_path / "log")
        good = encode_record({"kind": "x", "n": 1})
        bad = bytearray(encode_record({"kind": "x", "n": 2}))
        bad[-1] ^= 0xFF  # flip a payload byte; the CRC no longer holds
        trailing = encode_record({"kind": "x", "n": 3})
        with open(path, "wb") as handle:
            handle.write(good + bytes(bad) + trailing)
        log = RecordLog(path)
        # Nothing after the first bad frame is served, even valid-looking
        # later frames: a prefix, never a sieve.
        assert log.records == [{"kind": "x", "n": 1}]
        assert log.torn_bytes == len(bad) + len(trailing)

    def test_absurd_length_header_is_rejected(self, tmp_path):
        import struct

        path = str(tmp_path / "log")
        with open(path, "wb") as handle:
            handle.write(struct.pack("<II", 1 << 31, 0) + b"junk")
        log = RecordLog(path)
        assert log.records == []

    def test_append_after_recovery_continues_the_log(self, tmp_path):
        path = str(tmp_path / "log")
        frame = encode_record({"kind": "x", "n": 1})
        with open(path, "wb") as handle:
            handle.write(frame + b"\x07\x03")  # torn garbage tail
        log = RecordLog(path)
        log.append({"kind": "x", "n": 2})
        log.close()
        reopened = RecordLog(path)
        assert reopened.records == [{"kind": "x", "n": 1}, {"kind": "x", "n": 2}]
        assert reopened.torn_bytes == 0
        reopened.close()

    def test_scan_records_round_trips(self):
        records = [{"kind": "a", "i": i} for i in range(5)]
        data = b"".join(encode_record(r) for r in records)
        scanned, good_end = scan_records(data)
        assert scanned == records
        assert good_end == len(data)


# -- the mutable-state-leak regressions (cache entries vs revision bumps) ------


class _StubVps:
    """A minimal inner catalog: one relation per host, counting fetches."""

    def __init__(self) -> None:
        self.fetches = 0

    def host_of(self, name: str) -> str:
        return "www.%s.com" % name

    def fetch(self, name: str, given: dict, context=None) -> Relation:
        self.fetches += 1
        return Relation(["make", "price"], [("saab", 9000 + self.fetches)])


def _cache(policy=None):
    from repro.vps.cache import CachePolicy, ResultCache

    return ResultCache(_StubVps(), policy or CachePolicy.lru())


class TestRevisionKeyedWarmRegression:
    HOST = "www.newsday.com"

    def _seeded_store(self, tmp_path, revision: int) -> str:
        root = str(tmp_path / "store")
        store = TieredStore(root)
        if revision:
            store.record_revision(self.HOST, revision)
        store.persist_result(
            "newsday", self.HOST, revision, (("make", "saab"),),
            Relation(["make", "price"], [("saab", 1111)]),
        )
        store.close()
        return root

    def test_warm_admits_only_current_revision_segments(self, tmp_path):
        root = self._seeded_store(tmp_path, revision=1)
        cache = _cache()
        store = TieredStore(root)
        cache.attach_store(store)
        assert cache.warm_from_store() == 1
        # Served from the warmed entry, not the stub.
        value = cache.fetch("newsday", {"make": "saab"})
        assert list(value.rows) == [("saab", 1111)]
        assert cache.inner.fetches == 0
        store.close()

    def test_stale_segment_never_resurfaces_after_restart_bump(self, tmp_path):
        """The restart-collision bug this PR fixes: persisted revision 1 is
        adopted at attach, so a drift bump lands on revision 2 and the
        rev-1 segment is skipped by its *stamp* — not by eviction order
        or any other accident of cache state."""
        root = self._seeded_store(tmp_path, revision=1)
        cache = _cache()
        store = TieredStore(root)
        cache.attach_store(store)
        assert cache.revision(self.HOST) == 1  # adopted before any bump
        cache.bump_revision(self.HOST)  # the navmap drifted while closed
        assert cache.revision(self.HOST) == 2
        assert cache.warm_from_store() == 0, (
            "a segment stamped with a superseded revision warmed back in"
        )
        value = cache.fetch("newsday", {"make": "saab"})
        assert list(value.rows) != [("saab", 1111)]
        assert cache.inner.fetches == 1
        store.close()

    def test_live_entry_dies_with_its_revision_not_with_eviction_order(self, tmp_path):
        cache = _cache()
        first = cache.fetch("newsday", {"make": "saab"})
        assert cache.fetch("newsday", {"make": "saab"}) == first
        cache.bump_revision(self.HOST)
        assert cache.fetch("newsday", {"make": "saab"}) != first
        assert cache.inner.fetches == 2


class TestServeStaleBumpRace:
    HOST = "www.newsday.com"

    def test_concurrent_bumps_never_break_the_stale_serve_path(self):
        """Regression for the lookup/LRU-touch split: hammer the
        quarantined serve_stale path from several threads while revisions
        bump concurrently.  The old two-lock-holds code could interleave
        a bump's eviction between the lookup and ``move_to_end`` and
        raise KeyError out of the fetch path."""
        from repro.vps.cache import CachePolicy

        cache = _cache(CachePolicy.lru(stale_mode="serve_stale"))
        cache.fetch("newsday", {"make": "saab"})
        cache.quarantine(self.HOST)
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                try:
                    cache.fetch("newsday", {"make": "saab"})
                except BaseException as exc:  # noqa: BLE001 - recorded for assert
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(200):
            cache.bump_revision(self.HOST)
            # Repopulate so the stale path keeps finding an entry to touch.
            cache.clear_quarantine(self.HOST, evict=False)
            cache.fetch("newsday", {"make": "saab"})
            cache.quarantine(self.HOST)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors, "stale-serve path raised under concurrent bumps: %r" % errors


class TestCompactionPreservesServedState:
    @staticmethod
    def _served(store: TieredStore):
        """What the read path serves.  Intents are compared deduplicated
        to the last per (relation, key) — compaction drops repeats, and
        the only intent consumer (rebuild) replays each key once."""
        import json

        state = list(_materialized(store))
        state[3] = {
            (r["relation"], json.dumps(r["key"])): r["revision"]
            for r in store.intents(current_only=True)
        }
        return state

    def test_compact_keeps_exactly_what_the_read_path_serves(self, tmp_path):
        ops = _script(seed=3)
        root = str(tmp_path / "store")
        store = TieredStore(root)
        for op in ops:
            _apply(store, op)
        before = self._served(store)
        outcome = store.compact()
        assert outcome["freed"] >= 0
        assert self._served(store) == before
        store.close()
        reopened = TieredStore(root)
        assert self._served(reopened) == before
        reopened.close()


class TestCrashDuringCompaction:
    """Kill the writer inside an online compaction's writes.

    With the floor lowered, a longer schedule compacts from its write
    path.  Wherever the kill lands in the three tiers' rewrites, the
    reopened store deletes the torn temp file, serves exactly what it
    served before the compaction began, and — once the interrupted
    compaction is run again and the schedule resumed — converges
    byte-for-byte with the run that never crashed.
    """

    FLOOR = 2_000

    @staticmethod
    def _ops(seed: int) -> list[tuple[str, tuple]]:
        return _script(seed) + _script(seed + 101) + _script(seed + 202)

    def _clean_run(self, tmp_path, monkeypatch, ops, fsync):
        """The uncrashed run: which op compacted first, where in the write
        stream each tier's rewrite ran, the served state just before, and
        the final bytes of every tier."""
        fault = StorageFault(kill_at_byte=1 << 40)  # never fires
        spans: list[tuple[int, int]] = []
        rewrite = RecordLog.rewrite

        def spy(log, frames):
            start = fault.written
            placed = rewrite(log, frames)
            spans.append((start, fault.written))
            return placed

        monkeypatch.setattr(RecordLog, "rewrite", spy)
        root = str(tmp_path / "clean")
        store = TieredStore(root, fsync=fsync, fault=fault)
        compact_op = before = None
        for index, op in enumerate(ops):
            served = TestCompactionPreservesServedState._served(store)
            _apply(store, op)
            if spans and compact_op is None:
                compact_op, before = index, served
        store.close()
        monkeypatch.setattr(RecordLog, "rewrite", rewrite)
        assert compact_op is not None, "the schedule never compacted online"
        final = {}
        for name in ("bronze", "silver", "gold"):
            with open(os.path.join(root, "%s.log" % name), "rb") as handle:
                final[name] = handle.read()
        return compact_op, spans[:3], before, final

    @pytest.mark.parametrize("seed,fsync", [(5, False), (6, False), (5, True)])
    def test_kill_inside_compaction_recovers_and_resumes_byte_identical(
        self, tmp_path, monkeypatch, seed, fsync
    ):
        from repro.store import tiered

        monkeypatch.setattr(tiered, "COMPACT_FLOOR_BYTES", self.FLOOR)
        ops = self._ops(seed)
        compact_op, spans, before, final = self._clean_run(
            tmp_path, monkeypatch, ops, fsync
        )
        start, end = spans[0][0], spans[-1][1]
        kills = {offset + start for offset in StorageFault.sample_offsets(seed, end - start, 30)}
        for tier_start, tier_end in spans:
            kills.update((tier_start, tier_start + 1, tier_end - 1))
        kills = sorted(k for k in kills if start <= k < end)
        assert len(kills) >= 30, "the suite must sweep at least 30 kill points"
        for kill in kills:
            root = str(tmp_path / ("kill-%d" % kill))
            store = TieredStore(root, fsync=fsync, fault=StorageFault(kill))
            for index, op in enumerate(ops):
                _apply(store, op)
                if store.crashed:
                    break
            assert index == compact_op, "kill %d fired outside compaction" % kill
            store.close()
            assert any(name.endswith(".tmp") for name in os.listdir(root)), kill

            recovered = TieredStore(root, fsync=fsync)
            assert not any(name.endswith(".tmp") for name in os.listdir(root))
            assert TestCompactionPreservesServedState._served(recovered) == before, (
                "kill %d: the reopened store does not serve the pre-compaction state"
                % kill
            )
            recovered.compact()
            for op in ops[compact_op:]:
                _apply(recovered, op)
            for name, data in final.items():
                with open(os.path.join(root, "%s.log" % name), "rb") as handle:
                    assert handle.read() == data, (
                        "kill %d: %s did not converge after resume" % (kill, name)
                    )
            recovered.close()
