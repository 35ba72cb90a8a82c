"""The tiered persistent store: bronze → silver → gold.

Medallion layering for the webbase's state, one append-only
:class:`~repro.store.log.RecordLog` per tier:

bronze (``bronze.log``)
    The write-ahead raw layer: every page the simulated Web served
    (request key + response bytes), every fetch *intent* (logged before
    the fetch runs), and every revision bump / quarantine mark.  The
    other tiers are pure functions of bronze — that is what
    ``python -m repro store rebuild`` proves.

silver (``silver.log``)
    Extracted VPS relations keyed ``(host, relation, revision)``:
    immutable segments written when the result cache fills.  Only
    segments whose revision stamp matches the host's *current* revision
    are ever served (warm restart) — superseded revisions are dead
    weight until compaction drops them.  Compaction runs online, on the
    writer, whenever the logs have doubled past a floor, so a file holds
    about twice its live bytes and a restart decodes little else.

gold (``gold.log``)
    Materialized UR answers and standing-query snapshots, each carrying
    the revision vector of the hosts it was derived from.  An answer is
    current iff every dependency revision still matches; the same bumps
    that evict the result cache invalidate gold, with no extra
    bookkeeping.

The store holds an index of the logs, not their records (gold excepted:
MQO reads its answers on every query), and reads a record back through
the framing when asked for it.

A :class:`~repro.store.faults.StorageFault` threaded through the store
crashes writes — appends and compaction's rewrites alike — at any global
byte offset; after a crash the store turns into a no-op sink
(``crashed`` flag), modeling a dead process, and the next open recovers
by truncating torn tails and deleting a half-written rewrite.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple

from repro.relational.relation import Relation
from repro.store.faults import StorageCrash, StorageFault
from repro.store.log import Frame, RecordLog, encode_record

KeyPairs = tuple[tuple[str, Any], ...]

#: Online compaction runs on a write once the tier logs together pass this
#: many bytes *and* twice what the last compaction kept (at open: twice
#: what one would keep), so the files stay within about twice the live
#: bytes.  Far above what a few dozen records write: short-lived stores
#: never compact on their own.
COMPACT_FLOOR_BYTES = 1 << 20

META_FILE = "meta.json"
TIER_FILES = {"bronze": "bronze.log", "silver": "silver.log", "gold": "gold.log"}


def key_to_json(key: KeyPairs) -> list[list[Any]]:
    """Canonical JSON shape of a result-cache key's bound pairs."""
    return [[attr, value] for attr, value in key]


def key_from_json(items: Iterable[Iterable[Any]]) -> KeyPairs:
    return tuple((pair[0], pair[1]) for pair in items)


def page_key_to_json(key: tuple) -> list[Any]:
    method, url, params = key
    return [method, url, [[k, v] for k, v in params]]


def page_key_from_json(items: list[Any]) -> tuple:
    method, url, params = items
    return (method, url, tuple((p[0], p[1]) for p in params))


@dataclass(frozen=True)
class SilverEntry:
    """One current silver segment, decoded and ready to warm a cache."""

    relation: str
    host: str
    revision: int
    key: KeyPairs
    value: Relation


class _Intent(NamedTuple):
    """A fetch intent's place in bronze, with what compaction decides on."""

    frame: Frame
    relation: str
    key: list[list[Any]]  # as in the record
    host: str
    revision: int


class _Segment(NamedTuple):
    """A silver segment's place in silver, with its revision stamp."""

    frame: Frame
    host: str
    revision: int


class TieredStore:
    """Facade over the three tier logs plus the navmap metadata file.

    In memory it keeps an index of the logs, not their records: where the
    last page per request key, every intent and the last segment per
    ``(relation, key)`` sit, with the host and revision each is judged by,
    plus the revision and quarantine marks.  Gold answers, snapshots and
    standing flags stay decoded.  Records are read back through the
    framing on demand.
    """

    def __init__(
        self,
        root: str,
        fsync: bool = False,
        fault: StorageFault | None = None,
        metrics: Any = None,
    ) -> None:
        self.root = root
        self.fsync = fsync
        self.crashed = False
        self._closed = False
        self._metrics = metrics
        self._lock = threading.RLock()
        self._meta_text: str | None = None  # meta.json as last read or written
        self._pages: dict[tuple, Frame] = {}
        self._intents: list[_Intent] = []
        self._revisions: dict[str, int] = {}
        self._quarantined: set[str] = set()
        self._silver: dict[tuple[str, KeyPairs], _Segment] = {}
        # Where each answer and snapshot sits, by (kind, query), for
        # compaction to copy.
        self._answers: dict[str, dict[str, Any]] = {}
        self._snapshots: dict[str, dict[str, Any]] = {}
        self._gold_frames: dict[tuple[str, str], Frame] = {}
        self._standing: dict[str, bool] = {}
        os.makedirs(root, exist_ok=True)
        self.bronze = self._open("bronze", fault, self._index_bronze)
        self.silver = self._open("silver", fault, self._index_silver)
        self.gold = self._open("gold", fault, self._index_gold)
        self._baseline_bytes = self._live_bytes()
        torn = self.bronze.torn_bytes + self.silver.torn_bytes + self.gold.torn_bytes
        if metrics is not None:
            metrics.gauge("store.torn_bytes_recovered").set(torn)

    def _open(
        self,
        tier: str,
        fault: StorageFault | None,
        index: Callable[[Frame, dict[str, Any]], None],
    ) -> RecordLog:
        path = os.path.join(self.root, TIER_FILES[tier])
        return RecordLog(path, self.fsync, fault, index)

    # -- the index --------------------------------------------------------------

    def _index_bronze(self, frame: Frame, record: dict[str, Any]) -> None:
        kind = record.get("kind")
        if kind == "page":
            self._pages[page_key_from_json(record["key"])] = frame
        elif kind == "intent":
            self._intents.append(
                _Intent(
                    frame,
                    record["relation"],
                    record["key"],
                    record["host"],
                    record["revision"],
                )
            )
        elif kind == "revision":
            self._revisions[record["host"]] = record["revision"]
        elif kind == "quarantine":
            if record["active"]:
                self._quarantined.add(record["host"])
            else:
                self._quarantined.discard(record["host"])

    def _index_silver(self, frame: Frame, record: dict[str, Any]) -> None:
        if record.get("kind") == "result":
            key = (record["relation"], key_from_json(record["key"]))
            self._silver[key] = _Segment(frame, record["host"], record["revision"])

    def _index_gold(self, frame: Frame, record: dict[str, Any]) -> None:
        kind = record.get("kind")
        if kind == "answer":
            self._answers[record["query"]] = record
            self._gold_frames[kind, record["query"]] = frame
        elif kind == "snapshot":
            self._snapshots[record["query"]] = record
            self._gold_frames[kind, record["query"]] = frame
        elif kind == "standing":
            self._standing[record["query"]] = record["active"]

    def _current(self, host: str, revision: int) -> bool:
        return self._revisions.get(host, 0) == revision

    def _log_bytes(self) -> int:
        return self.bronze.size + self.silver.size + self.gold.size

    # -- write path -------------------------------------------------------------

    def _append(
        self,
        log: RecordLog,
        index: Callable[[Frame, dict[str, Any]], None],
        record: dict[str, Any],
    ) -> bool:
        """Append and index unless dead; a torn write flips the store to
        dead.  Compacts first when the logs have passed
        :data:`COMPACT_FLOOR_BYTES` and twice what the last compaction kept
        (at open: what one would keep)."""
        with self._lock:
            if self.crashed or self._closed:
                return False
            try:
                total = self._log_bytes()
                if total > COMPACT_FLOOR_BYTES and total >= 2 * self._baseline_bytes:
                    self._compact()
                frame = log.append(record)
            except StorageCrash:
                self.crashed = True
                self._inc("store.crashes")
                return False
            index(frame, record)
        return True

    def _inc(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc(amount)

    def record_page(self, request: Any, response: Any) -> bool:
        """Bronze: one served page (the raw layer the rest rebuilds from)."""
        from repro.web.browser import request_key

        key = request_key(request)
        record = {
            "kind": "page",
            "host": request.url.host,
            "key": page_key_to_json(key),
            "status": response.status,
            "body": response.body,
            "final_url": str(response.final_url) if response.final_url else None,
            "location": response.location,
        }
        written = self._append(self.bronze, self._index_bronze, record)
        if written:
            self._inc("store.bronze_pages")
        return written

    def record_intent(
        self, relation: str, host: str, revision: int, key: KeyPairs
    ) -> bool:
        """Bronze: a fetch is about to run (write-ahead of the result)."""
        record = {
            "kind": "intent",
            "relation": relation,
            "host": host,
            "revision": revision,
            "key": key_to_json(key),
        }
        written = self._append(self.bronze, self._index_bronze, record)
        if written:
            self._inc("store.intents")
        return written

    def record_revision(self, host: str, revision: int) -> bool:
        """Bronze: the host's navigation-map revision moved."""
        record = {"kind": "revision", "host": host, "revision": revision}
        return self._append(self.bronze, self._index_bronze, record)

    def record_quarantine(self, host: str, active: bool) -> bool:
        """Bronze: the host entered (or left) quarantine."""
        record = {"kind": "quarantine", "host": host, "active": active}
        return self._append(self.bronze, self._index_bronze, record)

    def persist_result(
        self,
        relation: str,
        host: str,
        revision: int,
        key: KeyPairs,
        value: Relation,
    ) -> bool:
        """Silver: one extracted relation segment, revision-stamped."""
        record = {
            "kind": "result",
            "relation": relation,
            "host": host,
            "revision": revision,
            "key": key_to_json(key),
            "schema": list(value.schema),
            "rows": [list(row) for row in value.rows],
        }
        written = self._append(self.silver, self._index_silver, record)
        if written:
            self._inc("store.silver_writes")
        return written

    def persist_answer(
        self, query: str, value: Relation, revisions: dict[str, int]
    ) -> bool:
        """Gold: one materialized UR answer with its revision vector."""
        record = {
            "kind": "answer",
            "query": query,
            "schema": list(value.schema),
            "rows": [list(row) for row in value.rows],
            "revisions": dict(sorted(revisions.items())),
        }
        written = self._append(self.gold, self._index_gold, record)
        if written:
            self._inc("store.gold_writes")
        return written

    def persist_snapshot(
        self,
        query: str,
        schema: list[str],
        rows: list[tuple],
        revisions: dict[str, int],
        seq: int,
    ) -> bool:
        """Gold: a standing query's last delivered row set."""
        record = {
            "kind": "snapshot",
            "query": query,
            "schema": list(schema),
            "rows": sorted([list(row) for row in rows]),
            "revisions": dict(sorted(revisions.items())),
            "seq": seq,
        }
        written = self._append(self.gold, self._index_gold, record)
        if written:
            self._inc("store.snapshot_writes")
        return written

    def record_standing(self, query: str, active: bool = True) -> bool:
        """Gold: (de)register a standing query."""
        record = {"kind": "standing", "query": query, "active": active}
        return self._append(self.gold, self._index_gold, record)

    # -- read path --------------------------------------------------------------

    def revisions(self) -> dict[str, int]:
        with self._lock:
            return dict(self._revisions)

    def quarantined(self) -> set[str]:
        with self._lock:
            return set(self._quarantined)

    def page_index(self) -> dict[tuple, dict[str, Any]]:
        """Request key → last page record (bronze, last-wins)."""
        with self._lock:
            return {key: self.bronze.read(frame) for key, frame in self._pages.items()}

    def intents(self, current_only: bool = True) -> list[dict[str, Any]]:
        """Fetch intents, optionally only those at a host's current revision."""
        with self._lock:
            return [
                self.bronze.read(intent.frame)
                for intent in self._intents
                if not current_only or self._current(intent.host, intent.revision)
            ]

    def silver_current(self) -> dict[tuple[str, KeyPairs], dict[str, Any]]:
        """(relation, key) → latest result record at the current revision."""
        with self._lock:
            return {
                key: self.silver.read(segment.frame)
                for key, segment in self._silver.items()
                if self._current(segment.host, segment.revision)
            }

    def warm_entries(self) -> list[SilverEntry]:
        """Decoded current silver segments, deterministically ordered."""
        entries = []
        for (relation, key), record in sorted(
            self.silver_current().items(),
            key=lambda item: (item[1]["host"], item[0][0], json.dumps(item[1]["key"])),
        ):
            entries.append(
                SilverEntry(
                    relation=relation,
                    host=record["host"],
                    revision=record["revision"],
                    key=key,
                    value=Relation(
                        record["schema"], [tuple(row) for row in record["rows"]]
                    ),
                )
            )
        return entries

    def current_answers(self) -> list[dict[str, Any]]:
        """Gold answers whose full revision vector is still current."""
        with self._lock:
            revisions = self._revisions
            return [
                record
                for _, record in sorted(self._answers.items())
                if all(
                    revisions.get(host, 0) == revision
                    for host, revision in record["revisions"].items()
                )
            ]

    def snapshot(self, query: str) -> dict[str, Any] | None:
        with self._lock:
            return self._snapshots.get(query)

    def standing_queries(self) -> dict[str, dict[str, Any] | None]:
        """Active standing queries → their last persisted snapshot."""
        with self._lock:
            return {
                query: self._snapshots.get(query)
                for query, active in sorted(self._standing.items())
                if active
            }

    # -- navmap metadata --------------------------------------------------------

    def save_navmaps(self, navmaps: dict[str, Any]) -> None:
        """Persist the compiled-from navigation maps (atomic replace).

        Maps are designer artifacts, written whole at attach time, so
        they live outside the WAL: a temp-file rename gives all-or-
        nothing without framing.  Nothing is written when the maps and
        the host set equal what ``meta.json`` already holds; the temp
        file is fsynced before the rename when the store is.
        """
        from repro.navigation.serialize import map_to_dict

        meta = {
            "version": 1,
            "navmaps": {
                host: map_to_dict(navmap) for host, navmap in sorted(navmaps.items())
            },
        }
        text = json.dumps(meta, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if text == self._meta_text:
                return
            path = os.path.join(self.root, META_FILE)
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="ascii") as handle:
                handle.write(text)
                if self.fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
            self._meta_text = text

    def load_navmaps(self) -> dict[str, Any]:
        """Host → NavigationMap, as persisted at the last attach."""
        from repro.navigation.serialize import map_from_dict

        path = os.path.join(self.root, META_FILE)
        try:
            with open(path, "r", encoding="ascii") as handle:
                text = handle.read()
        except FileNotFoundError:
            return {}
        with self._lock:
            self._meta_text = text
        return {
            host: map_from_dict(payload)
            for host, payload in json.loads(text).get("navmaps", {}).items()
        }

    # -- maintenance ------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Inspection payload for the CLI and tests."""
        with self._lock:
            silver_current = sum(
                1
                for segment in self._silver.values()
                if self._current(segment.host, segment.revision)
            )
            return {
                "root": self.root,
                "fsync": self.fsync,
                "crashed": self.crashed,
                "bronze": {
                    "records": len(self.bronze),
                    "bytes": self.bronze.size_bytes(),
                    "torn_bytes_recovered": self.bronze.torn_bytes,
                    "pages": len(self._pages),
                    "intents": len(self._intents),
                },
                "silver": {
                    "records": len(self.silver),
                    "bytes": self.silver.size_bytes(),
                    "torn_bytes_recovered": self.silver.torn_bytes,
                    "segments": len(self._silver),
                    "current_segments": silver_current,
                },
                "gold": {
                    "records": len(self.gold),
                    "bytes": self.gold.size_bytes(),
                    "torn_bytes_recovered": self.gold.torn_bytes,
                    "answers": len(self._answers),
                    "current_answers": len(self.current_answers()),
                    "snapshots": len(self._snapshots),
                    "standing": sum(1 for active in self._standing.values() if active),
                },
                "revisions": dict(sorted(self._revisions.items())),
                "quarantined": sorted(self._quarantined),
            }

    def compact(self) -> dict[str, int]:
        """Drop superseded records from every tier; returns bytes freed.

        Keeps: the last page per request key, current-revision intents
        (last per (relation, key)), final revision/quarantine marks,
        current-revision silver segments, current gold answers, and
        snapshots/registrations of active standing queries — i.e.
        exactly the records the read path can still serve.  A crashed or
        closed store is left as it is.  The same routine runs online from
        the write path (see :meth:`_append`).
        """
        with self._lock:
            before = self._log_bytes()
            if not (self.crashed or self._closed):
                try:
                    self._compact()
                except StorageCrash:
                    self.crashed = True
                    self._inc("store.crashes")
            after = self._log_bytes()
        return {"bytes_before": before, "bytes_after": after, "freed": before - after}

    def _live(self) -> tuple[list[Frame | bytes], ...]:
        """What a compaction keeps of bronze, silver and gold, in the order
        it writes them: frames of live records, to be copied, and the few
        records it frames anew (caller holds the lock)."""
        intents: dict[tuple[str, str], Frame] = {}
        for intent in self._intents:
            if self._current(intent.host, intent.revision):
                intents[(intent.relation, json.dumps(intent.key))] = intent.frame
        bronze: list[Frame | bytes] = sorted([*self._pages.values(), *intents.values()])
        for host, revision in sorted(self._revisions.items()):
            bronze.append(
                encode_record({"kind": "revision", "host": host, "revision": revision})
            )
        for host in sorted(self._quarantined):
            bronze.append(
                encode_record({"kind": "quarantine", "host": host, "active": True})
            )

        segments = sorted(
            (segment.host, relation, json.dumps(key_to_json(key)), segment.frame)
            for (relation, key), segment in self._silver.items()
            if self._current(segment.host, segment.revision)
        )
        silver: list[Frame | bytes] = [frame for *_, frame in segments]

        gold: list[Frame | bytes] = [
            self._gold_frames["answer", answer["query"]]
            for answer in self.current_answers()
        ]
        for query, active in sorted(self._standing.items()):
            if active:
                gold.append(
                    encode_record({"kind": "standing", "query": query, "active": True})
                )
                if query in self._snapshots:
                    gold.append(self._gold_frames["snapshot", query])
        return bronze, silver, gold

    def _live_bytes(self) -> int:
        return sum(
            item.length if isinstance(item, Frame) else len(item)
            for items in self._live()
            for item in items
        )

    def _compact(self) -> None:
        """Rewrite each tier to its live frames, copied byte for byte, and
        point the index at their new places (caller holds the lock).

        Tier by tier: a crash inside one tier's rewrite leaves that tier's
        old log (and index) in place and the tiers before it compacted."""
        bronze, silver, gold = self._live()
        moved = _rewrite(self.bronze, bronze)
        self._pages = {key: moved[frame] for key, frame in self._pages.items()}
        self._intents = [
            intent._replace(frame=moved[intent.frame])
            for intent in self._intents
            if intent.frame in moved
        ]
        moved = _rewrite(self.silver, silver)
        self._silver = {
            key: segment._replace(frame=moved[segment.frame])
            for key, segment in self._silver.items()
            if segment.frame in moved
        }
        moved = _rewrite(self.gold, gold)
        self._gold_frames = {
            key: moved[frame]
            for key, frame in self._gold_frames.items()
            if frame in moved
        }
        self._answers = {
            query: record
            for query, record in self._answers.items()
            if ("answer", query) in self._gold_frames
        }
        self._snapshots = {
            query: record
            for query, record in self._snapshots.items()
            if ("snapshot", query) in self._gold_frames
        }
        self._standing = {q: True for q, active in self._standing.items() if active}
        self._baseline_bytes = self._log_bytes()
        self._inc("store.compactions")

    def close(self) -> None:
        """Close the tier logs and go inert: a closed store still wired
        as a page sink (e.g. an old webbase over a shared world) drops
        writes instead of raising into the fetch path."""
        with self._lock:
            self._closed = True
            self.bronze.close()
            self.silver.close()
            self.gold.close()


def _rewrite(log: RecordLog, items: list[Frame | bytes]) -> dict[Frame, Frame]:
    """Rewrite ``log`` as ``items`` — frames of its own, copied, or new
    framed records — and map each copied frame to its new place."""
    data = memoryview(log.frame_bytes(Frame(0, log.size)))
    placed = log.rewrite(
        [
            data[item.offset : item.offset + item.length]
            if isinstance(item, Frame)
            else item
            for item in items
        ]
    )
    return {old: new for old, new in zip(items, placed) if isinstance(old, Frame)}
