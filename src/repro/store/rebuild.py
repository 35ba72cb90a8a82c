"""Offline rebuild: prove silver and gold are functions of bronze.

The bronze log holds every page the Web ever served plus every fetch
intent.  A :class:`ReplayServer` serves those pages back — no sockets,
no live world — so a stock :class:`NavigationExecutor` over the
persisted navigation maps can re-run each current-revision intent and
re-extract its relation.  Comparing the re-extraction against the
persisted silver segments (and re-answering gold queries over them)
yields a three-way verdict per entry:

``match``
    replay reproduced the persisted rows exactly (the invariant the
    crash suite asserts byte-for-byte),
``recovered``
    bronze has the pages but silver lost the segment (crash between the
    page writes and the silver append) — rebuild resurrects it,
``mismatch`` / ``unreplayable``
    genuine divergence or pages missing from bronze; both are surfaced,
    never papered over.

``python -m repro store rebuild`` drives this and writes the canonical
rebuilt segments to ``silver.rebuilt``/``gold.rebuilt`` next to the
live logs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

from repro.domains import CARS, Domain
from repro.store.log import RecordLog
from repro.store.tiered import KeyPairs, TieredStore, key_to_json
from repro.web.clock import LatencyModel
from repro.web.http import Response, parse_url
from repro.web.server import HttpError


class ReplayServer:
    """Serves bronze-logged pages: the 'Web' of the rebuild path.

    Implements the two methods :class:`~repro.web.browser.Browser`
    actually uses (``fetch`` and ``latency_for``); a request whose key
    was never logged is a hard 404 — rebuild must never invent pages.
    """

    def __init__(self, pages: dict[tuple, dict[str, Any]]) -> None:
        self._pages = pages
        self._latency = LatencyModel(rtt=0.0, per_kilobyte=0.0)
        self.misses: list[tuple] = []

    def latency_for(self, host: str) -> LatencyModel:
        return self._latency

    def fetch(self, request: Any) -> Response:
        from repro.web.browser import request_key

        key = request_key(request)
        record = self._pages.get(key)
        if record is None:
            self.misses.append(key)
            raise HttpError(404, "page not in bronze log: %s %s" % (key[0], key[1]))
        return Response(
            record["status"],
            record["body"],
            final_url=parse_url(record["final_url"]) if record["final_url"] else None,
            location=record["location"],
        )


@dataclass
class RebuildReport:
    """Outcome of one rebuild pass, entry by entry."""

    silver_matches: int = 0
    silver_mismatches: list[str] = field(default_factory=list)
    silver_recovered: list[str] = field(default_factory=list)
    silver_unreplayable: list[str] = field(default_factory=list)
    gold_matches: int = 0
    gold_mismatches: list[str] = field(default_factory=list)
    rebuilt_silver_path: str | None = None
    rebuilt_gold_path: str | None = None

    @property
    def clean(self) -> bool:
        return not (
            self.silver_mismatches or self.silver_unreplayable or self.gold_mismatches
        )

    def summary(self) -> str:
        lines = [
            "silver: %d match, %d recovered, %d mismatch, %d unreplayable"
            % (
                self.silver_matches,
                len(self.silver_recovered),
                len(self.silver_mismatches),
                len(self.silver_unreplayable),
            ),
            "gold: %d match, %d mismatch"
            % (self.gold_matches, len(self.gold_mismatches)),
        ]
        for label in self.silver_mismatches + self.silver_unreplayable:
            lines.append("  silver! %s" % label)
        for label in self.gold_mismatches:
            lines.append("  gold! %s" % label)
        return "\n".join(lines)


def _result_record(
    relation: str, host: str, revision: int, key: KeyPairs, value: Any
) -> dict[str, Any]:
    return {
        "kind": "result",
        "relation": relation,
        "host": host,
        "revision": revision,
        "key": key_to_json(key),
        "schema": list(value.schema),
        "rows": [list(row) for row in value.rows],
    }


class _SilverBackedCatalog:
    """A Catalog that answers from rebuilt silver, replaying on a miss.

    The gold tier is defined over silver; a key silver never captured
    (e.g. a fetch the planner probed but the crash lost) falls through
    to bronze replay so the rebuild chain stays closed.
    """

    def __init__(self, vps: Any, segments: dict[tuple[str, KeyPairs], Any]) -> None:
        self._vps = vps
        self._segments = segments

    def base_schema(self, name: str) -> Any:
        return self._vps.base_schema(name)

    def base_binding_sets(self, name: str) -> Any:
        return self._vps.base_binding_sets(name)

    def host_of(self, name: str) -> str:
        return self._vps.host_of(name)

    def _key(self, given: dict[str, Any]) -> KeyPairs:
        return tuple(
            sorted((attr, value) for attr, value in given.items() if value is not None)
        )

    def fetch(self, name: str, given: dict[str, Any], context: Any = None) -> Any:
        entry = self._segments.get((name, self._key(given)))
        if entry is not None:
            return entry
        return self._vps.fetch(name, given)

    def fetch_batch(
        self, name: str, givens: list[dict[str, Any]], context: Any = None
    ) -> list[Any]:
        return [self.fetch(name, given) for given in givens]


def _build_replay_vps(store: TieredStore) -> tuple[Any, ReplayServer]:
    """A VpsSchema whose executor navigates the bronze page log."""
    from repro.navigation.compiler import compile_map
    from repro.navigation.executor import NavigationExecutor
    from repro.vps.schema import VpsSchema

    navmaps = store.load_navmaps()
    if not navmaps:
        raise ValueError(
            "store at %r has no persisted navigation maps; attach a webbase first"
            % store.root
        )
    server = ReplayServer(store.page_index())
    executor = NavigationExecutor(server)
    vps = VpsSchema(executor)
    for _, navmap in sorted(navmaps.items()):
        vps.add_compiled_site(compile_map(navmap))
    return vps, server


def rebuild(
    store: TieredStore, write: bool = True, domain: Domain = CARS
) -> RebuildReport:
    """Re-derive silver from bronze and gold from silver; compare both.

    ``domain`` must be the one whose webbase wrote the store: its logical
    views and universal relation re-answer the gold queries (the VPS
    itself is recompiled from the persisted navigation maps).

    When ``write`` is true the canonical rebuilt segments are written to
    ``silver.rebuilt`` / ``gold.rebuilt`` in the store directory (framed
    like the live logs, deterministically ordered) so two stores can be
    compared byte-for-byte.
    """
    from repro.errors import WebBaseError
    from repro.relational.relation import Relation
    from repro.ur.planner import StructuredUR

    report = RebuildReport()
    vps, _server = _build_replay_vps(store)
    revisions = store.revisions()

    # -- silver from bronze --------------------------------------------------
    rebuilt: dict[tuple[str, KeyPairs], dict[str, Any]] = {}
    seen: set[tuple[str, KeyPairs]] = set()
    for intent in store.intents(current_only=True):
        relation = intent["relation"]
        key = tuple((pair[0], pair[1]) for pair in intent["key"])
        if (relation, key) in seen:
            continue
        seen.add((relation, key))
        label = "%s %s" % (relation, json.dumps(intent["key"]))
        try:
            value = vps.fetch(relation, dict(key))
        except WebBaseError as exc:
            report.silver_unreplayable.append("%s (%s)" % (label, exc))
            continue
        rebuilt[(relation, key)] = _result_record(
            relation, intent["host"], intent["revision"], key, value
        )

    persisted = store.silver_current()
    for identity, record in sorted(
        persisted.items(), key=lambda item: json.dumps(item[1]["key"])
    ):
        label = "%s %s" % (identity[0], json.dumps(record["key"]))
        replayed = rebuilt.get(identity)
        if replayed is None:
            # No current intent replayed this key; replay it directly from
            # the silver identity so every persisted segment is checked.
            try:
                value = vps.fetch(identity[0], dict(identity[1]))
            except WebBaseError as exc:
                report.silver_unreplayable.append("%s (%s)" % (label, exc))
                continue
            replayed = _result_record(
                identity[0], record["host"], record["revision"], identity[1], value
            )
            rebuilt[identity] = replayed
        if replayed["schema"] == record["schema"] and replayed["rows"] == record["rows"]:
            report.silver_matches += 1
        else:
            report.silver_mismatches.append(label)
    for identity in sorted(set(rebuilt) - set(persisted), key=str):
        report.silver_recovered.append(
            "%s %s" % (identity[0], json.dumps(key_to_json(identity[1])))
        )

    # -- gold from silver ----------------------------------------------------
    segments = {
        identity: Relation(record["schema"], [tuple(row) for row in record["rows"]])
        for identity, record in rebuilt.items()
    }
    logical = domain.logical_schema(_SilverBackedCatalog(vps, segments))
    ur = StructuredUR(
        logical, domain.hierarchy(), domain.rules, domain.relations, optimizer="off"
    )
    rebuilt_gold: list[dict[str, Any]] = []
    for record in store.current_answers():
        label = record["query"]
        try:
            answer = ur.answer(record["query"])
        except WebBaseError as exc:
            report.gold_mismatches.append("%s (%s)" % (label, exc))
            continue
        replayed = {
            "kind": "answer",
            "query": record["query"],
            "schema": list(answer.schema),
            "rows": [list(row) for row in answer.rows],
            "revisions": record["revisions"],
        }
        rebuilt_gold.append(replayed)
        if replayed["schema"] == record["schema"] and replayed["rows"] == record["rows"]:
            report.gold_matches += 1
        else:
            report.gold_mismatches.append(label)

    if write:
        silver_path = os.path.join(store.root, "silver.rebuilt")
        gold_path = os.path.join(store.root, "gold.rebuilt")
        for path in (silver_path, gold_path):
            if os.path.exists(path):
                os.remove(path)
        silver_log = RecordLog(silver_path)
        for _, record in sorted(
            rebuilt.items(),
            key=lambda item: (item[1]["host"], item[0][0], json.dumps(item[1]["key"])),
        ):
            silver_log.append(record)
        silver_log.close()
        gold_log = RecordLog(gold_path)
        for record in sorted(rebuilt_gold, key=lambda r: r["query"]):
            gold_log.append(record)
        gold_log.close()
        report.rebuilt_silver_path = silver_path
        report.rebuilt_gold_path = gold_path
    return report
