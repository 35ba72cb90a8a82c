"""The cross-shard cache federation: a router-owned revision bus.

Workers publish their result-cache fills — extracted VPS relations,
stamped with the host's navigation-map revision — and every host's
latest revision to one :class:`FederationCache` living in the router
process.  Before paying for a live fetch, a worker's flight leader asks
the federation first: a prefix walked on shard A thereby amortizes for
clients landing on shard B, with revision-stamp invalidation (the
:mod:`repro.revisions` contract; the router process keeps its own
authority) preserved *by construction* — an entry is served only when
its stamp equals both the requester's and the federation's current
revision for the host, so nothing captured under a superseded navigation
map ever crosses shards.

Claims extend single-flight across the cluster: before paying for a
fill the federation also missed, a shard *claims* the key; a sibling
whose claim is denied polls for the holder's publish instead of
duplicating the walk.  Claims expire (``claim_ttl``) so a crashed
holder never wedges its waiters — the first shard to re-contend adopts
the orphaned key and fetches.

Transport is the same line-delimited JSON/TCP idiom as the service
protocol (one request frame per line, one response line back), served by
:class:`FederationServer` and spoken by the thread-safe
:class:`FederationClient` that plugs into
:attr:`repro.vps.cache.ResultCache.federation`.  Every client call is
fail-open at the caller: a dead federation degrades shards to their
local caches, never to an error.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
import time
from collections import OrderedDict
from typing import Any

from repro.relational.relation import Relation
from repro.revisions import Revisions
from repro.service.protocol import LineFrameHandler, encode
from repro.store.tiered import KeyPairs, key_from_json, key_to_json

MAX_LINE_BYTES = 8 * 1024 * 1024


class FederationCache:
    """The in-memory federated store: fills + revision stamps, bounded.

    Thread-safe.  ``revisions`` tracks the highest navigation-map
    revision any shard has reported per host; entries stamped lower are
    dead, and dropped by whichever call first brings word of the move
    (:meth:`_adopt`).
    """

    def __init__(
        self,
        max_entries: int = 4096,
        metrics: Any = None,
        claim_ttl: float = 15.0,
    ) -> None:
        self.max_entries = max_entries
        self.metrics = metrics
        self.claim_ttl = claim_ttl
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, KeyPairs], dict[str, Any]] = (
            OrderedDict()
        )
        self.revisions = Revisions()
        # Cluster-wide single-flight: (relation, key) -> (holder, stamp).
        # The holder is filling that key; sibling shards wait for its
        # publish instead of duplicating the walk.  Claims expire after
        # ``claim_ttl`` so a crashed holder never wedges its waiters.
        self._claims: dict[tuple[str, KeyPairs], tuple[str, float]] = {}

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _adopt(self, host: str, revision: int) -> int:
        """A shard spoke of ``host`` at ``revision`` (caller holds the
        lock): adopt the max, and if that moved the federation's view,
        drop and count every entry stamped older.  Returns the
        federation's current revision for the host."""
        if self.revisions.advance(host, to=revision) is not None:
            stale = [
                key
                for key, record in self._entries.items()
                if record["host"] == host and record["revision"] != revision
            ]
            for key in stale:
                del self._entries[key]
            if stale:
                self._count("cluster.fed_evictions", len(stale))
                self._entries_changed()
        return self.revisions.current(host)

    def _entries_changed(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("cluster.fed_entries").set(len(self._entries))

    def advance_revision(self, host: str, revision: int) -> None:
        """A shard reported ``host`` at ``revision``."""
        with self._lock:
            self._adopt(host, revision)

    def claim(self, relation: str, key: KeyPairs, holder: str) -> bool:
        """Grant ``holder`` the exclusive right to fill ``(relation, key)``.

        Denied while another live holder owns the claim; granted when the
        slot is free, expired, or already ours (re-claiming refreshes the
        stamp, which doubles as a keep-alive for long walks).
        """
        with self._lock:
            now = time.monotonic()
            if len(self._claims) > 4 * self.max_entries:
                # A crashed fleet could strand claims; sweep the dead ones
                # before the dict grows without bound.
                expired = [
                    k
                    for k, (_, stamp) in self._claims.items()
                    if now - stamp >= self.claim_ttl
                ]
                for k in expired:
                    del self._claims[k]
            current = self._claims.get((relation, key))
            if (
                current is not None
                and current[0] != holder
                and now - current[1] < self.claim_ttl
            ):
                self._count("cluster.fed_claims_held")
                return False
            self._claims[(relation, key)] = (holder, now)
            self._count("cluster.fed_claims")
            return True

    def release(self, relation: str, key: KeyPairs, holder: str) -> None:
        """Drop ``holder``'s claim (a fill that failed or was not stored);
        a non-holder's release is a no-op."""
        with self._lock:
            current = self._claims.get((relation, key))
            if current is not None and current[0] == holder:
                del self._claims[(relation, key)]

    def publish(
        self,
        relation: str,
        host: str,
        key: KeyPairs,
        revision: int,
        schema: list[str],
        rows: list[list[Any]],
    ) -> bool:
        """Store one fill, unless its stamp is already superseded."""
        with self._lock:
            # The fill landed: whoever claimed it is done, and waiters
            # should find the entry on their next lookup.
            self._claims.pop((relation, key), None)
            if revision < self._adopt(host, revision):
                self._count("cluster.fed_rejected")
                return False
            self._entries[(relation, key)] = {
                "host": host,
                "revision": revision,
                "schema": list(schema),
                "rows": [list(row) for row in rows],
            }
            self._entries.move_to_end((relation, key))
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._count("cluster.fed_evictions")
            self._count("cluster.fed_publishes")
            self._entries_changed()
            return True

    def lookup(
        self, relation: str, host: str, key: KeyPairs, revision: int
    ) -> dict[str, Any] | None:
        """The fill for ``(relation, key)`` iff it is current both for the
        requester (its ``revision``) and for the federation's view."""
        with self._lock:
            # A requester ahead of us supersedes whatever we held.
            known = self._adopt(host, revision)
            record = self._entries.get((relation, key))
            if (
                record is None
                or record["revision"] != revision
                or record["revision"] != known
            ):
                self._count("cluster.fed_lookup_misses")
                return None
            self._entries.move_to_end((relation, key))
            self._count("cluster.fed_lookup_hits")
            return {"schema": record["schema"], "rows": record["rows"]}

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "claims": len(self._claims),
                "revisions": self.revisions.vector(),
            }


class _FederationHandler(LineFrameHandler):
    server: "FederationServer"
    max_line_bytes = MAX_LINE_BYTES

    def rejection(self, request_id: Any, exc: Exception) -> dict[str, Any]:
        return {"ok": False, "error": str(exc)}

    def on_frame(self, frame: dict[str, Any]) -> None:
        try:
            reply = self._dispatch(self.server.cache, frame)
        except Exception as exc:  # noqa: BLE001 - answer, don't die
            reply = self.rejection(None, exc)
        self.send(reply)

    def _dispatch(self, cache: FederationCache, frame: dict[str, Any]) -> dict:
        op = frame.get("op")
        if op == "lookup":
            found = cache.lookup(
                str(frame["relation"]),
                str(frame["host"]),
                key_from_json(frame["key"]),
                int(frame["revision"]),
            )
            if found is None:
                return {"ok": True, "hit": False}
            return {"ok": True, "hit": True, **found}
        if op == "publish":
            stored = cache.publish(
                str(frame["relation"]),
                str(frame["host"]),
                key_from_json(frame["key"]),
                int(frame["revision"]),
                list(frame["schema"]),
                list(frame["rows"]),
            )
            return {"ok": True, "stored": stored}
        if op == "claim":
            granted = cache.claim(
                str(frame["relation"]),
                key_from_json(frame["key"]),
                str(frame["holder"]),
            )
            return {"ok": True, "granted": granted}
        if op == "release":
            cache.release(
                str(frame["relation"]),
                key_from_json(frame["key"]),
                str(frame["holder"]),
            )
            return {"ok": True}
        if op == "revision":
            cache.advance_revision(str(frame["host"]), int(frame["revision"]))
            return {"ok": True}
        if op == "stats":
            return {"ok": True, "stats": cache.stats()}
        return {"ok": False, "error": "unknown op %r" % op}


class FederationServer:
    """The TCP front of one :class:`FederationCache` (router-owned)."""

    def __init__(
        self,
        cache: FederationCache | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Any = None,
    ) -> None:
        self.cache = cache or FederationCache(metrics=metrics)
        self._server = socketserver.ThreadingTCPServer(
            (host, port), _FederationHandler, bind_and_activate=True
        )
        self._server.allow_reuse_address = True
        self._server.daemon_threads = True
        self._server.cache = self.cache  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="federation-server",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)


class FederationClient:
    """A worker's connection to the federation bus.

    Thread-safe (one socket, one lock — federation round trips are tiny
    and local).  Raises on transport errors; the result cache's callers
    treat any raise as a miss (fail-open), and the next call reconnects.
    """

    def __init__(
        self, host: str, port: int, timeout: float = 5.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        # Claim holder identity: unique per worker process (and per
        # client object, so tests with several in-process clients never
        # collide).
        self._holder = "pid%d-%x" % (os.getpid(), id(self))
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._buf = b""

    def _connect(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._buf = b""
        return self._sock

    def _roundtrip(self, frame: dict[str, Any]) -> dict[str, Any]:
        with self._lock:
            try:
                sock = self._connect()
                sock.sendall(encode(frame))
                while b"\n" not in self._buf:
                    chunk = sock.recv(65536)
                    if not chunk:
                        raise ConnectionError("federation closed the connection")
                    self._buf += chunk
                line, _, self._buf = self._buf.partition(b"\n")
            except Exception:
                # Drop the socket so the next call starts clean.
                if self._sock is not None:
                    try:
                        self._sock.close()
                    except OSError:
                        pass
                    self._sock = None
                raise
        reply = json.loads(line.decode("utf-8"))
        if not reply.get("ok"):
            raise RuntimeError(
                "federation rejected %r: %s" % (frame.get("op"), reply.get("error"))
            )
        return reply

    # -- the ResultCache.federation protocol ----------------------------------

    def lookup(
        self, relation: str, host: str, key: KeyPairs, revision: int
    ) -> Relation | None:
        reply = self._roundtrip(
            {
                "op": "lookup",
                "relation": relation,
                "host": host,
                "key": key_to_json(key),
                "revision": revision,
            }
        )
        if not reply.get("hit"):
            return None
        return Relation(
            list(reply["schema"]), [tuple(row) for row in reply["rows"]]
        )

    def publish(
        self,
        relation: str,
        host: str,
        key: KeyPairs,
        revision: int,
        value: Relation,
    ) -> None:
        self._roundtrip(
            {
                "op": "publish",
                "relation": relation,
                "host": host,
                "key": key_to_json(key),
                "revision": revision,
                "schema": list(value.schema),
                "rows": [list(row) for row in value.rows],
            }
        )

    def claim(self, relation: str, key: KeyPairs) -> bool:
        reply = self._roundtrip(
            {
                "op": "claim",
                "relation": relation,
                "key": key_to_json(key),
                "holder": self._holder,
            }
        )
        return bool(reply.get("granted"))

    def release(self, relation: str, key: KeyPairs) -> None:
        self._roundtrip(
            {
                "op": "release",
                "relation": relation,
                "key": key_to_json(key),
                "holder": self._holder,
            }
        )

    def publish_revision(self, host: str, revision: int) -> None:
        self._roundtrip({"op": "revision", "host": host, "revision": revision})

    def stats(self) -> dict[str, Any]:
        return dict(self._roundtrip({"op": "stats"})["stats"])

    def close(self) -> None:
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None
