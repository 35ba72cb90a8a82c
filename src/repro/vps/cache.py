"""Result caching for VPS fetches — staleness-aware and observable.

The paper's conclusions call out caching (with parallelization) as the key
technique for acceptable response times when querying many sites.  This is
that cache: a bounded memo of ``(relation, bound-values) -> Relation`` that
sits in front of a :class:`~repro.vps.schema.VpsSchema` and satisfies the
same Catalog protocol, so it can be slotted under the logical layer
transparently.

The cache is an *always-present* layer of the webbase: a
:class:`CachePolicy` decides whether it stores anything.  With the no-op
policy every fetch passes straight through (the cold ablation arm); with
an LRU policy results are shared across queries.  Either way there is
exactly one fetch path — no ``cache or vps`` branching at call sites.

Because the underlying sites are *dynamic*, a cross-query cache is only
safe if it can notice the world moving underneath it.  Three mechanisms
cover that:

* **TTLs** — a time-to-live bounds how long an entry may be served
  without revalidation (``CachePolicy.ttl_seconds``);
* **revision stamps** — every entry records the navigation-map revision of
  its host at store time, under the :mod:`repro.revisions` contract.  When
  site maintenance auto-absorbs a change
  (:func:`~repro.navigation.maintenance.apply_auto_changes`), the host's
  revision is advanced and the host's entries are evicted, so nothing
  captured under the old map is ever served silently;
* **quarantine** — a change that needs *manual* intervention (a new form
  attribute, a vanished link) puts the host's entries in quarantine:
  depending on ``CachePolicy.stale_mode`` they are either served with an
  explicit staleness flag (``cache stale`` on the trace span, counted as
  ``cache.stale_serves``) or bypassed entirely until the designer
  re-demonstrates the flow and the quarantine is lifted.

Concurrent misses on the same key coalesce into one upstream fetch under
the :mod:`repro.flight` contract; a failure is never stored, so a
transient fault cannot poison the cache.

All cache traffic is counted into a :class:`~repro.core.metrics.MetricsRegistry`
and, when a fetch carries an execution context, mirrored onto trace spans
(``cache hit`` / ``miss`` / ``stale``), so ``python -m repro metrics`` can
reconcile counters against spans.
"""

from __future__ import annotations

import threading
import time

from collections import OrderedDict
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.core.metrics import MetricsRegistry
from repro.flight import Flight, Flights
from repro.relational.bindings import BindingSets
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.revisions import Revisions
from repro.vps.schema import VpsSchema

STALE_MODES = ("refetch", "serve_stale")


@dataclass(frozen=True)
class CachePolicy:
    """Whether, and how much — and for how long — the cache may store.

    ``ttl_seconds`` is the entry lifetime (``None`` = no expiry).
    ``stale_mode`` picks what happens to entries of a quarantined host
    (one with unabsorbed manual site changes): ``"refetch"`` bypasses
    them, ``"serve_stale"`` serves them flagged as stale.
    """

    enabled: bool = True
    max_entries: int = 1024
    ttl_seconds: float | None = None
    stale_mode: str = "refetch"

    def __post_init__(self) -> None:
        if self.stale_mode not in STALE_MODES:
            raise ValueError(
                "stale_mode must be one of %s; got %r" % (STALE_MODES, self.stale_mode)
            )

    @classmethod
    def noop(cls) -> "CachePolicy":
        """A disabled cache: every fetch goes to the source."""
        return cls(enabled=False, max_entries=0)

    @classmethod
    def lru(
        cls,
        max_entries: int = 1024,
        ttl_seconds: float | None = None,
        stale_mode: str = "refetch",
    ) -> "CachePolicy":
        """A bounded least-recently-used cache shared across queries."""
        return cls(
            enabled=True,
            max_entries=max_entries,
            ttl_seconds=ttl_seconds,
            stale_mode=stale_mode,
        )


#: One key this caller leads: ``(cache key, its bindings, its open flight)``.
_Lead = tuple[tuple, dict[str, Any], Flight]


@dataclass
class CacheEntry:
    """One stored result, stamped for staleness checks."""

    value: Relation
    relation: str
    host: str
    revision: int  # the host's navigation-map revision at store time
    stored_at: float  # cache-clock seconds
    expires_at: float | None  # None = never expires
    warmed: bool = False  # loaded from the tiered store, not fetched live


class ResultCache:
    """The always-present cache layer over a VPS schema (Catalog-compatible).

    Thread-safe: parallel execution contexts fetch through one shared
    instance.  An :class:`~repro.core.execution.ExecutionContext` passed to
    :meth:`fetch` rides through to the VPS layer on misses, so uncached
    fetches still get the engine's workers, retries and tracing — and
    cache hits are recorded as trace spans on it.

    ``clock`` is the TTL time source (seconds, monotonic); tests inject a
    fake one to step time deterministically.  ``revisions`` is the
    staleness authority entries are stamped against (the webbase's; a
    bare cache gets its own).
    """

    def __init__(
        self,
        inner: VpsSchema,
        policy: CachePolicy | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] | None = None,
        revisions: Revisions | None = None,
    ) -> None:
        self.inner = inner
        self.policy = policy or CachePolicy.lru()
        self.metrics = metrics or MetricsRegistry()
        self._clock = clock or time.monotonic
        self._cache: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self.revisions = revisions or Revisions()
        self._lock = threading.Lock()
        self._inflight = Flights(self._lock)
        self.hits = 0
        self.misses = 0
        # Optional persistence underneath (repro.store.TieredStore): filled
        # results are mirrored to silver, and a restart warms from the
        # store instead of refetching.
        self.store: Any = None
        # Optional cluster federation (repro.cluster.federation): flight
        # leaders consult the cross-shard cache before fetching live, and
        # publish their fills so sibling shards amortize the same prefix
        # walk (see :meth:`_lead`); every revision move is published too,
        # so siblings stop being offered fills captured under the old
        # navigation map.  Strictly fail-open (:meth:`_federated`): a
        # federation error is a miss.
        self.federation: Any = None
        self.revisions.subscribe(partial(self._federated, "publish_revision", None))

    @property
    def max_entries(self) -> int:
        return self.policy.max_entries

    def base_schema(self, name: str) -> Schema:
        return self.inner.base_schema(name)

    def base_binding_sets(self, name: str) -> BindingSets:
        return self.inner.base_binding_sets(name)

    # -- maintenance-driven invalidation ------------------------------------

    def host_of(self, name: str) -> str:
        """The host serving one relation ('' when the inner catalog is a
        test double without host information)."""
        host_of = getattr(self.inner, "host_of", None)
        if host_of is not None:
            return host_of(name)
        return ""

    def revision(self, host: str) -> int:
        """The navigation-map revision entries of ``host`` are stamped with."""
        return self.revisions.current(host)

    # Invariant of every move below: *advance before evicting*.  Once the
    # authority has moved, a racing lookup drops the old stamp itself
    # (:meth:`_live_entry`) and a racing fill captured under it is refused
    # (:meth:`_store`), so nothing old survives the eviction that follows.

    def bump_revision(self, host: str) -> int:
        """An auto-absorbed site change: advance the host's map revision and
        evict its entries.  Returns the number of entries evicted."""
        revision = self.revisions.advance(host)
        with self._lock:
            stale = [
                key
                for key, entry in self._cache.items()
                if entry.host == host and entry.revision != revision
            ]
            for key in stale:
                del self._cache[key]
            if stale:
                self.metrics.counter("cache.invalidations").inc(len(stale))
                self.metrics.gauge("cache.entries").set(len(self._cache))
        return len(stale)

    def quarantine(self, host: str) -> int:
        """A manual-intervention site change: flag the host's entries as
        suspect.  Returns how many entries are affected."""
        self.revisions.quarantine(host)
        with self._lock:
            return sum(1 for e in self._cache.values() if e.host == host)

    def clear_quarantine(self, host: str, evict: bool = True) -> int:
        """The designer re-demonstrated the flow: lift the quarantine and
        (by default) drop the pre-change entries."""
        self.revisions.lift(host)
        return self.bump_revision(host) if evict else 0

    def quarantined_hosts(self) -> frozenset[str]:
        return self.revisions.quarantined_hosts()

    def adopt_revision(self, host: str, revision: int) -> bool:
        """Shard takeover: adopt a (higher) revision observed elsewhere.

        Entries stamped with the old revision die lazily at their next
        lookup (:meth:`_live_entry`'s revision check), exactly as after a
        :meth:`bump_revision`.  Never moves a revision backwards."""
        return self.revisions.advance(host, to=revision) is not None

    # -- persistence ---------------------------------------------------------

    def attach_store(self, store: Any) -> None:
        """Layer a tiered store underneath: fills mirror to silver, and —
        from here on — every revision move and quarantine mark to bronze.

        Revision and quarantine state are adopted from the store *here*,
        before any warm load or drift check — so a restart's drift bump
        lands *on top of* the persisted revision instead of colliding
        with it (a fresh cache starts at revision 0; bumping 0 → 1 would
        alias the stamp of segments persisted after an earlier sweep).
        The store subscribes only after that replay: what it just told us
        is not written back to it."""
        self.store = store
        for host, revision in store.revisions().items():
            self.revisions.advance(host, to=revision)
        for host in store.quarantined():
            self.revisions.quarantine(host)
        self.revisions.subscribe(store.record_revision, store.record_quarantine)

    def warm_from_store(self, store: Any = None) -> int:
        """Load current-revision silver segments into the cache (restart).

        Every candidate segment is admitted only if its stamp equals the
        host's current revision (adopted at :meth:`attach_store`, plus
        any drift bumps since) — keyed by revision, never by eviction
        order, so an entry persisted before a later bump can never
        resurface (the invariant the store satellite pins).  Returns the
        number of entries loaded.

        ``store`` warms from a *foreign* store instead of the attached
        one — shard takeover reads the dead sibling's silver tier under
        the revisions adopted from it, without adopting its logs.
        """
        source = store if store is not None else self.store
        if source is None or not self.policy.enabled:
            return 0
        loaded = 0
        with self._lock:
            for entry in source.warm_entries():
                key = (entry.relation, entry.key)
                if key not in self._cache and self._store(
                    key, entry.relation, entry.host, entry.revision, entry.value, warmed=True
                ):
                    loaded += 1
        if loaded:
            self.metrics.counter("store.warm_loads").inc(loaded)
        return loaded

    def invalidate(self, name: str | None = None) -> int:
        """Drop cached results (all of them, or one relation's); returns the
        number of entries removed."""
        with self._lock:
            if name is None:
                removed = len(self._cache)
                self._cache.clear()
            else:
                stale = [k for k in self._cache if k[0] == name]
                for key in stale:
                    del self._cache[key]
                removed = len(stale)
            if removed:
                self.metrics.counter("cache.invalidations").inc(removed)
                self.metrics.gauge("cache.entries").set(len(self._cache))
            return removed

    # -- the fetch path ------------------------------------------------------

    def _fetch_inner(self, name: str, given: dict[str, Any], context: Any) -> Relation:
        if context is None:
            return self.inner.fetch(name, given)
        return self.inner.fetch(name, given, context=context)

    def _key(self, name: str, given: dict[str, Any]) -> tuple:
        return (name, tuple(sorted((a, v) for a, v in given.items() if v is not None)))

    def _live_entry(self, key: tuple, host: str, stale_ok: bool = False) -> CacheEntry | None:
        """The entry under ``key`` if it is still servable; evicts revision
        mismatches and TTL expiries (caller holds the lock).

        ``stale_ok`` is the *flagged-stale* serve: the map revision must
        still match (a superseded map is never served), but TTL expiry is
        forgiven — a quarantined host cannot be refetched to revalidate,
        and serving a known-stale entry past its TTL is exactly what
        ``serve_stale`` promises."""
        entry = self._cache.get(key)
        if entry is None:
            return None
        if not self.revisions.is_current(host, entry.revision):
            dropped = "cache.invalidations"
        elif not stale_ok and entry.expires_at is not None and self._clock() >= entry.expires_at:
            dropped = "cache.expirations"
        else:
            return entry
        del self._cache[key]
        self.metrics.counter(dropped).inc()
        self.metrics.gauge("cache.entries").set(len(self._cache))
        return None

    def _record_hit(
        self, name: str, host: str, context: Any, stale: bool, warmed: bool = False
    ) -> None:
        if stale:
            self.metrics.counter("cache.stale_serves").inc()
        else:
            self.metrics.counter("cache.hits").inc()
        if warmed:
            self.metrics.counter("store.warm_hits").inc()
        if context is not None:
            with context.span("fetch", name, host=host, layer="cache") as span:
                span.cache = "stale" if stale else "hit"

    def _store(
        self, key: tuple, name: str, host: str, revision: int, value: Relation, warmed: bool = False
    ) -> bool:
        """Insert one result — fetched, or ``warmed`` from the tiered
        store (caller holds the lock); skipped when the host's revision
        moved since it was captured — the result may straddle the change,
        so it cannot be trusted across queries.  Returns whether the entry
        was stored (callers mirror stored fetches to silver)."""
        if not self.revisions.is_current(host, revision):
            return False
        now = self._clock()
        ttl = self.policy.ttl_seconds
        self._cache[key] = CacheEntry(
            value=value,
            relation=name,
            host=host,
            revision=revision,
            stored_at=now,
            expires_at=None if ttl is None else now + ttl,
            warmed=warmed,
        )
        if len(self._cache) > self.policy.max_entries:
            self._cache.popitem(last=False)
            self.metrics.counter("cache.evictions").inc()
        self.metrics.gauge("cache.entries").set(len(self._cache))
        return True

    def _persist_silver(self, key: tuple, name: str, host: str, revision: int, value: Relation) -> None:
        """Mirror one freshly stored entry to the silver tier (outside the
        cache lock — persistence must never serialize the fetch path)."""
        if self.store is not None:
            self.store.persist_result(name, host, revision, key[1], value)

    def _federated(self, op: str, failed: Any, *args: Any) -> Any:
        """One call on the cluster federation, strictly fail-open: with no
        federation, or on any error from it, the answer is ``failed``.  A
        lookup that fails is a miss; a publish or a revision stamp that
        fails is skipped."""
        if self.federation is None:
            return failed
        try:
            return getattr(self.federation, op)(*args)
        except Exception:  # noqa: BLE001 - the federation must never break a fetch
            return failed

    def _land_fed_hit(
        self, name: str, host: str, revision: int, lead: _Lead, value: Relation, context: Any
    ) -> None:
        """The federation satisfied this flight: store, land, account the hit."""
        key, _given, flight = lead
        with self._lock:
            self.hits += 1
            stored = self._store(key, name, host, revision, value)
            flight.land(value)
        self.metrics.counter("cluster.fed_hits").inc()
        if stored:
            self._persist_silver(key, name, host, revision, value)
        self._record_hit(name, host, context, stale=False)

    def _lead(
        self,
        name: str,
        host: str,
        revision: int,
        leads: list[_Lead],
        context: Any,
        batch: bool,
    ) -> dict[tuple, Relation]:
        """The one leader path: resolve every key whose flight this caller
        opened — one for :meth:`fetch`, many for :meth:`fetch_batch` — and
        return ``key -> result``.  Every flight is settled on the way out,
        however this exits: a key that did not land fails its flight, and
        its waiters retry as the new leader.
        """
        results: dict[tuple, Relation] = {}
        with ExitStack() as section:
            for _key, _given, flight in leads:
                section.enter_context(flight)
            if self.federation is not None:
                # Resolve what the federation holds before paying for a
                # live fetch.  A sibling shard filling the same key right
                # now is not waited for: both walk it and both publish.
                missed: list[_Lead] = []
                for lead in leads:
                    value = self._federated("lookup", None, name, host, lead[0][1], revision)
                    if value is not None:
                        self._land_fed_hit(name, host, revision, lead, value, context)
                        results[lead[0]] = value
                    else:
                        missed.append(lead)
                leads = missed
            if leads:
                self._fill(name, host, revision, leads, context, batch, results)
        return results

    def _fill(
        self,
        name: str,
        host: str,
        revision: int,
        leads: list[_Lead],
        context: Any,
        batch: bool,
        results: dict[tuple, Relation],
    ) -> None:
        """Fetch the keys this leader must fill itself: intent → inner
        fetch → store → land → silver → publish.  A failure is never
        stored, and so never published."""
        if self.store is not None:  # write-ahead: these fetches are about to run
            for key, _given, _flight in leads:
                self.store.record_intent(key[0], host, revision, key[1])
        # Invariant: exactly one miss per *upstream fetch*, counted here
        # as it is about to run — by the flight leader only, and only
        # once the federation (if any) has answered: a cross-shard hit
        # is a hit, not a miss that fetched nothing.  Coalesced waiters
        # count a hit when the shared result arrives; a waiter promoted
        # after a failed flight counts a fresh miss, because its retry
        # is a second upstream fetch.  Pinned by
        # tests/test_metrics.py::TestSingleFlightMissAccounting.
        with self._lock:
            self.misses += len(leads)
        self.metrics.counter("cache.misses").inc(len(leads))
        if self.federation is not None:
            self.metrics.counter("cluster.fed_misses").inc(len(leads))
        givens = [given for _key, given, _flight in leads]
        if batch:
            fetched = self._fetch_inner_batch(name, givens, context)
        else:
            fetched = [self._fetch_inner(name, given, context) for given in givens]
        stored = []
        with self._lock:
            for (key, _given, flight), value in zip(leads, fetched):
                if self._store(key, name, host, revision, value):
                    stored.append((key, value))
                flight.land(value)
                results[key] = value
        for key, value in stored:
            self._persist_silver(key, name, host, revision, value)
            self._federated("publish", None, name, host, key[1], revision, value)

    def fetch(
        self, name: str, given: dict[str, Any], context: Any = None
    ) -> Relation:
        if not self.policy.enabled:
            return self._fetch_inner(name, given, context)
        self.metrics.counter("cache.requests").inc()
        key = self._key(name, given)
        host = self.host_of(name)

        # Quarantined host: serve flagged-stale or bypass, never silently.
        if host and self.revisions.quarantined(host):
            if self.policy.stale_mode == "serve_stale":
                # Lookup and LRU touch under ONE lock hold: a concurrent
                # bump_revision between a lookup and a separate touch could
                # evict the key and make move_to_end raise — pinned by
                # tests/test_store_recovery.py (revision-bump regression).
                with self._lock:
                    entry = self._live_entry(key, host, stale_ok=True)
                    if entry is not None:
                        self.hits += 1
                        self._cache.move_to_end(key)
                if entry is not None:
                    self._record_hit(name, host, context, stale=True, warmed=entry.warmed)
                    return entry.value
            self.metrics.counter("cache.quarantine_bypass").inc()
            return self._fetch_inner(name, given, context)

        while True:
            with self._lock:
                entry = self._live_entry(key, host)
                if entry is not None:
                    self.hits += 1
                    self._cache.move_to_end(key)
                else:
                    flight, leading = self._inflight.join(key)
                    if leading:
                        revision = self.revisions.current(host)
            if entry is not None:
                self._record_hit(name, host, context, stale=False, warmed=entry.warmed)
                return entry.value
            if leading:
                lead = (key, given, flight)
                return self._lead(name, host, revision, [lead], context, False)[key]
            # Another worker is already fetching this key: wait and share —
            # but keep observing cancellation, so a cancelled query stops
            # waiting on a leader it no longer wants.
            self.metrics.counter("cache.coalesced").inc()
            poll = getattr(context, "check_cancelled", None)
            if flight.wait(poll, "coalesced:%s" % name):
                with self._lock:
                    self.hits += 1
                self._record_hit(name, host, context, stale=False)
                return flight.result
            # The leader failed; loop and try the fetch ourselves.

    def _fetch_inner_batch(
        self, name: str, givens: list[dict[str, Any]], context: Any
    ) -> list[Relation]:
        fetch_batch = getattr(self.inner, "fetch_batch", None)
        if fetch_batch is None:
            return [self._fetch_inner(name, given, context) for given in givens]
        if context is None:
            return fetch_batch(name, givens)
        return fetch_batch(name, givens, context=context)

    def fetch_batch(
        self, name: str, givens: list[dict[str, Any]], context: Any = None
    ) -> list[Relation]:
        """Fetch one relation for a batch of probe bindings, results in
        ``givens`` order.

        Cached keys are served as hits; the distinct misses lead one inner
        batch fetch through the same leader path as :meth:`fetch`; keys
        already in flight elsewhere fall back to the per-key path, which
        waits and shares.  A failure abandons the whole lead batch
        un-stored — waiters retry themselves.
        """
        host = self.host_of(name)
        if not self.policy.enabled:
            return self._fetch_inner_batch(name, givens, context)
        if len(givens) <= 1 or (host and self.revisions.quarantined(host)):
            return [self.fetch(name, given, context=context) for given in givens]
        keys = [self._key(name, given) for given in givens]
        results: dict[tuple, Relation] = {}
        hit_keys: list[tuple] = []
        leads: list[_Lead] = []
        with self._lock:
            revision = self.revisions.current(host)
            seen: set[tuple] = set()
            for key, given in zip(keys, givens):
                if key in seen:
                    continue  # duplicate within the batch: one lookup
                seen.add(key)
                entry = self._live_entry(key, host)
                if entry is not None:
                    self.metrics.counter("cache.requests").inc()
                    self.hits += 1
                    self._cache.move_to_end(key)
                    results[key] = entry.value
                    hit_keys.append((key, entry.warmed))
                    continue
                flight, leading = self._inflight.join(key)
                if leading:
                    self.metrics.counter("cache.requests").inc()
                    leads.append((key, given, flight))
                # else: a foreign flight owns it — resolved below by the
                # per-key path, which waits, shares, and does its own
                # request/hit accounting (counting here too would double
                # count the lookup).
        for key, warmed in hit_keys:
            self._record_hit(name, host, context, stale=False, warmed=warmed)
        if leads:
            results.update(self._lead(name, host, revision, leads, context, True))
        return [
            results[key]
            if key in results
            else self.fetch(name, given, context=context)
            for key, given in zip(keys, givens)
        ]

    @property
    def stats(self) -> dict[str, int]:
        counters = self.metrics.snapshot()["counters"]
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._cache),
            "evictions": int(counters.get("cache.evictions", 0)),
            "expirations": int(counters.get("cache.expirations", 0)),
            "invalidations": int(counters.get("cache.invalidations", 0)),
            "stale_serves": int(counters.get("cache.stale_serves", 0)),
            "coalesced": int(counters.get("cache.coalesced", 0)),
        }
