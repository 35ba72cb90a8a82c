"""Staleness: one authority says which navigation map a host is on.

The sites are *dynamic* and their maps are built by example, so anything
extracted under a map the site has since moved away from is suspect.
Every tier that keeps something — a page, a relation, a gold answer, a
standing snapshot, a federated fill — stamps it with the host's map
**revision** at capture time and serves it only while that stamp is the
host's current one.  This module is that contract, once.  It knows
nothing about what is stamped.

* **one authority** — a :class:`Revisions` per process (the webbase's;
  the cluster router keeps its own for the federation).  A revision only
  moves forward: :meth:`~Revisions.advance` bumps by one, or max-merges
  a revision seen elsewhere (a dead sibling's store, a shard ahead).
* **advance before evicting** — a tier that drops what a move made stale
  advances *first*.  From then on every lookup refuses the old stamp and
  every store of a result captured under it is refused, so eviction is
  bookkeeping, never the safety mechanism.
* **subscribers** — whoever must hear of a move (the tiered store
  records it, the federation tells sibling shards) subscribes once and
  runs once per move, after it, outside the lock.
* **vectors** — an answer over several hosts carries ``{host: revision}``
  for every host *its plan can read*, not the ones one run touched:
  caching and sharing decide that, and a vector built from it can come
  out empty — which is current only for an answer over no host at all.

Quarantine flags ride along: a host whose change needs the designer is
*flagged*, not moved — its stamps stay current but suspect.  A flag has
causes (``"maintenance"``: a change waiting for the designer;
``"breaker"``: a host failing now), a host is quarantined while any
cause holds, and a lift removes only its own cause — a breaker closing
never lifts what maintenance flagged.
"""

from __future__ import annotations

import threading

from typing import Callable, Iterable, Mapping


class Revisions:
    """Per-host map revisions and quarantine causes.  Thread-safe; reads
    take no lock (one dict probe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._revisions: dict[str, int] = {}
        # host -> its causes; replaced, never mutated, and never holds an
        # empty set.
        self._quarantined: dict[str, frozenset[str]] = {}
        self._on_advance: list[Callable[[str, int], object]] = []
        self._on_quarantine: list[Callable[[str, str, bool], object]] = []

    def subscribe(
        self,
        advanced: Callable[[str, int], object] | None = None,
        quarantined: Callable[[str, str, bool], object] | None = None,
    ) -> None:
        """Hear every later move as ``advanced(host, revision)`` and every
        cause set or lifted as ``quarantined(host, cause, active)``."""
        with self._lock:
            if advanced is not None:
                self._on_advance.append(advanced)
            if quarantined is not None:
                self._on_quarantine.append(quarantined)

    @staticmethod
    def _tell(subscribers: list, host: str, *values: object) -> None:
        """Run every subscriber (caller does *not* hold the lock).  One
        that raises does not silence the rest; its error surfaces once
        all have run."""
        failed: Exception | None = None
        for subscriber in list(subscribers):
            try:
                subscriber(host, *values)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                failed = failed or exc
        if failed is not None:
            raise failed

    def current(self, host: str) -> int:
        return self._revisions.get(host, 0)

    def is_current(self, host: str, revision: int) -> bool:
        return revision == self._revisions.get(host, 0)

    def advance(self, host: str, to: int | None = None) -> int | None:
        """Move ``host`` forward: by one, or up to ``to`` (a revision seen
        elsewhere).  Returns the new revision, or ``None`` when ``to`` is
        not ahead of the current one — a revision never moves backwards."""
        with self._lock:
            known = self._revisions.get(host, 0)
            revision = known + 1 if to is None else to
            if revision <= known:
                return None
            self._revisions[host] = revision
        self._tell(self._on_advance, host, revision)
        return revision

    def vector(self, hosts: Iterable[str] | None = None) -> dict[str, int]:
        """``{host: current revision}`` in host order, over ``hosts`` or,
        by default, over every host that has ever moved."""
        if hosts is None:
            with self._lock:
                return dict(sorted(self._revisions.items()))
        return {host: self.current(host) for host in sorted(set(hosts))}

    def all_current(self, vector: Mapping[str, int]) -> bool:
        """Nothing in ``vector`` has moved since it was taken."""
        return all(self.is_current(host, rev) for host, rev in vector.items())

    def quarantined(self, host: str) -> bool:
        """``host`` is flagged, for any cause."""
        return host in self._quarantined

    def quarantined_hosts(self, cause: str | None = None) -> frozenset[str]:
        """The flagged hosts — all of them, or those flagged for ``cause``."""
        return frozenset(
            host
            for host, causes in self._quarantined.items()
            if cause is None or cause in causes
        )

    def quarantine(self, host: str, cause: str, active: bool = True) -> bool:
        """Flag ``host`` for ``cause`` (or, with ``active=False``,
        :meth:`lift` that cause); returns whether that changed anything."""
        with self._lock:
            causes = self._quarantined.get(host, frozenset())
            if (cause in causes) == active:
                return False
            causes = causes | {cause} if active else causes - {cause}
            flagged = dict(self._quarantined)
            if causes:
                flagged[host] = causes
            else:
                del flagged[host]
            self._quarantined = flagged
        self._tell(self._on_quarantine, host, cause, active)
        return True

    def lift(self, host: str, cause: str) -> bool:
        return self.quarantine(host, cause, active=False)
