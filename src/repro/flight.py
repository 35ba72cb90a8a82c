"""Coalescing: concurrent callers of one key compute it once.

An *access* against a hidden-Web source is expensive and idempotent for
as long as the host's navigation map does not move, so the tier that is
shared between threads and can miss — the cross-query relation cache,
:class:`~repro.vps.cache.ResultCache` — wants the first caller of a key
to *lead* (do the work) and later callers to *subscribe* (wait and share
the leader's result).  This module is that contract, once.  It knows
nothing about what a key or a result is.

The owner keeps a :class:`Flights` table beside whatever it stores
results in, both guarded by the owner's one lock:

* **join** — holding the lock, after its own lookup missed, the caller
  calls :meth:`Flights.join` and learns whether it leads.  Lookup and
  join share one lock hold, so a caller sees a stored result or an open
  flight, never neither.
* **lead** — the leader works inside ``with flight:``.  When the result
  is in hand it takes the lock once, stores the result wherever the
  owner keeps it, and calls :meth:`Flight.land` in that same hold.
  Leaving the section *always* settles the flight: subscribers wake
  with the landed result, or — when the section exits any other way,
  exception or not — the flight is closed as failed.
* **subscribe** — :meth:`Flight.wait` parks the caller, running its
  ``poll`` at least every :data:`POLL_SECONDS` so a cancelled caller
  raises out of the wait.  That only detaches the subscriber; the
  flight carries on for the others.
* **failure is never shared** — a failed flight hands subscribers
  nothing.  ``wait`` returns ``False`` and each subscriber rejoins: the
  first one back finds no flight and is promoted to leader, the rest
  subscribe to *its* flight.
"""

from __future__ import annotations

import threading

from typing import Any, Callable, Hashable

#: The longest a parked subscriber goes without running its ``poll``.
POLL_SECONDS = 0.05


class Flight:
    """One in-progress computation of one key."""

    __slots__ = ("_table", "_key", "_event", "landed", "result", "error")

    def __init__(self, table: "Flights", key: Hashable) -> None:
        self._table = table
        self._key = key
        self._event = threading.Event()
        self.landed = False
        self.result: Any = None
        self.error: BaseException | None = None  # why it failed; never re-raised

    def land(self, result: Any) -> None:
        """Leader, *holding the owner's lock*: record the result and close
        the flight.  Subscribers wake when the leader section exits."""
        self.result = result
        self.landed = True
        self._table.pop(self._key, None)

    def settle(self, error: BaseException | None = None) -> None:
        """Leader, *not holding the owner's lock*: wake the subscribers.
        A flight that never landed is closed as failed first.  Settling
        twice is harmless: the first verdict stands."""
        if self._event.is_set():
            return
        if not self.landed:
            self.error = error
            with self._table.lock:
                if self._table.get(self._key) is self:
                    del self._table[self._key]
        self._event.set()

    def __enter__(self) -> "Flight":
        return self

    def __exit__(self, exc_type: Any, exc: BaseException | None, tb: Any) -> None:
        self.settle(exc)

    def wait(self, poll: Callable[..., None] | None = None, *args: Any) -> bool:
        """Subscriber: park until the leader settles, calling
        ``poll(*args)`` every :data:`POLL_SECONDS` (it raises to cancel).
        True means share :attr:`result`; False means the leader failed —
        rejoin."""
        if poll is None:
            self._event.wait()
        else:
            while not self._event.wait(POLL_SECONDS):
                poll(*args)
        return self.landed


class Flights(dict):
    """An owner's open flights, ``key -> Flight``, guarded by the owner's
    ``lock`` (held by the caller of :meth:`join` and :meth:`Flight.land`)."""

    def __init__(self, lock: Any) -> None:
        super().__init__()
        self.lock = lock

    def join(self, key: Hashable) -> tuple[Flight, bool]:
        """The open flight of ``key`` and whether the caller leads it."""
        flight = self.get(key)
        if flight is not None:
            return flight, False
        flight = self[key] = Flight(self, key)
        return flight, True
