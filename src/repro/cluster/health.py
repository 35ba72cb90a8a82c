"""Worker health checking: crash detection for the cluster router.

A :class:`HealthMonitor` pings every registered worker over a throwaway
connection.  ``MISSES_BEFORE_DEAD`` consecutive failures (connection
refused, reset, or timeout) declare the worker dead and fire the
``on_dead`` callback exactly once — the router's takeover path.  The
monitor can run on its own timer thread (``interval_seconds``) for real
deployments, or be driven explicitly with :meth:`check_now` so tests
advance it deterministically without wall-clock waits.  Forwarding
errors are a second detection channel: the router reports them via
:meth:`report_failure`, so a crash observed mid-query never waits for
the next ping cycle.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Callable

#: Consecutive failed pings that declare a worker dead: one miss can be a
#: busy acceptor, two in a row is a crash.
MISSES_BEFORE_DEAD = 2


def ping(address: tuple[str, int], timeout: float = 2.0) -> bool:
    """One protocol-level ping (not just a TCP connect): the worker must
    actually answer a frame, so a wedged acceptor counts as dead."""
    try:
        with socket.create_connection(address, timeout=timeout) as sock:
            sock.settimeout(timeout)
            sock.sendall(b'{"id": 0, "op": "ping"}\n')
            buf = b""
            while b"\n" not in buf:
                chunk = sock.recv(4096)
                if not chunk:
                    return False
                buf += chunk
        frame = json.loads(buf.partition(b"\n")[0].decode("utf-8"))
        return frame.get("type") == "pong"
    except (OSError, ValueError):
        return False


class HealthMonitor:
    """Tracks liveness of the cluster's workers."""

    def __init__(
        self,
        on_dead: Callable[[str], None],
        interval_seconds: float | None = None,
    ) -> None:
        self._on_dead = on_dead
        self._interval = interval_seconds
        self._lock = threading.Lock()
        self._targets: dict[str, tuple[str, int]] = {}
        self._misses: dict[str, int] = {}
        self._dead: set[str] = set()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- membership ----------------------------------------------------------

    def watch(self, shard_id: str, address: tuple[str, int]) -> None:
        with self._lock:
            self._targets[shard_id] = address
            self._misses[shard_id] = 0
            self._dead.discard(shard_id)

    def unwatch(self, shard_id: str) -> None:
        with self._lock:
            self._targets.pop(shard_id, None)
            self._misses.pop(shard_id, None)

    def alive(self) -> list[str]:
        with self._lock:
            return sorted(set(self._targets) - self._dead)

    # -- detection -----------------------------------------------------------

    def _declare_dead(self, shard_id: str) -> bool:
        """Mark dead exactly once (caller must NOT hold the lock)."""
        with self._lock:
            if shard_id in self._dead or shard_id not in self._targets:
                return False
            self._dead.add(shard_id)
        self._on_dead(shard_id)
        return True

    def report_failure(self, shard_id: str) -> bool:
        """The router saw a transport error talking to this worker: treat
        it as conclusive (a refused/reset connection, not a slow query)."""
        return self._declare_dead(shard_id)

    def check_now(self) -> list[str]:
        """One synchronous sweep over every live worker; returns the
        shards declared dead by this sweep."""
        with self._lock:
            targets = {
                shard: addr
                for shard, addr in self._targets.items()
                if shard not in self._dead
            }
        died = []
        for shard_id, address in sorted(targets.items()):
            if ping(address):
                with self._lock:
                    self._misses[shard_id] = 0
                continue
            with self._lock:
                self._misses[shard_id] = self._misses.get(shard_id, 0) + 1
                conclusive = self._misses[shard_id] >= MISSES_BEFORE_DEAD
            if conclusive and self._declare_dead(shard_id):
                died.append(shard_id)
        return died

    # -- the timer thread ------------------------------------------------------

    def start(self) -> None:
        if self._interval is None or self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="cluster-health", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self.check_now()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
