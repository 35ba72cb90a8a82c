"""Simulated time for the networked parts of the webbase.

The paper's timing table (Section 7) separates *cpu time* (parsing, query
evaluation) from *elapsed time* (cpu plus network waits).  Our Web is
in-process, so network waits must be simulated: every request charges a
latency computed from a :class:`LatencyModel` to a :class:`SimClock`.

Real cpu time is still measured with :func:`time.process_time`; benches
report ``elapsed = cpu + simulated network time``, preserving the paper's
cpu-vs-elapsed shape without depending on a real network.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class LatencyModel:
    """Per-request network cost model, in seconds.

    ``rtt``
        fixed round-trip cost per request (connection + server turnaround).
    ``per_kilobyte``
        transfer cost per kilobyte of response body.
    """

    rtt: float = 0.35
    per_kilobyte: float = 0.012

    def cost(self, response_bytes: int) -> float:
        """Network seconds consumed by one request with this response size."""
        return self.rtt + self.per_kilobyte * (response_bytes / 1024.0)


class SimClock:
    """Accumulates simulated network seconds.

    Each navigation stack (an engine bundle) owns its own clock; the
    engine zeroes it before one fetch, reads the fetch's seconds off it
    after, and assigns them to one of its modelled lanes (requests on one
    connection are serial; connections are concurrent).
    """

    def __init__(self) -> None:
        self._network_seconds = 0.0

    @property
    def network_seconds(self) -> float:
        """Total simulated network seconds charged so far."""
        return self._network_seconds

    def charge(self, seconds: float) -> None:
        """Charge ``seconds`` of simulated network time."""
        if seconds < 0:
            raise ValueError("cannot charge negative time: %r" % seconds)
        self._network_seconds += seconds

    def reset(self) -> float:
        """Zero the clock, returning the value it held."""
        held = self._network_seconds
        self._network_seconds = 0.0
        return held


class CpuTimer:
    """Measures real process cpu time between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self._started_at: float | None = None
        self.seconds = 0.0

    def start(self) -> "CpuTimer":
        self._started_at = time.process_time()
        return self

    def stop(self) -> float:
        """Stop the timer, accumulating and returning the measured interval."""
        if self._started_at is None:
            raise RuntimeError("timer was not started")
        interval = time.process_time() - self._started_at
        self._started_at = None
        self.seconds += interval
        return interval

    def __enter__(self) -> "CpuTimer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
