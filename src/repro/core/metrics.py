"""A small in-process metrics registry: counters, gauges, histograms.

The paper's Section 7 argues that caching and parallelization carry the
response-time budget; to *operate* a webbase on those two levers you have
to see them working.  This registry is the observability spine: the
cross-query result cache (:mod:`repro.vps.cache`) counts hits, misses,
evictions, expirations, invalidations and stale serves into it, and the
execution engine (:mod:`repro.core.execution`) feeds fetch attempts,
retries, failures and latency histograms.  One registry lives on each
:class:`~repro.core.webbase.WebBase` and is shared by its cache and every
execution context it creates, so counter totals reconcile with the trace
spans of the queries that produced them (``python -m repro metrics``
demonstrates exactly that reconciliation).

Everything is thread-safe — one registry serves every query thread of a
webbase — and deliberately dependency-free: names are flat
dotted strings, values are numbers, and a snapshot is a plain dict.
"""

from __future__ import annotations

import math
import random
import re
import threading
from typing import Any

#: The naming scheme every webbase metric follows (documented in README):
#: exactly ``<subsystem>.<name>``, the name in lowercase snake_case and the
#: subsystem one of the fixed prefixes below — no per-entity families.
NAME_PATTERN = re.compile(
    r"^(nav|cache|engine|service|planner|resilience|store|cluster|mqo)\.[a-z0-9_]+$"
)


class Counter:
    """A monotonically increasing count (events observed)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; got %r" % amount)
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A value that can move in both directions (entries resident, etc.)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Summary statistics of an observed distribution (fetch latencies).

    Keeps count/sum/min/max plus a bounded reservoir of observations:
    enough for the mean, the extremes, and tail percentiles (p50/p95/p99
    — what a service's latency SLO is written in) in O(1) memory per
    histogram and with no bucket-boundary bikeshed.  The reservoir is
    uniform (Vitter's algorithm R) with a fixed-seed generator, so a
    deterministic observation sequence yields deterministic percentiles.
    """

    RESERVOIR = 2048

    __slots__ = ("name", "_count", "_total", "_min", "_max", "_samples", "_rng", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._count = 0
        self._total = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._samples: list[float] = []
        self._rng = random.Random(0x5EED)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._total += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if len(self._samples) < self.RESERVOIR:
                self._samples.append(value)
            else:
                slot = self._rng.randrange(self._count)
                if slot < self.RESERVOIR:
                    self._samples[slot] = value

    def percentile(self, q: float) -> float:
        """The q-th percentile (nearest-rank over the reservoir); 0 when
        nothing has been observed."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]; got %r" % q)
        with self._lock:
            if not self._samples:
                return 0.0
            ordered = sorted(self._samples)
            rank = max(1, math.ceil(q / 100.0 * len(ordered)))
            return ordered[rank - 1]

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    @property
    def mean(self) -> float:
        with self._lock:
            return self._total / self._count if self._count else 0.0

    def summary(self) -> dict[str, float]:
        with self._lock:
            ordered = sorted(self._samples)

            def rank(q: float) -> float:
                if not ordered:
                    return 0.0
                return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]

            return {
                "count": self._count,
                "sum": self._total,
                "min": self._min if self._min is not None else 0.0,
                "max": self._max if self._max is not None else 0.0,
                "mean": self._total / self._count if self._count else 0.0,
                "p50": rank(50),
                "p95": rank(95),
                "p99": rank(99),
            }


class MetricsRegistry:
    """Get-or-create registry of named metrics, shared across threads.

    ``strict=True`` enforces :data:`NAME_PATTERN` on every registered
    name — the webbase's own registry runs strict, so an off-scheme
    metric name fails the first time it is touched instead of drifting
    into dashboards; bare registries (tests, scratch tools) stay lenient.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _check_name(self, name: str) -> None:
        if self.strict and NAME_PATTERN.match(name) is None:
            raise ValueError(
                "metric name %r does not match the <subsystem>.<name> "
                "naming scheme (%s)" % (name, NAME_PATTERN.pattern)
            )

    def _other_kinds(self, name: str, mine: dict) -> None:
        # A name may exist in exactly one kind, or value() turns ambiguous.
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not mine and name in kind:
                raise ValueError("metric %r already registered with another kind" % name)

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                self._check_name(name)
                self._other_kinds(name, self._counters)
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                self._check_name(name)
                self._other_kinds(name, self._gauges)
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                self._check_name(name)
                self._other_kinds(name, self._histograms)
                metric = self._histograms[name] = Histogram(name)
            return metric

    def value(self, name: str) -> float:
        """The current value of a counter or gauge (0 if never touched)."""
        with self._lock:
            if name in self._counters:
                counter = self._counters[name]
            elif name in self._gauges:
                return self._gauges[name].value
            else:
                return 0
        return counter.value

    def snapshot(self) -> dict[str, Any]:
        """Every metric's current state as one plain dict (JSON-friendly)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(histograms.items())
            },
        }

    def render(self) -> str:
        """The registry as an aligned text table (the CLI's output)."""
        snap = self.snapshot()
        lines: list[str] = []
        names = list(snap["counters"]) + list(snap["gauges"])
        width = max((len(n) for n in names + list(snap["histograms"])), default=0)
        for name, value in snap["counters"].items():
            lines.append("%-*s  %d" % (width, name, value))
        for name, value in snap["gauges"].items():
            lines.append("%-*s  %g" % (width, name, value))
        for name, summary in snap["histograms"].items():
            lines.append(
                "%-*s  count=%d sum=%.3f min=%.3f max=%.3f mean=%.3f "
                "p50=%.3f p95=%.3f p99=%.3f"
                % (
                    width,
                    name,
                    summary["count"],
                    summary["sum"],
                    summary["min"],
                    summary["max"],
                    summary["mean"],
                    summary["p50"],
                    summary["p95"],
                    summary["p99"],
                )
            )
        return "\n".join(lines) if lines else "(no metrics recorded)"
