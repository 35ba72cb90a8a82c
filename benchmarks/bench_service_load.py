"""Service-load benchmark — N clients sharing one webbase vs N alone.

Section 7 measures per-site latency because users wait on live form
fetches; the ROADMAP's north star is heavy concurrent traffic.  This
benchmark closes that loop: a closed-loop load generator sweeps client
counts against one :class:`~repro.service.server.WebBaseService` and
reports throughput, tail latency (p50/p95 from the client side), shed
rate and cache hit rate — then runs the *same* per-client workloads on
isolated per-client WebBases (one cache each, nothing shared) and
compares total live Web fetches.  The cross-query cache and single-flight
coalescing only earn their keep across clients here: overlapping queries
from different connections collapse onto one live fetch per unique
``(relation, bindings)`` key.

Acceptance (pinned by ``test_shared_service_beats_isolated_clients`` and
CI's ``--smoke`` run): with >= 8 concurrent clients issuing overlapping
queries, the shared server issues strictly fewer total live fetches than
the isolated arrangement, and at low concurrency (queue ample) the shed
rate is exactly zero.

Run standalone: ``python benchmarks/bench_service_load.py [--smoke]``
or under pytest: ``pytest benchmarks/bench_service_load.py -s``.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.service.client import Overloaded, ServiceClient
from repro.service.server import ServiceConfig, WebBaseService
from repro.vps.cache import CachePolicy

# The overlapping workload: every client draws from this same pool (offset
# by its index), so concurrent clients repeatedly ask for the same keys.
QUERIES = [
    "SELECT make, model, price WHERE make = 'saab'",
    "SELECT make, model, price WHERE make = 'honda'",
    "SELECT make, model, year, price, contact WHERE make = 'ford' AND model = 'escort'",
    "SELECT make, model, rate WHERE make = 'honda' AND duration = 36",
]

SMOKE_CLIENTS = 8
SMOKE_ROUNDS = 4


def _webbase() -> WebBase:
    return WebBase.create(WebBaseConfig(cache=CachePolicy.lru()))


def _client_workload(index: int, rounds: int) -> list[str]:
    """Client ``index``'s query sequence — offset so clients overlap
    without being identical."""
    return [QUERIES[(index + r) % len(QUERIES)] for r in range(rounds)]


@dataclass
class LoadReport:
    """One load point: client-side latencies plus server-side counters."""

    clients: int
    requests: int
    completed: int
    shed: int
    retries: int
    wall_seconds: float
    latencies: list[float] = field(repr=False, default_factory=list)
    live_fetches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def throughput(self) -> float:
        return self.completed / self.wall_seconds if self.wall_seconds else 0.0

    def percentile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = max(1, round(q / 100.0 * len(ordered)))
        return ordered[rank - 1]

    @property
    def shed_rate(self) -> float:
        offered = self.requests + self.shed
        return self.shed / offered if offered else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


def run_load(
    clients: int,
    rounds: int,
    queue_limit: int = 64,
    workers: int = 4,
) -> LoadReport:
    """One closed-loop load point against a fresh service instance.

    Each client thread opens its own connection and issues its workload
    one query at a time; an ``OVERLOADED`` shed is retried with backoff
    (and counted), so every request eventually completes.
    """
    webbase = _webbase()
    service = WebBaseService(
        webbase,
        ServiceConfig(port=0, queue_limit=queue_limit, workers=workers),
    )
    host, port = service.start()
    barrier = threading.Barrier(clients)
    lock = threading.Lock()
    latencies: list[float] = []
    completed = 0
    retries = 0
    errors: list[BaseException] = []

    def drive(index: int) -> None:
        nonlocal completed, retries
        try:
            with ServiceClient(host=host, port=port, connect_timeout=10.0) as client:
                barrier.wait()
                for text in _client_workload(index, rounds):
                    started = time.monotonic()
                    attempt = 0
                    while True:
                        try:
                            client.query(text)
                            break
                        except Overloaded:
                            attempt += 1
                            with lock:
                                retries += 1
                            time.sleep(min(0.25, 0.01 * 2**attempt))
                    with lock:
                        latencies.append(time.monotonic() - started)
                        completed += 1
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            with lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=(i,), daemon=True) for i in range(clients)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - started
    if errors:
        raise errors[0]
    counters = webbase.metrics.snapshot()["counters"]
    service.shutdown()
    return LoadReport(
        clients=clients,
        requests=completed,
        completed=completed,
        shed=int(counters.get("service.shed", 0)),
        retries=retries,
        wall_seconds=wall,
        latencies=latencies,
        live_fetches=int(counters.get("engine.fetches", 0)),
        cache_hits=int(counters.get("cache.hits", 0)),
        cache_misses=int(counters.get("cache.misses", 0)),
    )


def isolated_fetches(clients: int, rounds: int) -> int:
    """The no-service baseline: the same per-client workloads, each on its
    own private WebBase (own cache, nothing shared across clients), as N
    independent one-shot processes would run them.  Returns total live
    fetches."""
    total = 0
    for index in range(clients):
        webbase = _webbase()
        for text in _client_workload(index, rounds):
            webbase.query(text)
        total += int(webbase.metrics.value("engine.fetches"))
    return total


def _report_line(report: LoadReport) -> str:
    return (
        "  %2d clients: %5.1f q/s  p50 %6.1fms  p95 %6.1fms  "
        "shed %5.1f%% (%d retried)  cache hit %5.1f%%  %3d live fetches"
        % (
            report.clients,
            report.throughput,
            report.percentile(50) * 1000,
            report.percentile(95) * 1000,
            report.shed_rate * 100,
            report.retries,
            report.cache_hit_rate * 100,
            report.live_fetches,
        )
    )


def run_smoke(clients: int = SMOKE_CLIENTS, rounds: int = SMOKE_ROUNDS) -> tuple[LoadReport, int]:
    """The CI gate: one ample-queue load point plus the isolated baseline.
    Returns (shared report, isolated fetch total); asserts the acceptance
    criteria."""
    report = run_load(clients=clients, rounds=rounds, queue_limit=64, workers=4)
    isolated = isolated_fetches(clients=clients, rounds=rounds)
    print("service load smoke — %d clients x %d rounds, overlapping queries" % (clients, rounds))
    print(_report_line(report))
    print(
        "  shared server: %d live fetches; isolated per-client WebBases: %d"
        % (report.live_fetches, isolated)
    )
    assert report.completed == clients * rounds, "some requests never completed"
    assert report.shed == 0, (
        "shed %d requests at low concurrency (queue 64 >= %d outstanding)"
        % (report.shed, clients)
    )
    assert report.live_fetches < isolated, (
        "shared service should issue strictly fewer live fetches "
        "(%d vs %d isolated)" % (report.live_fetches, isolated)
    )
    print(
        "  ok: %.1fx fewer live fetches shared, zero shed"
        % (isolated / report.live_fetches)
    )
    return report, isolated


def run_sweep(rounds: int = 6, queue_limit: int = 8) -> list[LoadReport]:
    """The full table: client counts swept against one bounded queue (small
    enough that high concurrency must shed)."""
    reports = []
    print(
        "service load sweep — queue_limit=%d, workers=4, %d rounds per client"
        % (queue_limit, rounds)
    )
    for clients in (1, 2, 4, 8, 16):
        report = run_load(
            clients=clients, rounds=rounds, queue_limit=queue_limit, workers=4
        )
        reports.append(report)
        print(_report_line(report))
    isolated = isolated_fetches(clients=8, rounds=rounds)
    shared = next(r for r in reports if r.clients == 8)
    print(
        "  8-client comparison: shared %d live fetches vs isolated %d (%.1fx)"
        % (shared.live_fetches, isolated, isolated / max(1, shared.live_fetches))
    )
    return reports


# -- pytest entry points -----------------------------------------------------------


def test_shared_service_beats_isolated_clients():
    """>=8 concurrent clients with overlapping queries: strictly fewer live
    fetches through one shared service than through isolated WebBases, and
    zero shed when the queue is ample."""
    run_smoke()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one 8-client load point + isolated baseline; asserts zero "
        "shed and strictly fewer shared fetches (the CI gate)",
    )
    parser.add_argument("--rounds", type=int, default=None)
    args = parser.parse_args(argv)
    if args.smoke:
        run_smoke(rounds=args.rounds or SMOKE_ROUNDS)
    else:
        run_sweep(rounds=args.rounds or 6)
    return 0


if __name__ == "__main__":
    sys.exit(main())
