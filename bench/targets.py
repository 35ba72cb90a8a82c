"""How each workload reaches the program under test.

``InProcess`` calls ``WebBase.query`` directly; ``SocketTarget`` talks to
a service over real sockets with ``ServiceClient``, one connection per
caller thread.  The service behind the socket is a child process started
the way a user starts it (the measured runs), or — for the traced run
only, so that the wrappers of :mod:`bench.trace` see the server side —
the same service hosted inside the benchmark process.
"""

from __future__ import annotations

import os
import resource
import time
from typing import Any, Callable

from bench import procs
from bench.workloads import Op, Sample, Workload

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

Caller = Callable[[Op], Sample]


def histogram_totals(snapshot: dict[str, Any]) -> dict[str, float]:
    """``<histogram>.sum`` and ``<histogram>.count`` of a registry snapshot."""
    totals = {}
    for name, summary in snapshot.get("histograms", {}).items():
        totals[name + ".sum"] = summary["sum"]
        totals[name + ".count"] = summary["count"]
    return totals


def flatten(snapshot: dict[str, Any]) -> dict[str, float]:
    """A registry snapshot as one additive dict: counters by name, plus
    the histogram totals."""
    return {**snapshot.get("counters", {}), **histogram_totals(snapshot)}


def add_into(total: dict[str, float], flat: dict[str, float]) -> None:
    for name, value in flat.items():
        total[name] = total.get(name, 0) + value


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _failure(exc: Exception) -> str:
    return "%s: %s" % (type(exc).__name__, exc)


class InProcess:
    """``cold_navigate`` and ``churn_store``: one caller, no socket."""

    def __init__(self, workload: Workload, scratch: str) -> None:
        self.workload = workload
        self.scratch = scratch
        self.store_dir = os.path.join(scratch, "store") if workload.store else None
        self.epoch = 0
        self.webbase: Any = None
        self._retired: dict[str, float] = {}  # registries of webbases restarted away

    def _config(self) -> Any:
        from repro import CachePolicy, WebBaseConfig

        settings: dict[str, Any] = {}  # none: cache off, the paper's configuration
        if self.workload.cache_entries:
            settings["cache"] = CachePolicy.lru(max_entries=self.workload.cache_entries)
        if self.store_dir:
            # Flush policy: appends are written but not fsynced (the default).
            settings["store_dir"] = self.store_dir
        return WebBaseConfig(**settings)

    def start(self) -> None:
        from repro import WebBase, build_world

        os.makedirs(self.scratch)
        self.world = build_world()
        self.config = self._config()
        self.webbase = WebBase(self.world, self.config)

    def stop(self) -> None:
        if self.webbase is not None and self.webbase.store is not None:
            self.webbase.store.close()
        procs.remove_tree(self.scratch)

    def live_pages(self) -> int:
        return sum(stats.requests for stats in self.world.server.stats.values())

    def caller(self, index: int) -> Caller:
        return self.run

    def run(self, op: Op) -> Sample:
        sample = Sample(op, self.epoch, 0.0)
        pages_before = self.live_pages() if op.probe else 0
        started = time.perf_counter()
        try:
            if op.kind == "query":
                sample.rows = self.webbase.query(op.text).rows
            elif op.kind == "write":
                self._write(op)
            else:
                self._restart()
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            sample.error = _failure(exc)
        sample.latency_s = time.perf_counter() - started
        if op.probe:
            sample.live_pages = self.live_pages() - pages_before
        return sample

    def _write(self, op: Op) -> None:
        """One site edits its listings and its form; the sweep notices."""
        from repro.sites.world import mutate_site_listings

        self.epoch += 1
        mutate_site_listings(
            self.world,
            host=op.host,
            make=op.make,
            model=op.model,
            seed=op.seed,
            change="auto",
        )
        self.webbase.run_maintenance()

    def _restart(self) -> None:
        """Warm restart: close the store, assemble a new webbase over the
        same world and the same store directory."""
        from repro import WebBase

        add_into(self._retired, flatten(self.webbase.metrics.snapshot()))
        self.webbase.store.close()
        self.webbase = WebBase(self.world, self.config)

    def cpu_seconds(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def registry(self) -> tuple[dict[str, float], dict[str, Any]]:
        snapshot = self.webbase.metrics.snapshot()
        flat = dict(self._retired)
        add_into(flat, flatten(snapshot))
        return flat, snapshot

    def store_dirs(self) -> list[str]:
        return [self.store_dir] if self.store_dir else []


# -- services behind a socket ----------------------------------------------------------


class ChildBackend:
    """``python -m repro <argv>`` as a child process tree."""

    def __init__(self, argv: list[str], scratch: str) -> None:
        self.argv = argv
        self.log_path = os.path.join(scratch, "server.log")
        self.server: procs.Server | None = None

    def launch(self) -> tuple[str, int]:
        self.server = procs.Server(self.argv, SRC_DIR, self.log_path)
        return self.server.host, self.server.port

    def halt(self) -> None:
        if self.server is not None:
            self.server.stop()

    def cpu_seconds(self) -> float:
        return procs.cpu_seconds(self.server.pids())

    def peak_rss_mb(self) -> float:
        return procs.peak_rss_mb(self.server.pids())


class HostedService:
    """What ``repro serve`` assembles, inside this process (traced run)."""

    def __init__(self) -> None:
        self.service: Any = None

    def launch(self) -> tuple[str, int]:
        from repro import CachePolicy, ServiceConfig, WebBase, WebBaseConfig, WebBaseService

        webbase = WebBase.create(WebBaseConfig(cache=CachePolicy.lru()))
        self.service = WebBaseService(webbase, ServiceConfig())
        return self.service.start()

    def halt(self) -> None:
        if self.service is not None:
            self.service.shutdown()

    def cpu_seconds(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()


class HostedCluster:
    """What ``repro cluster serve --shards N --mqo`` assembles: the router
    inside this process (traced run), its workers as child processes."""

    def __init__(self, store_root: str, shards: int) -> None:
        self.store_root = store_root
        self.shards = shards
        self.cluster: Any = None

    def launch(self) -> tuple[str, int]:
        from repro.cluster.router import ClusterConfig, LocalCluster

        self.cluster = LocalCluster(
            ClusterConfig(
                store_root=self.store_root,
                shards=self.shards,
                mqo=True,
                health_interval_seconds=2.0,  # the CLI's default
            )
        )
        address = self.cluster.start()
        self.worker_pids = [h.process.pid for h in self.cluster.handles.values()]
        return address

    def halt(self) -> None:
        if self.cluster is None:
            return
        self.cluster.stop()
        alive = [h.shard_id for h in self.cluster.handles.values() if h.alive]
        if alive:
            raise procs.LeakError("workers %r outlived teardown" % (alive,))

    def cpu_seconds(self) -> float:
        return time.process_time() + procs.cpu_seconds(self.worker_pids)

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb() + procs.peak_rss_mb(self.worker_pids)


class SocketTarget:
    """``warm_serve`` and ``cluster_mixed``: one connection per caller."""

    def __init__(self, workload: Workload, scratch: str, hosted: bool) -> None:
        self.workload = workload
        self.scratch = scratch
        self.store_root = os.path.join(scratch, "store")
        shards = workload.shards
        if hosted:
            self.backend = HostedCluster(self.store_root, shards) if shards else HostedService()
        elif shards:
            self.backend = ChildBackend(
                ["cluster", "serve", "--port", "0", "--shards", str(shards), "--mqo",
                 "--store-root", self.store_root],
                scratch,
            )  # fmt: skip
        else:
            self.backend = ChildBackend(["serve", "--port", "0"], scratch)
        self.clients: list[Any] = []

    def start(self) -> None:
        from repro import ServiceClient

        os.makedirs(self.scratch)
        try:
            host, port = self.backend.launch()
            for _ in range(self.workload.connections):
                self.clients.append(ServiceClient(host, port, timeout=30.0))
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        try:
            for client in self.clients:
                client.close()
        finally:
            try:
                self.backend.halt()
            finally:
                procs.remove_tree(self.scratch)

    def caller(self, index: int) -> Caller:
        client = self.clients[index]

        def run(op: Op) -> Sample:
            sample = Sample(op, 0, 0.0)
            started = time.perf_counter()
            try:
                outcome = client.query(op.text)
                sample.rows, sample.stats = outcome.rows, outcome.stats
            except Exception as exc:  # noqa: BLE001 - a failed operation, counted
                sample.error = _failure(exc)
            sample.latency_s = time.perf_counter() - started
            return sample

        return run

    def cpu_seconds(self) -> float:
        return self.backend.cpu_seconds()

    def peak_rss_mb(self) -> float:
        return self.backend.peak_rss_mb()

    def registry(self) -> tuple[dict[str, float], dict[str, Any]]:
        """The ``metrics`` op.  A router answers with its own counters
        plus its shards' summed, but merges histograms by maximum, so
        histogram sums and counts are re-added here from the per-shard
        snapshots it passes through."""
        snapshot = self.clients[0].metrics()
        if not self.workload.shards:
            return flatten(snapshot), snapshot
        flat = dict(snapshot.get("counters", {}))
        for shard in snapshot.get("shards", {}).values():
            add_into(flat, histogram_totals(shard))
        return flat, snapshot

    def store_dirs(self) -> list[str]:
        if not self.workload.shards:
            return []
        return [
            os.path.join(self.store_root, name)
            for name in sorted(os.listdir(self.store_root))
        ]


def make_target(workload: Workload, scratch: str, hosted: bool) -> Any:
    if workload.connections == 1:
        return InProcess(workload, scratch)
    return SocketTarget(workload, scratch, hosted)
