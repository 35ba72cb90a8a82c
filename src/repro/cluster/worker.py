"""Cluster worker processes: a full webbase service per shard.

Each worker is an ordinary OS process running its own
:class:`~repro.core.webbase.WebBase` (same deterministic simulated world
— every worker builds it from the same seed, so any worker can answer
any query byte-identically) behind a
:class:`~repro.service.server.WebBaseService` with its own tiered store
directory.  Coordination with the router is strictly socket/file-based:

* the worker binds an ephemeral port and writes a JSON *address file*
  (atomic rename) the spawner polls for — the handshake needs no pipe
  protocol and survives the router restarting;
* cache coordination happens over the federation bus
  (:mod:`repro.cluster.federation`), never shared memory;
* shard takeover reads the dead worker's *store directory* — the file
  system is the handoff medium, exactly the durability PR 7 built.

:func:`worker_main` is the ``python -m repro cluster worker`` entry
point; :func:`spawn_worker` is the supervisor-side helper that launches
one and waits for its address file.  Every setting travels between the
two as data: the router's whole ``ClusterConfig`` in one ``--config``
argument (:func:`worker_argv`), so a new worker setting is one config
field plus its one use in :func:`build_worker_service`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import IO, TYPE_CHECKING, Any

from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.service.server import ServiceConfig, WebBaseService
from repro.vps.cache import CachePolicy

if TYPE_CHECKING:  # router.py imports this module
    from repro.cluster.router import ClusterConfig

#: The spawner's wait for an address file (a worker maps its world first).
STARTUP_TIMEOUT_SECONDS = 60.0


def _write_addr_file(path: str, payload: dict[str, Any]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as handle:
        json.dump(payload, handle, sort_keys=True)
    os.replace(tmp, path)


def build_worker_service(
    config: "ClusterConfig",
    shard_id: str,
    store_dir: str,
    federation: tuple[str, int] | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> WebBaseService:
    """Assemble one shard's webbase + service from the cluster's config."""
    # A storing cache is load-bearing for a shard: silver warming and
    # federation publishes both ride on result-cache fills.
    webbase = WebBase.create(
        WebBaseConfig(
            seed=config.seed,
            ads_per_host=config.ads_per_host,
            store_dir=store_dir,
            cache=CachePolicy.lru(),
            mqo=config.mqo,
        )
    )
    if federation is not None:
        from repro.cluster.federation import FederationClient

        webbase.attach_federation(
            FederationClient(federation[0], federation[1])
        )
    service = WebBaseService(
        webbase,
        ServiceConfig(
            host=host,
            port=port,
            queue_limit=config.worker_queue_limit,
            workers=config.worker_threads,
            shard_id=shard_id,
            allow_world_mutation=config.allow_world_mutation,
        ),
    )
    service.role = "worker"
    return service


def worker_main(args: Any) -> WebBaseService:
    """The ``python -m repro cluster worker`` process body: build the
    shard's service from ``args.config``, start it and announce its
    address.  The CLI then serves it until drained (the ``drain`` op)."""
    federation = None
    if args.federation:
        fed_host, _, fed_port = args.federation.rpartition(":")
        federation = (fed_host or "127.0.0.1", int(fed_port))
    service = build_worker_service(
        args.config, args.shard_id, args.store_dir, federation, args.host, args.port
    )
    address = service.start()
    if args.addr_file:
        _write_addr_file(
            args.addr_file,
            {
                "shard_id": args.shard_id,
                "host": address[0],
                "port": address[1],
                "pid": os.getpid(),
                "store_dir": args.store_dir,
            },
        )
    return service


@dataclass
class WorkerHandle:
    """One spawned worker process, as the supervisor sees it."""

    shard_id: str
    address: tuple[str, int]
    store_dir: str
    process: subprocess.Popen
    log: IO[bytes] | None = field(default=None, repr=False)

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        """Hard-kill the process (the failover tests' crash lever)."""
        if self.alive:
            self.process.kill()
        self.process.wait(timeout=10.0)
        self._close_log()

    def wait(self, timeout: float = 30.0) -> int:
        code = self.process.wait(timeout=timeout)
        self._close_log()
        return code

    def _close_log(self) -> None:
        if self.log is not None:
            try:
                self.log.close()
            except OSError:
                pass
            self.log = None


def worker_argv(
    config: "ClusterConfig",
    shard_id: str,
    store_dir: str,
    addr_file: str,
    federation: tuple[str, int] | None = None,
) -> list[str]:
    """The ``python -m repro`` arguments of one worker: identity, paths,
    the bus address, and the cluster's config as one JSON value."""
    argv = [
        "cluster",
        "worker",
        "--shard-id",
        shard_id,
        "--store-dir",
        store_dir,
        "--addr-file",
        addr_file,
        "--config",
        json.dumps(asdict(config)),
    ]
    if federation is not None:
        argv += ["--federation", "%s:%d" % federation]
    return argv


def spawn_worker(
    config: "ClusterConfig",
    shard_id: str,
    store_dir: str,
    federation: tuple[str, int] | None = None,
) -> WorkerHandle:
    """Launch one worker process and wait for its address file."""
    os.makedirs(store_dir, exist_ok=True)
    addr_file = os.path.join(store_dir, "worker.addr")
    if os.path.exists(addr_file):
        os.unlink(addr_file)
    src_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [sys.executable, "-m", "repro"]
    cmd += worker_argv(config, shard_id, store_dir, addr_file, federation)
    log = open(os.path.join(store_dir, "worker.log"), "ab")
    process = subprocess.Popen(
        cmd, env=env, stdout=log, stderr=log, stdin=subprocess.DEVNULL
    )
    deadline = time.monotonic() + STARTUP_TIMEOUT_SECONDS
    while True:
        if os.path.exists(addr_file):
            try:
                with open(addr_file, "r", encoding="ascii") as handle:
                    payload = json.load(handle)
                break
            except (ValueError, OSError):
                pass  # mid-rename or torn read; retry
        if process.poll() is not None:
            log.close()
            tail = ""
            try:
                with open(os.path.join(store_dir, "worker.log"), "rb") as lf:
                    tail = lf.read()[-2000:].decode("utf-8", errors="replace")
            except OSError:
                pass
            raise RuntimeError(
                "worker %s died during startup (exit %s):\n%s"
                % (shard_id, process.returncode, tail)
            )
        if time.monotonic() >= deadline:
            process.kill()
            log.close()
            raise RuntimeError(
                "worker %s did not write its address file within %.0fs"
                % (shard_id, STARTUP_TIMEOUT_SECONDS)
            )
        time.sleep(0.02)
    return WorkerHandle(
        shard_id=shard_id,
        address=(str(payload["host"]), int(payload["port"])),
        store_dir=store_dir,
        process=process,
        log=log,
    )
