"""The sharded multi-process cluster tier (router, workers, federation).

See DESIGN.md §13.  The router speaks the same wire protocol as a
single-process service; host-affinity routing, cross-shard cache
federation, and crash takeover live behind it.
"""

from repro.cluster.federation import (
    FederationCache,
    FederationClient,
    FederationServer,
)
from repro.cluster.hashring import HashRing, score
from repro.cluster.health import HealthMonitor, ping
from repro.cluster.router import ClusterConfig, ClusterRouter, LocalCluster
from repro.cluster.worker import (
    WorkerHandle,
    build_worker_service,
    spawn_worker,
    worker_main,
)
from repro.relational.algebra import base_names

__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "FederationCache",
    "FederationClient",
    "FederationServer",
    "HashRing",
    "HealthMonitor",
    "LocalCluster",
    "WorkerHandle",
    "base_names",
    "build_worker_service",
    "ping",
    "score",
    "spawn_worker",
    "worker_main",
]
