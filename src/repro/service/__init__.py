"""The webbase query service: a long-running, multi-client server.

The paper measures per-site query latency because end users *wait* on
live form fetches; a webbase is therefore meant to be served, not rebuilt
per query.  This package is that service layer, on top of all three
paper layers and the engine underneath them:

* :mod:`repro.service.protocol` — the line-delimited JSON wire format
  (requests, streamed result pages, structured errors);
* :mod:`repro.service.server` — :class:`WebBaseService`: one shared
  :class:`~repro.core.webbase.WebBase` (cross-query cache, metrics,
  navigation maps) behind a TCP socket, with bounded admission,
  load shedding, per-request deadlines, streaming results and graceful
  drain;
* :mod:`repro.service.client` — :class:`ServiceClient`, the in-process
  client library the CLI, tests and benchmarks use.
"""

from repro.service.client import (
    ClientLimited,
    DeadlineExceededError,
    Overloaded,
    QueryOutcome,
    ServiceClient,
    ServiceError,
    ServiceShuttingDown,
)
from repro.service.server import ServiceConfig, WebBaseService

__all__ = [
    "ClientLimited",
    "DeadlineExceededError",
    "Overloaded",
    "QueryOutcome",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceShuttingDown",
    "WebBaseService",
]
