"""repro — a reproduction of "A Layered Architecture for Querying Dynamic
Web Content" (Davulcu, Freire, Kifer, Ramakrishnan; SIGMOD 1999).

A *webbase*: a database system over Web content reachable only through
HTML forms, built as three layers over a (here: simulated) raw Web —

* the **virtual physical schema**: relations populated by navigation
  expressions in a Transaction F-logic calculus, derived automatically
  from navigation maps that a designer builds *by example* while browsing;
* the **logical schema**: site-independent relational views with binding
  propagation;
* the **external schema**: a structured universal relation with concept
  hierarchies and compatibility rules, queried as ``SELECT ... WHERE ...``.

Quickstart::

    from repro import WebBase
    webbase = WebBase.create()
    print(webbase.query(
        "SELECT make, model, year, price, contact "
        "WHERE make = 'jaguar' AND year >= 1993"
    ).pretty())
"""

from repro import errors
from repro.core.execution import (
    DeadlineExceeded,
    ExecutionContext,
    FanoutError,
    FetchFailedError,
    RetryPolicy,
    WebBaseConfig,
)
from repro.core.resilience import ResilienceManager, ResiliencePolicy
from repro.core.webbase import WebBase
from repro.domains import Domain
from repro.errors import WebBaseError
from repro.service import ServiceClient, ServiceConfig, WebBaseService
from repro.sites.world import World, build_world
from repro.store.faults import StorageCrash, StorageFault
from repro.store.tiered import TieredStore
from repro.ur.builder import QueryBuilder
from repro.vps.cache import CachePolicy
from repro.web.server import FaultPlan

__version__ = "0.1.0"

__all__ = [
    "CachePolicy",
    "DeadlineExceeded",
    "Domain",
    "ExecutionContext",
    "FanoutError",
    "FaultPlan",
    "FetchFailedError",
    "QueryBuilder",
    "ResilienceManager",
    "ResiliencePolicy",
    "RetryPolicy",
    "ServiceClient",
    "ServiceConfig",
    "StorageCrash",
    "StorageFault",
    "TieredStore",
    "WebBase",
    "WebBaseConfig",
    "WebBaseError",
    "WebBaseService",
    "World",
    "build_world",
    "errors",
    "__version__",
]
