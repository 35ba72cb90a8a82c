"""The webbase core: the layered architecture assembled and instrumented."""

from repro.core.execution import (
    ExecutionContext,
    FanoutError,
    FetchFailedError,
    FetchFailure,
    RetryPolicy,
    TraceSpan,
    WebBaseConfig,
)
from repro.core.parallel import (
    ParallelOutcome,
    parallel_site_query,
    sequential_site_query,
)
from repro.core.stats import (
    SiteTiming,
    format_timing_table,
    primary_relation,
    site_given,
    site_query_timings,
)
from repro.core.webbase import WebBase

__all__ = [
    "ExecutionContext",
    "FanoutError",
    "FetchFailedError",
    "FetchFailure",
    "ParallelOutcome",
    "RetryPolicy",
    "SiteTiming",
    "TraceSpan",
    "WebBase",
    "WebBaseConfig",
    "format_timing_table",
    "parallel_site_query",
    "primary_relation",
    "sequential_site_query",
    "site_given",
    "site_query_timings",
]
