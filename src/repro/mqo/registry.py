"""Shared subplan execution: coalescing over plan fingerprints.

The :class:`SubplanRegistry` is the runtime half of the multi-query
optimizer.  Concurrent queries whose maximal objects canonicalize to the
same fingerprint (:func:`repro.relational.planner.plan_fingerprint`)
coalesce onto ONE evaluation under the :mod:`repro.flight` contract: the
leader runs the subplan under its own execution context, subscribers
share the resulting :class:`~repro.relational.relation.Relation`
(immutable, so sharing the object is safe).  A subscriber cancelling
(deadline, client gone) detaches; a leader failing or cancelling promotes
the first survivor, so shared work is never lost to queries that still
want it, and one query's transient fault cannot poison its neighbors.

The registry holds no results beyond the flight itself: sharing is
strictly *in-flight*, so staleness never outlives the queries being
answered (cross-time reuse is the containment layer's job, which carries
revision-vector validation).
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.flight import Flights
from repro.relational.relation import Relation


class SubplanRegistry:
    """In-flight fingerprint → shared evaluation, with metrics."""

    def __init__(self, metrics: Any = None) -> None:
        self._lock = threading.Lock()
        self._flights = Flights(self._lock)
        self.metrics = metrics

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def inflight(self) -> int:
        """How many distinct subplans are currently executing."""
        with self._lock:
            return len(self._flights)

    def run(
        self,
        fingerprint: str,
        context: Any,
        thunk: Callable[[], Relation | None],
        span: Any = None,
    ) -> Relation | None:
        """Evaluate ``thunk`` once per in-flight ``fingerprint``.

        The caller that finds no flight open becomes the leader and runs
        ``thunk`` on its own thread/context; concurrent callers with the
        same fingerprint wait (cancellably, via ``context.check_cancelled``)
        and share the leader's result.
        """
        poll = getattr(context, "check_cancelled", None)
        while True:
            with self._lock:
                flight, leading = self._flights.join(fingerprint)
            if leading:
                self._count("mqo.shared_leads")
                if span is not None:
                    span.attrs["mqo"] = "lead"
                with flight:
                    if poll is not None:
                        # Other queries may park on this evaluation: a
                        # cancelled leader fails it before doing any work.
                        poll("mqo:%s" % fingerprint[:12])
                    result = thunk()
                    with self._lock:
                        flight.land(result)
                return result
            try:
                landed = flight.wait(poll, "mqo:%s" % fingerprint[:12])
            except BaseException:
                # This subscriber is gone; the flight (and its other
                # subscribers) live on — detach, don't kill.
                self._count("mqo.detached")
                raise
            if landed:
                self._count("mqo.shared_hits")
                if span is not None:
                    span.attrs["mqo"] = "hit"
                return flight.result
            # The leader failed or was cancelled out from under us: loop —
            # whoever re-enters first promotes to leader and re-runs.
            self._count("mqo.promotions")
