"""Multi-query optimization: containment-based answer reuse.

The layers below this one answer ONE query well, and the result cache's
flights already merge concurrent identical accesses; ``repro.mqo`` adds
the one cross-query mechanism they lack:

* **containment-based answer reuse** — a query subsumed by a
  revision-current gold-tier answer is served by filtering materialized
  rows with zero fetches (:mod:`repro.mqo.containment`, applied by
  :class:`~repro.mqo.optimizer.MultiQueryOptimizer`).

Plan fingerprints (canonical identity for logical plan subtrees,
computed in :mod:`repro.relational.planner` and carried on
:class:`~repro.ur.planner.ObjectPlan`) label the objects of an EXPLAIN.

Enabled per webbase via ``WebBaseConfig(mqo=True)`` / the ``--mqo`` CLI
flag; the cluster router places equal plans on one owner by
construction (equal plans, equal host weights).
"""

from repro.mqo.containment import Decomposition, Domain, decompose, implies
from repro.mqo.optimizer import MultiQueryOptimizer

__all__ = [
    "Decomposition",
    "Domain",
    "MultiQueryOptimizer",
    "decompose",
    "implies",
]
