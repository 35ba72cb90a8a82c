"""Multi-query optimization: cross-query sharing and answer reuse.

The layers below this one answer ONE query well; ``repro.mqo`` makes
*concurrent* queries cheaper than the sum of their parts, three ways:

* **plan fingerprinting** — canonical identity for logical plan subtrees
  (computed in :mod:`repro.relational.planner`, carried on
  :class:`~repro.ur.planner.ObjectPlan`);
* **shared subplan execution** — in-flight fingerprints coalesce onto a
  single evaluation (:class:`~repro.mqo.registry.SubplanRegistry`);
* **containment-based answer reuse** — a query subsumed by a
  revision-current gold-tier answer is served by filtering materialized
  rows with zero fetches (:mod:`repro.mqo.containment`, applied by
  :class:`~repro.mqo.optimizer.MultiQueryOptimizer`).

Enabled per webbase via ``WebBaseConfig(mqo=True)`` / the ``--mqo`` CLI
flag; the cluster router places equal fingerprints on one owner by
construction (equal plans, equal host weights).
"""

from repro.mqo.containment import Decomposition, Domain, decompose, implies
from repro.mqo.optimizer import MultiQueryOptimizer
from repro.mqo.registry import SubplanRegistry

__all__ = [
    "Decomposition",
    "Domain",
    "MultiQueryOptimizer",
    "SubplanRegistry",
    "decompose",
    "implies",
]
