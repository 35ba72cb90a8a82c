"""Application domains: everything a webbase needs that is not the engine.

The paper's three layers are domain-independent; "used car ads, computer
equipment, etc." (Section 2) differ only in what a domain expert writes
down.  A :class:`Domain` is that write-up as one value — its simulated
sites, the designer sessions that map them, its logical views and its
universal relation — and ``WebBase(world, config, domain)`` is the one
place it is assembled into a running stack: :data:`CARS` (the paper's
running example, the default everywhere), :data:`HARDWARE` and
:data:`JOBS` all run on the same engine.  Nothing here assembles or
executes anything, and no layer below imports a domain module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.logical.schema import LogicalSchema
from repro.navigation.builder import MapBuilder
from repro.relational.algebra import Catalog
from repro.relational.cost import CatalogStats
from repro.ur.compat import CompatibilityRule
from repro.ur.concepts import Concept
from repro.web.server import World


@dataclass(frozen=True)
class Domain:
    """What a domain author supplies, field by field, and who consumes it.

    ``build_world(seed, rows_per_host)``
        The domain's raw Web: a :class:`~repro.web.server.World` whose
        server hosts the sites and whose dataset is the ground truth
        behind them.  Only ``WebBase.create`` calls it (with the config's
        ``seed`` and ``ads_per_host``); the live Web needs no building.
    ``sessions``
        Host → designer session: browse the site once while a
        :class:`~repro.navigation.builder.MapBuilder` watches, mark one
        example tuple per data page, return the builder.  The maps
        compile into the **virtual physical schema** (one relation per
        marked page, in the site's own vocabulary); maintenance, the
        store's map persistence and ``rebuild`` work from them.
    ``logical_schema(catalog)``
        The **logical schema**: site-independent views (renames, casts,
        unions, joins) over whatever catalog it is handed — the result
        cache in a live webbase, rebuilt silver in ``rebuild``.
    ``hierarchy`` / ``rules`` / ``relations``
        The **external schema**: the concept hierarchy the end user
        browses (a factory: a :class:`~repro.ur.concepts.Concept` tree is
        mutable), the compatibility rules that say which logical
        relations may meet in one answer, and the universal relation's
        relations.
    ``catalog_stats(logical, rows_per_host)``
        Optional planner statistics read off the world's generation
        parameters; ``None`` lets the cost-based planner derive what it
        can from the view definitions
        (:meth:`~repro.relational.cost.CatalogStats.from_catalog`).
    """

    build_world: Callable[[int, int], World]
    sessions: Mapping[str, Callable[[World], MapBuilder]]
    logical_schema: Callable[[Catalog], LogicalSchema]
    hierarchy: Callable[[], Concept]
    rules: tuple[CompatibilityRule, ...]
    relations: tuple[str, ...]
    catalog_stats: Callable[[LogicalSchema, int], CatalogStats] | None = None


# The domain values import ``Domain`` from this module, so they load last.
from repro.domains.cars import CARS  # noqa: E402
from repro.domains.hardware import HARDWARE  # noqa: E402
from repro.domains.jobs import JOBS  # noqa: E402

__all__ = ["CARS", "Domain", "HARDWARE", "JOBS"]
