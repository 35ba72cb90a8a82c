"""Tiered persistence for the webbase (bronze / silver / gold).

See :mod:`repro.store.tiered` for the layering, :mod:`repro.store.log`
for the on-disk framing and recovery contract, :mod:`repro.store.faults`
for deterministic crash injection, and :mod:`repro.store.rebuild` for
the bronze-replay rebuild path.  The store keeps standing-query
registrations and snapshots; what refreshes them is the service's sweep
(:meth:`repro.service.server.WebBaseService.sweep`).
"""

from repro.store.faults import StorageCrash, StorageFault
from repro.store.log import RecordLog
from repro.store.tiered import SilverEntry, TieredStore

__all__ = [
    "RecordLog",
    "SilverEntry",
    "StorageCrash",
    "StorageFault",
    "TieredStore",
]
