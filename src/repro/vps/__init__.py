"""The virtual physical schema layer: handles, virtual relations, caching."""

from repro.vps.cache import CacheEntry, CachePolicy, ResultCache
from repro.vps.handle import Handle, HandleError, check_handle_family
from repro.vps.schema import VirtualRelation, VpsSchema
from repro.vps.verify import AgreementReport, Disagreement, verify_handle_agreement

__all__ = [
    "AgreementReport",
    "CacheEntry",
    "CachePolicy",
    "ResultCache",
    "Disagreement",
    "Handle",
    "HandleError",
    "VirtualRelation",
    "VpsSchema",
    "check_handle_family",
    "verify_handle_agreement",
]
