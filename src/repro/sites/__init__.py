"""The simulated car-domain Web sites used throughout the reproduction.

``build_world`` assembles the full evaluation environment: twelve sites
(the paper's ten timing-table sites plus CarPoint and CarFinance from
Table 1) served from one :class:`~repro.web.server.WebServer`, all backed
by one deterministic synthetic dataset.
"""

from repro.sites.dataset import (
    Ad,
    BlueBookEntry,
    Car,
    Dataset,
    FinanceRate,
    SafetyRating,
    generate,
)
from repro.sites.world import TIMING_TABLE_HOSTS, build_world

__all__ = [
    "Ad",
    "BlueBookEntry",
    "Car",
    "Dataset",
    "FinanceRate",
    "SafetyRating",
    "TIMING_TABLE_HOSTS",
    "build_world",
    "generate",
]
