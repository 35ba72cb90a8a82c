"""The used-car domain — the paper's running example — as one value:
the simulated Web of :mod:`repro.sites`, the designer sessions that map
it, Table 2's logical views with their planner statistics, and the
UsedCarUR hierarchy and compatibility rules.
"""

from repro.domains import Domain
from repro.domains.cars.mapping import car_catalog_stats, car_logical_schema
from repro.domains.cars.sessions import SESSIONS
from repro.domains.cars.usedcars import (
    UR_RELATIONS,
    used_car_hierarchy,
    used_car_rules,
)
from repro.sites.world import build_world

CARS = Domain(
    build_world=build_world,
    sessions=SESSIONS,
    logical_schema=car_logical_schema,
    hierarchy=used_car_hierarchy,
    rules=tuple(used_car_rules()),
    relations=tuple(UR_RELATIONS),
    catalog_stats=car_catalog_stats,
)
