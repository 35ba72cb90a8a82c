"""The logical layer: site independence over the virtual physical schema."""

from repro.logical.datalog import (
    DatalogError,
    DatalogRule,
    compile_program,
    compile_rule,
    define_datalog_views,
    parse_datalog,
)
from repro.logical.schema import LogicalRelation, LogicalSchema
from repro.logical.standardize import (
    edit_distance,
    fuzzy_match,
    parse_money,
    to_int,
    to_percent,
    to_usd,
)

__all__ = [
    "DatalogError",
    "DatalogRule",
    "LogicalRelation",
    "LogicalSchema",
    "compile_program",
    "compile_rule",
    "define_datalog_views",
    "edit_distance",
    "fuzzy_match",
    "parse_datalog",
    "parse_money",
    "to_int",
    "to_percent",
    "to_usd",
]
