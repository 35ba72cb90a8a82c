"""The external schema layer: the structured universal relation."""

from repro.ur.builder import BuilderError, QueryBuilder
from repro.ur.compat import (
    CompatibilityRule,
    allows,
    excludes,
    is_compatible,
    mutually_exclusive,
    requires,
)
from repro.ur.concepts import Concept, ConceptError
from repro.ur.maximal import covering_objects, maximal_objects
from repro.ur.planner import ObjectPlan, PlanError, StructuredUR, URPlan
from repro.ur.query import QueryParseError, URQuery, parse_query

__all__ = [
    "BuilderError",
    "CompatibilityRule",
    "Concept",
    "ConceptError",
    "ObjectPlan",
    "PlanError",
    "QueryBuilder",
    "QueryParseError",
    "StructuredUR",
    "URPlan",
    "URQuery",
    "allows",
    "covering_objects",
    "excludes",
    "is_compatible",
    "maximal_objects",
    "mutually_exclusive",
    "parse_query",
    "requires",
]
