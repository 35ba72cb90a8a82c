"""The navigation calculus: a serial-Horn Transaction F-logic subset.

This package is the formal semantics beneath the VPS layer.  F-logic supplies
the object model (pages, links, forms as frames in an
:class:`~repro.flogic.store.ObjectStore`); Transaction Logic supplies the
sequencing (``Serial``), choice (``Choice``) and elementary updates
(``Ins``/``Del``) needed to represent navigation *processes*.  The
:class:`~repro.flogic.engine.Engine` executes programs of serial-Horn rules
with backtracking and recursion, and :mod:`repro.flogic.syntax` provides a
round-tripping textual notation.
"""

from repro.flogic.engine import DepthLimitExceeded, Engine, UnknownPredicate
from repro.flogic.formulas import (
    Choice,
    Del,
    FAIL,
    Formula,
    Ins,
    Naf,
    Pred,
    Program,
    Rule,
    Serial,
    TRUE,
    attr,
    choice,
    format_formula,
    format_rule,
    format_term,
    isa,
    serial,
)
from repro.flogic.store import ObjectStore, Signature, SignatureError
from repro.flogic.syntax import (
    SyntaxParseError,
    parse_formula,
    parse_rules,
    parse_term,
)
from repro.flogic.terms import (
    Struct,
    Subst,
    Term,
    Var,
    is_ground,
    resolve,
    unify,
    variables_of,
    walk,
)

__all__ = [
    "Choice",
    "Del",
    "DepthLimitExceeded",
    "Engine",
    "FAIL",
    "Formula",
    "Ins",
    "Naf",
    "ObjectStore",
    "Pred",
    "Program",
    "Rule",
    "Serial",
    "Signature",
    "SignatureError",
    "Struct",
    "Subst",
    "SyntaxParseError",
    "TRUE",
    "Term",
    "UnknownPredicate",
    "Var",
    "attr",
    "choice",
    "format_formula",
    "format_rule",
    "format_term",
    "is_ground",
    "isa",
    "parse_formula",
    "parse_rules",
    "parse_term",
    "resolve",
    "serial",
    "unify",
    "variables_of",
    "walk",
]
