"""Helpers shared by several test modules.

This module defines no test: a module whose ``@given`` tests import a
helper from another test module runs that module's ``@given`` decorators
inside their own body, which Hypothesis refuses as nested ``@given``.
"""

from __future__ import annotations

from repro.core.webbase import WebBase

_WEBBASE: WebBase | None = None


def _shared_webbase() -> WebBase:
    """One default webbase, built on first use and reused by every caller
    in the process (the Hypothesis tests cannot take a pytest fixture)."""
    global _WEBBASE
    if _WEBBASE is None:
        _WEBBASE = WebBase.create()
    return _WEBBASE
