"""One importable home for the webbase's error hierarchy.

Every structured error the webbase raises — engine failures, navigation
faults, binding infeasibility, service rejections —
derives from :class:`WebBaseError`, so callers can catch the whole family
with one ``except`` clause, or import any concrete error from here
instead of memorizing which layer defines it::

    from repro.errors import WebBaseError, DeadlineExceeded, FetchFailedError

The concrete classes continue to *live* in the modules that raise them
(keeping each layer self-contained); this module re-exports them lazily
via module ``__getattr__`` (PEP 562), so importing :mod:`repro.errors`
never drags in the navigation or service stacks until a specific error
class is actually touched.

Exceptions that model the *simulated Web itself* (``HttpError``,
``TransientHttpError`` in :mod:`repro.web.server`) are deliberately not
part of the family: they stand in for a remote site's behaviour, not for
a webbase failure, and the browser layer translates them at the boundary.
"""

from __future__ import annotations

import importlib


class WebBaseError(Exception):
    """Common base class of every structured webbase error."""


#: Where each re-exported error class actually lives.
_HOMES = {
    "BindingError": "repro.relational.bindings",
    "ClientLimited": "repro.service.client",
    "DeadlineExceeded": "repro.core.execution",
    "DeadlineExceededError": "repro.service.client",
    "ExecutorError": "repro.navigation.executor",
    "FanoutError": "repro.core.execution",
    "FetchFailedError": "repro.core.execution",
    "HandleError": "repro.vps.handle",
    "NavigationError": "repro.web.browser",
    "Overloaded": "repro.service.client",
    "PageBudgetExceeded": "repro.navigation.executor",
    "ServiceError": "repro.service.client",
    "ServiceShuttingDown": "repro.service.client",
    "TransientNetworkError": "repro.web.browser",
}

__all__ = ["WebBaseError", *sorted(_HOMES)]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module(home), name)


def __dir__() -> list[str]:
    return sorted(__all__)
