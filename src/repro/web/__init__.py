"""The simulated raw-Web substrate: HTTP, HTML, sites, server and browser.

This package plays the role of the live 1999 Web in the original paper: an
opaque source of dynamic content reachable only by following links and
submitting forms.  Everything above it (navigation maps, the calculus, the
three schema layers) interacts with the Web exclusively through
:class:`~repro.web.browser.Browser`.
"""

from repro.web.browser import (
    ActionEvent,
    Browser,
    BrowserObserver,
    NavigationError,
)
from repro.web.clock import CpuTimer, LatencyModel, SimClock
from repro.web.html import Element, RenderStyle, el
from repro.web.htmlparser import HtmlNode, parse_html
from repro.web.http import Request, Response, Url, parse_url
from repro.web.page import FormSpec, Link, WebPage, Widget, parse_page
from repro.web.server import HttpError, Site, TrafficStats, WebServer, World

__all__ = [
    "ActionEvent",
    "Browser",
    "BrowserObserver",
    "CpuTimer",
    "Element",
    "FormSpec",
    "HtmlNode",
    "HttpError",
    "LatencyModel",
    "Link",
    "NavigationError",
    "Request",
    "Response",
    "RenderStyle",
    "SimClock",
    "Site",
    "TrafficStats",
    "Url",
    "WebPage",
    "WebServer",
    "Widget",
    "World",
    "el",
    "parse_html",
    "parse_page",
    "parse_url",
]
