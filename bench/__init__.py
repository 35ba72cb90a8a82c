"""The webbase's wall-clock and CPU benchmark (see bench/README.md)."""

from __future__ import annotations

import json
import os
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: the command, workloads, metrics and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)
