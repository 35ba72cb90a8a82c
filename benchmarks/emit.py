"""Machine-readable benchmark results (``BENCH_<name>.json``).

Benchmarks print human-readable tables, but the perf trajectory across
PRs needs numbers a machine can diff: each benchmark calls :func:`emit`
with a plain JSON payload.  The committed ``BENCH_<name>.json`` at the
repository root is the *baseline*: CI's perf-smoke job reads it with
:func:`load_baseline` and fails the run if a tracked measure regressed
beyond its headroom — so a perf win stays won.

A run never rewrites the baseline.  :func:`emit` writes the run's result
to ``BENCH_<name>.json`` under :data:`OUT_DIR`, outside the tree, so a
gate keeps comparing against the committed numbers however often it
runs (when runs overwrote the baseline, the floor followed the last
run).  Re-basing is a deliberate copy, committed with the change that
moves the numbers::

    python -m pytest benchmarks/bench_prefix_reuse.py --benchmark-disable
    cp "$(python -c 'import tempfile; print(tempfile.gettempdir())')"/repro-bench/BENCH_prefix_reuse.json .

The payloads are deterministic (seeded world, simulated clock); every
file also carries a ``provenance`` stamp (git SHA, ``REPRO_TEST_SEED``,
python version) so a number in a committed baseline can always be traced
back to the exact tree and toolchain that produced it.  Measures stay
byte-identical run to run — only the stamp moves with the commit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from typing import Any

#: Repository root — result files sit next to README.md, not inside
#: benchmarks/, so the perf trajectory is visible at the top level.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


#: Where runs write their results: outside the tree, beside other
#: temporary files.
OUT_DIR = os.path.join(tempfile.gettempdir(), "repro-bench")


def result_path(name: str) -> str:
    """Where the committed baseline ``BENCH_<name>.json`` lives."""
    return os.path.join(ROOT, "BENCH_%s.json" % name)


def load_baseline(name: str) -> dict[str, Any] | None:
    """The committed baseline (``None`` if none is committed)."""
    path = result_path(name)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def _git_sha() -> str:
    """The current commit, or ``""`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            timeout=10.0,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.decode("ascii", errors="replace").strip() if out.returncode == 0 else ""


def provenance() -> dict[str, str]:
    """The run's traceability stamp: tree, seed override, toolchain."""
    return {
        "git_sha": _git_sha(),
        "repro_test_seed": os.environ.get("REPRO_TEST_SEED", ""),
        "python": "%d.%d.%d" % sys.version_info[:3],
    }


def emit(name: str, payload: dict[str, Any]) -> str:
    """Write one run's results *atomically* to ``BENCH_<name>.json`` under
    :data:`OUT_DIR`; returns the file path.  The committed baseline is not
    touched (re-basing is a copy, see the module docstring).

    A ``provenance`` stamp (:func:`provenance`) is added to the payload
    unless the benchmark already supplied one.  The payload lands in a
    temp file beside the target and is renamed into place, so an
    interrupted benchmark (ctrl-C, OOM, a crashing assertion after
    partial write) can never leave a truncated ``BENCH_*.json`` for a
    re-base to copy."""
    payload = dict(payload)
    payload.setdefault("provenance", provenance())
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "BENCH_%s.json" % name)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path
