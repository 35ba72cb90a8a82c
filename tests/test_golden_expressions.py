"""Golden snapshot of the printed navigation expressions.

Pins, for every site of the cars, hardware and jobs domains, the compiled
Transaction F-logic program (``CompiledSite.program.pretty()``, what
``repro expression`` and the Figure 4 benchmark print) and each handle's
goal, mandatory and selection attributes and ``expression`` text.  The
maps are built by example over seeded worlds, so the text is
deterministic: any change to the rules the compiler writes, to the order
it writes them in, or to the handles it derives shows up as a readable
diff.  To accept an intentional change::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_expressions.py
"""

from __future__ import annotations

import difflib
import os
import pathlib

import pytest

from repro.domains import CARS, HARDWARE, JOBS
from repro.navigation.compiler import compile_map

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: domain id -> (domain, world seed and size); cars is the default world.
DOMAINS = {
    "cars": (CARS, (1999, 120)),
    "hardware": (HARDWARE, (1998, 50)),
    "jobs": (JOBS, (2026, 60)),
}


def _render(name: str) -> str:
    domain, size = DOMAINS[name]
    world = domain.build_world(*size)
    out = []
    for host, session in sorted(domain.sessions.items()):
        site = compile_map(session(world).map)
        out.append("== site %s" % host)
        out.append(site.program.pretty())
        for rel in site.relations:
            for handle in rel.handles:
                out.append(
                    "-- handle %s goal=%s mandatory=%s selection=%s"
                    % (
                        rel.name,
                        handle.goal,
                        ",".join(sorted(handle.mandatory)),
                        ",".join(sorted(handle.selection)),
                    )
                )
                out.append(handle.expression)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_printed_expressions_match_golden(name):
    path = GOLDEN / ("%s_expressions.txt" % name)
    actual = _render(name)
    if os.environ.get("UPDATE_GOLDEN"):
        path.write_text(actual)
    expected = path.read_text()
    if actual != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile="tests/golden/%s" % path.name,
                tofile="current compiled expressions",
            )
        )
        raise AssertionError(
            "The %s navigation expressions drifted from the golden snapshot.\n"
            "If intentional, regenerate with UPDATE_GOLDEN=1.\n\n" % name + diff
        )
