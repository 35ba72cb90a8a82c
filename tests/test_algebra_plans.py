"""Differential suite: the compiled algebra plans against the interpreter.

``repro.relational.algebra.evaluate`` runs each expression as a plan
compiled once per catalog and bound-attribute set.  The interpreter it
replaced (``tests/reference_algebra.py``, with the views run on it too
through :class:`~tests.reference_algebra.ReferenceViews`) is the
specification: for every object of every query, the plan must give

* the same rows (or the same exception, type and message);
* the same fetch sequence — every result-cache ``fetch`` / ``fetch_batch``
  call with its bindings, and every engine fetch, in order;
* the same span tree, network seconds and pages included.

The queries are the six bench families over seeded makes, models and
thresholds (the cars world) and ``tests/test_domains.py``'s queries over
the hardware and jobs worlds.  Each runs with no execution context (the
paper's per-binding evaluation), and under an engine context with the
cache off, with the cache on (cold, then warm), under a 20 % fault plan,
and with a cancel before the *k*-th engine fetch.

Run it under another seed with ``REPRO_TEST_SEED=31337 pytest
tests/test_algebra_plans.py``.
"""

from __future__ import annotations

import random
import re
from typing import Any, Callable

import pytest

from bench.workloads import BOUNDS, FAMILIES, MODELS, POPULARITY
from repro import CachePolicy, WebBase, WebBaseConfig
from repro.domains import CARS, HARDWARE, JOBS
from repro.relational.algebra import evaluate
from repro.web.server import FaultPlan
from tests import reference_algebra
from tests.conftest import derive_seeds
from tests.test_domains import DOMAINS

#: domain id -> (domain, world size): the bench's car world, and the worlds
#: ``tests/test_domains.py`` asks its hardware and jobs queries of.
WORLDS = {"cars": (CARS, (1999, 120)), "hardware": (HARDWARE, (1998, 50)), "jobs": (JOBS, (2026, 60))}
MODES = ("bare", "cache-off", "cache-on", "faults", "cancel")


def _car_texts(rng: random.Random) -> list[str]:
    """Each bench family over three drawn makes, about half with a drawn
    threshold."""
    texts = []
    for family in sorted(FAMILIES):
        shape = FAMILIES[family]
        for make in rng.sample(POPULARITY, 3):
            text = shape.template.format(make=make, model=rng.choice(MODELS[make]))
            if shape.bounds and rng.random() < 0.5:
                attr = rng.choice(shape.bounds)
                op, values = BOUNDS[attr]
                text += " AND %s %s %d" % (attr, op, rng.choice(values))
            texts.append(text)
    return texts


def _texts(domain: str) -> list[str]:
    if domain == "cars":
        return _car_texts(random.Random(derive_seeds("algebra-plans:texts", 1)[0]))
    return sorted(DOMAINS[domain][2])


_WEBBASES: dict[tuple[str, bool], WebBase] = {}


def _webbase(domain: str, cached: bool) -> WebBase:
    key = (domain, cached)
    if key not in _WEBBASES:
        spec, size = WORLDS[domain]
        cache = CachePolicy.lru() if cached else CachePolicy.noop()
        _WEBBASES[key] = WebBase(spec.build_world(*size), WebBaseConfig(cache=cache), spec)
    return _WEBBASES[key]


# -- one arm: every object of a query, recorded --------------------------------------


def _plan_arm(obj: Any, webbase: WebBase, context: Any) -> Any:
    return evaluate(obj.template, webbase.logical, context=context, params=obj.values)


def _reference_arm(obj: Any, webbase: WebBase, context: Any) -> Any:
    views = reference_algebra.ReferenceViews(webbase.logical)
    return reference_algebra.evaluate(obj.expression, views, context=context)


def _stable(message: str) -> str:
    """An error message without the wall-clock time a deadline reports."""
    return re.sub(r"\(\d+\.\d+s elapsed\)", "(elapsed)", message)


def _normalized(tree: dict[str, Any]) -> dict[str, Any]:
    """A span tree without its cpu times (its network seconds are
    simulated, so they must agree exactly)."""
    tree.pop("cpu_seconds", None)
    if "error" in tree:
        tree["error"] = _stable(tree["error"])
    for child in tree.get("children", ()):
        _normalized(child)
    return tree


def _record(
    arm: Callable,
    webbase: WebBase,
    text: str,
    mode: str,
    cancel_at: int,
    monkeypatch: pytest.MonkeyPatch,
) -> dict[str, Any]:
    """Run ``arm`` over every feasible object of ``text`` from an empty
    cache (twice for ``cache-on``: cold, then warm) and return what it
    answered, fetched and traced."""
    cache = webbase.cache
    cache.invalidate()
    fetches: list[tuple] = []
    fetch, fetch_batch = cache.fetch, cache.fetch_batch

    def recording_fetch(name, given, context=None):
        fetches.append(("cache", name, sorted(given.items())))
        return fetch(name, given, context=context)

    def recording_batch(name, givens, context=None):
        fetches.append(("cache-batch", name, [sorted(g.items()) for g in givens]))
        return fetch_batch(name, givens, context=context)

    monkeypatch.setattr(cache, "fetch", recording_fetch)
    monkeypatch.setattr(cache, "fetch_batch", recording_batch)
    faults = FaultPlan(seed=derive_seeds("algebra-plans:faults", 1)[0], error_rate=0.2, max_consecutive=3)
    webbase.world.server.install_faults(faults if mode == "faults" else None)
    answers, traces = [], []
    plan = webbase.ur.plan(text)
    try:
        for _ in range(2 if mode == "cache-on" else 1):
            context = None if mode == "bare" else webbase.execution_context()
            if context is not None:
                run_fetch = context.run_fetch
                engine_fetches = [0]

                def counted(relation, given, context=context, run_fetch=run_fetch, n=engine_fetches):
                    n[0] += 1
                    fetches.append(("engine", relation.name, sorted(given.items())))
                    if mode == "cancel" and n[0] == cancel_at:
                        context.cancel()
                    return run_fetch(relation, given)

                context.run_fetch = counted
            for obj in plan.feasible_objects:
                try:
                    relation = arm(obj, webbase, context)
                except Exception as exc:  # noqa: BLE001 - compared, not raised
                    answers.append(("error", type(exc).__name__, _stable(str(exc))))
                else:
                    answers.append(("rows", relation.schema.attrs, relation.rows))
            if context is not None:
                traces.append(_normalized(context.root.to_dict()))
                answers.append(("failures", [_stable(f.describe()) for f in context.failures]))
    finally:
        webbase.world.server.install_faults(None)
        monkeypatch.undo()
    return {"answers": answers, "fetches": fetches, "traces": traces}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("domain", sorted(WORLDS))
def test_plans_agree_with_the_interpreter(domain, mode, monkeypatch):
    webbase = _webbase(domain, cached=mode == "cache-on")
    rng = random.Random(derive_seeds("algebra-plans:%s:%s" % (domain, mode), 1)[0])
    for text in _texts(domain):
        cancel_at = rng.randrange(1, 12)
        ours = _record(_plan_arm, webbase, text, mode, cancel_at, monkeypatch)
        theirs = _record(_reference_arm, webbase, text, mode, cancel_at, monkeypatch)
        for part in ("answers", "fetches", "traces"):
            assert ours[part] == theirs[part], "%s differ for %r (%s)" % (part, text, mode)


def test_the_suite_reaches_every_outcome():
    """The modes are not vacuous: over the car queries, the fault plan
    makes some fetch retry, the cancel stops some object, the warm pass
    hits the cache, and some dependent join prunes its inner side."""
    webbase = _webbase("cars", cached=True)
    seen: set[str] = set()
    with pytest.MonkeyPatch.context() as monkeypatch:
        for text in _texts("cars"):
            for mode in ("cache-on", "faults", "cancel"):
                record = _record(_plan_arm, webbase, text, mode, 2, monkeypatch)
                for tree in record["traces"]:
                    stack = [tree]
                    while stack:
                        node = stack.pop()
                        stack.extend(node.get("children", ()))
                        if node.get("attrs", {}).get("attempts", 1) > 1:
                            seen.add("retry")
                        if node.get("cache") == "hit":
                            seen.add("hit")
                        if node["kind"] == "prune":
                            seen.add("prune")
                        if node.get("attrs", {}).get("batch", 0) > 1:
                            seen.add("batch")
                if any(a[:2] == ("error", "DeadlineExceeded") for a in record["answers"]):
                    seen.add("cancel")
    assert seen >= {"retry", "hit", "batch", "cancel"}, seen
