"""One query path: ``WebBase.query`` is ``WebBase.query_stream`` collected,
and a served query pages out what ``query_stream`` yields.

So the in-process and the served query cannot disagree on what they
raise or what they persist:

* an object's errors are reported once, by ``StructuredUR.answer_stream``,
  as a fan-out reports them — a deadline trumps a defect that came
  before it, and two defects surface as one ``FanoutError`` naming both;
* a store-backed service persists the same gold record, with the same
  revision vector, as the in-process query, with or without MQO.

The MQO halves of the gold rule (a context-passing query subsumes; a
shared context never writes stale gold) are ``tests/test_gold_rule.py``.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core.execution import DeadlineExceeded, FanoutError, WebBaseConfig
from repro.core.webbase import WebBase
from repro.service.client import DeadlineExceededError, ServiceClient, ServiceError
from repro.service.protocol import E_INTERNAL
from repro.service.server import ServiceConfig, WebBaseService
from repro.sites.world import build_world
from repro.ur import planner
from repro.vps.cache import CachePolicy

#: Two single-relation objects: classifieds, then dealers.
QUERY = "SELECT make, model, price WHERE make = 'saab'"


def _webbase(**config) -> WebBase:
    return WebBase.create(WebBaseConfig(ads_per_host=24, **config))


def _objects_fail(*faults):
    """Patch the UR layer's per-object ``evaluate``: the n-th object
    evaluated first runs ``faults[n]``, given the object's context."""
    real = planner.evaluate
    calls = []

    def evaluate(expression, logical, context=None, params=()):
        calls.append(expression)
        if len(calls) <= len(faults):
            faults[len(calls) - 1](context)
        return real(expression, logical, context=context, params=params)

    return mock.patch.object(planner, "evaluate", evaluate)


def _defect(n: int):
    def fault(context) -> None:
        raise RuntimeError("defect in object %d" % n)

    return fault


def _defect_then_cancel(context) -> None:
    """A defect, after which the context is cancelled (its deadline
    timer fired) before the second object starts."""
    context.cancel()
    raise RuntimeError("defect in object 1")


@pytest.fixture()
def served():
    """A fresh cache-off webbase behind a running service: every object
    fetches live, so a cancelled context stops it at a checkpoint."""
    webbase = _webbase()
    service = WebBaseService(webbase, ServiceConfig(port=0))
    host, port = service.start()
    try:
        with ServiceClient(host=host, port=port) as client:
            yield webbase, client
    finally:
        service.shutdown()


class TestErrorsOnBothPaths:
    def test_a_deadline_trumps_a_defect_in_process(self):
        webbase = _webbase()
        with _objects_fail(_defect_then_cancel):
            with pytest.raises(DeadlineExceeded):
                webbase.query(QUERY, context=webbase.execution_context())

    def test_a_deadline_trumps_a_defect_when_served(self, served):
        webbase, client = served
        with _objects_fail(_defect_then_cancel):
            with pytest.raises(DeadlineExceededError):
                client.query(QUERY)
        assert webbase.metrics.value("service.errors") == 0
        assert webbase.metrics.value("service.deadline_exceeded") == 1

    def test_two_defects_are_one_fanout_error_in_process(self):
        webbase = _webbase()
        with _objects_fail(_defect(1), _defect(2)):
            with pytest.raises(FanoutError) as raised:
                webbase.query(QUERY)
        assert [str(e) for e in raised.value.errors] == [
            "defect in object 1",
            "defect in object 2",
        ]

    def test_two_defects_are_one_fanout_error_when_served(self, served):
        webbase, client = served
        with _objects_fail(_defect(1), _defect(2)):
            with pytest.raises(ServiceError) as raised:
                client.query(QUERY)
        assert raised.value.code == E_INTERNAL
        message = str(raised.value)
        assert "FanoutError" in message and "2 of 2" in message
        assert "defect in object 1" in message and "defect in object 2" in message


class TestServedGold:
    def test_a_served_query_persists_the_gold_an_in_process_query_does(self, tmp_path):
        """No MQO: the store alone decides that an answer is materialized,
        on either path, and both write the same record."""
        world = build_world(seed=1998, ads_per_host=24)

        def webbase(name: str) -> WebBase:
            return WebBase(
                world,
                WebBaseConfig(
                    ads_per_host=24,
                    cache=CachePolicy.lru(),
                    store_dir=str(tmp_path / name),
                ),
            )

        local = webbase("local")
        local.query(QUERY)
        remote = webbase("remote")
        service = WebBaseService(remote, ServiceConfig(port=0))
        host, port = service.start()
        try:
            with ServiceClient(host=host, port=port) as client:
                outcome = client.query(QUERY)
        finally:
            service.shutdown()
        assert outcome.stats["fetches"] > 0 and "mqo" not in outcome.stats

        def answers(wb: WebBase) -> list[dict]:
            return [r for r in wb.store.gold if r.get("kind") == "answer"]

        assert answers(remote) == answers(local)
        (record,) = answers(local)
        assert record["query"] == QUERY and record["rows"]
        plan_hosts = local.ur.plan_hosts(local.ur.plan(QUERY))
        assert set(record["revisions"]) == set(plan_hosts)
        assert set(outcome.rows) == {tuple(row) for row in record["rows"]}
