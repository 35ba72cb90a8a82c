"""Seeded interleavings of standing-query traffic over one service.

Under ``REPRO_TEST_SEED`` three clients draw a schedule of operations on
one standing query: subscribe or resume, detach (close the connection
and keep the rows), unsubscribe, a site mutation swept by a client or by
an admin connection, and an orderly restart on the same store (sometimes
with churn while the service is down).  Some subscribes and resumes run
at the same time as a sweep from another connection, so a refresh lands
while the subscriber is held.  Pinned for every subscriber the schedule
creates:

* its frames run snapshot pages, then the ack, then deltas in contiguous
  ``seq`` order;
* the revision vector it is delivered never goes backwards;
* at every quiescent point (every call returned), each attached
  subscriber's rows equal a fresh evaluation.

A resume claims the client holds the query's persisted snapshot.  The
schedule resumes only a client for which that is true; any other
returning client subscribes plainly.  A client that left while deltas
went out to another subscriber does not hold the snapshot, and the
server cannot tell (the subscribe request carries no last seq): that gap
is pinned by ``test_a_resume_after_deltas_to_another_subscriber_catches_up``
in ``tests/test_standing_queries.py``.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import pytest

from repro.core.execution import WebBaseConfig
from repro.core.webbase import WebBase
from repro.service.client import ServiceClient, Subscription
from repro.service.server import ServiceConfig, WebBaseService
from repro.sites.world import build_world, mutate_site_listings
from repro.vps.cache import CachePolicy
from tests.conftest import derive_seeds
from tests.test_standing_queries import (
    HOST_A,
    HOST_B,
    QUERY,
    FrameLog,
    _fresh_rows,
    drain,
)

CLIENTS = 3
STEPS = 60
OPS = ("subscribe", "subscribe", "detach", "unsubscribe", "sweep", "sweep", "restart")


@dataclass
class Slot:
    """One client: attached (a connection and a subscription), or away —
    holding the rows it last had, or none after an unsubscribe."""

    client: ServiceClient | None = None
    sub: Subscription | None = None
    rows: set | None = None


class Schedule:
    """One seeded run: the service (restarted on its store now and then),
    its world, three client slots, and the frame log."""

    def __init__(self, seed: int, tmp_path, monkeypatch) -> None:
        self.rng = random.Random(seed)
        self.config = WebBaseConfig(
            cache=CachePolicy.lru(), store_dir=str(tmp_path / "store")
        )
        self.world = build_world(
            seed=self.config.seed, ads_per_host=self.config.ads_per_host
        )
        self.log = FrameLog(monkeypatch)
        self.slots = [Slot() for _ in range(CLIENTS)]
        self.subscribers: list[tuple] = []  # every subscriber, as the log keys it
        self.mutations = 0
        self.counts = {"resumed": 0, "raced": 0, "restarts": 0}
        self.start()

    def start(self) -> None:
        self.webbase = WebBase(self.world, config=self.config)
        self.service = WebBaseService(self.webbase, ServiceConfig(port=0))
        self.address = self.service.start()

    def stop(self) -> None:
        for slot in self.slots:
            if slot.client is not None:
                slot.client.close()
        self.service.shutdown()
        self.webbase.store.close()

    def connect(self) -> ServiceClient:
        host, port = self.address
        return ServiceClient(host=host, port=port)

    # -- operations ------------------------------------------------------------

    def mutate(self) -> str:
        host = self.rng.choice([HOST_A, HOST_B])
        self.mutations += 1
        count = self.rng.randint(1, 2)
        mutate_site_listings(self.world, host, count=count, seed=self.mutations)
        return host

    def sweep(self, host: str) -> None:
        attached = [slot for slot in self.slots if slot.sub is not None]
        if attached and self.rng.random() < 0.5:
            self.rng.choice(attached).client.sweep(host)
        else:
            with self.connect() as admin:
                admin.sweep(host)

    def subscribe(self, slot: Slot) -> None:
        """Subscribe ``slot``, resuming when its rows are the persisted
        snapshot, and sometimes while another connection sweeps."""
        persisted = self.webbase.store.standing_queries().get(QUERY)
        resume = (
            slot.rows is not None
            and persisted is not None
            and {tuple(row) for row in persisted["rows"]} == slot.rows
        )
        others = any(s.sub is not None for s in self.slots if s is not slot)
        # A sweep delivered to another subscriber before this resume
        # registers moves the state away from the rows it holds: the gap.
        race = self.rng.random() < 0.5 and not (resume and others)
        host = self.mutate() if race else None
        slot.client = self.connect()
        with ThreadPoolExecutor(max_workers=1) as aside:
            subscribing = aside.submit(slot.client.subscribe, QUERY, resume=resume)
            if race:
                with self.connect() as admin:
                    admin.sweep(host)
            sub = subscribing.result(timeout=60.0)
        if sub.resumed:
            assert resume
            sub.rows = set(slot.rows)
            self.counts["resumed"] += 1
        self.counts["raced"] += race
        slot.sub = sub
        self.subscribers.append(self.log.key(slot.client, sub))

    def leave(self, slot: Slot, unsubscribe: bool) -> None:
        if unsubscribe:
            slot.client.unsubscribe(slot.sub)
        slot.rows = None if unsubscribe else set(slot.sub.rows)
        slot.client.close()
        slot.client = slot.sub = None

    def restart(self) -> None:
        """An orderly restart on the same store, sometimes with churn while
        the service is down: every client leaves holding its rows."""
        for slot in self.slots:
            if slot.sub is not None:
                self.leave(slot, unsubscribe=False)
        self.stop()
        if self.rng.random() < 0.5:
            self.mutate()
        self.start()
        self.counts["restarts"] += 1

    def step(self) -> None:
        op = self.rng.choice(OPS)
        attached = [slot for slot in self.slots if slot.sub is not None]
        away = [slot for slot in self.slots if slot.sub is None]
        if op == "subscribe" and away:
            self.subscribe(self.rng.choice(away))
        elif op in ("detach", "unsubscribe") and attached:
            self.leave(self.rng.choice(attached), unsubscribe=op == "unsubscribe")
        elif op == "restart":
            self.restart()
        else:
            self.sweep(self.mutate() if self.rng.random() < 0.8 else HOST_A)

    # -- the checks ----------------------------------------------------------

    def check_quiescent(self) -> None:
        truth = _fresh_rows(self.webbase)
        for slot in self.slots:
            if slot.sub is not None:
                drain(self.log, slot.client, slot.sub)
                assert slot.sub.rows == truth


@pytest.mark.parametrize("seed", derive_seeds("standing-interleaving", 2))
def test_interleaved_subscribes_resumes_and_sweeps(seed, tmp_path, monkeypatch):
    schedule = Schedule(seed, tmp_path, monkeypatch)
    try:
        for _ in range(STEPS):
            schedule.step()
            schedule.check_quiescent()
    finally:
        schedule.stop()
    for key in schedule.subscribers:
        schedule.log.assert_ordered(key)
    deltas = sum(
        frame["type"] == "delta"
        for key in schedule.subscribers
        for frame, _ in schedule.log.of(key)
    )
    assert deltas and all(schedule.counts.values()), (schedule.counts, deltas)
