"""Shared fixtures: the simulated world, an assembled webbase, and the
repro-seed / anti-deadlock harness for the randomized suites.

The world fixtures are deterministic (seeded), and building them is
fast, but they are session-scoped anyway so the hundreds of tests share
one instance.  Tests that mutate state (maintenance, caching) build
their own.

Every randomized suite draws its seeds through :func:`repro_seed` /
``derive_seeds``, which read one ``REPRO_TEST_SEED`` environment knob
(default 1999).  The active seed is printed in the pytest header and
again on any test failure, so a red run in CI is a one-liner to replay
locally: ``REPRO_TEST_SEED=<seed> pytest tests/<file>``.

A deadlocked test must fail fast, not hang the suite: an autouse
fixture arms ``faulthandler.dump_traceback_later`` per test
(``REPRO_TEST_TIMEOUT`` seconds, default 120), which dumps every
thread's stack and kills the process if a single test overstays.
"""

from __future__ import annotations

import faulthandler
import os
import random

import pytest

from repro.core.webbase import WebBase
from repro.sites.world import World, build_world

#: The one knob seeding every randomized suite (fault plans, latency
#: draws, cancellation points, binding sets).
REPRO_TEST_SEED = int(os.environ.get("REPRO_TEST_SEED", "1999"))

#: Per-test wall-clock budget before the watchdog dumps stacks and aborts.
REPRO_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "120"))


def repro_seed() -> int:
    """The suite-wide base seed (read the env knob once, at import)."""
    return REPRO_TEST_SEED


def derive_seeds(stream: str, count: int) -> list[int]:
    """``count`` deterministic per-suite seeds derived from the base seed
    via an independent named stream (adding a stream never perturbs the
    others)."""
    rng = random.Random("%d:%s" % (REPRO_TEST_SEED, stream))
    return [rng.randrange(2**31) for _ in range(count)]


def pytest_report_header(config: object) -> str:
    return "repro: REPRO_TEST_SEED=%d REPRO_TEST_TIMEOUT=%.0fs" % (
        REPRO_TEST_SEED,
        REPRO_TEST_TIMEOUT,
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print the replay recipe next to any failure."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        report.sections.append(
            (
                "repro seed",
                "replay with: REPRO_TEST_SEED=%d pytest %s" % (
                    REPRO_TEST_SEED,
                    item.nodeid,
                ),
            )
        )


@pytest.fixture(autouse=True)
def _test_watchdog():
    """Fail a hung test fast: after ``REPRO_TEST_TIMEOUT`` seconds the
    watchdog dumps every thread's traceback and exits the process, so a
    deadlocked thread join surfaces as a readable failure
    instead of a CI-job timeout with no stacks."""
    if REPRO_TEST_TIMEOUT > 0:
        faulthandler.dump_traceback_later(REPRO_TEST_TIMEOUT, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def world() -> World:
    return build_world()


@pytest.fixture(scope="session")
def webbase() -> WebBase:
    return WebBase.create()


@pytest.fixture()
def fresh_world() -> World:
    """A private world for tests that mutate sites or counters."""
    return build_world()
