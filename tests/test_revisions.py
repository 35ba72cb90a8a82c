"""The staleness authority on its own: :mod:`repro.revisions`.

No world, no cache: what is pinned here is the contract every tier
leans on — a revision only moves forward, whoever subscribed hears of
each move exactly once and outside the lock, and a revision vector is
current exactly while none of its hosts has moved.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.revisions import Revisions
from tests.test_flight import join_all, run_threads


class TestAdvance:
    def test_bumps_by_one_and_never_goes_backwards(self):
        revisions = Revisions()
        assert revisions.current("h") == 0
        assert revisions.advance("h") == 1
        assert revisions.advance("h") == 2
        assert revisions.advance("h", to=1) is None  # behind: nothing moves
        assert revisions.advance("h", to=2) is None  # level: nothing moves
        assert revisions.current("h") == 2
        assert revisions.is_current("h", 2) and not revisions.is_current("h", 1)

    def test_to_is_a_max_merge(self):
        revisions = Revisions()
        assert revisions.advance("h", to=5) == 5
        assert revisions.advance("h", to=3) is None
        assert revisions.advance("h") == 6
        assert revisions.current("other") == 0  # hosts are independent


class TestSubscribers:
    def test_called_once_per_move_with_the_new_value_already_current(self):
        revisions = Revisions()
        heard = []
        revisions.subscribe(lambda h, r: heard.append((h, r, revisions.current(h))))
        revisions.advance("h")
        revisions.advance("h", to=4)
        revisions.advance("h", to=2)  # no move: nobody is told
        assert heard == [("h", 1, 1), ("h", 4, 4)]

    def test_a_subscriber_may_call_back_in_from_any_thread(self):
        """Subscribers run with the lock released: one that reads, moves
        another host, or waits on a *different thread* doing so returns."""
        revisions = Revisions()
        seen = []

        def reenter(host, revision):
            if host != "h":
                return
            seen.append(revisions.current(host))
            revisions.advance("cascade")
            thread, _, raised = run_threads(1, lambda: revisions.advance("elsewhere"))
            join_all(thread)
            assert raised == []

        revisions.subscribe(reenter)
        thread, returned, raised = run_threads(1, lambda: revisions.advance("h"))
        join_all(thread)  # a deadlock shows as a failed join, not a hung suite
        assert raised == [] and returned == [1]
        assert seen == [1]
        assert revisions.vector() == {"cascade": 1, "elsewhere": 1, "h": 1}

    def test_a_raising_subscriber_stops_neither_the_move_nor_the_others(self):
        revisions = Revisions()
        heard = []

        def broken(host, revision):
            raise OSError("disk full")

        revisions.subscribe(broken)
        revisions.subscribe(lambda h, r: heard.append((h, r)))
        with pytest.raises(OSError):  # surfaced, once everyone has been told
            revisions.advance("h")
        assert revisions.current("h") == 1
        assert heard == [("h", 1)]


class TestVectors:
    def test_vector_is_sorted(self):
        revisions = Revisions()
        revisions.advance("b.com")
        assert list(revisions.vector({"c.com", "b.com", "a.com"}).items()) == [
            ("a.com", 0),
            ("b.com", 1),
            ("c.com", 0),
        ]
        assert revisions.vector() == {"b.com": 1}  # every host that ever moved

    def test_all_current_fails_on_any_moved_host(self):
        revisions = Revisions()
        vector = revisions.vector(["a.com", "b.com"])
        assert revisions.all_current(vector)
        revisions.advance("b.com")
        assert not revisions.all_current(vector)
        assert revisions.all_current({"a.com": 0})

    def test_the_empty_vector_is_always_current(self):
        """An answer over literal relations depends on no host, and its
        vector says so.  Which is exactly why a vector must come from the
        plan: built from what a trace happened to record, an answer that
        *does* depend on hosts can come out looking like this one."""
        revisions = Revisions()
        revisions.advance("h")
        assert revisions.all_current({})


class TestQuarantine:
    def test_flags_are_told_on_change_and_survive_advance(self):
        revisions = Revisions()
        marks = []
        revisions.subscribe(quarantined=lambda *mark: marks.append(mark))
        assert revisions.quarantine("h", "maintenance") is True
        assert revisions.quarantine("h", "maintenance") is False  # already flagged
        revisions.advance("h")
        assert revisions.quarantined("h")
        assert revisions.quarantined_hosts() == frozenset({"h"})
        assert revisions.lift("h", "maintenance") is True
        assert revisions.lift("h", "maintenance") is False
        assert not revisions.quarantined("h")
        assert revisions.current("h") == 1  # a flag is not a move
        assert marks == [("h", "maintenance", True), ("h", "maintenance", False)]

    def test_each_cause_lifts_only_itself(self):
        revisions = Revisions()
        marks = []
        revisions.subscribe(quarantined=lambda *mark: marks.append(mark))
        revisions.quarantine("h", "maintenance")
        revisions.quarantine("h", "breaker")
        assert revisions.quarantined_hosts("breaker") == frozenset({"h"})
        assert revisions.lift("h", "breaker") is True
        assert revisions.quarantined("h")  # maintenance's cause still holds
        assert revisions.quarantined_hosts("breaker") == frozenset()
        assert revisions.quarantined_hosts("maintenance") == frozenset({"h"})
        assert revisions.lift("h", "maintenance") is True
        assert not revisions.quarantined("h")
        assert revisions.quarantined_hosts() == frozenset()
        assert marks == [
            ("h", "maintenance", True),
            ("h", "breaker", True),
            ("h", "breaker", False),
            ("h", "maintenance", False),
        ]


class TestStress:
    THREADS = 8
    BUMPS = 200

    def test_concurrent_bumps_are_never_lost_and_reads_never_go_back(self):
        revisions = Revisions()
        heard: list[int] = []
        heard_lock = threading.Lock()

        def hear(host, revision):
            with heard_lock:
                heard.append(revision)

        revisions.subscribe(hear)

        def bump_and_read():
            last = 0
            for _ in range(self.BUMPS):
                revisions.advance("h")
                revisions.advance("h", to=last)  # a laggard's word: no move
                now = revisions.current("h")
                assert now >= last, "a read went backwards"
                last = now
            return last

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads, returned, raised = run_threads(self.THREADS, bump_and_read)
            join_all(threads)
        finally:
            sys.setswitchinterval(interval)
        total = self.THREADS * self.BUMPS
        assert raised == []
        assert len(returned) == self.THREADS
        assert revisions.current("h") == total  # a lost update would fall short
        assert sorted(heard) == list(range(1, total + 1))  # once per move
