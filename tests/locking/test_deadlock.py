"""Tests for the optional wait-for-graph deadlock detector."""

import pytest

from repro.kernel.context import SimContext
from repro.kernel.costs import ZERO_COST
from repro.locking.deadlock import DeadlockDetector
from repro.locking.manager import LockManager
from repro.locking.modes import WRITE
from repro.sim import Process


@pytest.fixture
def ctx():
    return SimContext(profile=ZERO_COST)


def hold(ctx, locks, tid, key):
    ctx.engine.run_until(Process(ctx.engine, locks.lock(tid, key, WRITE)))


def wait_on(ctx, locks, tid, key):
    process = Process(ctx.engine, locks.lock(tid, key, WRITE,
                                             timeout_ms=1e9))
    process.defused = True
    ctx.engine.run(until=ctx.engine.now + 1.0)
    return process


def test_no_cycle_in_simple_wait(ctx):
    locks = LockManager(ctx)
    detector = DeadlockDetector([locks])
    hold(ctx, locks, "t1", "a")
    wait_on(ctx, locks, "t2", "a")
    assert detector.find_cycle() is None
    assert detector.choose_victim() is None


def test_two_party_cycle_detected(ctx):
    locks = LockManager(ctx)
    detector = DeadlockDetector([locks])
    hold(ctx, locks, "t1", "a")
    hold(ctx, locks, "t2", "b")
    wait_on(ctx, locks, "t1", "b")
    wait_on(ctx, locks, "t2", "a")
    cycle = detector.find_cycle()
    assert cycle is not None
    assert set(cycle) == {"t1", "t2"}


def test_victim_is_youngest(ctx):
    locks = LockManager(ctx)
    detector = DeadlockDetector([locks])
    hold(ctx, locks, "t1", "a")
    hold(ctx, locks, "t2", "b")
    wait_on(ctx, locks, "t1", "b")
    wait_on(ctx, locks, "t2", "a")
    assert detector.choose_victim() == "t2"


def test_three_party_cycle_across_managers(ctx):
    """Distributed detection: the cycle spans two servers' lock tables."""
    locks_a, locks_b = LockManager(ctx), LockManager(ctx)
    detector = DeadlockDetector([locks_a, locks_b])
    hold(ctx, locks_a, "t1", "x")
    hold(ctx, locks_b, "t2", "y")
    hold(ctx, locks_a, "t3", "z")
    wait_on(ctx, locks_b, "t1", "y")
    wait_on(ctx, locks_a, "t2", "z")
    wait_on(ctx, locks_a, "t3", "x")
    cycle = detector.find_cycle()
    assert cycle is not None
    assert set(cycle) == {"t1", "t2", "t3"}


def test_breaking_cycle_by_aborting_victim(ctx):
    locks = LockManager(ctx)
    detector = DeadlockDetector([locks])
    hold(ctx, locks, "t1", "a")
    hold(ctx, locks, "t2", "b")
    p1 = wait_on(ctx, locks, "t1", "b")
    wait_on(ctx, locks, "t2", "a")
    victim = detector.choose_victim()
    locks.release_all(victim)
    ctx.engine.run_until(p1)  # t1's wait is granted once t2 is gone
    assert detector.find_cycle() is None
