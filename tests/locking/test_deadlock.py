"""Tests for the optional wait-for-graph deadlock detector."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.kernel.context import SimContext
from repro.kernel.costs import ZERO_COST
from repro.locking.deadlock import DeadlockDetector
from repro.locking.manager import LockManager
from repro.locking.modes import WRITE
from repro.sim import Process
from repro.txn.ids import TransactionID


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


def victim_of_two_disjoint_cycles() -> str:
    """Two cycles in one lock table, n1's on keys a/b and n2's on c/d;
    the victim comes from the one whose waiter queued first in
    lock-table order."""
    ctx = SimContext(profile=ZERO_COST)
    locks = LockManager(ctx)
    t1, t2 = TransactionID("n1", 1), TransactionID("n1", 2)
    t3, t4 = TransactionID("n2", 3), TransactionID("n2", 4)
    for tid, key in ((t1, "a"), (t2, "b"), (t3, "c"), (t4, "d")):
        hold(ctx, locks, tid, key)
    for tid, key in ((t1, "b"), (t2, "a"), (t3, "d"), (t4, "c")):
        wait_on(ctx, locks, tid, key)
    return str(DeadlockDetector([locks]).choose_victim())


def test_the_victim_does_not_depend_on_the_hash_seed():
    """Transaction ids hash by their node string, so a graph whose roots
    come from a set picks a different cycle per hash seed."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root)]))
    victims = set()
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        victims.add(subprocess.run(
            [sys.executable, "-c",
             "from tests.locking.test_deadlock import "
             "victim_of_two_disjoint_cycles as victim; print(victim())"],
            cwd=root, env=env, capture_output=True, text=True,
            check=True).stdout.strip())
    assert victims == {victim_of_two_disjoint_cycles()} == {"n1.2"}
