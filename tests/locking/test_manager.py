"""Tests for the lock manager: grants, queues, time-outs, release."""

import pytest

from repro.errors import LockTimeout, TabsError
from repro.kernel.context import SimContext
from repro.kernel.costs import ZERO_COST
from repro.locking.manager import LockManager
from repro.locking.modes import (
    INCREMENT,
    READ,
    READ_WRITE_INCREMENT_PROTOCOL,
    WRITE,
)
from repro.sim import Process, Timeout


@pytest.fixture
def ctx():
    return SimContext(profile=ZERO_COST)


@pytest.fixture
def locks(ctx):
    return LockManager(ctx)


def run(ctx, gen):
    return ctx.engine.run_until(Process(ctx.engine, gen))


class TestImmediateGrants:
    def test_first_lock_granted(self, ctx, locks):
        run(ctx, locks.lock("t1", "obj", READ))
        assert locks.holds("t1", "obj", READ)
        assert locks.is_locked("obj")

    def test_shared_readers(self, ctx, locks):
        run(ctx, locks.lock("t1", "obj", READ))
        run(ctx, locks.lock("t2", "obj", READ))
        assert locks.holds("t1", "obj") and locks.holds("t2", "obj")

    def test_conditional_lock_success_and_failure(self, ctx, locks):
        assert locks.try_lock("t1", "obj", WRITE)
        assert not locks.try_lock("t2", "obj", READ)
        assert not locks.holds("t2", "obj")

    def test_reacquire_same_mode_is_noop_grant(self, ctx, locks):
        assert locks.try_lock("t1", "obj", READ)
        assert locks.try_lock("t1", "obj", READ)
        locks.release_all("t1")
        assert not locks.is_locked("obj")

    def test_write_covers_read_request(self, ctx, locks):
        assert locks.try_lock("t1", "obj", WRITE)
        assert locks.try_lock("t1", "obj", READ)

    def test_upgrade_read_to_write_when_sole_holder(self, ctx, locks):
        assert locks.try_lock("t1", "obj", READ)
        assert locks.try_lock("t1", "obj", WRITE)
        assert locks.holds("t1", "obj", WRITE)

    def test_upgrade_blocked_by_other_reader(self, ctx, locks):
        assert locks.try_lock("t1", "obj", READ)
        assert locks.try_lock("t2", "obj", READ)
        assert not locks.try_lock("t1", "obj", WRITE)


class TestWaiting:
    def test_waiter_granted_after_release(self, ctx, locks):
        run(ctx, locks.lock("t1", "obj", WRITE))
        order = []

        def waiter():
            yield from locks.lock("t2", "obj", WRITE)
            order.append("granted")

        process = Process(ctx.engine, waiter())
        ctx.engine.run(until=5.0)
        assert order == []
        locks.release_all("t1")
        ctx.engine.run_until(process)
        assert order == ["granted"]
        assert locks.holds("t2", "obj", WRITE)

    def test_fifo_among_waiters(self, ctx, locks):
        run(ctx, locks.lock("t1", "obj", WRITE))
        order = []

        def waiter(tid):
            yield from locks.lock(tid, "obj", WRITE)
            order.append(tid)
            locks.release_all(tid)

        p2 = Process(ctx.engine, waiter("t2"))
        ctx.engine.run(until=1.0)
        p3 = Process(ctx.engine, waiter("t3"))
        ctx.engine.run(until=2.0)
        locks.release_all("t1")
        ctx.engine.run_until(p2)
        ctx.engine.run_until(p3)
        assert order == ["t2", "t3"]

    def test_queue_not_jumped_by_conditional_lock(self, ctx, locks):
        """FIFO fairness: a try_lock may not starve a queued writer."""
        run(ctx, locks.lock("t1", "obj", READ))

        def waiter():
            yield from locks.lock("t2", "obj", WRITE)

        Process(ctx.engine, waiter()).defused = True
        ctx.engine.run(until=1.0)
        # t3's READ would be compatible with t1's READ, but t2 is queued.
        assert not locks.try_lock("t3", "obj", READ)

    def test_readers_granted_together(self, ctx, locks):
        run(ctx, locks.lock("t1", "obj", WRITE))
        granted = []

        def reader(tid):
            yield from locks.lock(tid, "obj", READ)
            granted.append(tid)

        for tid in ("t2", "t3"):
            Process(ctx.engine, reader(tid)).defused = True
        ctx.engine.run(until=1.0)
        locks.release_all("t1")
        ctx.engine.run(until=2.0)
        assert sorted(granted) == ["t2", "t3"]


class TestCommutingIncrements:
    @pytest.fixture
    def locks(self, ctx):
        return LockManager(ctx, protocol=READ_WRITE_INCREMENT_PROTOCOL)

    def test_incrementers_hold_together(self, ctx, locks):
        for tid in ("t1", "t2", "t3"):
            run(ctx, locks.lock(tid, "row", INCREMENT))
        assert locks.waits == 0
        assert all(locks.holds(tid, "row", INCREMENT)
                   for tid in ("t1", "t2", "t3"))
        assert not locks.try_lock("t4", "row", READ)
        assert not locks.try_lock("t4", "row", WRITE)

    def test_reader_queues_behind_incrementers_and_fifo_holds_the_rest(
            self, ctx, locks):
        """An inquiry's READ waits for every incrementer ahead of it; an
        incrementer arriving later is compatible with the holders but
        does not overtake the reader."""
        run(ctx, locks.lock("t1", "row", INCREMENT))
        run(ctx, locks.lock("t2", "row", INCREMENT))
        order = []

        def waiter(tid, mode):
            yield from locks.lock(tid, "row", mode)
            order.append(tid)

        reader = Process(ctx.engine, waiter("reader", READ))
        ctx.engine.run(until=1.0)
        late = Process(ctx.engine, waiter("t3", INCREMENT))
        ctx.engine.run(until=2.0)
        assert order == []
        locks.release_all("t1")
        ctx.engine.run(until=3.0)
        assert order == []  # t2 still holds INCREMENT
        locks.release_all("t2")
        ctx.engine.run_until(reader)
        assert order == ["reader"] and late.alive
        locks.release_all("reader")
        ctx.engine.run_until(late)
        assert order == ["reader", "t3"]

    def test_a_transaction_reads_what_it_incremented_once_alone(
            self, ctx, locks):
        """INCREMENT does not cover READ, so the read is a real request:
        granted beside the transaction's own INCREMENT, refused while
        another incrementer is there."""
        assert locks.try_lock("t1", "row", INCREMENT)
        assert locks.try_lock("t2", "row", INCREMENT)
        assert not locks.try_lock("t1", "row", READ)
        locks.release_all("t2")
        assert locks.try_lock("t1", "row", READ)


class TestTimeouts:
    def test_lock_timeout_raises(self, ctx, locks):
        run(ctx, locks.lock("t1", "obj", WRITE))

        def waiter():
            yield from locks.lock("t2", "obj", WRITE, timeout_ms=50.0)

        process = Process(ctx.engine, waiter())
        process.defused = True
        ctx.engine.run()
        with pytest.raises(LockTimeout):
            process.result()
        assert ctx.engine.now == 50.0
        assert locks.timeouts == 1

    def test_timed_out_waiter_leaves_queue(self, ctx, locks):
        run(ctx, locks.lock("t1", "obj", WRITE))

        def impatient():
            yield from locks.lock("t2", "obj", WRITE, timeout_ms=10.0)

        Process(ctx.engine, impatient()).defused = True
        ctx.engine.run()
        locks.release_all("t1")
        # t3 can now take the lock immediately: t2 is gone from the queue.
        assert locks.try_lock("t3", "obj", WRITE)

    def test_deadlock_broken_by_timeout(self, ctx, locks):
        """Two transactions locking a/b in opposite order deadlock; the
        time-out (TABS's resolution policy) breaks it."""
        outcomes = {}

        def t1():
            yield from locks.lock("t1", "a", WRITE)
            yield Timeout(ctx.engine, 1.0)
            try:
                yield from locks.lock("t1", "b", WRITE, timeout_ms=100.0)
                outcomes["t1"] = "ok"
            except LockTimeout:
                outcomes["t1"] = "timeout"
                locks.release_all("t1")

        def t2():
            yield from locks.lock("t2", "b", WRITE)
            yield Timeout(ctx.engine, 1.0)
            try:
                yield from locks.lock("t2", "a", WRITE, timeout_ms=200.0)
                outcomes["t2"] = "ok"
            except LockTimeout:
                outcomes["t2"] = "timeout"
                locks.release_all("t2")

        Process(ctx.engine, t1()).defused = True
        Process(ctx.engine, t2()).defused = True
        ctx.engine.run()
        # t1's shorter time-out fires; its release lets t2 proceed.
        assert outcomes == {"t1": "timeout", "t2": "ok"}


class TestRelease:
    def test_release_all_returns_keys(self, ctx, locks):
        run(ctx, locks.lock("t1", "a", READ))
        run(ctx, locks.lock("t1", "b", WRITE))
        assert sorted(locks.release_all("t1")) == ["a", "b"]
        assert not locks.is_locked("a") and not locks.is_locked("b")

    def test_release_all_of_lockless_txn_is_noop(self, ctx, locks):
        assert locks.release_all("ghost") == []

    def test_early_release_single_lock(self, ctx, locks):
        run(ctx, locks.lock("t1", "a", WRITE))
        locks.release("t1", "a")
        assert not locks.is_locked("a")

    def test_early_release_requires_holding(self, ctx, locks):
        with pytest.raises(TabsError):
            locks.release("t1", "a")

    def test_clear_models_crash(self, ctx, locks):
        run(ctx, locks.lock("t1", "a", WRITE))
        locks.clear()
        assert not locks.is_locked("a")

    def test_held_keys(self, ctx, locks):
        run(ctx, locks.lock("t1", "a", READ))
        run(ctx, locks.lock("t1", "b", READ))
        run(ctx, locks.lock("t2", "c", READ))
        assert sorted(locks.held_keys("t1")) == ["a", "b"]
