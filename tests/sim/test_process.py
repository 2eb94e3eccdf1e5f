"""Unit tests for generator-based processes."""

import pytest

from repro.errors import ProcessKilled, SimulationError, TabsError
from repro.sim import PARKED, Engine, Process, Timeout, join_all


def test_process_runs_and_returns_value():
    engine = Engine()

    def body():
        yield Timeout(engine, 5.0)
        return "result"

    process = Process(engine, body())
    assert engine.run_until(process) == "result"
    assert engine.now == 5.0
    assert not process.alive


def test_process_receives_event_values():
    engine = Engine()

    def body():
        value = yield Timeout(engine, 1.0, "hello")
        return value.upper()

    assert engine.run_until(Process(engine, body())) == "HELLO"


def test_processes_interleave_deterministically():
    engine = Engine()
    trace = []

    def worker(name, period):
        for _ in range(3):
            yield Timeout(engine, period)
            trace.append((engine.now, name))

    Process(engine, worker("a", 2.0)).defused = True
    Process(engine, worker("b", 3.0)).defused = True
    engine.run()
    # At t=6.0 both fire; b's timeout was scheduled first (at t=3.0) so it
    # wakes first -- deterministic FIFO ordering of same-time events.
    assert trace == [(2.0, "a"), (3.0, "b"), (4.0, "a"), (6.0, "b"),
                     (6.0, "a"), (9.0, "b")]


def test_process_waits_on_another_process():
    engine = Engine()

    def child():
        yield Timeout(engine, 4.0)
        return 10

    def parent():
        value = yield Process(engine, child())
        return value + 1

    assert engine.run_until(Process(engine, parent())) == 11


def test_process_exception_propagates_to_waiter():
    engine = Engine()

    def child():
        yield Timeout(engine, 1.0)
        raise TabsError("child blew up")

    def parent():
        try:
            yield Process(engine, child())
        except TabsError:
            return "caught"

    assert engine.run_until(Process(engine, parent())) == "caught"


def test_unobserved_process_failure_crashes_simulation():
    engine = Engine()

    def body():
        yield Timeout(engine, 1.0)
        raise TabsError("nobody is watching")

    Process(engine, body())
    with pytest.raises(TabsError, match="nobody is watching"):
        engine.run()


def test_defused_process_failure_is_swallowed():
    engine = Engine()

    def body():
        yield Timeout(engine, 1.0)
        raise TabsError("expected")

    Process(engine, body()).defused = True
    engine.run()  # must not raise


def test_yielding_non_event_fails_process():
    engine = Engine()

    def body():
        yield "42"

    process = Process(engine, body())
    process.defused = True
    engine.run()
    with pytest.raises(SimulationError):
        process.result()


def test_kill_destroys_process_without_resuming():
    engine = Engine()
    cleanups = []

    def body():
        try:
            yield Timeout(engine, 100.0)
        finally:
            cleanups.append("closed")

    process = Process(engine, body())
    engine.run(until=1.0)
    process.kill("node crash")
    engine.run()
    assert cleanups == ["closed"]  # generator.close() ran the finally block
    assert not process.alive
    with pytest.raises(ProcessKilled):
        process.result()


def test_kill_is_idempotent():
    engine = Engine()

    def body():
        yield Timeout(engine, 100.0)

    process = Process(engine, body())
    engine.run(until=1.0)
    process.kill()
    process.kill()
    engine.run()
    assert not process.alive


def test_process_requires_generator():
    engine = Engine()
    with pytest.raises(SimulationError):
        Process(engine, lambda: None)  # type: ignore[arg-type]


def test_yielding_a_delay_sleeps_that_long():
    engine = Engine()

    def body():
        yield 2.5
        yield 4
        return engine.now

    assert engine.run_until(Process(engine, body())) == 6.5


def test_yielding_a_negative_delay_fails_process():
    engine = Engine()

    def body():
        yield -1.0

    process = Process(engine, body())
    process.defused = True
    engine.run()
    with pytest.raises(SimulationError):
        process.result()


def parked(engine, seen, deadline_ms=None):
    """A process that parks once (with ``deadline_ms``) and notes what
    resumed it and when; returns the process and its first token."""
    tokens = []

    def body():
        tokens.append(process.park(deadline_ms))
        seen.append(((yield PARKED), engine.now))

    process = Process(engine, body())
    engine.step()
    return process, tokens[0]


def test_a_deadline_wait_resumes_with_the_first_of_wake_and_deadline():
    engine = Engine()
    seen = []
    early, token = parked(engine, seen, deadline_ms=10.0)
    engine.schedule(3.0, lambda: early.wake(token, "fast"))
    late, late_token = parked(engine, seen, deadline_ms=4.0)
    engine.schedule(9.0, lambda: late.wake(late_token, "slow"))
    engine.run()
    # the first wins; the loser (a deadline, a late wake) is stale
    assert seen == [("fast", 3.0), (None, 4.0)]
    assert not early.alive and not late.alive


def test_a_wait_woken_with_an_error_raises_it():
    engine = Engine()
    caught = []

    def body():
        token = process.park(100.0)
        engine.schedule(1.0, lambda: process.wake(
            token, TabsError("bad"), ok=False))
        try:
            yield PARKED
        except TabsError as error:
            caught.append((str(error), engine.now))

    process = Process(engine, body())
    engine.run()
    assert caught == [("bad", 1.0)]


def test_a_killed_parked_process_ignores_its_wake_up():
    engine = Engine()
    seen = []
    process, token = parked(engine, seen, deadline_ms=5.0)
    process.kill("node crash")
    process.wake(token, "late")
    process.wake_last(token, "later")
    executed = engine.events_executed
    engine.run()
    assert seen == []
    # the deadline still pops (quiescence and the clock keep it), but a
    # stale wake-up queues nothing
    assert engine.now == 5.0
    assert engine.events_executed == executed + 2  # deadline, kill's failure


def test_join_all_waits_for_every_process():
    engine = Engine()

    def child(delay):
        yield delay

    def parent():
        children = [Process(engine, child(9.0)), Process(engine, child(1.0))]
        failed = yield from join_all(children)
        return failed, engine.now, [c.result() for c in children]

    assert engine.run_until(Process(engine, parent())) == (
        None, 9.0, [None, None])


def test_join_all_of_no_process_returns_at_once():
    engine = Engine()

    def parent():
        failed = yield from join_all([])
        yield 0.0
        return failed, engine.now

    assert engine.run_until(Process(engine, parent())) == (None, 0.0)


def test_join_all_names_the_first_failure_in_order():
    engine = Engine()

    def child(delay, message):
        yield delay
        raise TabsError(message)

    def parent():
        children = [Process(engine, child(5.0, "late")),
                    Process(engine, child(1.0, "early"))]
        for process in children:
            process.defused = True  # "early" fails before anyone joins it
        failed = yield from join_all(children)
        return failed[0] is children[0], str(failed[1]), engine.now

    # the first failure in the order given, after every one has finished
    assert engine.run_until(Process(engine, parent())) == (True, "late", 5.0)
