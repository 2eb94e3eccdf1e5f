"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.kernel.context import SimContext
from repro.obs.profile import SimProfiler
from repro.sim import Engine, Event


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_schedule_and_run_advances_clock():
    engine = Engine()
    seen = []
    engine.schedule(5.0, lambda: seen.append(engine.now))
    engine.schedule(2.0, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [2.0, 5.0]
    assert engine.now == 5.0


def test_same_time_events_run_in_schedule_order():
    engine = Engine()
    seen = []
    for i in range(10):
        engine.schedule(1.0, lambda i=i: seen.append(i))
    engine.run()
    assert seen == list(range(10))


@settings(max_examples=60, deadline=None)
@given(delays=st.lists(st.sampled_from([0.0, 1.0, 2.5]),
                       min_size=1, max_size=40))
def test_same_instant_fifo_property(delays):
    """Entries scheduled for the same instant run in schedule order --
    whatever mix of instants surrounds them."""
    engine = Engine()
    seen = []
    for index, delay in enumerate(delays):
        engine.schedule(delay, seen.append, args=((delay, index),))
    engine.run()
    assert seen == sorted(seen), "pop order broke (time, seq) sorting"


def test_far_future_entries_run_in_time_order():
    engine = Engine()
    seen = []
    for delay in [5_000.0, 1.5, 9_999.25, 2_500.0, 0.0, 9_999.75]:
        engine.schedule(delay, seen.append, args=(delay,))
    engine.run()
    assert seen == [0.0, 1.5, 2_500.0, 5_000.0, 9_999.25, 9_999.75]
    assert engine.now == 9_999.75


def test_schedule_now_runs_after_pending_same_time_work():
    engine = Engine()
    seen = []
    engine.schedule(0.0, lambda: seen.append("first"))
    engine.schedule_now(lambda: seen.append("second"))
    engine.run()
    assert seen == ["first", "second"]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1.0, lambda: None)


def test_nan_delay_rejected():
    """A NaN key compares false against everything: once in the heap it
    would silently break the (time, seq) total order."""
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(float("nan"), lambda: None)
    assert engine.events_scheduled == 0


def test_run_until_time_stops_clock_exactly():
    engine = Engine()
    seen = []
    engine.schedule(10.0, lambda: seen.append("late"))
    engine.run(until=4.0)
    assert seen == []
    assert engine.now == 4.0
    engine.run()
    assert seen == ["late"]


def test_event_at_exactly_until_runs():
    """``run(until=t)`` is inclusive: an event at exactly ``t`` runs."""
    engine = Engine()
    seen = []
    engine.schedule(10.0, seen.append, args=("at",))
    engine.schedule(10.0 + 1e-9, seen.append, args=("after",))
    engine.run(until=10.0)
    assert seen == ["at"]
    assert engine.now == 10.0
    engine.run()
    assert seen == ["at", "after"]


def test_push_below_a_parked_far_future_front_pops_first():
    """``run(until=t)`` parks the clock before a far-future entry; work
    then scheduled *below* that entry must still run before it."""
    engine = Engine()
    seen = []
    engine.schedule(5_000.0, seen.append, args=("far",))
    engine.run(until=100.0)
    assert seen == []
    engine.schedule(1.0, seen.append, args=("near",))
    engine.run()
    assert seen == ["near", "far"]
    assert engine.now == 5_000.0


def test_run_until_repeatedly_across_idle_gaps():
    """Successive bounded runs across empty stretches stay exact."""
    engine = Engine()
    seen = []
    for delay in [50.0, 2_048.0, 7_000.5]:
        engine.schedule(delay, seen.append, args=(delay,))
    for until in [10.0, 60.0, 2_048.0, 6_000.0, 8_000.0]:
        engine.run(until=until)
        assert engine.now == until
    assert seen == [50.0, 2_048.0, 7_000.5]


def test_run_until_past_time_rejected():
    engine = Engine()
    engine.schedule(10.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.run(until=5.0)


def test_callbacks_can_schedule_more_work():
    engine = Engine()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            engine.schedule(1.0, lambda: chain(n + 1))

    engine.schedule(1.0, lambda: chain(0))
    engine.run()
    assert seen == [0, 1, 2, 3]
    assert engine.now == 4.0


def test_schedule_now_is_fifo_among_itself():
    engine = Engine()
    seen = []
    for i in range(5):
        engine.schedule_now(lambda i=i: seen.append(i))
    engine.run()
    assert seen == list(range(5))


def test_callback_scheduling_zero_delay_runs_after_same_time_peers():
    """A zero-delay event created *during* time t runs at t, but after the
    events already queued for t -- the FIFO rule chaos replay relies on."""
    engine = Engine()
    seen = []

    def first():
        seen.append("first")
        engine.schedule(0.0, lambda: seen.append("child"))

    engine.schedule(1.0, first)
    engine.schedule(1.0, lambda: seen.append("second"))
    engine.run()
    assert seen == ["first", "second", "child"]


#: every public way of driving the engine to quiescence, given an event
#: that triggers before simulated ms 50
DRIVERS = {
    "run": lambda engine, event: engine.run(),
    "run(until=)": lambda engine, event: engine.run(until=50.0),
    "drain": lambda engine, event: engine.drain(50.0),
    "run_until": lambda engine, event: engine.run_until(event),
    "step": lambda engine, event: all(iter(engine.step, False)),
}
#: every way a callback might try to re-enter it
NESTED = {
    "run": lambda engine, event: engine.run(),
    "drain": lambda engine, event: engine.drain(1.0),
    "run_until": lambda engine, event: engine.run_until(event),
    "step": lambda engine, event: engine.step(),
}


@pytest.mark.parametrize("nested", NESTED)
@pytest.mark.parametrize("outer", DRIVERS)
def test_reentering_the_engine_from_a_callback_rejected(outer, nested):
    """One clock, one loop: a callback that drives the engine again must
    fail loudly under every entry point, not nest a second loop."""
    engine = Engine()
    event = Event(engine, "done")
    errors = []

    def reenter():
        try:
            NESTED[nested](engine, event)
        except SimulationError as error:
            errors.append(error)

    engine.schedule(1.0, reenter)
    engine.schedule(5.0, event.succeed)
    DRIVERS[outer](engine, event)
    assert len(errors) == 1
    # ... and the guard is released again once the outer call returns.
    engine.run()
    assert event.processed


def test_interleaved_delays_keep_global_order():
    engine = Engine()
    seen = []
    for delay in (3.0, 1.0, 2.0, 1.0, 3.0):
        engine.schedule(delay, lambda d=delay: seen.append(d))
    engine.run()
    assert seen == [1.0, 1.0, 2.0, 3.0, 3.0]
    assert engine.now == 3.0


def test_drain_reports_quiescence():
    engine = Engine()
    engine.schedule(5.0, lambda: None)
    assert engine.drain(10.0) is True
    assert engine.now == 5.0  # clock rests at the last event


def test_drain_gives_up_at_deadline():
    engine = Engine()

    def forever():
        engine.schedule(1.0, forever)

    engine.schedule(1.0, forever)
    assert engine.drain(50.0) is False
    assert engine.pending_count() == 1


def test_drain_negative_budget_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.drain(-1.0)


def test_step_returns_false_when_idle():
    engine = Engine()
    assert engine.step() is False


def test_pending_count():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    assert engine.pending_count() == 2
    engine.run()
    assert engine.pending_count() == 0


# -- daemon events (background housekeeping) --------------------------------

def test_daemon_events_run_while_real_work_is_pending():
    engine = Engine()
    ticks = []

    def tick():
        ticks.append(engine.now)
        engine.schedule(10.0, tick, daemon=True)

    engine.schedule(10.0, tick, daemon=True)
    engine.schedule(35.0, lambda: None)  # real work keeps the loop going
    engine.run()
    assert ticks == [10.0, 20.0, 30.0]
    assert engine.now == 35.0  # run() stopped despite the pending tick


def test_daemon_events_do_not_block_quiescence():
    engine = Engine()

    def forever():
        engine.schedule(5.0, forever, daemon=True)

    engine.schedule(5.0, forever, daemon=True)
    engine.run()  # would never return if daemons counted as work
    assert engine.now == 0.0


def test_pending_count_excludes_daemons():
    engine = Engine()
    engine.schedule(1.0, lambda: None, daemon=True)
    assert engine.pending_count() == 0
    engine.schedule(2.0, lambda: None)
    assert engine.pending_count() == 1


def test_drain_quiesces_with_daemons_still_queued():
    engine = Engine()

    def forever():
        engine.schedule(5.0, forever, daemon=True)

    engine.schedule(5.0, forever, daemon=True)
    engine.schedule(7.0, lambda: None)
    assert engine.drain(100.0) is True
    assert engine.pending_count() == 0  # daemons excluded
    # ... while the next tick is still queued
    assert engine.events_scheduled - engine.events_executed == 1


def test_run_with_until_executes_daemons_up_to_the_deadline():
    engine = Engine()
    ticks = []

    def tick():
        ticks.append(engine.now)
        engine.schedule(10.0, tick, daemon=True)

    engine.schedule(10.0, tick, daemon=True)
    engine.run(until=45.0)
    assert ticks == [10.0, 20.0, 30.0, 40.0]
    assert engine.now == 45.0


def test_run_until_sees_daemon_only_queue_as_deadlock():
    """A waited-on event that can never trigger (only daemon housekeeping
    left) must raise a simulated-deadlock error, not spin forever."""
    engine = Engine()

    def forever():
        engine.schedule(5.0, forever, daemon=True)

    engine.schedule(5.0, forever, daemon=True)
    event = Event(engine, "never")
    with pytest.raises(SimulationError, match="1 daemon entry.*deadlock"):
        engine.run_until(event)


def test_run_until_sees_empty_queue_as_deadlock():
    engine = Engine()
    event = Event(engine, "never")
    with pytest.raises(SimulationError, match="drained.*deadlock"):
        engine.run_until(event)


def test_daemon_callback_can_create_real_work():
    """A daemon that discovers something real (a suspicion, say) schedules
    non-daemon work, which then keeps the loop alive until done."""
    engine = Engine()
    seen = []
    engine.schedule(1.0, lambda: engine.schedule(
        2.0, lambda: seen.append(engine.now)), daemon=True)
    engine.schedule(5.0, lambda: None)  # real work past the daemon
    engine.run()
    assert seen == [3.0]


# -- counters and the profiler hook -----------------------------------------

def fanout(engine, depth):
    """Each call at depth d schedules three children at depth d-1."""
    if depth:
        for _ in range(3):
            engine.schedule(float(depth), fanout, args=(engine, depth - 1))


def test_counter_values():
    engine = Engine()
    engine.schedule(0.0, fanout, args=(engine, 4))
    engine.schedule(10_000.0, lambda: None, daemon=True)
    engine.run()
    # 1 + 3 + 9 + 27 + 81 fanout calls, plus the daemon that never ran
    assert engine.events_scheduled == 122
    assert engine.events_executed == 121
    assert (engine.daemon_scheduled, engine.daemon_executed) == (1, 0)
    assert engine.heap_high_water == 82  # the 81 leaves + the daemon
    assert engine.now == 10.0  # 4 + 3 + 2 + 1


@pytest.mark.parametrize("driver", DRIVERS)
def test_profiler_sees_every_event_whichever_entry_point_drives(driver):
    engine = Engine()
    engine.profiler = SimProfiler(SimContext(engine))
    event = Event(engine, "done")
    engine.schedule(0.0, fanout, args=(engine, 3))
    engine.schedule(2.0, lambda: None, daemon=True)
    engine.schedule(20.0, event.succeed)
    DRIVERS[driver](engine, event)
    assert event.processed
    assert engine.events_executed >= 42  # 40 fanout calls, daemon, succeed
    assert engine.profiler.steps == engine.events_executed
    assert engine.profiler.daemon_steps == engine.daemon_executed == 1


def test_an_entry_pushed_at_a_reserved_key_runs_where_it_was_reserved():
    engine = Engine()
    order = []
    keys = {}

    def reserve():
        keys["held"] = engine.reserve()
        engine.schedule(5.0, lambda: order.append("queued after"))

    def push():
        assert engine.running_key[0] == 2.0
        engine.push(5.0, keys["held"], lambda: order.append("reserved"))

    engine.schedule(1.0, reserve)
    engine.schedule(2.0, push)
    engine.run(until=10.0)
    assert order == ["reserved", "queued after"]
    assert engine.running_key == (10.0, float("inf"))


def test_push_behind_the_running_key_rejected():
    engine = Engine()
    held = engine.reserve()
    engine.schedule(3.0, lambda: None)
    engine.run(until=3.0)
    with pytest.raises(SimulationError):
        engine.push(3.0, held, lambda: None)


def test_run_until_needs_an_event():
    with pytest.raises(SimulationError, match="needs an Event"):
        Engine().run_until(5.0)


# -- the due-next rule ----------------------------------------------------------

def wake_from(engine, at, seen, later=None):
    """Schedule an entry at ``at`` whose last act is ``run_due_next``,
    then entries at the instants ``later``; the callback notes the
    running key and the entries run so far."""
    def callback(tag):
        seen.append((tag, engine.running_key, engine.events_scheduled,
                     engine.events_executed))

    engine.schedule(at, engine.run_due_next, args=(callback, ("woken",)))
    for instant in later or ():
        engine.schedule(instant, seen.append, args=(("entry", instant),))


@pytest.mark.parametrize("later", [(), (2.0,)],
                         ids=["empty queue", "front entry later"])
def test_a_wake_up_due_next_runs_in_the_entry_that_caused_it(later):
    engine = Engine()
    seen = []
    wake_from(engine, 1.0, seen, later)
    engine.run()
    (tag, key, scheduled, executed) = seen[0]
    assert tag == "woken"
    assert executed == 1  # inside the entry at t=1, not one of its own
    assert key == (1.0, scheduled - 0.5)
    assert engine.events_executed == 1 + len(later)


def test_a_wake_up_is_queued_behind_an_entry_due_at_this_instant():
    engine = Engine()
    seen = []
    wake_from(engine, 1.0, seen, later=(1.0,))
    engine.run()
    assert [entry[0] for entry in seen] == ["entry", "woken"]
    _, key, _, executed = seen[1]
    assert executed == 3  # an entry of its own, after the due one
    assert key == (1.0, 2)


def test_the_queued_form_runs_only_from_the_queue():
    engine = Engine()
    ran = []
    for due in (False, True):
        engine.schedule(1.0, engine.run_due_next, args=(
            ran.append, ("in place",), lambda tag: ran.append("queued")))
        if due:
            engine.schedule(1.0, lambda: None)
        engine.run()
    assert ran == ["in place", "queued"]


def test_a_chain_of_inline_wake_ups_keeps_the_queued_order():
    """Wake-ups that wake the next one run in place, one inside the
    other, until one finds an entry due at its instant: the order of
    every callback is the one an engine that queues every wake-up
    gives, with fewer entries run."""
    def program(engine, wake):
        order = []

        def step(n):
            order.append((n, engine.now))
            if n == 2:
                engine.schedule_now(order.append, args=(("queued by 2",
                                                         engine.now),))
            if n < 5:
                wake(step, (n + 1,))

        engine.schedule(1.0, wake, args=(step, (0,)))
        engine.schedule(3.0, order.append, args=(("later entry", 3.0),))
        engine.run()
        return order

    inline = Engine()
    queued = Engine()
    assert program(inline, inline.run_due_next) == \
        program(queued, queued.schedule_now)
    assert inline.events_executed < queued.events_executed
