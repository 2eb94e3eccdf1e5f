"""Unit tests for events and timeouts."""

import pytest

from repro.errors import SimulationError, TabsError
from repro.sim import Engine, Event, Timeout


def test_event_lifecycle():
    engine = Engine()
    event = Event(engine, "e")
    assert not event.triggered and not event.processed
    event.succeed(42)
    assert event.triggered and not event.processed
    engine.run()
    assert event.processed
    assert event.result() == 42


def test_event_cannot_trigger_twice():
    engine = Engine()
    event = Event(engine).succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_result_before_trigger_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        Event(engine).result()


def test_failed_event_reraises():
    engine = Engine()
    event = Event(engine)
    event.fail(TabsError("boom"))
    engine.run()
    with pytest.raises(TabsError, match="boom"):
        event.result()


def test_fail_requires_exception():
    engine = Engine()
    with pytest.raises(SimulationError):
        Event(engine).fail("not an exception")  # type: ignore[arg-type]


def test_callback_after_processed_still_fires():
    engine = Engine()
    event = Event(engine).succeed("v")
    engine.run()
    seen = []
    event.add_callback(lambda e: seen.append(e.result()))
    engine.run()
    assert seen == ["v"]


def test_timeout_fires_at_deadline():
    engine = Engine()
    timeout = Timeout(engine, 7.5, value="done")
    engine.run()
    assert engine.now == 7.5
    assert timeout.result() == "done"


def test_run_until_event():
    engine = Engine()
    timeout = Timeout(engine, 4.0, "x")
    assert engine.run_until(timeout) == "x"
    assert engine.now == 4.0


def test_run_until_unreachable_event_is_deadlock():
    engine = Engine()
    event = Event(engine)
    with pytest.raises(SimulationError, match="deadlock"):
        engine.run_until(event)
