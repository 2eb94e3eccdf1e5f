"""One queue entry per hop anyone can observe (docs/SIMULATOR.md).

Two kernel rules drop entries that nothing could see, without moving
anything that still runs:

- a wake-up due next -- a :class:`Timeout` firing, a message delivered to
  a waiting ``receive()`` -- runs its callbacks in the entry that caused
  it, unless another entry is already due at that instant;
- a message handler's process (``spawn_handler``) finishes without a
  queue entry, because nobody holds a reference to join it.

The last test holds both rules to the old schedule on random programs:
the reference keeps every hop (``succeed_last`` patched back to
``succeed``, handlers spawned as ordinary processes).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.kernel.context import SimContext
from repro.kernel.messages import Message, MessageKind
from repro.kernel.node import Node
from repro.kernel.service import spawn_handler
from repro.sim import Engine, Event, Process, Timeout, join_all


def timed_waiter(engine, seen, delay=5.0):
    """A process that sleeps ``delay`` and notes (now, entries run)."""
    def body():
        yield Timeout(engine, delay)
        seen.append(("waiter", engine.now, engine.events_executed))
    return Process(engine, body())


def receiver(node, port, seen):
    """A node process that waits on ``port`` and notes what arrives."""
    engine = node.ctx.engine

    def body():
        message = yield port.receive()
        seen.append((message.op, engine.now, engine.events_executed))
    return node.spawn(body())


def note(engine, seen, label):
    return lambda: seen.append((label, engine.now, engine.events_executed))


class TestTimeout:
    def test_a_lone_timeout_resumes_its_waiter_in_one_entry(self):
        engine = Engine()
        seen = []
        timed_waiter(engine, seen)
        engine.run()
        # entry 1 starts the process, entry 2 fires the timeout and
        # resumes it; entry 3 is the (joinable) process's completion
        assert seen == [("waiter", 5.0, 2)]
        assert engine.events_scheduled == engine.events_executed == 3

    def test_an_entry_due_earlier_at_the_instant_does_not_keep_the_hop(self):
        engine = Engine()
        seen = []
        engine.schedule(5.0, note(engine, seen, "other"))
        timed_waiter(engine, seen)
        engine.run()
        assert seen == [("other", 5.0, 2), ("waiter", 5.0, 3)]

    def test_an_entry_queued_at_the_same_instant_keeps_todays_order(self):
        engine = Engine()
        seen = []
        timed_waiter(engine, seen)
        engine.step()  # the process starts and arms its timeout
        engine.schedule(5.0, note(engine, seen, "other"))
        engine.run()
        # the fire (entry 2) finds "other" due, so the callbacks queue
        # behind it and the waiter resumes after it, in entry 4
        assert seen == [("other", 5.0, 3), ("waiter", 5.0, 4)]

    def test_step_runs_the_wake_ups_callbacks_too(self):
        engine = Engine()
        timeout = Timeout(engine, 2.0, value="v")
        seen = []
        timeout.add_callback(lambda event: seen.append(event.result()))
        assert engine.step()
        assert timeout.processed and seen == ["v"]
        assert engine.step() is False

    def test_firing_twice_is_still_refused(self):
        engine = Engine()
        timeout = Timeout(engine, 1.0)
        timeout.succeed("early")
        with pytest.raises(SimulationError, match="triggered twice"):
            engine.run()


class TestDelivery:
    def make(self):
        ctx = SimContext()
        node = Node(ctx, "n")
        return ctx.engine, node, node.create_port("p")

    def test_a_lone_delivery_resumes_the_receiver_in_one_entry(self):
        engine, node, port = self.make()
        seen = []
        receiver(node, port, seen)
        engine.step()  # the receiver waits
        port.send(Message(op="m", kind=MessageKind.UNCHARGED))
        engine.run()
        assert seen == [("m", 0.0, 2)]

    def test_an_entry_queued_at_the_same_instant_keeps_todays_order(self):
        engine, node, port = self.make()
        seen = []
        receiver(node, port, seen)
        engine.step()
        port.send(Message(op="m", kind=MessageKind.UNCHARGED))
        engine.schedule(0.0, note(engine, seen, "other"))
        engine.run()
        assert seen == [("other", 0.0, 3), ("m", 0.0, 4)]

    def test_a_message_that_waits_in_the_queue_is_unchanged(self):
        engine, node, port = self.make()
        seen = []
        port.send(Message(op="m", kind=MessageKind.UNCHARGED))
        engine.run()  # delivered before anyone receives: it queues
        assert port.queued == 1
        receiver(node, port, seen)
        engine.run()
        # start (entry 2), then the already-triggered receive's callbacks
        assert seen == [("m", 0.0, 3)]


def returns_at_once():
    return "done"
    yield  # pragma: no cover - makes this a generator


class TestHandlerCompletion:
    def test_a_handler_process_leaves_no_completion_entry(self):
        ctx = SimContext()
        node = Node(ctx, "n")
        spawn_handler(node, Message(op="x"), returns_at_once(), "h")
        ctx.engine.run()
        (process,) = node._processes
        assert process.processed and process.result() == "done"
        assert ctx.engine.events_scheduled == 1  # its start, nothing else

    def test_any_other_process_still_queues_its_completion(self):
        ctx = SimContext()
        node = Node(ctx, "n")
        process = node.spawn(returns_at_once())
        ctx.engine.run()
        assert process.processed and process.result() == "done"
        assert ctx.engine.events_scheduled == 2

    def joined(self, join_after_ms):
        engine = Engine()
        seen = []

        def worker():
            yield Timeout(engine, 3.0)
            seen.append(("finished", engine.now, engine.events_executed))
            return "w"

        def joiner(process):
            yield Timeout(engine, join_after_ms)
            seen.append(("joins", engine.now, engine.events_executed))
            failed = yield from join_all([process])
            seen.append(("woken", engine.now, engine.events_executed))
            assert failed is None and process.result() == "w"

        Process(engine, joiner(Process(engine, worker())))
        engine.run()
        return seen

    def test_a_join_before_the_finish_wakes_one_entry_after_it(self):
        assert self.joined(1.0) == [("joins", 1.0, 3), ("finished", 3.0, 4),
                                    ("woken", 3.0, 5)]

    def test_a_join_after_the_finish_wakes_one_entry_after_the_join(self):
        assert self.joined(4.0) == [("finished", 3.0, 3), ("joins", 4.0, 5),
                                    ("woken", 4.0, 6)]


class TestRunUntil:
    def test_a_lone_timeout_returns_its_value_at_its_instant(self):
        engine = Engine()
        assert engine.run_until(Timeout(engine, 4.0, value="v")) == "v"
        assert (engine.now, engine.events_executed) == (4.0, 1)

    def test_a_shared_instant_returns_the_same_value_at_the_same_clock(self):
        engine = Engine()
        timeout = Timeout(engine, 4.0, value="v")
        engine.schedule(4.0, lambda: None)
        engine.schedule(9.0, lambda: None)
        assert engine.run_until(timeout) == "v"
        assert (engine.now, engine.events_executed) == (4.0, 3)
        assert engine.pending_count() == 1


# -- the same schedule as with every hop kept --------------------------------

#: one process step: sleep (ms), send to a port (index, kind), receive
STEP = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 1.0, 2.0])),
    st.tuples(st.just("send"), st.integers(0, 2),
              st.sampled_from([MessageKind.SMALL, MessageKind.UNCHARGED])),
    st.tuples(st.just("recv")),
)


def play(programs, spawn):
    """Run ``programs`` (one step list per node process) with message
    handlers started by ``spawn``; return the (clock, label) trace."""
    ctx = SimContext()
    engine = ctx.engine
    node = Node(ctx, "n")
    ports = [node.create_port(f"p{i}") for i in range(3)]
    inbox = node.create_port("inbox")
    trace = []

    def handler(message):
        yield Timeout(engine, 1.0)
        trace.append((engine.now, "handled", message.op))

    def serve():
        while True:
            message = yield inbox.receive()
            spawn(node, message, handler(message), "h")

    def body(index, steps):
        for number, step in enumerate(steps):
            if step[0] == "sleep":
                yield Timeout(engine, step[1])
            elif step[0] == "send":
                ports[step[1]].send(Message(op=f"{index}.{number}",
                                            kind=step[2]))
                inbox.send(Message(op=f"{index}.{number}", kind=step[2]))
            else:
                message = yield ports[index % 3].receive()
                trace.append((engine.now, index, "got", message.op))
            trace.append((engine.now, index, number))

    node.spawn(serve(), defused=True)
    for index, steps in enumerate(programs):
        node.spawn(body(index, steps), defused=True)
    engine.run()
    return trace, engine.now


def spawn_joinable(node, message, body, name):
    node.spawn(body, name=name, defused=True)


@given(programs=st.lists(st.lists(STEP, max_size=6), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_both_rules_keep_the_schedule_every_hop_would_have(programs):
    fused = play(programs, spawn_handler)
    original = Event.succeed_last
    Event.succeed_last = Event.succeed
    try:
        kept = play(programs, spawn_joinable)
    finally:
        Event.succeed_last = original
    assert fused == kept
