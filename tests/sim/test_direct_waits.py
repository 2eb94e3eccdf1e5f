"""A wait with one waiter needs no event (docs/SIMULATOR.md).

A sleep is a yielded delay, and a reply, lock, vote or keyboard wait
parks its process under a token that whoever ends the wait -- a port
delivery, a grant, the last vote, the deadline -- resumes it with.  No
:class:`Timeout`, receive event or ``AnyOf`` race is built, and the
schedule is the one those events gave: the property test below holds
random programs of sleeps, reply waits with and without deadlines,
same-instant deliveries, already-queued messages, lock-style and
vote-style waits, kills and late replies to a reference that waits the
old way.  The reference's race is the deleted ``AnyOf``, kept here.
"""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.context import SimContext
from repro.kernel.messages import Message, MessageKind
from repro.kernel.ports import Port
from repro.sim import PARKED, Engine, Event, Process, Timeout
from repro.txn.manager import _Votes


class AnyOf(Event):
    """The race the waits used to build: succeeds with ``(index, value)``
    of the first child processed, in a queue entry of its own."""

    def __init__(self, engine, events):
        super().__init__(engine, "any_of")
        for index, event in enumerate(events):
            event.add_callback(partial(self._on_child, index))

    def _on_child(self, index, event):
        if self.triggered:
            return
        if event.ok:
            self.succeed((index, event._value))
        else:
            self.fail(event._value)


class ReferenceVotes:
    """The vote collection as it was: a ``done`` event raced by a
    timeout."""

    def __init__(self, engine, expected):
        self.engine = engine
        self.expected = set(expected)
        self.received = {}
        self.done = Event(engine)

    def record(self, sender, response):
        self.received[sender] = response
        if set(self.received) >= self.expected and not self.done.triggered:
            self.done.succeed()


class World:
    """Processes running one program's steps, and the program's outside
    actions, waiting either directly or (``reference``) the old way."""

    def __init__(self, program, reference):
        self.reference = reference
        self.ctx = SimContext()
        self.engine = self.ctx.engine
        self.ports = [Port(self.ctx, name=f"p{i}") for i in range(2)]
        #: per signal, its waiters in FIFO order (a lock's queue)
        self.signals = [[], []]
        #: open vote collections by id
        self.votes = {}
        self.trace = []
        self.sent = 0
        scripts, actions = program
        self.processes = [Process(self.engine, self.run(pid, script))
                          for pid, script in enumerate(scripts)]
        for process in self.processes:
            process.defused = True
        for at, action in actions:
            self.engine.schedule(at, self.act, args=(action,))

    def note(self, *what):
        self.trace.append((*what, self.engine.now))

    # -- the outside world and the steps' own actions -----------------------

    def act(self, action):
        self.note("act", *action)
        kind = action[0]
        if kind == "send":
            self.send(*action[1:])
        elif kind == "poke":
            self.poke(action[1])
        elif kind == "vote":
            votes = self.votes.get(action[1])
            if votes is not None:
                votes.record(action[2], "yes")
        elif kind == "kill":
            self.processes[action[1]].kill()

    def send(self, port, kind):
        self.sent += 1
        self.ports[port].send(Message(op=f"m{self.sent}", body={},
                                      kind=kind))

    def poke(self, signal):
        """Grant the first waiter; one whose deadline won takes the
        grant and does nothing with it."""
        waiters = self.signals[signal]
        if not waiters:
            return
        self.sent += 1
        value = f"g{self.sent}"
        if self.reference:
            event = waiters.pop(0)
            if not event.triggered:
                event.succeed(value)
        else:
            process, token = waiters.pop(0)
            process.wake(token, value)

    # -- the waits ---------------------------------------------------------------

    def run(self, pid, script):
        engine = self.engine
        for number, step in enumerate(script):
            kind = step[0]
            got = None
            if kind == "sleep":
                if self.reference:
                    yield Timeout(engine, step[1])
                else:
                    yield step[1]
            elif kind == "recv":
                got = yield from self.receive(*step[1:])
                got = None if got is None else got.op
            elif kind == "signal":
                got = yield from self.signal(*step[1:])
            elif kind == "collect":
                got = yield from self.collect(*step[1:])
            elif kind == "send":
                self.send(*step[1:])
            elif kind == "poke":
                self.poke(step[1])
            self.note(pid, number, kind, got)

    def receive(self, port, deadline):
        port = self.ports[port]
        if not self.reference:
            return (yield port.wait(deadline))
        if deadline is None:
            return (yield port.receive())
        timeout = Timeout(self.engine, deadline)
        which, message = yield AnyOf(self.engine, [port.receive(), timeout])
        return None if which else message

    def signal(self, signal, deadline):
        engine = self.engine
        if not self.reference:
            process = engine.active_process
            token = process.park(deadline)
            self.signals[signal].append((process, token))
            return (yield PARKED)
        event = Event(engine)
        self.signals[signal].append(event)
        if deadline is None:
            return (yield event)
        timeout = Timeout(engine, deadline)
        which, value = yield AnyOf(engine, [event, timeout])
        return None if which else value

    def collect(self, vid, expected, gap, timeout):
        """Open a collection, wait ``gap`` (votes may complete it before
        the wait begins), then await it with ``timeout``."""
        engine = self.engine
        senders = [f"s{i}" for i in range(expected)]
        votes = (ReferenceVotes(engine, senders) if self.reference
                 else _Votes(engine, set(senders)))
        self.votes[vid] = votes
        if gap is not None:
            if self.reference:
                yield Timeout(engine, gap)
            else:
                yield gap
        if self.reference:
            deadline = Timeout(engine, timeout)
            which, _ = yield AnyOf(engine, [votes.done, deadline])
            complete = not which
        else:
            complete = (yield votes.wait(timeout)) is not None
        if self.votes.get(vid) is votes:
            del self.votes[vid]
        return complete, sorted(votes.received)

    def play(self):
        self.engine.run()
        return self.trace, self.engine.now


TIME = st.sampled_from([0.0, 1.0, 2.0, 3.0])
DEADLINE = st.sampled_from([None, 0.0, 1.0, 2.0, 4.0])
KIND = st.sampled_from([MessageKind.UNCHARGED, MessageKind.SMALL])
STEP = st.one_of(
    st.tuples(st.just("sleep"), TIME),
    st.tuples(st.just("recv"), st.integers(0, 1), DEADLINE),
    st.tuples(st.just("signal"), st.integers(0, 1), DEADLINE),
    st.tuples(st.just("collect"), st.integers(0, 1), st.integers(1, 2),
              st.sampled_from([None, 0.0, 1.0]),
              st.sampled_from([0.0, 1.0, 3.0])),
    st.tuples(st.just("send"), st.integers(0, 1), KIND),
    st.tuples(st.just("poke"), st.integers(0, 1)),
)
ACTION = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 1), KIND),
    st.tuples(st.just("poke"), st.integers(0, 1)),
    st.tuples(st.just("vote"), st.integers(0, 1),
              st.sampled_from(["s0", "s1"])),
    st.tuples(st.just("kill"), st.integers(0, 2)),
    st.tuples(st.just("note"),),
)
PROGRAM = st.tuples(
    st.lists(st.lists(STEP, max_size=6), min_size=3, max_size=3),
    st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
                       ACTION), max_size=12))


@given(program=PROGRAM)
@settings(max_examples=400, deadline=None)
def test_direct_waits_keep_the_old_schedule(program):
    """Every step ends at the same instant, in the same order and with
    the same value as under the event-and-race waits, and the clock
    stops at the same instant; dropping the events drops queue entries,
    never adds one."""
    direct = World(program, reference=False)
    reference = World(program, reference=True)
    assert direct.play() == reference.play()
    assert direct.engine.events_executed <= reference.engine.events_executed


def test_a_sleep_due_next_resumes_in_the_entry_that_ends_it():
    engine = Engine()
    seen = []

    def body():
        yield 5.0
        seen.append((engine.now, engine.events_executed))

    Process(engine, body())
    engine.run()
    # entry 1 starts the process, entry 2 ends the sleep and resumes it
    assert seen == [(5.0, 2)]


def test_a_reply_due_next_after_a_deadline_wait_resumes_in_its_delivery():
    ctx = SimContext()
    engine = ctx.engine
    port = Port(ctx, name="reply")
    seen = []

    def body():
        message = yield port.wait(10.0)
        seen.append((message.op, engine.now, engine.events_executed))

    Process(engine, body())
    engine.schedule(2.0, port.send, args=(Message(op="r", body={}),))
    engine.run()
    # start, the send, the delivery (which resumes the process); then the
    # process's finish and the lost deadline's entry, which only checks
    # the token
    assert seen == [("r", 5.0, 3)]
    assert engine.now == 10.0 and engine.events_executed == 5


def test_a_stale_token_never_wakes_a_later_park():
    """Tokens count parks, not queue entries: a park that schedules
    nothing still gets a token of its own."""
    engine = Engine()
    seen = []
    tokens = []

    def body():
        tokens.append(process.park())
        seen.append((yield PARKED))
        tokens.append(process.park())
        seen.append((yield PARKED))

    process = Process(engine, body())

    def end_then_wake_stale():
        process.end(tokens[0], "first")  # the process parks again here
        process.wake(tokens[0], "stale")

    engine.schedule(1.0, end_then_wake_stale)
    engine.run()
    assert tokens[0] != tokens[1]
    assert seen == ["first"] and process.alive
