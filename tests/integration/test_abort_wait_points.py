"""An abort that lands while an operation of its transaction waits.

An abort marks its transaction on the node, waits until none of the
transaction's operations runs there, and only then lets the Recovery
Manager walk the backward chain.  An operation queued for a lock does
not count as running: ``ds.abort`` fails it, and one granted after the
mark stops at ``lock_object``'s check.  So every record the family
writes on the node is in the chain when the walk begins.

Each case draws the abort instant with hypothesis around one wait
point.  Its explicit example lands on that point, and a probe checks
that it did.  Real costs throughout: the waits below are page faults,
messages and spools that take simulated time.
"""

from dataclasses import dataclass, field

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import TabsCluster, TabsConfig
from repro.errors import TransactionAborted
from repro.recovery.audit import audit_abort_order
from repro.servers.int_array import IntegerArrayServer
from repro.sim import Event, Timeout
from repro.workloads.debitcredit import BranchServer

NODE = "n1"
#: a cell on a page nothing else touches: its first pin faults it in
COLD_CELL = 3000
#: the library calls an operation can be waiting in, innermost last
STAGES = ("_ensure_joined", "lock_object", "pin_and_buffer",
          "log_and_unpin", "log_operation")

cases = settings(max_examples=12, deadline=None)


@dataclass
class Run:
    #: the victim's top-level transaction
    top: object = None
    #: what the victim's call returned, or the TransactionAborted text
    call: str = ""
    committed: bool | None = None
    #: per tid: (operations running, innermost stage open) at its abort
    at_abort: dict = field(default_factory=dict)


def build():
    cluster = TabsCluster(TabsConfig())
    cluster.add_node(NODE)
    cluster.add_server(NODE, IntegerArrayServer.factory("values"))
    cluster.add_server(NODE, BranchServer.factory("branch", rows=4))
    cluster.start()
    app = cluster.application(NODE)

    def committed_base(tid):
        values = yield from app.lookup_one("values")
        branch = yield from app.lookup_one("branch")
        yield from app.call(values, "set_cell", {"cell": 1, "value": 5}, tid)
        yield from app.call(branch, "add_to_balance",
                            {"row": 1, "amount": 100}, tid)
        return values, branch

    values, branch = cluster.run_transaction(NODE, committed_base)
    return cluster, app, values, branch


def watch_stages(cluster, run: Run) -> None:
    """Record, at each abort, what the transaction still had running."""
    tabs = cluster.node(NODE)
    open_stages: list[str] = []
    for server in tabs.servers.values():
        library = server.library
        for name in STAGES:
            def staged(*args, _call=getattr(library, name), _name=name,
                       **kwargs):
                open_stages.append(_name)
                try:
                    return (yield from _call(*args, **kwargs))
                finally:
                    open_stages.remove(_name)
            setattr(library, name, staged)
    node = tabs.node
    until_idle = node.until_idle

    def probed(tid):
        run.at_abort[tid] = (node._running.get(tid, 0),
                             open_stages[-1] if open_stages else "")
        return until_idle(tid)
    node.until_idle = probed


def play(victim_ops, delay_ms: float, other_ops=None, subtransaction=False):
    """Run the victim's ``victim_ops(app, values, branch, tid, begun)``,
    which sets ``begun["sent"]`` as it sends the operation under test,
    and abort the victim ``delay_ms`` later.  ``other_ops`` runs in a
    transaction of its own that holds its locks 300 ms, then commits.
    Returns ``(cluster, run)`` once everything has settled."""
    cluster, app, values, branch = build()
    run = Run()
    begun: dict = {}
    aborted = Event(cluster.engine)

    def victim():
        top = begun["top"] = run.top = yield from app.begin_transaction()
        tid = top
        if subtransaction:
            tid = yield from app.begin_transaction(parent=top)
        try:
            reply = yield from victim_ops(app, values, branch, tid, begun)
            run.call = str(reply)
        except TransactionAborted as error:
            run.call = str(error)
        yield aborted
        run.committed = yield from app.end_transaction(top)

    def other():
        tid = yield from app.begin_transaction()
        yield from other_ops(app, values, branch, tid)
        yield Timeout(cluster.engine, 300.0)
        assert (yield from app.end_transaction(tid))

    def killer():
        while "sent" not in begun:
            yield Timeout(cluster.engine, 0.25)
        yield Timeout(cluster.engine, delay_ms)
        yield from app.abort_transaction(begun["top"])
        aborted.succeed()

    watch_stages(cluster, run)
    bodies = [victim, killer] + ([other] if other_ops else [])
    for process in [cluster.spawn_on(NODE, body()) for body in bodies]:
        cluster.engine.run_until(process)
    cluster.settle()
    return cluster, run


def committed_values(cluster):
    app = cluster.application(NODE)

    def read(tid):
        values = yield from app.lookup_one("values")
        branch = yield from app.lookup_one("branch")
        cells = []
        for cell in (1, COLD_CELL):
            reply = yield from app.call(values, "get_cell", {"cell": cell},
                                        tid)
            cells.append(reply["value"])
        reply = yield from app.call(branch, "get_balance", {"row": 1}, tid)
        return (*cells, reply["balance"])
    return cluster.run_transaction(NODE, read)


def assert_undone(cluster, run: Run, expected: tuple) -> None:
    """The abort left nothing of the family behind, before and after a
    crash: the client did not commit, every value is a committed one,
    no lock or pin remains, and no record follows an ABORTED one."""
    assert run.committed is False
    tabs = cluster.node(NODE)
    # everything logged so far reaches the disk, so the audit and the
    # restart below see every record
    cluster.run_on(NODE, tabs.rm.wal.force())
    for server in tabs.servers.values():
        for key, entry in server.library.locks._locks.items():
            family = [tid for tid in [*entry.holders,
                                      *(w.tid for w in entry.queue)]
                      if tid.toplevel == run.top]
            assert family == [], f"{key} still held or awaited by {family}"
    assert all(frame.pin_count == 0
               for frame in tabs.node.vm._frames.values())
    assert audit_abort_order(tabs) == []
    assert committed_values(cluster) == expected
    cluster.crash_node(NODE)
    cluster.restart_node(NODE)
    assert committed_values(cluster) == expected
    assert audit_abort_order(cluster.node(NODE)) == []


def set_cell(cell, value):
    def ops(app, values, branch, tid, begun):
        begun["sent"] = True
        return (yield from app.call(values, "set_cell",
                                    {"cell": cell, "value": value}, tid))
    return ops


def second_write_cycle(app, values, branch, tid, begun):
    yield from app.call(values, "set_cell", {"cell": 1, "value": 11}, tid)
    begun["sent"] = True
    return (yield from app.call(values, "set_cell", {"cell": 1, "value": 22},
                                tid))


def hold_cell(app, values, branch, tid):
    yield from app.call(values, "set_cell", {"cell": 1, "value": 9}, tid)


def add(amount):
    def ops(app, values, branch, tid, begun=None):
        if begun is not None:
            begun["sent"] = True
        return (yield from app.call(branch, "add_to_balance",
                                    {"row": 1, "amount": amount}, tid))
    return ops


def queued_behind_holder(app, values, branch, tid, begun):
    # let the holder take the cell first
    yield Timeout(app.ctx.engine, 50.0)
    return (yield from set_cell(1, 22)(app, values, branch, tid, begun))


@cases
@given(delay=st.floats(20.0, 440.0))
@example(delay=200.0)
def test_queued_for_a_lock(delay):
    """Queued behind a holder: the abort does not wait for the request,
    and ``ds.abort`` fails it."""
    cluster, run = play(queued_behind_holder, delay, other_ops=hold_cell)
    if delay == 200.0:
        assert run.at_abort[run.top] == (0, "lock_object")
        assert "cancelled" in run.call
    assert_undone(cluster, run, (9, 0, 100))


@cases
@given(delay=st.floats(450.0, 470.0))
@example(delay=456.0)
def test_granted_after_the_abort_began(delay):
    """Queued when the abort begins and granted before ``ds.abort``
    releases the locks: the operation stops at the grant."""
    cluster, run = play(queued_behind_holder, delay, other_ops=hold_cell)
    if delay == 456.0:
        assert run.at_abort[run.top] == (0, "lock_object")
        assert "in flight" in run.call
    assert_undone(cluster, run, (9, 0, 100))


@cases
@given(delay=st.floats(0.0, 80.0))
@example(delay=30.0)
def test_in_the_page_fault_of_pin_and_buffer(delay):
    """The abort waits for the fault, the write and its spool; the walk
    then undoes the record."""
    cluster, run = play(set_cell(COLD_CELL, 22), delay)
    if delay == 30.0:
        assert run.at_abort[run.top] == (1, "pin_and_buffer")
    assert_undone(cluster, run, (5, 0, 100))


@cases
@given(delay=st.floats(0.0, 60.0))
@example(delay=20.0)
def test_between_a_second_write_and_its_spool_reply(delay):
    """The transaction already logged one write of the cell; the abort
    lands while the second is being spooled.  The walk must find both
    records in the chain: without the wait the second is logged after
    the ABORTED record, and nothing undoes it."""
    cluster, run = play(second_write_cycle, delay)
    if delay == 20.0:
        assert run.at_abort[run.top] == (1, "log_and_unpin")
    assert_undone(cluster, run, (5, 0, 100))


@cases
@given(delay=st.floats(0.0, 60.0))
@example(delay=26.0)
def test_between_an_add_and_its_log_reply_beside_another_incrementer(delay):
    """Another transaction holds the row in INCREMENT too.  Only the walk
    can take the victim's 50 back out; the other's 7 stays."""
    cluster, run = play(add(50), delay, other_ops=add(7))
    if delay == 26.0:
        assert run.at_abort[run.top] == (1, "log_operation")
    assert_undone(cluster, run, (5, 0, 107))


@cases
@given(delay=st.floats(10.0, 16.0))
@example(delay=12.0)
@example(delay=14.0)
def test_waiting_for_the_join_reply(delay):
    """The operation is admitted, then waits for ``tm.join``.  A join the
    abort beat is refused; one it did not is followed by the lock
    check."""
    cluster, run = play(set_cell(1, 22), delay)
    if delay in (12.0, 14.0):
        assert run.at_abort[run.top] == (1, "_ensure_joined")
        # refused at tm.join at 12 ms; joined, then stopped at the lock
        assert ("in flight" in run.call) == (delay == 14.0)
        assert "aborted" in run.call
    assert_undone(cluster, run, (5, 0, 100))


@cases
@given(delay=st.floats(0.0, 60.0))
@example(delay=20.0)
def test_running_in_a_subtransaction(delay):
    """Aborting the parent aborts its live child first: the child's
    abort waits for the child's operation."""
    cluster, run = play(second_write_cycle, delay, subtransaction=True)
    if delay == 20.0:
        (child,) = [tid for tid in run.at_abort if tid != run.top]
        assert run.at_abort[child] == (1, "log_and_unpin")
    assert_undone(cluster, run, (5, 0, 100))
