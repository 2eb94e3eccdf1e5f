"""Recovery Manager branches no workload takes, one test each.

The log buffer filling up before anything forces it, and an undo walk
that meets a compensation record in the chain it follows (a chain
recovery rebuilt for a prepared transaction whose abort a crash cut
short holds the value compensations that abort had logged; an operation
compensation and the record it compensates are left out of it).
"""

import pytest

from repro import TabsCluster, TabsConfig
from repro.kernel.messages import Message
from repro.servers.int_array import IntegerArrayServer
from repro.servers.op_array import OperationArrayServer
from repro.sim import Timeout
from repro.wal.records import ValueUpdateRecord

NODE = "n1"


@pytest.fixture
def cluster():
    cluster = TabsCluster(TabsConfig())
    cluster.add_node(NODE)
    cluster.add_server(NODE, IntegerArrayServer.factory("a0"))
    cluster.start()
    return cluster


def open_writer(cluster, cells):
    """A transaction that set each of ``cells`` to its number, left
    open; returns it with the application library and server ref."""
    app = cluster.application(NODE)

    def body():
        tid = yield from app.begin_transaction()
        ref = yield from app.lookup_one("a0")
        for cell in cells:
            yield from app.call(ref, "set_cell",
                                {"cell": cell, "value": cell}, tid)
        return tid, ref
    tid, ref = cluster.run_on(NODE, body())
    return app, ref, tid


def test_a_full_log_buffer_drains_to_the_store_without_a_commit(cluster):
    rm = cluster.node(NODE).rm
    rm.wal.buffer_capacity = 3
    durable = rm.wal.flushed_lsn
    open_writer(cluster, cells=(1, 2, 3, 4))
    cluster.settle()
    assert rm.wal.flushed_lsn > durable
    assert rm.wal.last_lsn - rm.wal.flushed_lsn < 3


def test_the_undo_walk_skips_a_compensation_record(cluster):
    app, ref, tid = open_writer(cluster, cells=(1,))
    rm = cluster.node(NODE).rm
    update = rm.wal.record_at(rm._chains[tid])
    assert isinstance(update, ValueUpdateRecord) and update.prev_lsn == 0
    rm._append_chained(ValueUpdateRecord(
        tid=tid, server="a0", oid=update.oid, old_value=update.new_value,
        new_value=update.old_value, compensates_lsn=update.lsn))
    library = cluster.node(NODE).servers["a0"].library
    undone = []
    undo_value = library._sys_undo_value

    def counted(message):
        undone.append(message.body["value"])
        return (yield from undo_value(message))
    library._sys_undo_value = counted
    cluster.run_on(NODE, app.abort_transaction(tid))
    assert undone == [update.old_value]

    def read(reader):
        reply = yield from app.call(ref, "get_cell", {"cell": 1}, reader)
        return reply["value"]
    assert cluster.run_transaction(NODE, read) == 0


def test_a_prepared_abort_cut_short_undoes_each_operation_once():
    """A subordinate prepared two adds (+5 to cells 1 and 2) under one
    transaction; the coordinator aborts it, and the subordinate crashes
    right after its walk logged the first compensation (cell 2's) and
    forced the log.  Recovery redoes both adds and that compensation and
    rebuilds the in-doubt chain; the resolved abort then undoes what the
    walk had not -- cell 1's add -- and not cell 2's a second time."""
    coordinator, subordinate = "n0", "n1"
    cluster = TabsCluster(TabsConfig())
    for name in (coordinator, subordinate):
        cluster.add_node(name)
    cluster.add_server(subordinate, OperationArrayServer.factory("ops"))
    cluster.start()
    app = cluster.application(coordinator)

    def add(tid):
        ref = yield from app.lookup_one("ops")
        for cell in (1, 2):
            yield from app.call(ref, "add_cell", {"cell": cell, "delta": 5},
                                tid)
    tid = cluster.run_on(coordinator, app.begin_transaction())
    cluster.run_on(coordinator, add(tid))
    top = cluster.node(coordinator).tm
    votes = top._open_collection("vote", tid, [subordinate])
    cluster.node(subordinate).tm.port.send(Message(
        op="tm.prepare_req", tid=tid,
        body={"tid": tid, "from": coordinator}))
    while votes.received != {subordinate: "update"}:
        assert cluster.engine.step(), "the subordinate never voted"
    del top._collections[("vote", tid)]

    rm = cluster.node(subordinate).rm
    undo = rm._undo_operation

    def cut_short(record, port, tid):
        yield from undo(record, port, tid)
        yield from rm.wal.force()
        cluster.engine.schedule(0.0, lambda: cluster.crash_node(subordinate))
        yield Timeout(cluster.engine, 1_000.0)
    rm._undo_operation = cut_short
    cluster.run_on(coordinator, app.abort_transaction(tid))
    assert not cluster.node(subordinate).node.alive
    cluster.restart_node(subordinate)
    cluster.settle()

    assert cluster.node(subordinate).tm.phase_of(tid) is None
    assert tid in cluster.node(subordinate).node.aborted

    def read(reader):
        ref = yield from app.lookup_one("ops")
        values = []
        for cell in (1, 2):
            reply = yield from app.call(ref, "get_cell", {"cell": cell},
                                        reader)
            values.append(reply["value"])
        return values
    assert cluster.run_transaction(coordinator, read) == [0, 0]
