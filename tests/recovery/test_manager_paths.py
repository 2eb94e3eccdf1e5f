"""Recovery Manager branches no workload takes, one test each.

The log buffer filling up before anything forces it, and an undo walk
that meets a compensation record in the chain it follows (a chain
recovery rebuilt for a prepared transaction whose abort a crash cut
short holds the compensations that abort had logged).
"""

import pytest

from repro import TabsCluster, TabsConfig
from repro.servers.int_array import IntegerArrayServer
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
    assert rm.wal.buffered_count < 3


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
