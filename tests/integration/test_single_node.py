"""End-to-end single-node transactions on the integer array server."""

import gc

import pytest

from repro import TabsCluster, TabsConfig, TransactionAborted
from repro.kernel.ports import Port
from repro.sim import Process
from repro.servers.int_array import IntegerArrayServer


@pytest.fixture
def cluster():
    cluster = TabsCluster(TabsConfig())
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("array"))
    cluster.start()
    return cluster


def set_cell(app, ref, tid, cell, value):
    result = yield from app.call(ref, "set_cell",
                                 {"cell": cell, "value": value}, tid)
    return result


def get_cell(app, ref, tid, cell):
    result = yield from app.call(ref, "get_cell", {"cell": cell}, tid)
    return result["value"]


def test_read_of_unset_cell_is_zero(cluster):
    app = cluster.application("n1")

    def body(tid):
        ref = yield from app.lookup_one("array")
        value = yield from get_cell(app, ref, tid, 7)
        return value

    assert cluster.run_transaction("n1", body) == 0


def test_write_then_read_within_one_transaction(cluster):
    app = cluster.application("n1")

    def body(tid):
        ref = yield from app.lookup_one("array")
        yield from set_cell(app, ref, tid, 1, 42)
        value = yield from get_cell(app, ref, tid, 1)
        return value

    assert cluster.run_transaction("n1", body) == 42


def test_committed_write_visible_to_later_transaction(cluster):
    app = cluster.application("n1")

    def writer(tid):
        ref = yield from app.lookup_one("array")
        yield from set_cell(app, ref, tid, 3, 99)

    def reader(tid):
        ref = yield from app.lookup_one("array")
        value = yield from get_cell(app, ref, tid, 3)
        return value

    cluster.run_transaction("n1", writer)
    assert cluster.run_transaction("n1", reader) == 99


def test_aborted_write_leaves_no_trace(cluster):
    app = cluster.application("n1")

    def aborting():
        tid = yield from app.begin_transaction()
        ref = yield from app.lookup_one("array")
        yield from set_cell(app, ref, tid, 5, 123)
        yield from app.abort_transaction(tid, reason="test abort")

    cluster.run_on("n1", aborting())

    def reader(tid):
        ref = yield from app.lookup_one("array")
        value = yield from get_cell(app, ref, tid, 5)
        return value

    assert cluster.run_transaction("n1", reader) == 0


def test_operation_after_abort_raises(cluster):
    app = cluster.application("n1")

    def body():
        tid = yield from app.begin_transaction()
        ref = yield from app.lookup_one("array")
        yield from set_cell(app, ref, tid, 1, 1)
        yield from app.abort_transaction(tid)
        yield from set_cell(app, ref, tid, 1, 2)

    with pytest.raises(TransactionAborted):
        cluster.run_on("n1", body())


def test_multiple_writes_and_reads(cluster):
    app = cluster.application("n1")

    def body(tid):
        ref = yield from app.lookup_one("array")
        for cell in range(1, 6):
            yield from set_cell(app, ref, tid, cell, cell * 10)
        total = 0
        for cell in range(1, 6):
            total += yield from get_cell(app, ref, tid, cell)
        return total

    assert cluster.run_transaction("n1", body) == 150


def test_out_of_range_cell_rejected(cluster):
    app = cluster.application("n1")

    def body(tid):
        ref = yield from app.lookup_one("array")
        yield from set_cell(app, ref, tid, 10**9, 1)

    with pytest.raises(Exception, match="outside"):
        cluster.run_transaction("n1", body)


def test_end_transaction_returns_true_on_commit(cluster):
    app = cluster.application("n1")

    def body():
        tid = yield from app.begin_transaction()
        ref = yield from app.lookup_one("array")
        yield from set_cell(app, ref, tid, 2, 7)
        committed = yield from app.end_transaction(tid)
        return committed

    assert cluster.run_on("n1", body()) is True


def test_read_only_transaction_commits(cluster):
    app = cluster.application("n1")

    def body():
        tid = yield from app.begin_transaction()
        ref = yield from app.lookup_one("array")
        yield from get_cell(app, ref, tid, 1)
        committed = yield from app.end_transaction(tid)
        return committed

    assert cluster.run_on("n1", body()) is True


def test_write_conflict_serializes(cluster):
    """Two transactions writing the same cell: the second waits for the
    first's commit, and both effects apply in order."""
    app = cluster.application("n1")
    log = []

    def writer(name, value, delay_end):
        def body():
            tid = yield from app.begin_transaction()
            ref = yield from app.lookup_one("array")
            yield from app.call(ref, "set_cell",
                                {"cell": 9, "value": value}, tid)
            log.append((name, "wrote"))
            if delay_end:
                from repro.sim import Timeout
                yield Timeout(cluster.engine, delay_end)
            yield from app.end_transaction(tid)
            log.append((name, "committed"))
        return body()

    first = cluster.spawn_on("n1", writer("first", 1, 2000.0))
    second = cluster.spawn_on("n1", writer("second", 2, 0.0))
    cluster.engine.run_until(first)
    cluster.engine.run_until(second)
    assert log.index(("first", "committed")) < log.index(("second", "wrote"))

    def reader(tid):
        ref = yield from app.lookup_one("array")
        result = yield from app.call(ref, "get_cell", {"cell": 9}, tid)
        return result["value"]

    assert cluster.run_transaction("n1", reader) == 2


def test_node_tables_stay_bounded_over_many_transactions(cluster):
    """Cost per transaction must not grow with the transactions already
    run: the node keeps live processes only, and finished transactions
    leave no Port or Process object behind anywhere."""
    app = cluster.application("n1")
    node = cluster.node("n1").node
    refs = []

    def body(tid):
        if not refs:
            refs.append((yield from app.lookup_one("array")))
        yield from set_cell(app, refs[0], tid, 1, 7)

    def census():
        gc.collect()
        objects = gc.get_objects()
        return (sum(isinstance(o, Port) for o in objects),
                sum(isinstance(o, Process) for o in objects))

    for _ in range(1000):
        cluster.run_transaction("n1", body)
    ports_1k, processes_1k = census()
    for _ in range(1000):
        cluster.run_transaction("n1", body)
    ports_2k, processes_2k = census()

    live = sum(process.alive for process in node._processes)
    assert len(node._processes) <= 2 * live + 64
    assert ports_2k <= ports_1k + 16
    assert processes_2k <= processes_1k + 2 * live + 64


def test_status_records_name_their_servers_in_sorted_order():
    """Recovery rebuilds a prepared transaction's server table from its
    status record and phase two walks that table, so the order locks are
    released in after a restart is the record's.  It must not be a set's
    iteration order: string hashes differ from one process to the next,
    and a run would stop being a function of its seeds."""
    from repro.wal.records import TransactionStatusRecord

    names = ["walnut", "fig", "quince", "apple", "medlar", "damson"]
    cluster = TabsCluster(TabsConfig())
    cluster.add_node("n1")
    for name in names:
        cluster.add_server("n1", IntegerArrayServer.factory(name))
    cluster.start()
    app = cluster.application("n1")

    def body(tid):
        for name in names:
            ref = yield from app.lookup_one(name)
            yield from set_cell(app, ref, tid, 1, 7)

    cluster.run_transaction("n1", body)
    wal = cluster.node("n1").rm.wal
    (committed,) = [record for record
                    in wal.read_forward(wal.store.truncated_before)
                    if isinstance(record, TransactionStatusRecord)
                    and record.status.value == "committed"]
    assert committed.servers == tuple(sorted(names))
