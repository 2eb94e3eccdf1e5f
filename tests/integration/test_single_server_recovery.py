"""Single-server recovery without node recovery (the Section 7 extension).

A data-server process dies; the node, its other servers, the common log,
and the recoverable segment all survive.  Recovery re-creates the process,
aborts the transactions whose server-side state evaporated, and re-locks
in-doubt data.
"""

import pytest

from repro import TabsCluster, TabsConfig
from repro.servers.int_array import IntegerArrayServer
from repro.sim import Timeout


@pytest.fixture
def cluster():
    cluster = TabsCluster(TabsConfig())
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("victim"))
    cluster.add_server("n1", IntegerArrayServer.factory("bystander"))
    cluster.start()
    return cluster


def recover(cluster, name="victim"):
    return cluster.run_on(
        "n1", cluster.node("n1").recover_server_generator(name))


def set_cell(app, ref, tid, cell, value):
    yield from app.call(ref, "set_cell", {"cell": cell, "value": value}, tid)


def get_value(cluster, app, name, cell):
    def body(tid):
        ref = yield from app.lookup_one(name)
        result = yield from app.call(ref, "get_cell", {"cell": cell}, tid)
        return result["value"]
    return cluster.run_transaction("n1", body)


def test_committed_data_survives_server_failure(cluster):
    app = cluster.application("n1")

    def write(tid):
        ref = yield from app.lookup_one("victim")
        yield from set_cell(app, ref, tid, 1, 42)

    cluster.run_transaction("n1", write)
    cluster.node("n1").fail_server("victim")
    recover(cluster)
    assert get_value(cluster, app, "victim", 1) == 42


def test_other_servers_unaffected(cluster):
    app = cluster.application("n1")

    def write(tid):
        ref = yield from app.lookup_one("bystander")
        yield from set_cell(app, ref, tid, 1, 7)

    cluster.run_transaction("n1", write)
    cluster.node("n1").fail_server("victim")
    # The bystander keeps serving while the victim is down.
    assert get_value(cluster, app, "bystander", 1) == 7
    recover(cluster)


def test_in_flight_transaction_at_failed_server_is_aborted(cluster):
    app = cluster.application("n1")

    def in_flight():
        tid = yield from app.begin_transaction()
        ref = yield from app.lookup_one("victim")
        yield from set_cell(app, ref, tid, 1, 999)
        yield Timeout(cluster.engine, 60_000.0)
        return tid

    process = cluster.spawn_on("n1", in_flight())
    cluster.engine.run(until=cluster.engine.now + 1_000.0)
    cluster.node("n1").fail_server("victim")
    recover(cluster)
    # The recovery aborted the transaction and undid its buffered write.
    assert cluster.metrics.counter("n1", "tm.aborts").value >= 1
    assert get_value(cluster, app, "victim", 1) == 0
    process.kill("test over")


def test_transaction_spanning_both_servers_is_aborted_everywhere(cluster):
    """Failure atomicity across servers: when the victim's half dies, the
    bystander's half must roll back too."""
    app = cluster.application("n1")

    def in_flight():
        tid = yield from app.begin_transaction()
        victim = yield from app.lookup_one("victim")
        bystander = yield from app.lookup_one("bystander")
        yield from set_cell(app, victim, tid, 1, 111)
        yield from set_cell(app, bystander, tid, 1, 222)
        yield Timeout(cluster.engine, 60_000.0)

    process = cluster.spawn_on("n1", in_flight())
    cluster.engine.run(until=cluster.engine.now + 1_000.0)
    cluster.node("n1").fail_server("victim")
    recover(cluster)
    assert get_value(cluster, app, "victim", 1) == 0
    assert get_value(cluster, app, "bystander", 1) == 0
    process.kill("test over")


def test_lookup_after_recovery_returns_the_new_port(cluster):
    app = cluster.application("n1")
    old_ref = cluster.run_on("n1", app.lookup_one("victim"))
    cluster.node("n1").fail_server("victim")
    recover(cluster)
    new_ref = cluster.run_on("n1", app.lookup_one("victim"))
    assert new_ref.port is not old_ref.port
    assert new_ref.port.alive
    assert not old_ref.port.alive


def test_new_transactions_proceed_after_recovery(cluster):
    app = cluster.application("n1")
    cluster.node("n1").fail_server("victim")
    recover(cluster)

    def write(tid):
        ref = yield from app.lookup_one("victim")
        yield from set_cell(app, ref, tid, 3, 33)

    cluster.run_transaction("n1", write)
    assert get_value(cluster, app, "victim", 3) == 33


def test_prepared_transaction_stays_locked_across_server_recovery():
    """A subordinate's data server fails while a distributed transaction
    is prepared: recovery re-locks the in-doubt data from the log, and
    the outcome still applies."""
    cluster = TabsCluster(TabsConfig())
    for name in ("coord", "sub"):
        cluster.add_node(name)
        cluster.add_server(name, IntegerArrayServer.factory(f"arr_{name}"))
    cluster.start()
    app = cluster.application("coord")
    sub_tabs = cluster.node("sub")

    def transfer(tid):
        local = yield from app.lookup_one("arr_coord")
        remote = yield from app.lookup_one("arr_sub")
        yield from app.call(local, "set_cell", {"cell": 1, "value": 5}, tid)
        yield from app.call(remote, "set_cell", {"cell": 1, "value": 6},
                            tid)

    # Deterministically hold the subordinate in doubt: its TM receives the
    # commit request but waits at a test gate before processing it.
    from repro.sim import Event

    gate = Event(cluster.engine, "commit-gate")
    sub_tm = sub_tabs.tm
    original_commit_handler = sub_tm._handle_commit_req

    def gated_commit(message):
        yield gate
        yield from original_commit_handler(message)

    sub_tm._handle_commit_req = gated_commit

    from repro.wal.records import TransactionStatusRecord, TxnStatus

    def fail_when_prepared():
        while True:
            yield Timeout(cluster.engine, 0.5)
            durable = sub_tabs.rm.wal.read_forward(
                sub_tabs.rm.wal.store.truncated_before)
            if any(isinstance(r, TransactionStatusRecord)
                   and r.status is TxnStatus.PREPARED for r in durable):
                sub_tabs.fail_server("arr_sub")
                return

    watcher = cluster.spawn_on("coord", fail_when_prepared())
    txn = cluster.spawn_on("coord", app.run_transaction(transfer))
    cluster.engine.run(until=cluster.engine.now + 2_000.0)
    assert not watcher.alive

    cluster.run_on("sub", sub_tabs.recover_server_generator("arr_sub"))
    server = sub_tabs.servers["arr_sub"]
    # The in-doubt write is re-locked: nobody else may touch cell 1.
    assert server.library.locks.is_locked(
        server.library.create_object_id(server.base_va, 4))
    gate.succeed()  # the outcome finally gets through
    cluster.engine.run_until(txn)
    cluster.settle(extra_ms=20_000.0)

    def check(tid):
        remote = yield from app.lookup_one("arr_sub")
        result = yield from app.call(remote, "get_cell", {"cell": 1}, tid)
        return result["value"]

    assert cluster.run_transaction("coord", check) == 6
