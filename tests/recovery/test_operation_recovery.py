"""Operation-logged objects through aborts, repeated recoveries and the
in-doubt window.

An inverse operation is not idempotent, so every place one is applied --
a live abort, the undo pass of crash recovery -- must leave evidence in
the log (a compensation record) *and* on the page (its LSN), or the next
recovery applies it again.  And an in-doubt transaction must get back the
lock it held, in the mode it held it: two of them may have incremented
one object together.
"""

from repro import TabsCluster, TabsConfig
from repro.locking.modes import INCREMENT, READ
from repro.servers.int_array import IntegerArrayServer
from repro.servers.op_array import OperationArrayServer
from repro.sim import Process, Timeout
from repro.wal.records import (
    OperationRecord,
    TransactionStatusRecord,
    TxnStatus,
)
from repro.workloads import TellerServer


def durable(tabs_node):
    return tabs_node.rm.wal.read_forward(
        tabs_node.rm.wal.store.truncated_before)


def statuses(tabs_node, status):
    return [r.tid for r in durable(tabs_node)
            if isinstance(r, TransactionStatusRecord)
            and r.status is status]


def when(cluster, condition, action):
    """Run ``action`` the first instant ``condition()`` holds.  The
    watcher belongs to no node, so it may crash any of them."""
    def watch():
        while not condition():
            yield Timeout(cluster.engine, 0.5)
        action()
    return Process(cluster.engine, watch(), name="watcher")


def reading(cluster, node, server, op, body, key):
    """A read-only transaction (generator) returning ``reply[key]``."""
    app = cluster.application(node)

    def txn(tid):
        ref = yield from app.lookup_one(server, node_name=node)
        reply = yield from app.call(ref, op, body, tid)
        return reply[key]

    return app.run_transaction(txn)


def read(cluster, node, *what):
    return cluster.run_on(node, reading(cluster, node, *what))


def add_cell(app, cell, delta, tid):
    ref = yield from app.lookup_one("oparray", node_name="n1")
    yield from app.call(ref, "add_cell", {"cell": cell, "delta": delta}, tid)


def test_live_abort_stamps_the_page_with_its_compensation():
    """Abort, let the undone page reach its segment, crash: the page
    carries the inverse already, so recovery must not redo the
    compensation record on top of it."""
    cluster = TabsCluster(TabsConfig())
    cluster.add_node("n1")
    cluster.add_server("n1", OperationArrayServer.factory("oparray"))
    cluster.start()
    app = cluster.application("n1")
    cluster.run_transaction("n1", lambda tid: add_cell(app, 1, 10, tid))

    def aborted():
        tid = yield from app.begin_transaction()
        yield from add_cell(app, 1, 5, tid)
        yield from app.abort_transaction(tid)

    cluster.run_on("n1", aborted())
    tabs = cluster.node("n1")
    cluster.run_on("n1", tabs.rm.take_checkpoint({}, flush=True))
    cluster.crash_node("n1")
    cluster.restart_node("n1")
    assert read(cluster, "n1", "oparray", "get_cell", {"cell": 1},
                "value") == 10


def test_recovery_undoes_a_loser_once_however_often_it_runs():
    """A committed add, a loser's add made durable by a neighbour's
    prepare, and that neighbour left in doubt so its first record pins
    the log below the loser's.  The clean point flushes the undone page;
    only a compensation record keeps the second recovery from undoing
    the loser again."""
    cluster = TabsCluster(TabsConfig())
    cluster.add_node("n0")
    cluster.add_server("n0", IntegerArrayServer.factory("array0"))
    cluster.add_node("n1")
    cluster.add_server("n1", OperationArrayServer.factory("oparray"))
    cluster.start()
    n1 = cluster.node("n1")
    local = cluster.application("n1")
    cluster.run_transaction("n1", lambda tid: add_cell(local, 1, 10, tid))

    remote = cluster.application("n0")
    in_doubt = []

    def pinning():
        """Coordinated from n0; its add is the oldest live record on n1."""
        tid = yield from remote.begin_transaction()
        in_doubt.append(tid)
        yield from add_cell(remote, 2, 7, tid)
        yield Timeout(cluster.engine, 500.0)  # the loser adds meanwhile
        yield from remote.end_transaction(tid)

    def loser():
        yield Timeout(cluster.engine, 250.0)
        tid = yield from local.begin_transaction()
        yield from add_cell(local, 1, 100, tid)
        yield Timeout(cluster.engine, 60_000.0)

    def crash_both():
        cluster.crash_node("n0")  # never decides: n1 stays in doubt
        cluster.crash_node("n1")

    cluster.spawn_on("n0", pinning())
    cluster.spawn_on("n1", loser())
    watcher = when(cluster,
                   lambda: in_doubt and
                   in_doubt[0] in statuses(n1, TxnStatus.PREPARED),
                   crash_both)
    cluster.engine.run_until(watcher)

    first = cluster.restart_node("n1")
    assert first.operations_undone == 1
    assert first.prepared_restored == in_doubt
    assert read(cluster, "n1", "oparray", "get_cell", {"cell": 1},
                "value") == 10
    # The loser's record is still there for the next recovery to find.
    assert [r for r in durable(n1) if isinstance(r, OperationRecord)
            and r.redo_args == (1, 100)]

    cluster.crash_node("n1")
    second = cluster.restart_node("n1")
    assert second.operations_undone == 0
    assert read(cluster, "n1", "oparray", "get_cell", {"cell": 1},
                "value") == 10

    # The coordinator comes back knowing nothing: presumed abort.
    cluster.restart_node("n0")
    cluster.settle(extra_ms=15_000.0)
    assert read(cluster, "n1", "oparray", "get_cell", {"cell": 2},
                "value") == 0


def test_two_in_doubt_incrementers_of_one_row_are_relocked_together():
    """Two transactions, coordinated from two other nodes, both add to
    teller row 1 and both reach PREPARED on n1 before it crashes.  One
    coordinator died undecided, the other committed.  Recovery gives both
    their INCREMENT lock back -- together, as they held it -- so a third
    incrementer gets in, a reader waits, and when the two resolve the row
    holds exactly the committed one's amount."""
    cluster = TabsCluster(TabsConfig())
    for name in ("n0", "n2"):
        cluster.add_node(name)
        cluster.add_server(name, IntegerArrayServer.factory("array" + name))
    cluster.add_node("n1")
    cluster.add_server("n1", TellerServer.factory("tellers", rows=2))
    cluster.start()
    n1 = cluster.node("n1")
    tids = {}

    def incrementer(node, amount, hold_ms):
        app = cluster.application(node)

        def run():
            tid = yield from app.begin_transaction()
            tids[node] = tid
            ref = yield from app.lookup_one("tellers", node_name="n1")
            yield from app.call(ref, "add_to_balance",
                                {"row": 1, "amount": amount}, tid)
            yield Timeout(cluster.engine, hold_ms)
            yield from app.end_transaction(tid)

        return run()

    # n0's transaction prepares first; n0 dies the instant n1 has the
    # PREPARED record, before any vote can make it decide.
    cluster.spawn_on("n0", incrementer("n0", 5, 300.0))
    cluster.spawn_on("n2", incrementer("n2", 7, 1_500.0))
    cluster.engine.run_until(when(
        cluster,
        lambda: tids.get("n0") in statuses(n1, TxnStatus.PREPARED),
        lambda: cluster.crash_node("n0")))
    # n2's commits; n1 dies in its in-doubt window.
    cluster.engine.run_until(when(
        cluster,
        lambda: tids["n2"] in statuses(cluster.node("n2"),
                                       TxnStatus.COMMITTED),
        lambda: cluster.crash_node("n1")))
    assert tids["n2"] not in statuses(n1, TxnStatus.COMMITTED)

    cluster.partition(("n1",), ("n2",))  # keep both in doubt for a look
    report = cluster.restart_node("n1")
    assert sorted(report.prepared_restored) == sorted(tids.values())
    tellers = cluster.node("n1").servers["tellers"]
    locks = tellers.library.locks
    row = tellers._row_oid(1)
    assert all(locks.holds(tid, row, INCREMENT) for tid in tids.values())
    assert locks.try_lock("third", row, INCREMENT)
    locks.release("third", row)
    assert not locks.try_lock("reader", row, READ)

    reader = cluster.spawn_on("n1", reading(
        cluster, "n1", "tellers", "get_balance", {"row": 1}, "balance"))
    cluster.engine.run(until=cluster.engine.now + 1_000.0)
    assert reader.alive  # queued behind both in-doubt incrementers

    cluster.heal_partition()
    cluster.restart_node("n0")
    cluster.settle(extra_ms=20_000.0)
    assert cluster.engine.run_until(reader) == 7
