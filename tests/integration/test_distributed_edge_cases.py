"""Distributed corner cases: remote subtransactions, coordinator crash
with phase-two redrive, and vote time-outs."""

from repro import TabsCluster, TabsConfig
from repro.servers.int_array import IntegerArrayServer
from repro.sim import Timeout
from repro.wal.records import TransactionStatusRecord, TxnStatus


def make_cluster(nodes=2):
    cluster = TabsCluster(TabsConfig())
    for index in range(nodes):
        name = f"n{index}"
        cluster.add_node(name)
        cluster.add_server(name, IntegerArrayServer.factory(f"arr{index}"))
    cluster.start()
    return cluster


def set_cell(app, ref, tid, cell, value):
    yield from app.call(ref, "set_cell", {"cell": cell, "value": value},
                        tid)


def read_cell(cluster, node, array, cell):
    app = cluster.application(node)

    def body(tid):
        ref = yield from app.lookup_one(array)
        result = yield from app.call(ref, "get_cell", {"cell": cell}, tid)
        return result["value"]

    return cluster.run_transaction(node, body)


class TestRemoteSubtransactions:
    def test_subtransaction_operating_remotely_commits_with_family(self):
        """A subtransaction's operations on a *remote* node must merge
        into the family at the subordinate before it prepares."""
        cluster = make_cluster(2)
        app = cluster.application("n0")

        def body():
            parent = yield from app.begin_transaction()
            child = yield from app.begin_transaction(parent=parent)
            remote = yield from app.lookup_one("arr1")
            yield from set_cell(app, remote, child, 1, 11)
            yield from app.end_transaction(child)
            local = yield from app.lookup_one("arr0")
            yield from set_cell(app, local, parent, 1, 22)
            committed = yield from app.end_transaction(parent)
            return committed

        assert cluster.run_on("n0", body()) is True
        cluster.settle()
        assert read_cell(cluster, "n0", "arr1", 1) == 11
        assert read_cell(cluster, "n0", "arr0", 1) == 22

    def test_a_remote_grandchild_merges_past_a_parent_absent_there(self):
        """Only the grandchild operated on the remote node, so its parent
        has no state there: the subordinate's prepare folds it into the
        nearest ancestor it holds, the family's root."""
        cluster = make_cluster(2)
        app = cluster.application("n0")

        def body():
            parent = yield from app.begin_transaction()
            child = yield from app.begin_transaction(parent=parent)
            grandchild = yield from app.begin_transaction(parent=child)
            remote = yield from app.lookup_one("arr1")
            yield from set_cell(app, remote, grandchild, 4, 44)
            yield from app.end_transaction(grandchild)
            yield from app.end_transaction(child)
            return (yield from app.end_transaction(parent))

        assert cluster.run_on("n0", body()) is True
        cluster.settle()
        assert read_cell(cluster, "n0", "arr1", 4) == 44
        assert cluster.node("n1").tm.active_transactions() == {}

    def test_remote_subtransaction_survives_subordinate_crash(self):
        cluster = make_cluster(2)
        app = cluster.application("n0")

        def body():
            parent = yield from app.begin_transaction()
            child = yield from app.begin_transaction(parent=parent)
            remote = yield from app.lookup_one("arr1")
            yield from set_cell(app, remote, child, 2, 5)
            yield from app.end_transaction(child)
            committed = yield from app.end_transaction(parent)
            return committed

        assert cluster.run_on("n0", body()) is True
        cluster.settle()
        cluster.crash_node("n1")
        cluster.restart_node("n1")
        assert read_cell(cluster, "n0", "arr1", 2) == 5

    def test_aborted_remote_subtransaction_leaves_remote_clean(self):
        cluster = make_cluster(2)
        app = cluster.application("n0")

        def body():
            parent = yield from app.begin_transaction()
            child = yield from app.begin_transaction(parent=parent)
            remote = yield from app.lookup_one("arr1")
            yield from set_cell(app, remote, child, 3, 99)
            yield from app.abort_transaction(child)
            committed = yield from app.end_transaction(parent)
            return committed

        assert cluster.run_on("n0", body()) is True
        cluster.settle()
        assert read_cell(cluster, "n0", "arr1", 3) == 0


class TestCoordinatorCrash:
    def test_commit_record_without_end_record_redrives_phase_two(self):
        """The coordinator crashes after forcing COMMITTED but before the
        subordinate processes the commit request: on restart the
        coordinator re-ships phase two and the subordinate commits."""
        cluster = make_cluster(2)
        app = cluster.application("n0")
        coord = cluster.node("n0")
        sub_tm = cluster.node("n1").tm
        # The redrive must do the work: push self-inquiry far past the
        # test's horizon (but keep it bounded so settling past it does not
        # execute millions of background failure-detector probes).
        sub_tm.prepared_inquiry_ms = 600_000.0

        # Gate the subordinate's commit handler so the in-doubt window is
        # deterministic.
        from repro.sim import Event

        gate = Event(cluster.engine, "commit-gate")
        original = sub_tm._handle_commit_req

        def gated(message):
            yield gate
            yield from original(message)

        sub_tm._handle_commit_req = gated

        def transfer(tid):
            local = yield from app.lookup_one("arr0")
            remote = yield from app.lookup_one("arr1")
            yield from set_cell(app, local, tid, 1, 1)
            yield from set_cell(app, remote, tid, 1, 2)

        txn = cluster.spawn_on("n0", app.run_transaction(transfer))
        txn.defused = True

        def crash_when_committed():
            while True:
                yield Timeout(cluster.engine, 0.5)
                durable = coord.rm.wal.read_forward(
                    coord.rm.wal.store.truncated_before)
                if any(isinstance(r, TransactionStatusRecord)
                       and r.status is TxnStatus.COMMITTED
                       for r in durable):
                    coord.crash()
                    return

        watcher = cluster.spawn_on("n1", crash_when_committed())
        cluster.engine.run(until=cluster.engine.now + 5_000.0)
        assert not watcher.alive

        gate.succeed()  # the gated commit_req now hits a dead sender; fine
        cluster.restart_node("n0")
        # Recovery found a COMMITTED record with children and no end
        # record: phase two is re-driven.
        report = cluster.node("n0").last_recovery
        assert len(report.phase_two_redriven) == 1
        cluster.settle(extra_ms=30_000.0)
        assert read_cell(cluster, "n0", "arr1", 1) == 2
        # The coordinator's own half also committed (value pass redo).
        assert read_cell(cluster, "n0", "arr0", 1) == 1


class TestVoteTimeout:
    def test_unreachable_subordinate_aborts_the_transaction(self):
        cluster = make_cluster(2)
        cluster.node("n0").tm.vote_timeout_ms = 2_000.0
        app = cluster.application("n0")

        def body():
            tid = yield from app.begin_transaction()
            local = yield from app.lookup_one("arr0")
            remote = yield from app.lookup_one("arr1")
            yield from set_cell(app, local, tid, 1, 1)
            yield from set_cell(app, remote, tid, 1, 1)
            # The subordinate dies before the prepare datagram arrives.
            cluster.crash_node("n1")
            committed = yield from app.end_transaction(tid)
            return committed

        assert cluster.run_on("n0", body()) is False
        cluster.settle()
        assert read_cell(cluster, "n0", "arr0", 1) == 0
