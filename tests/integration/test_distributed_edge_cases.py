"""Distributed corner cases: remote subtransactions, coordinator crash
with phase-two redrive, vote time-outs, three-level commit trees and the
commit point."""

from repro import TabsCluster, TabsConfig
from repro.app.library import ApplicationLibrary
from repro.kernel.messages import Message
from repro.servers.int_array import IntegerArrayServer
from repro.sim import Timeout
from repro.txn.manager import MAX_ACK_RETRIES
from repro.txn.status import TxnPhase
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


class RelayServer(IntegerArrayServer):
    """Sets a cell here, then the same cell of ``onward`` (a server on
    another node) under the same transaction: the node it runs on is the
    middle of a three-level commit tree."""

    def op_relay(self, body, tid):
        yield from self.op_set_cell(body, tid)
        app = ApplicationLibrary(self.node, self.tabs_node.network)
        onward = yield from app.lookup_one(body["onward"])
        yield from set_cell(app, onward, tid, body["cell"], body["value"])
        return {"status": "success"}


def make_chain():
    """n0 -> n1 -> n2: a transaction born on n0 calls ``arr1`` on n1,
    which calls ``arr2`` on n2."""
    cluster = TabsCluster(TabsConfig())
    for index, server in enumerate((IntegerArrayServer, RelayServer,
                                    IntegerArrayServer)):
        cluster.add_node(f"n{index}")
        cluster.add_server(f"n{index}", server.factory(f"arr{index}"))
    cluster.start()
    return cluster


def commit_seven_everywhere(cluster):
    """Start (in the background) a transaction that writes 7 to cell 1
    of every node's array."""
    app = cluster.application("n0")

    def body(tid):
        local = yield from app.lookup_one("arr0")
        middle = yield from app.lookup_one("arr1")
        yield from set_cell(app, local, tid, 1, 7)
        yield from app.call(middle, "relay",
                            {"cell": 1, "value": 7, "onward": "arr2"}, tid)

    return cluster.spawn_on("n0", app.run_transaction(body))


def drop_commit_requests(tm, count=None):
    """Make ``tm`` drop ``tm.commit_req`` datagrams: the first ``count``,
    or all of them."""
    dropped = []
    original = tm._handle_commit_req

    def dropping(message):
        if count is None or len(dropped) < count:
            dropped.append(message)
            return
        yield from original(message)

    tm._handle_commit_req = dropping
    return dropped


def cells(cluster):
    return [read_cell(cluster, "n0", f"arr{index}", 1) for index in range(3)]


class TestThreeLevelTree:
    def test_a_silent_grandchild_learns_the_commit_from_the_middle(self):
        """n2 misses every phase-two attempt n1 makes.  n1 keeps its
        committed state for n2 as a root keeps it for a silent child, so
        n2's own inquiry, after n1 gave up re-sending, hears
        "committed"."""
        cluster = make_chain()
        n1, n2 = cluster.node("n1").tm, cluster.node("n2").tm
        attempts = 1 + MAX_ACK_RETRIES
        n2.prepared_inquiry_ms = 2 * attempts * n1.ack_timeout_ms
        dropped = drop_commit_requests(n2, count=attempts)
        client = commit_seven_everywhere(cluster)
        cluster.settle()
        assert not client.alive and client.ok
        assert len(dropped) == attempts
        assert cells(cluster) == [7, 7, 7]
        # The stray ack ended n1's fragment; no one keeps state.
        for name in ("n0", "n1", "n2"):
            assert cluster.node(name).tm.active_transactions() == {}
            assert cluster.node(name).tm._states == {}

    def test_a_middle_node_restarted_while_prepared_commits_its_child(self):
        """n1 crashes while PREPARED, having missed phase two.  Restarted,
        it learns "committed" from n0 and passes it on to the child named
        in its PREPARED record, although the crash erased the
        Communication Manager's spanning tree."""
        cluster = make_chain()
        n0, n1, n2 = (cluster.node(f"n{index}").tm for index in range(3))
        n1.prepared_inquiry_ms = n2.prepared_inquiry_ms = 600_000.0
        drop_commit_requests(n1)
        commit_seven_everywhere(cluster)
        cluster.engine.run(until=cluster.engine.now + 60_000.0)
        tid = next(iter(n1._states))
        assert n1.phase_of(tid) is n2.phase_of(tid) is TxnPhase.PREPARED
        assert n0._states[tid].pending_acks == {"n1"}
        cluster.crash_node("n1")
        cluster.restart_node("n1")
        assert cluster.node("n1").last_recovery.prepared_restored == [tid]
        cluster.settle()
        assert cells(cluster) == [7, 7, 7]
        for name in ("n0", "n1", "n2"):
            assert cluster.node(name).tm._states == {}


class TestCommitPoint:
    def test_the_root_is_committed_once_its_record_is_durable(self):
        """A peer-failure notice that arrives the instant the root's
        COMMITTED record is durable finds a committed fragment, which it
        leaves alone: the family is never marked aborted."""
        cluster = make_cluster(2)
        coordinator = cluster.node("n0")
        rm, tm = coordinator.tm.rm, coordinator.tm
        original = rm.append_status_via_message

        def append_then_peer_failure(tid, status, **fields):
            yield from original(tid, status, **fields)
            if status == "committed":
                tm.port.send(Message(
                    op="tm.peer_failed", tid=tid,
                    body={"tid": tid, "peer": "n9", "event": "failed",
                          "parent": "", "children": ["n1"]}))

        rm.append_status_via_message = append_then_peer_failure
        app = cluster.application("n0")

        def transfer(tid):
            local = yield from app.lookup_one("arr0")
            remote = yield from app.lookup_one("arr1")
            yield from set_cell(app, local, tid, 1, 3)
            yield from set_cell(app, remote, tid, 1, 4)

        cluster.run_transaction("n0", transfer)
        cluster.settle()
        assert coordinator.node.aborted == {}
        assert read_cell(cluster, "n0", "arr0", 1) == 3
        assert read_cell(cluster, "n0", "arr1", 1) == 4
