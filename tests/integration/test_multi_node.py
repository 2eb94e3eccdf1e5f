"""Distributed transactions across two and three nodes."""

import pytest

from repro import SessionBroken, TabsCluster, TabsConfig
from repro.core.config import CommitConfig
from repro.servers.int_array import IntegerArrayServer


def make_cluster(node_count=2, config=None):
    cluster = TabsCluster(config or TabsConfig())
    for index in range(node_count):
        name = f"n{index}"
        cluster.add_node(name)
        cluster.add_server(name,
                           IntegerArrayServer.factory(f"array{index}"))
    cluster.start()
    return cluster


def set_cell(app, ref, tid, cell, value):
    yield from app.call(ref, "set_cell", {"cell": cell, "value": value}, tid)


def get_cell(app, ref, tid, cell):
    result = yield from app.call(ref, "get_cell", {"cell": cell}, tid)
    return result["value"]


def test_remote_read_through_broadcast_lookup():
    cluster = make_cluster(2)
    app = cluster.application("n0")

    def body(tid):
        # array1 lives on n1; the name resolves via Name Server broadcast.
        ref = yield from app.lookup_one("array1")
        value = yield from get_cell(app, ref, tid, 1)
        return value

    assert cluster.run_transaction("n0", body) == 0


def test_two_node_write_commits_atomically():
    cluster = make_cluster(2)
    app = cluster.application("n0")

    def transfer(tid):
        local = yield from app.lookup_one("array0")
        remote = yield from app.lookup_one("array1")
        yield from set_cell(app, local, tid, 1, 100)
        yield from set_cell(app, remote, tid, 1, 200)

    cluster.run_transaction("n0", transfer)
    cluster.settle()

    def check(tid):
        local = yield from app.lookup_one("array0")
        remote = yield from app.lookup_one("array1")
        first = yield from get_cell(app, local, tid, 1)
        second = yield from get_cell(app, remote, tid, 1)
        return first, second

    assert cluster.run_transaction("n0", check) == (100, 200)


@pytest.mark.parametrize("commit", [CommitConfig(), CommitConfig.grouped()],
                         ids=["paper", "grouped"])
def test_two_node_write_sends_the_papers_four_datagrams(commit):
    """Table 5-3: prepare, vote, commit and ack each travel as a datagram
    of their own -- group commit changes the log forces, not the wire."""
    cluster = make_cluster(2, TabsConfig(commit=commit))
    sent = []

    def on_network(now, event, source, target, op):
        if event == "send" and op.startswith("tm."):
            sent.append((source, target, op))

    cluster.network.add_trace_hook(on_network)
    app = cluster.application("n0")

    def transfer(tid):
        local = yield from app.lookup_one("array0")
        remote = yield from app.lookup_one("array1")
        yield from set_cell(app, local, tid, 1, 100)
        yield from set_cell(app, remote, tid, 1, 200)

    cluster.run_transaction("n0", transfer)
    cluster.settle()
    assert sent == [("n0", "n1", "tm.prepare_req"), ("n1", "n0", "tm.vote"),
                    ("n0", "n1", "tm.commit_req"), ("n1", "n0", "tm.ack")]


def test_two_node_abort_undoes_both_nodes():
    cluster = make_cluster(2)
    app = cluster.application("n0")

    def aborted():
        tid = yield from app.begin_transaction()
        local = yield from app.lookup_one("array0")
        remote = yield from app.lookup_one("array1")
        yield from set_cell(app, local, tid, 1, 111)
        yield from set_cell(app, remote, tid, 1, 222)
        yield from app.abort_transaction(tid)

    cluster.run_on("n0", aborted())
    cluster.settle()

    def check(tid):
        local = yield from app.lookup_one("array0")
        remote = yield from app.lookup_one("array1")
        first = yield from get_cell(app, local, tid, 1)
        second = yield from get_cell(app, remote, tid, 1)
        return first, second

    assert cluster.run_transaction("n0", check) == (0, 0)


def test_three_node_write_commit():
    cluster = make_cluster(3)
    app = cluster.application("n0")

    def body(tid):
        for index in range(3):
            ref = yield from app.lookup_one(f"array{index}")
            yield from set_cell(app, ref, tid, 1, index + 1)

    cluster.run_transaction("n0", body)
    cluster.settle()

    def check(tid):
        values = []
        for index in range(3):
            ref = yield from app.lookup_one(f"array{index}")
            values.append((yield from get_cell(app, ref, tid, 1)))
        return values

    assert cluster.run_transaction("n0", check) == [1, 2, 3]


def test_remote_crash_before_commit_aborts_transaction():
    cluster = make_cluster(2)
    app = cluster.application("n0")

    def body():
        tid = yield from app.begin_transaction()
        local = yield from app.lookup_one("array0")
        remote = yield from app.lookup_one("array1")
        yield from set_cell(app, local, tid, 1, 5)
        yield from set_cell(app, remote, tid, 1, 5)
        cluster.crash_node("n1")
        committed = yield from app.end_transaction(tid)
        return committed

    assert cluster.run_on("n0", body()) is False
    cluster.settle()

    def check(tid):
        local = yield from app.lookup_one("array0")
        value = yield from get_cell(app, local, tid, 1)
        return value

    assert cluster.run_transaction("n0", check) == 0


def test_call_to_crashed_node_raises_session_broken():
    cluster = make_cluster(2)
    app = cluster.application("n0")
    ref = cluster.run_on("n0", app.lookup_one("array1"))
    cluster.crash_node("n1")

    def body(tid):
        yield from get_cell(app, ref, tid, 1)

    with pytest.raises(SessionBroken):
        cluster.run_transaction("n0", body)


def test_stale_reference_after_restart_is_transparently_re_resolved():
    """A reference minted before the serving node restarted is stale; the
    RPC layer re-resolves it through the Name Server automatically, so
    the caller never sees the restart."""
    cluster = make_cluster(2)
    app = cluster.application("n0")
    ref = cluster.run_on("n0", app.lookup_one("array1"))
    cluster.crash_node("n1")
    cluster.restart_node("n1")

    def stale(tid):
        value = yield from get_cell(app, ref, tid, 1)
        return value

    assert cluster.run_transaction("n0", stale) == 0
    assert cluster.meter.counter("rpc_retries") >= 1


def test_stale_reference_fails_fast_when_retries_disabled():
    from repro.rpc.stubs import call

    cluster = make_cluster(2)
    app = cluster.application("n0")
    ref = cluster.run_on("n0", app.lookup_one("array1"))
    cluster.crash_node("n1")
    cluster.restart_node("n1")

    def stale(tid):
        yield from call(cluster.network, cluster.node("n0").node, ref,
                        "get_cell", {"cell": 1}, tid, retries=0)

    with pytest.raises(SessionBroken, match="stale"):
        cluster.run_transaction("n0", stale)


def test_committed_distributed_write_survives_participant_crash():
    cluster = make_cluster(2)
    app = cluster.application("n0")

    def transfer(tid):
        local = yield from app.lookup_one("array0")
        remote = yield from app.lookup_one("array1")
        yield from set_cell(app, local, tid, 1, 42)
        yield from set_cell(app, remote, tid, 1, 43)

    cluster.run_transaction("n0", transfer)
    cluster.settle()
    cluster.crash_node("n1")
    cluster.restart_node("n1")

    def check(tid):
        remote = yield from app.lookup_one("array1")
        value = yield from get_cell(app, remote, tid, 1)
        return value

    assert cluster.run_transaction("n0", check) == 43


def test_coordinator_remembers_a_commit_its_child_never_heard():
    """The coordinator forces COMMITTED and dies before the child hears;
    it comes back behind a partition, so the re-driven phase two reaches
    nobody; then it dies again.  Neither giving up on the child nor the
    clean point of a recovery may let go of the commit record: the child
    is in doubt, and presumed abort would answer its query "aborted"."""
    from repro.sim import Process, Timeout
    from repro.wal.records import TransactionStatusRecord, TxnStatus

    cluster = make_cluster(2)
    app = cluster.application("n0")

    def transfer(tid):
        local = yield from app.lookup_one("array0")
        remote = yield from app.lookup_one("array1")
        yield from set_cell(app, local, tid, 1, 7)
        yield from set_cell(app, remote, tid, 1, 8)

    def logged(node, status):
        wal = cluster.node(node).rm.wal
        return any(isinstance(r, TransactionStatusRecord)
                   and r.status is status
                   for r in wal.read_forward(wal.store.truncated_before))

    def cut_off_the_coordinator():
        while not (logged("n0", TxnStatus.COMMITTED)
                   and logged("n1", TxnStatus.PREPARED)):
            yield Timeout(cluster.engine, 0.5)
        assert not logged("n1", TxnStatus.COMMITTED)
        cluster.partition(("n0",), ("n1",))
        cluster.crash_node("n0")

    cluster.spawn_on("n0", app.run_transaction(transfer), name="txn")
    cluster.engine.run_until(
        Process(cluster.engine, cut_off_the_coordinator(), name="watcher"))

    report = cluster.restart_node("n0")
    assert len(report.phase_two_redriven) == 1
    cluster.engine.run(until=cluster.engine.now + 20_000.0)  # retries spent
    cluster.crash_node("n0")
    report = cluster.restart_node("n0")
    assert len(report.phase_two_redriven) == 1  # still on record
    assert not logged("n1", TxnStatus.COMMITTED)

    cluster.heal_partition()
    cluster.settle(extra_ms=30_000.0)
    assert logged("n1", TxnStatus.COMMITTED)

    def check(tid):
        remote = yield from app.lookup_one("array1")
        value = yield from get_cell(app, remote, tid, 1)
        return value

    assert cluster.run_transaction("n0", check) == 8


def test_participant_crash_while_prepared_blocks_then_resolves():
    """Two-phase commit's blocking window: a participant that crashes
    after voting finds the PREPARED record at recovery, re-locks the data,
    queries the coordinator, and commits."""
    cluster = make_cluster(2)
    app = cluster.application("n0")
    remote_tabs = cluster.node("n1")

    # Intercept the subordinate's vote moment by crashing n1 immediately
    # after its PREPARED record is forced.  We detect that via the log.
    def transfer(tid):
        local = yield from app.lookup_one("array0")
        remote = yield from app.lookup_one("array1")
        yield from set_cell(app, local, tid, 1, 7)
        yield from set_cell(app, remote, tid, 1, 8)

    from repro.wal.records import TransactionStatusRecord, TxnStatus

    coordinator_tabs = cluster.node("n0")

    def crash_when_prepared():
        """Crash n1 in the window where it is PREPARED and the coordinator
        has durably COMMITTED, but before n1 processes the commit request."""
        from repro.sim import Timeout
        while True:
            yield Timeout(cluster.engine, 0.5)
            remote_log = remote_tabs.rm.wal.read_forward(
                remote_tabs.rm.wal.store.truncated_before)
            prepared = any(
                isinstance(r, TransactionStatusRecord)
                and r.status is TxnStatus.PREPARED for r in remote_log)
            committed_at_remote = any(
                isinstance(r, TransactionStatusRecord)
                and r.status is TxnStatus.COMMITTED for r in remote_log)
            coordinator_log = coordinator_tabs.rm.wal.read_forward(
                coordinator_tabs.rm.wal.store.truncated_before)
            committed = any(
                isinstance(r, TransactionStatusRecord)
                and r.status is TxnStatus.COMMITTED
                for r in coordinator_log)
            if prepared and committed and not committed_at_remote:
                cluster.crash_node("n1")
                return

    watcher = cluster.spawn_on("n0", crash_when_prepared(), name="watcher")
    app_process = cluster.spawn_on(
        "n0", app.run_transaction(transfer), name="txn")
    cluster.engine.run(until=cluster.engine.now + 5_000.0)
    assert not watcher.alive  # the crash fired in the in-doubt window

    # The restarted participant finds the PREPARED record, re-locks, asks
    # the coordinator, and learns "committed".
    cluster.restart_node("n1")
    report = cluster.node("n1").last_recovery
    assert len(report.prepared_restored) == 1
    cluster.engine.run_until(app_process)
    cluster.settle(extra_ms=15_000.0)

    def check(tid):
        remote = yield from app.lookup_one("array1")
        value = yield from get_cell(app, remote, tid, 1)
        return value

    assert cluster.run_transaction("n0", check) == 8
