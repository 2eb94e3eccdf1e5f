"""The Transaction Manager's rarer commit-protocol turns, one test each.

A subordinate answers ``tm.prepare_req`` early in three cases -- its
fragment already aborted, a peer failure doomed the family in the node's
abort mark, or it never saw the transaction -- and a peer failure that
arrives while it prepares turns its vote to abort.  A coordinator that
stopped waiting for a child it believed down is completed by that
child's late acknowledgement (``_stray_ack``).  Two aborts of one
prepared fragment walk its chain once.

Each test drives the messages the Communication Manager would forward
into the subordinate's Transaction Manager port, and reads the vote
where the coordinator collects it.
"""

import pytest

from repro import TabsCluster, TabsConfig
from repro.kernel.messages import Message
from repro.recovery.audit import audit_abort_order, durable_records
from repro.servers.int_array import IntegerArrayServer
from repro.txn.status import TxnPhase
from repro.wal.records import (
    TransactionStatusRecord,
    TxnStatus,
    ValueUpdateRecord,
)

COORDINATOR, SUBORDINATE, PEER = "n1", "n2", "n3"


@pytest.fixture
def cluster():
    cluster = TabsCluster(TabsConfig())
    for name in (COORDINATOR, SUBORDINATE, PEER):
        cluster.add_node(name)
    cluster.add_server(SUBORDINATE, IntegerArrayServer.factory("a0"))
    cluster.start()
    return cluster


def tm(cluster, name):
    return cluster.node(name).tm


def mark(cluster, name):
    """Node ``name``'s abort mark: tid -> why it aborted.  An aborted
    fragment has no Transaction Manager state; the mark answers for it."""
    return cluster.node(name).node.aborted


def deliver(cluster, name, op, tid, **body):
    """Put ``op`` for ``tid`` into node ``name``'s Transaction Manager
    port, as the Communication Manager forwards a datagram."""
    tm(cluster, name).port.send(
        Message(op=op, tid=tid, body={"tid": tid, **body}))


def peer_failed(cluster, tid):
    deliver(cluster, SUBORDINATE, "tm.peer_failed", tid, peer=PEER,
            event="failed", parent=COORDINATOR, children=[])


def ask_to_prepare(cluster, tid):
    """The coordinator's vote collection for ``tid``, after the
    subordinate got its ``tm.prepare_req``."""
    votes = tm(cluster, COORDINATOR)._open_collection(
        "vote", tid, [SUBORDINATE])
    deliver(cluster, SUBORDINATE, "tm.prepare_req", tid,
            **{"from": COORDINATOR})
    return votes


def early_vote(cluster, tid):
    """The subordinate's vote on ``tid``, given before it spent any
    commit processing on it."""
    meter = cluster.ctx.meter
    tm_cpu = meter.cpu_time.get("TM", 0.0)
    votes = ask_to_prepare(cluster, tid)
    cluster.settle()
    assert meter.cpu_time.get("TM", 0.0) == tm_cpu
    return votes.received


def run_a_while(cluster):
    """Ten simulated seconds: long enough for a two-phase commit, short
    of a prepared subordinate's first inquiry, which would keep asking a
    coordinator that never decides."""
    cluster.engine.run(until=cluster.engine.now + 10_000.0)


def set_cell(cluster, app, tid, value, cell=1):
    """Write ``cell`` of the subordinate's server under ``tid``."""
    def body():
        ref = yield from app.lookup_one("a0")
        yield from app.call(ref, "set_cell", {"cell": cell, "value": value},
                            tid)
    cluster.run_on(COORDINATOR, body())


def cell(cluster, app):
    def body():
        tid = yield from app.begin_transaction()
        ref = yield from app.lookup_one("a0")
        reply = yield from app.call(ref, "get_cell", {"cell": 1}, tid)
        yield from app.end_transaction(tid)
        return reply["value"]
    return cluster.run_on(COORDINATOR, body())


def begin(cluster, app, parent=None):
    if parent is None:
        return cluster.run_on(COORDINATOR, app.begin_transaction())
    return cluster.run_on(COORDINATOR, app.begin_transaction(parent=parent))


def test_an_aborted_fragment_votes_abort(cluster):
    app = cluster.application(COORDINATOR)
    tid = begin(cluster, app)
    set_cell(cluster, app, tid, 7)
    peer_failed(cluster, tid)
    cluster.settle()
    assert tm(cluster, SUBORDINATE).phase_of(tid) is None
    assert mark(cluster, SUBORDINATE)[tid] == f"peer {PEER} failed"

    assert early_vote(cluster, tid) == {SUBORDINATE: "abort"}
    assert tm(cluster, SUBORDINATE).phase_of(tid) is None
    assert mark(cluster, SUBORDINATE)[tid] == f"peer {PEER} failed"


def test_a_tombstone_a_peer_failure_flagged_votes_abort(cluster):
    """Only a subtransaction operated here, tracked under its own id; a
    peer failure aborted it.  Neither has a state here now, but the
    mark holds both, and the top level's prepare must not be answered
    read-only."""
    app = cluster.application(COORDINATOR)
    tid = begin(cluster, app)
    sub = begin(cluster, app, parent=tid)
    set_cell(cluster, app, sub, 7)
    subordinate = tm(cluster, SUBORDINATE)
    assert subordinate.phase_of(sub) is TxnPhase.ACTIVE
    assert subordinate.phase_of(tid) is None
    peer_failed(cluster, tid)
    cluster.settle()
    assert subordinate.phase_of(sub) is None
    assert mark(cluster, SUBORDINATE)[sub] == f"peer {PEER} failed"
    assert tid in mark(cluster, SUBORDINATE)

    assert early_vote(cluster, tid) == {SUBORDINATE: "abort"}
    assert subordinate.phase_of(tid) is None


def test_a_transaction_never_seen_here_votes_read_only(cluster):
    app = cluster.application(COORDINATOR)
    tid = begin(cluster, app)

    assert early_vote(cluster, tid) == {SUBORDINATE: "read_only"}
    assert tm(cluster, SUBORDINATE).phase_of(tid) is None


def test_a_peer_failure_while_preparing_turns_the_vote_to_abort(cluster):
    """The server votes update, but a failure notice arrived while the
    fragment was PREPARING: nothing durable was promised yet, so the
    subordinate aborts on its own and votes abort."""
    app = cluster.application(COORDINATOR)
    before = cell(cluster, app)
    tid = begin(cluster, app)
    set_cell(cluster, app, tid, before + 1)
    subordinate = tm(cluster, SUBORDINATE)
    server = cluster.node(SUBORDINATE).servers["a0"].library

    votes = ask_to_prepare(cluster, tid)
    while subordinate.phase_of(tid) is not TxnPhase.PREPARING:
        assert cluster.engine.step(), "the prepare never started"
    peer_failed(cluster, tid)
    run_a_while(cluster)

    assert votes.received == {SUBORDINATE: "abort"}
    assert subordinate.phase_of(tid) is None
    assert mark(cluster, SUBORDINATE)[tid] == f"peer {PEER} failed"
    assert server.locks.held_keys(tid) == []
    assert cell(cluster, app) == before


def test_a_late_ack_completes_a_coordinator_that_stopped_waiting(cluster):
    """Phase two does not wait for a child the availability probe reports
    down; the child was up after all, and its ack ends the transaction
    at the coordinator: the end record, and the state forgotten."""
    app = cluster.application(COORDINATOR)
    coordinator = tm(cluster, COORDINATOR)
    coordinator.peer_down_probe = lambda peer: peer == SUBORDINATE
    tid = begin(cluster, app)
    set_cell(cluster, app, tid, 5)

    assert cluster.run_on(COORDINATOR, app.end_transaction(tid)) is True
    assert coordinator.phase_of(tid) is TxnPhase.COMMITTED
    assert coordinator._states[tid].pending_acks == {SUBORDINATE}
    run_a_while(cluster)

    assert coordinator.phase_of(tid) is None
    wal = cluster.node(COORDINATOR).rm.wal
    last = wal.record_at(wal.last_lsn)
    assert isinstance(last, TransactionStatusRecord)
    assert (last.tid, last.status) == (tid, TxnStatus.ENDED)
    assert cell(cluster, app) == 5


def test_two_aborts_of_a_prepared_fragment_walk_its_chain_once(cluster):
    """Two ``tm.abort_req`` for one prepared subordinate arrive at one
    instant (a coordinator's abort and its recovery's answer, say).  The
    second finds the first one's walk begun: it waits for that walk to
    end and acknowledges as the first does.  One ABORTED record, one
    compensation per update, nothing logged after the ABORTED record."""
    app = cluster.application(COORDINATOR)
    tid = begin(cluster, app)
    set_cell(cluster, app, tid, 7, cell=1)
    set_cell(cluster, app, tid, 8, cell=2)
    subordinate = tm(cluster, SUBORDINATE)
    votes = ask_to_prepare(cluster, tid)
    while votes.received != {SUBORDINATE: "update"}:
        assert cluster.engine.step(), "the subordinate never voted"
    assert subordinate.phase_of(tid) is TxnPhase.PREPARED

    acks = tm(cluster, COORDINATOR)._open_collection(
        "ack", tid, [SUBORDINATE])
    for _ in range(2):
        deliver(cluster, SUBORDINATE, "tm.abort_req", tid,
                **{"from": COORDINATOR})
    run_a_while(cluster)

    assert acks.received == {SUBORDINATE: "aborted"}
    assert subordinate.phase_of(tid) is None
    assert tid in mark(cluster, SUBORDINATE)
    tabs = cluster.node(SUBORDINATE)
    cluster.run_on(SUBORDINATE, tabs.rm.wal.force())
    records = [record for record in durable_records(tabs)
               if record.tid == tid]
    updates = [record for record in records
               if isinstance(record, ValueUpdateRecord)]
    assert [record.compensates_lsn for record in updates] == [
        0, 0, updates[1].lsn, updates[0].lsn]
    assert [record.status for record in records
            if isinstance(record, TransactionStatusRecord)] == [
        TxnStatus.PREPARED, TxnStatus.ABORTED]
    assert audit_abort_order(tabs) == []
    assert tabs.servers["a0"].library.locks.held_keys(tid) == []
    assert cell(cluster, app) == 0


def test_a_duplicated_prepare_request_keeps_the_promise(cluster):
    """A link that duplicates datagrams hands a prepared subordinate the
    coordinator's ``tm.prepare_req`` again.  It votes update again and
    stays PREPARED: aborting on its own now would break the promise its
    first vote made, and the coordinator may already have committed."""
    app = cluster.application(COORDINATOR)
    tid = begin(cluster, app)
    set_cell(cluster, app, tid, 7)
    subordinate = tm(cluster, SUBORDINATE)
    votes = ask_to_prepare(cluster, tid)
    while votes.received != {SUBORDINATE: "update"}:
        assert cluster.engine.step(), "the subordinate never voted"

    again = ask_to_prepare(cluster, tid)
    cluster.engine.run(until=cluster.engine.now + 5_000.0)
    assert again.received == {SUBORDINATE: "update"}
    assert subordinate.phase_of(tid) is TxnPhase.PREPARED
    server = cluster.node(SUBORDINATE).servers["a0"].library
    assert server.locks.held_keys(tid) != []


def test_a_collection_complete_before_its_wait_answers_at_once(cluster):
    """Every response can arrive, and the entry that settles the
    collection run, before the coordinator begins to wait (it was still
    calling its own data servers): the wait then ends in an entry of its
    own with every response, long before its deadline."""
    coordinator = tm(cluster, COORDINATOR)
    tid = begin(cluster, cluster.application(COORDINATOR))
    votes = coordinator._open_collection("vote", tid, [SUBORDINATE])
    votes.record(SUBORDINATE, "update")
    cluster.settle()
    assert votes.settled
    started = cluster.engine.now

    def collector():
        return (yield from coordinator._await_collection(
            "vote", tid, 1_000.0))

    assert cluster.run_on(COORDINATOR, collector()) == \
        {SUBORDINATE: "update"}
    assert cluster.engine.now == started
