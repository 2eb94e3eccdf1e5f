"""Every cell of docs/PROTOCOL.md's table, reached deterministically.

Each test drives the subordinate's fragment of a transaction into one
row -- no state, marked, ACTIVE, PREPARING, PREPARED, walk running or
COMMITTED -- through the messages the Communication Manager and a data
server would deliver, then delivers one column's message and checks,
through the table's row lookup, that the message took that cell, and
what the cell's action answered.  ``tm.abort`` shares ``tm.abort_req``'s
column; the ``tm.abort_req`` message stands for both.
"""

import pytest

from repro import TabsCluster, TabsConfig
from repro.errors import InvalidTransaction, TransactionAborted
from repro.kernel.messages import Message
from repro.kernel.service import post
from repro.servers.int_array import IntegerArrayServer
from repro.txn import manager
from repro.txn.manager import TABLE
from repro.txn.status import TxnPhase
from tests.protocol_cells import cells_reached

COORDINATOR, SUBORDINATE, PEER = "n1", "n2", "n3"

#: every (row, column) cell the table holds; ``tm.abort`` is the same
#: column as ``tm.abort_req``
CELLS = sorted((row, column) for column, rows in TABLE.items()
               if column != "tm.abort" for row in rows)


@pytest.fixture
def cluster():
    cluster = TabsCluster(TabsConfig())
    for name in (COORDINATOR, SUBORDINATE, PEER):
        cluster.add_node(name)
    cluster.add_server(SUBORDINATE, IntegerArrayServer.factory("a0"))
    cluster.add_server(SUBORDINATE, IntegerArrayServer.factory("b0"))
    cluster.start()
    return cluster


def tm(cluster, name=SUBORDINATE):
    return cluster.node(name).tm


def deliver(cluster, op, tid, **body):
    """``op`` for ``tid`` into the subordinate's Transaction Manager
    port, from the coordinator, as the Communication Manager forwards a
    datagram."""
    tm(cluster).port.send(Message(op=op, tid=tid, body={
        "tid": tid, "from": COORDINATOR, **body}))


def collect(cluster, kind, tid):
    """The coordinator's collection of the subordinate's ``kind``
    answers for ``tid``."""
    return tm(cluster, COORDINATOR)._open_collection(kind, tid,
                                                     [SUBORDINATE])


def step_until(cluster, done):
    while not done():
        assert cluster.engine.step(), "the simulation ran dry"


# -- the rows --------------------------------------------------------------


def begin(cluster):
    app = cluster.application(COORDINATOR)
    return cluster.run_on(COORDINATOR, app.begin_transaction())


def written(cluster):
    """A transaction begun at the coordinator that wrote at ``a0``: an
    ACTIVE fragment at the subordinate."""
    tid = begin(cluster)
    app = cluster.application(COORDINATOR)

    def body():
        ref = yield from app.lookup_one("a0")
        yield from app.call(ref, "set_cell", {"cell": 1, "value": 7}, tid)
    cluster.run_on(COORDINATOR, body())
    return tid


def no_state(cluster):
    """A subtransaction the subordinate never saw."""
    app = cluster.application(COORDINATOR)
    top = begin(cluster)
    return cluster.run_on(COORDINATOR, app.begin_transaction(parent=top))


def marked(cluster):
    tid = written(cluster)
    collect(cluster, "ack", tid)
    deliver(cluster, "tm.abort_req", tid)
    cluster.settle()
    assert tm(cluster).phase_of(tid) is None
    assert tid in cluster.node(SUBORDINATE).node.aborted
    return tid


def preparing(cluster):
    tid = written(cluster)
    collect(cluster, "vote", tid)
    deliver(cluster, "tm.prepare_req", tid)
    step_until(cluster, lambda: tm(cluster).phase_of(tid)
               is TxnPhase.PREPARING)
    return tid


def prepared(cluster):
    tid = written(cluster)
    votes = collect(cluster, "vote", tid)
    deliver(cluster, "tm.prepare_req", tid)
    step_until(cluster, lambda: votes.received == {SUBORDINATE: "update"})
    assert tm(cluster).phase_of(tid) is TxnPhase.PREPARED
    return tid


def walk_running(cluster):
    tid = written(cluster)
    collect(cluster, "ack", tid)
    deliver(cluster, "tm.abort_req", tid)
    step_until(cluster, lambda: tid in tm(cluster)._states
               and tm(cluster)._states[tid].walk is not None)
    return tid


def committed(cluster):
    tid = prepared(cluster)
    collect(cluster, "ack", tid)
    deliver(cluster, "tm.commit_req", tid)
    step_until(cluster, lambda: tm(cluster).phase_of(tid)
               is TxnPhase.COMMITTED)
    return tid


ROWS = {manager.NO_STATE: no_state, manager.MARKED: marked,
        manager.ACTIVE: written, manager.PREPARING: preparing,
        manager.PREPARED: prepared, manager.WALK: walk_running,
        manager.COMMITTED: committed}


# -- the columns: each delivers its message and returns what answered ----


def request(cluster, op, tid, **body):
    """A local request to the subordinate's Transaction Manager; the
    answer is the reply body, read after the run."""
    node = cluster.node(SUBORDINATE).node
    reply = post(node, tm(cluster).port, op, {"tid": tid, **body},
                 reply="test-reply")
    return lambda: (reply._queue[0].body if reply._queue else None)


def join(cluster, tid):
    server = cluster.node(SUBORDINATE).servers["b0"].library
    return request(cluster, "tm.join", tid, server="b0", port=server.port)


def datagram(op, kind):
    def send(cluster, tid):
        answers = collect(cluster, kind, tid) if kind else None
        deliver(cluster, op, tid, peer=PEER, event="failed", children=[])
        return lambda: answers.received if answers else dict(
            cluster.node(SUBORDINATE).node.aborted)
    return send


COLUMNS = {
    "tm.join": join,
    "tm.prepare_req": datagram("tm.prepare_req", "vote"),
    "tm.commit_req": datagram("tm.commit_req", "ack"),
    "tm.abort_req": datagram("tm.abort_req", "ack"),
    "tm.peer_failed": datagram("tm.peer_failed", None),
    "tm.outcome_query": datagram("tm.outcome_query", "outcome"),
    "tm.end": lambda cluster, tid: request(cluster, "tm.end", tid),
}


def error(answer):
    return answer["error"] if answer and "error" in answer else None


#: what each action answers (``_ignore`` answers nothing of its own)
EXPECTED = {
    "_join": lambda answer, tid, row: answer == {"ok": True},
    "_join_foreign": lambda answer, tid, row: answer == {"ok": True},
    "_refuse_join": lambda answer, tid, row: isinstance(
        error(answer), TransactionAborted),
    "_prepare_unseen": lambda answer, tid, row:
        answer == {SUBORDINATE: "read_only"},
    "_vote_abort": lambda answer, tid, row: answer == {SUBORDINATE: "abort"},
    "_prepare": lambda answer, tid, row: answer == {SUBORDINATE: "update"},
    "_vote_update": lambda answer, tid, row:
        answer == {SUBORDINATE: "update"},
    "_commit": lambda answer, tid, row: answer == {SUBORDINATE: "committed"},
    "_ack_commit": lambda answer, tid, row:
        answer == {SUBORDINATE: "committed"},
    "_walk": lambda answer, tid, row: answer == {SUBORDINATE: "aborted"},
    "_doom": lambda answer, tid, row: answer[tid] == f"peer {PEER} failed",
    "_doom_and_walk": lambda answer, tid, row: tid in answer,
    "_tell_outcome": lambda answer, tid, row: answer == {
        SUBORDINATE: "committed" if row == manager.COMMITTED
        else "aborted"},
    "_end_unknown": lambda answer, tid, row: isinstance(
        error(answer), InvalidTransaction),
    "_end_aborted": lambda answer, tid, row: answer["committed"] is False
        and answer["reason"],
    "_end": lambda answer, tid, row: answer["committed"] is (
        row == manager.ACTIVE),
    "_ignore": lambda answer, tid, row: True,
}


#: cells of the columns that run once per member of the tid: a member
#: is listed because it has a state, so it is in these rows only when it
#: ended while an earlier member's cell ran
#: (:func:`test_a_member_gone_before_its_turn_is_skipped`)
MEMBER_GONE = [(row, column) for row in (manager.NO_STATE, manager.MARKED)
               for column in ("tm.abort_req", "tm.peer_failed")]


@pytest.mark.parametrize("row,column", [
    cell for cell in CELLS if cell not in MEMBER_GONE],
    ids=[f"{row}-{column}" for row, column in CELLS
         if (row, column) not in MEMBER_GONE])
def test_the_cell_is_reached(cluster, row, column):
    tid = ROWS[row](cluster)
    with cells_reached() as reached:
        answer = COLUMNS[column](cluster, tid)
        cluster.engine.run(until=cluster.engine.now + 10_000.0)
    assert reached[row, column] >= 1, dict(reached)
    action = TABLE[column][row]
    assert EXPECTED[action](answer(), tid, row), (action, answer())


def test_every_action_has_an_expected_answer():
    assert set(EXPECTED) == {action for cells in TABLE.values()
                             for action in cells.values()}


@pytest.mark.parametrize("row,column", MEMBER_GONE, ids=[
    f"{row}-{column}" for row, column in MEMBER_GONE])
def test_a_member_gone_before_its_turn_is_skipped(cluster, row, column):
    """A top level begun at the subordinate has two subtransactions, the
    first of which wrote.  The client ends (merges) or aborts the second
    just before the top level's abort arrives: the abort walks the first
    member, the second is gone meanwhile -- merged, with no state, or
    walked, with the mark alone -- and its turn changes nothing; the top
    level is walked last."""
    app = cluster.application(SUBORDINATE)

    def family():
        top = yield from app.begin_transaction()
        first = yield from app.begin_transaction(parent=top)
        second = yield from app.begin_transaction(parent=top)
        ref = yield from app.lookup_one("a0")
        yield from app.call(ref, "set_cell", {"cell": 1, "value": 7}, first)
        return top, first, second

    top, first, second = cluster.run_on(SUBORDINATE, family())
    with cells_reached() as reached:
        request(cluster, "tm.end" if row == manager.NO_STATE
                else "tm.abort", second)
        COLUMNS[column](cluster, top)
        cluster.engine.run(until=cluster.engine.now + 10_000.0)
    assert reached[row, column] == 1, dict(reached)
    assert reached[manager.ACTIVE, column] >= 2  # first, then top
    assert [tid for tid in (top, first, second)
            if tm(cluster).phase_of(tid) is not None] == []
    aborted = cluster.node(SUBORDINATE).node.aborted
    assert (second in aborted) is (row == manager.MARKED)
