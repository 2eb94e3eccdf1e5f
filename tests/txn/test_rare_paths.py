"""Transaction Manager branches no workload takes, one test each.

A data server's error reply to a scatter, a subtransaction whose fold
fails at a server (and its ``tm.end``, which answers the client with the
server's error), forgetting a transaction already forgotten, and an
in-doubt transaction whose outcome arrives through phase two while its
own inquiry is answered.
"""

import pytest

from repro import TabsCluster, TabsConfig
from repro.errors import ServerError
from repro.kernel.service import respond_error
from repro.servers.int_array import IntegerArrayServer
from repro.txn.ids import TransactionID
from repro.txn.status import TransactionState, TxnPhase

NODE = "n1"


@pytest.fixture
def cluster():
    cluster = TabsCluster(TabsConfig())
    cluster.add_node(NODE)
    cluster.add_server(NODE, IntegerArrayServer.factory("a0"))
    cluster.start()
    return cluster


def touch(cluster, parent=None, cell=1):
    """A transaction (or a subtransaction of ``parent``) that set
    ``cell`` on ``a0``, left open."""
    app = cluster.application(NODE)

    def body():
        tid = yield from app.begin_transaction(
            **({} if parent is None else {"parent": parent}))
        ref = yield from app.lookup_one("a0")
        yield from app.call(ref, "set_cell", {"cell": cell, "value": 7}, tid)
        return tid
    return cluster.run_on(NODE, body())


def test_a_server_error_reply_is_returned_not_raised(cluster):
    tid = touch(cluster)
    tm = cluster.node(NODE).tm
    replies, errors = cluster.run_on(NODE, tm._call_servers(
        tid, ["a0"], "ds.bogus", {"tid": tid}))
    assert replies == {}
    assert isinstance(errors["a0"], ServerError)


def test_a_fold_a_server_refuses_raises_and_keeps_the_child(cluster):
    top = touch(cluster)
    child = touch(cluster, parent=top, cell=2)
    library = cluster.node(NODE).servers["a0"].library

    def refuse(message):
        respond_error(message, ServerError("cannot take the child's locks"))
    library._sys_subtxn_commit = refuse
    tm = cluster.node(NODE).tm
    with pytest.raises(ServerError, match="child's locks"):
        cluster.run_on(NODE, tm._merge_members(child, into=top))
    assert tm.phase_of(child) is TxnPhase.ACTIVE
    assert tm._members(top) == [child, top]


def test_a_subtransaction_end_a_server_refuses_answers_the_client(cluster):
    """``tm.end`` of a subtransaction whose fold a server refuses answers
    with the server's error; the child stays ACTIVE until the caller
    aborts it."""
    top = touch(cluster)
    child = touch(cluster, parent=top, cell=2)
    library = cluster.node(NODE).servers["a0"].library

    def refuse(message):
        respond_error(message, ServerError("cannot take the child's locks"))
    library._sys_subtxn_commit = refuse
    app = cluster.application(NODE)
    tm = cluster.node(NODE).tm
    errors = []

    def client():
        try:
            yield from app.end_transaction(child)
        except ServerError as error:
            errors.append(str(error))
            assert tm.phase_of(child) is TxnPhase.ACTIVE
            yield from app.abort_transaction(child)

    process = cluster.spawn_on(NODE, client(), name="client")
    assert cluster.engine.drain(60_000.0)
    assert not process.alive
    assert errors == ["cannot take the child's locks"]
    assert tm.phase_of(child) is None and child in cluster.node(NODE).node.aborted
    assert tm.phase_of(top) is TxnPhase.ACTIVE


def test_forgetting_an_unknown_transaction_changes_nothing(cluster):
    tid = touch(cluster)
    tm = cluster.node(NODE).tm
    before = dict(tm._states)
    tm._forget(TransactionID(NODE, 404))
    assert tm._states == before


def test_in_doubt_resolved_by_phase_two_while_its_inquiry_is_answered(
        cluster):
    """The coordinator's answer to the inquiry arrives, but phase two
    got here first: the inquiry finishes nothing a second time."""
    tm = cluster.node(NODE).tm
    tid = TransactionID("n9", 1)
    state = TransactionState(tid, phase=TxnPhase.PREPARED)
    state.parent_node = "n9"
    tm._states[tid] = state
    sent = []

    def send(target, op, body, about):
        sent.append(op)
        state.advance(TxnPhase.COMMITTED)  # phase two, meanwhile
        tm._collections[("outcome", about.toplevel)].record(
            target, "committed")
    tm._send_datagram = send

    def finish_prepared(*args, **kwargs):
        raise AssertionError("resolved twice")
        yield  # pragma: no cover
    tm._finish_prepared = finish_prepared
    cluster.run_on(NODE, tm._resolve_in_doubt(state))
    assert sent == ["tm.outcome_query"]
    assert state.phase is TxnPhase.COMMITTED
