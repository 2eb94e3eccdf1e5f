"""Unit-level tests of Transaction Manager message handlers."""

import pytest

from repro import TabsCluster
from repro.kernel.messages import Message
from repro.kernel.ports import Port
from repro.servers.int_array import IntegerArrayServer
from repro.txn.ids import TransactionID
from repro.txn.status import TransactionState, TxnPhase
from tests.property.conftest import fast_config


@pytest.fixture
def env():
    cluster = TabsCluster(fast_config())
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("array"))
    cluster.start()
    return cluster, cluster.node("n1").tm, cluster.application("n1")


def request(cluster, tm, op, body):
    reply = Port(cluster.ctx, node=cluster.node("n1").node)
    tm.port.send(Message(op=op, body=body, reply_to=reply))
    return cluster.engine.run_until(reply.receive()).body


def test_phase_of_unknown_transaction(env):
    cluster, tm, app = env
    assert tm.phase_of(TransactionID("n1", 999)) is None


def test_phase_of_active_transaction(env):
    cluster, tm, app = env
    tid = cluster.run_on("n1", app.begin_transaction())
    assert tm.phase_of(tid) is TxnPhase.ACTIVE


def test_join_of_unknown_toplevel_rejected(env):
    cluster, tm, app = env
    port = Port(cluster.ctx, node=cluster.node("n1").node)
    body = request(cluster, tm, "tm.join",
                   {"tid": TransactionID("elsewhere", 5),
                    "server": "x", "port": port})
    assert "error" in body


def test_join_of_foreign_subtransaction_creates_state(env):
    """A remote subtransaction's first operation here is tracked under
    its own identifier."""
    cluster, tm, app = env
    sub = TransactionID("elsewhere", 5).child(1)
    port = Port(cluster.ctx, node=cluster.node("n1").node)
    body = request(cluster, tm, "tm.join",
                   {"tid": sub, "server": "x", "port": port})
    assert body.get("ok")
    assert tm.phase_of(sub) is TxnPhase.ACTIVE


def test_outcome_query_for_unknown_transaction_presumes_abort(env):
    """Presumed abort: no state means no commit."""
    cluster, tm, app = env
    # Deliver an outcome query as the datagram path would.
    tm.port.send(Message(op="tm.outcome_query",
                         body={"tid": TransactionID("other", 9),
                               "from": "n1"}))
    cluster.settle()
    # The reply datagram loops back to our own TM (from == n1); nothing to
    # assert beyond it not crashing, but no commit is counted.
    assert [name for node, name in cluster.metrics.counters()
            if node == "n1" and name.startswith("commit.")] == []


def test_abort_unknown_transaction_is_acknowledged(env):
    cluster, tm, app = env
    body = request(cluster, tm, "tm.abort",
                   {"tid": TransactionID("n1", 12345)})
    assert body["aborted"] is True


def test_transactions_with_server_filters_prepared_and_terminal(env):
    cluster, tm, app = env
    active = TransactionState(TransactionID("n1", 1))
    active.servers.add("srv")
    prepared = TransactionState(TransactionID("n1", 2),
                                phase=TxnPhase.PREPARED)
    prepared.servers.add("srv")
    done = TransactionState(TransactionID("n1", 3),
                            phase=TxnPhase.COMMITTED)
    done.servers.add("srv")
    tm._states.update({state.tid: state
                       for state in (active, prepared, done)})
    assert tm.transactions_with_server("srv") == [active.tid]


def test_rebind_server_port_updates_every_transaction(env):
    cluster, tm, app = env
    old_port = Port(cluster.ctx, node=cluster.node("n1").node)
    new_port = Port(cluster.ctx, node=cluster.node("n1").node)
    for seq in (1, 2):
        tid = TransactionID("n1", seq)
        tm._states[tid] = TransactionState(tid,
                                           server_ports={"srv": old_port})
    tm.rebind_server_port("srv", new_port)
    assert all(state.server_ports["srv"] is new_port
               for state in tm._states.values())


def test_commit_request_for_unknown_transaction_acks_blindly(env):
    """Phase-two requests may be retried after the subordinate already
    committed and forgot; the ack must still flow."""
    cluster, tm, app = env
    tm.port.send(Message(op="tm.commit_req",
                         body={"tid": TransactionID("other", 7),
                               "from": "n1"}))
    cluster.settle()  # no crash, ack datagram sent back


def test_checkpoint_counter_resets(env):
    cluster, tm, app = env
    tm.checkpoint_every_commits = 2
    rm = cluster.node("n1").rm
    baseline = rm.checkpoints_taken

    def one():
        tid = yield from app.begin_transaction()
        yield from app.end_transaction(tid)

    for _ in range(5):
        cluster.run_on("n1", one())
    cluster.settle()
    assert rm.checkpoints_taken - baseline == 2
