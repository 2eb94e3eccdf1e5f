"""The Transaction Manager holds only live fragments.

Under presumed abort (Section 3.2.3) no state means "not committed".
An aborted fragment leaves no Transaction Manager state behind: the
node's abort mark keeps the walk's reason and answers for it --
EndTransaction, a late join, a prepare (docs/PROTOCOL.md "Why an abort
reaches every fragment once").
"""

import pytest

from repro import TabsCluster, TabsConfig
from repro.errors import TransactionAborted
from repro.kernel.service import respond
from repro.servers.int_array import IntegerArrayServer

HOME, REMOTE = "n0", "n1"


def build():
    cluster = TabsCluster(TabsConfig())
    for index, name in enumerate((HOME, REMOTE)):
        cluster.add_node(name)
        cluster.add_server(name, IntegerArrayServer.factory(f"a{index}"))
    cluster.start()
    return cluster


def touch(cluster, servers, value):
    """A top level that set cell 1 of each of ``servers``, left open."""
    app = cluster.application(HOME)

    def body():
        tid = yield from app.begin_transaction()
        for server in servers:
            ref = yield from app.lookup_one(server)
            yield from app.call(ref, "set_cell", {"cell": 1, "value": value},
                                tid)
        return tid
    return cluster.run_on(HOME, body())


def vote_abort(cluster, tid):
    """Make ``a0`` vote abort when ``tid`` prepares."""
    server = cluster.node(HOME).servers["a0"].library
    prepare = server._sys_prepare

    def sys_prepare(message):
        if message.body["tid"] != tid:
            return (yield from prepare(message))
        respond(message, {"vote": "abort"})
        yield from ()
    server._sys_prepare = sys_prepare


def test_after_a_run_with_aborts_no_tm_holds_an_aborted_state():
    """Three families abort three ways -- the client's abort, a refused
    commit, a peer-failure notice -- and one commits.  Once the cluster
    settles, no Transaction Manager holds any state, so none holds an
    ABORTED one; EndTransaction on each aborted family is refused with
    its walk's reason, read from the mark, and so is a subtransaction
    begun under one."""
    cluster = build()
    app = cluster.application(HOME)
    mark = cluster.node(HOME).node.aborted

    given_up = touch(cluster, ["a0", "a1"], 1)
    cluster.run_on(HOME, app.abort_transaction(given_up,
                                               reason="client gave up"))
    refused = touch(cluster, ["a0", "a1"], 2)
    vote_abort(cluster, refused)
    assert cluster.run_on(HOME, app.end_transaction(refused)) is False
    committed = touch(cluster, ["a0", "a1"], 3)
    assert cluster.run_on(HOME, app.end_transaction(committed)) is True
    cut_off = touch(cluster, ["a0", "a1"], 4)
    cluster.partition((HOME,), (REMOTE,))
    cluster.engine.run(until=cluster.engine.now + 5_000.0)
    cluster.heal_partition()
    cluster.settle()

    assert cluster.metrics.counter(HOME, "tm.aborts").value == 3
    for name in (HOME, REMOTE):
        states = cluster.node(name).tm._states
        assert [tid for tid, state in states.items()
                if state.phase.terminal] == []
        assert states == {}
    assert mark == {given_up: "client gave up", refused: "aborted",
                    cut_off: f"peer {REMOTE} failed"}
    for tid, reason in mark.items():
        assert cluster.run_on(HOME, app.end_transaction(tid)) is False
        assert app.refusal == reason
    with pytest.raises(TransactionAborted, match="client gave up"):
        cluster.run_on(HOME, app.begin_transaction(parent=given_up))
