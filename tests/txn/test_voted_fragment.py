"""A fragment that has voted refuses new work.

Once a data server has voted update, its prepare record names the
transaction's write set and the node's PREPARED record its servers.  An
operation of the transaction that arrives later -- a call its client
gave up on, say -- would run and log under the tid although neither
record knows of it.  So the data server refuses it before it runs
(``DataServerLibrary._operation``), and the Transaction Manager refuses
a server that asks to join a fragment in the PREPARING, PREPARED or
COMMITTED row (docs/PROTOCOL.md's ``tm.join`` column).
"""

import pytest

from repro.errors import TransactionAborted
from tests.txn.test_protocol_table import (  # noqa: F401 - fixture
    COORDINATOR,
    SUBORDINATE,
    cluster,
    collect,
    deliver,
    prepared,
    step_until,
    tm,
)


def call(cluster, server, op, body, tid=None):
    """``op`` at ``server`` on the subordinate, from the coordinator."""
    app = cluster.application(COORDINATOR)

    def body_():
        ref = yield from app.lookup_one(server)
        return (yield from app.call(ref, op, body, tid))
    return cluster.run_on(COORDINATOR, body_())


def late_write(cluster, server, tid):
    """A write of cell 2 for ``tid`` after the vote: refused, and
    nothing is logged at the subordinate meanwhile."""
    wal = cluster.node(SUBORDINATE).rm.wal
    logged = wal.last_lsn
    with pytest.raises(TransactionAborted, match="voted"):
        call(cluster, server, "set_cell", {"cell": 2, "value": 9}, tid)
    assert wal.last_lsn == logged


def commit(cluster, tid):
    acks = collect(cluster, "ack", tid)
    deliver(cluster, "tm.commit_req", tid)
    step_until(cluster, lambda: acks.received == {SUBORDINATE: "committed"})
    cluster.settle()


def cells(cluster, server):
    def read(tid):
        return [call(cluster, server, "get_cell", {"cell": cell}, tid)
                ["value"] for cell in (1, 2)]
    app = cluster.application(COORDINATOR)
    tid = cluster.run_on(COORDINATOR, app.begin_transaction())
    values = read(tid)
    cluster.run_on(COORDINATOR, app.end_transaction(tid))
    return values


def test_an_operation_at_a_server_that_voted_is_refused(cluster):
    tid = prepared(cluster)
    late_write(cluster, "a0", tid)
    commit(cluster, tid)
    assert cells(cluster, "a0") == [7, 0]


def test_a_server_that_joins_after_the_vote_is_refused(cluster):
    """``b0`` took no part: its first operation asks to join."""
    tid = prepared(cluster)
    late_write(cluster, "b0", tid)
    assert tm(cluster).phase_of(tid).name == "PREPARED"
    commit(cluster, tid)
    assert cells(cluster, "a0") == [7, 0]
    assert cells(cluster, "b0") == [0, 0]

