"""A family's calls stop where its abort, or its child's crash, says so.

Two rules in the Communication Manager's scan of every outbound call
(docs/PROTOCOL.md "Why an abort reaches every fragment once"):

- a call of a transaction, or of a descendant of one, in the sending
  node's abort mark is refused before it leaves, and not retried;
- a call to a child that restarted since the family first reached it is
  refused too (Section 3.2.4's crash detection): the family's work there
  died with the old incarnation, so a fragment in the new one could let
  the family commit without it.
"""

import pytest

from repro import TabsCluster, TabsConfig
from repro.errors import TransactionAborted
from repro.servers.int_array import IntegerArrayServer

HOME, REMOTE = "n0", "n1"


def build(**config):
    cluster = TabsCluster(TabsConfig(**config))
    for name in (HOME, REMOTE):
        cluster.add_node(name)
    cluster.add_server(REMOTE, IntegerArrayServer.factory("a0"))
    cluster.start()
    return cluster


def cells(cluster):
    app = cluster.application(HOME)

    def read(tid):
        ref = yield from app.lookup_one("a0")
        values = []
        for cell in (1, 2):
            reply = yield from app.call(ref, "get_cell", {"cell": cell}, tid)
            values.append(reply["value"])
        return values
    return cluster.run_transaction(HOME, read)


def served(cluster):
    return cluster.node(REMOTE).servers["a0"].library.requests_served


def retries(cluster):
    return cluster.metrics.snapshot()["counters"].get(f"{HOME}/rpc.retries", 0)


def test_a_call_retried_to_a_restarted_child_is_refused():
    """The remote node restarts between two calls of one transaction,
    and the home node's detector has not noticed (its probes are far
    apart).  The second call's reference is stale, so it is retried at
    the new incarnation -- where, accepted, it would open a fresh
    fragment: the transaction would then commit the second write without
    the first, lost in the crash."""
    cluster = build(probe_interval_ms=600_000.0,
                    suspicion_timeout_ms=1_200_000.0)
    app = cluster.application(HOME)
    outcome = {}

    def client():
        tid = yield from app.begin_transaction()
        ref = yield from app.lookup_one("a0")
        yield from app.call(ref, "set_cell", {"cell": 1, "value": 5}, tid)
        cluster.crash_node(REMOTE)
        yield from cluster.node(REMOTE).restart_generator()
        try:
            yield from app.call(ref, "set_cell", {"cell": 2, "value": 6},
                                tid)
        except TransactionAborted as error:
            outcome["refused"] = error
            yield from app.abort_transaction(tid)
            return tid
        outcome["committed"] = yield from app.end_transaction(tid)
        return tid

    tid = cluster.run_on(HOME, client())
    assert "committed" not in outcome
    assert outcome["refused"].tid == tid
    assert "restarted since the family first called it" in \
        outcome["refused"].reason
    assert retries(cluster) == 1  # the stale reference, re-resolved
    assert cluster.node(REMOTE).tm.phase_of(tid) is None
    assert cells(cluster) == [0, 0]


def test_a_call_of_an_aborted_family_never_leaves_its_node():
    """The client calls on after its transaction aborted: the call is
    refused at the home node, not retried, and the remote server never
    sees it -- for the transaction and for its subtransaction alike."""
    cluster = build()
    app = cluster.application(HOME)
    refused = []

    def client():
        tid = yield from app.begin_transaction()
        sub = yield from app.begin_transaction(parent=tid)
        ref = yield from app.lookup_one("a0")
        yield from app.call(ref, "set_cell", {"cell": 1, "value": 5}, sub)
        yield from app.abort_transaction(tid)
        before = served(cluster), retries(cluster)
        for caller in (tid, sub):
            with pytest.raises(TransactionAborted) as error:
                yield from app.call(ref, "set_cell", {"cell": 2, "value": 6},
                                    caller)
            refused.append(error.value.tid)
        assert (served(cluster), retries(cluster)) == before
        return tid, sub

    assert cluster.run_on(HOME, client()) == tuple(refused)
    assert cells(cluster) == [0, 0]
