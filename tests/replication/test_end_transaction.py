"""EndTransaction of a replicated transaction: ``end_transaction`` does
not wait for the write-behind copies.  They travel with ``tm.end`` to the
coordinator -- the home node's Transaction Manager, where they run --
which asks the spanning tree for its children while they are in flight,
joins them, asks again only if a node of the footprint is missing from
the answer, validates, and then aborts or prepares
(docs/REPLICATION.md "Write-behind copies").

One test per clause of that contract: (a) nothing is prepared at a copy
before its reply; (b) a copy that fails aborts the family with a reason
naming it; (c) a node the first answer missed is asked for again and
prepared, and the common case asks once; (d) a failure notice during
the join is one abort; (e) a transaction without a footprint keeps the
old path.
"""

import pytest

from tests.reconfig.conftest import counter
from tests.replication.conftest import WORKLOAD, build_replicated
from tests.replication.test_serialising_call import replace_op
from tests.replication.test_write_behind import (
    committed_balance,
    copy_processes,
    hold_row_at,
    locks,
    put,
)

from repro.app.library import run_transaction
from repro.core.cluster import TabsCluster
from repro.core.config import ReplicationConfig, TabsConfig, WorkloadConfig
from repro.errors import ServerError, TransactionAborted
from repro.replication import audit_replica_convergence
from repro.replication.router import ReplicatedApp
from repro.sim import Timeout


def spanning_queries(cluster, node):
    """[(instant, family)] of every spanning-tree query ``node``'s
    Transaction Manager makes from here on."""
    cm = cluster.node(node).cm
    original = cm._handle_spanning_info
    asked = []

    def counted(message):
        asked.append((cluster.engine.now, str(message.body["tid"])))
        yield from original(message)

    cm._handle_spanning_info = counted
    return asked


def spans(tracer, tid, name, node=None):
    return [span for span in tracer.spans
            if span.family == str(tid) and span.name == name
            and node in (None, span.node)]


def finished_at(cluster, process):
    """[the instant ``process`` finishes], filled in when it does."""
    instants = []
    process.add_callback(lambda _: instants.append(cluster.engine.now))
    return instants


def build_three(seed):
    """Three branches on three nodes, rf=2: ``accounts0`` is on (bank0,
    bank1) and ``accounts2`` on (bank2, bank0)."""
    cluster = TabsCluster(TabsConfig(
        seed=seed, replication=ReplicationConfig.available_copies(),
        workload=WorkloadConfig(branches=3, accounts_per_branch=50,
                                tellers_per_branch=2, locality=1.0)))
    topology = cluster.build_workload()
    return cluster, topology


# -- (a) -------------------------------------------------------------------------


def test_nothing_is_prepared_at_a_copy_before_its_reply():
    """The copy to bank1 is parked on another transaction's lock there
    when ``tm.end`` leaves: the coordinator waits it out before a
    prepare request goes to bank1."""
    cluster, topology = build_replicated(seed=131)
    tracer = cluster.enable_tracing()
    keyspace = topology.account_server(0)
    released_at = hold_row_at(cluster, "bank1", keyspace, 5, 2_000.0)
    rapp = ReplicatedApp(cluster, "bank0")
    seen = {}

    def txn():
        tid = yield from rapp.begin_transaction()
        yield from put(rapp, keyspace, 5, 999, tid)
        (copy,) = copy_processes(cluster, "bank0", tid)
        seen.update(tid=tid, done=finished_at(cluster, copy),
                    end=cluster.engine.now)
        committed = yield from rapp.end_transaction(tid)
        return committed

    assert cluster.run_on("bank0", txn()) is True
    tid, (done,) = seen["tid"], seen["done"]
    assert seen["end"] < released_at[0] < done
    prepares = (spans(tracer, tid, "2pc.prepare_req", "bank1")
                + spans(tracer, tid, "ds:ds.prepare", "bank1"))
    assert len(prepares) == 2
    assert all(span.start_ms > done for span in prepares)
    (commit,) = spans(tracer, tid, "2pc.commit")
    assert commit.start_ms >= done
    cluster.settle()
    assert committed_balance(cluster, "bank1", keyspace, 5) == 999
    assert audit_replica_convergence(cluster) == []


# -- (b) -------------------------------------------------------------------------


def test_a_copy_the_data_server_fails_aborts_the_family_naming_it():
    """bank1's copy executes the put and then fails: the coordinator
    aborts the whole family, bank1's fragment included, and says which
    copy failed and how.  Not a validation abort.  (A copy whose node
    dies mid-call: ``test_write_behind.py``.)"""
    cluster, topology = build_replicated(seed=137)
    keyspace = topology.account_server(0)
    before = committed_balance(cluster, "bank0", keyspace, 4)

    def store_then_fail(original, body, tid):
        yield from original(body, tid)
        raise ServerError("the copy's disk is full")

    replace_op(cluster, "bank1", keyspace, "put_balance", store_then_fail)
    rapp = ReplicatedApp(cluster, "bank0")
    validation = counter(cluster, "bank0", "replication.validation_abort")
    tids = []

    def body(tid):
        tids.append(tid)
        yield from put(rapp, keyspace, 4, before + 8, tid)

    with pytest.raises(TransactionAborted,
                       match=rf"write-behind:.*:{keyspace}@bank1 failed: "
                             r"ServerError\(\"the copy's disk is full"):
        cluster.run_on("bank0", run_transaction(rapp, body))
    (tid,) = tids
    assert "ServerError" in rapp.refusal
    assert counter(cluster, "bank0", "replication.validation_abort") \
        == validation
    assert rapp._behind == {} and rapp._footprints == {}
    cluster.settle()
    for node in ("bank0", "bank1"):
        assert locks(cluster, node, keyspace).held_keys(tid) == []
        assert committed_balance(cluster, node, keyspace, 4) == before


# -- (c) -------------------------------------------------------------------------


def read_then_write(rapp, topology, value):
    """Read ``accounts2`` (first copy bank2), then write ``accounts0``
    row 3 (first copy bank0, written behind to bank1)."""
    def body(tid):
        yield from rapp.read(topology.account_server(2), "get_balance",
                             {"row": 1}, tid)
        yield from put(rapp, topology.account_server(0), 3, value, tid)
    return body


def test_a_node_the_first_answer_missed_is_asked_for_again_and_prepared():
    """bank0 has no binding for bank1's copy and bank1's answers reach
    bank0 late, so the copy's first message leaves after the coordinator
    asked for its children: the answer lists bank2 only.  It asks again
    after the join, and bank1 is prepared and commits the write."""
    cluster, topology = build_three(seed=139)
    tracer = cluster.enable_tracing()
    keyspace = topology.account_server(0)
    assert cluster.placement.replicas(keyspace) == ("bank0", "bank1")
    assert cluster.placement.replicas(topology.account_server(2)) \
        == ("bank2", "bank0")
    cluster.node("bank0").node.bindings.pop((keyspace, "bank1"), None)
    cluster.network.set_link_fault("bank1", "bank0", reorder=1.0,
                                   reorder_delay_ms=300.0, both_ways=False)
    asked = spanning_queries(cluster, "bank0")
    rapp = ReplicatedApp(cluster, "bank0")
    tids = []

    def body(tid):
        tids.append(tid)
        yield from read_then_write(rapp, topology, 555)(tid)

    cluster.run_on("bank0", run_transaction(rapp, body))
    (tid,) = tids
    assert [family for _, family in asked] == [str(tid)] * 2
    assert len(spans(tracer, tid, "2pc.prepare_req", "bank1")) == 1
    cluster.network.clear_all_link_faults()
    cluster.settle()
    for node in ("bank0", "bank1"):
        assert committed_balance(cluster, node, keyspace, 3) == 555


def test_the_common_case_asks_for_the_children_once():
    cluster, topology = build_three(seed=149)
    rapp = ReplicatedApp(cluster, "bank0")
    cluster.run_on("bank0", run_transaction(rapp,
        read_then_write(rapp, topology, 1)))          # binds every copy
    asked = spanning_queries(cluster, "bank0")
    cluster.run_on("bank0", run_transaction(rapp,
        read_then_write(rapp, topology, 2)))
    assert len(asked) == 1
    cluster.settle()
    for node in ("bank0", "bank1"):
        assert committed_balance(cluster, node, topology.account_server(0),
                                 3) == 2


# -- (d) -------------------------------------------------------------------------


def test_a_failure_notice_during_the_join_is_one_abort_and_no_prepare():
    """The copy to bank1 is parked on a foreign lock when bank2, which
    served the transaction's read, crashes: the detector's notice aborts
    the family while the coordinator is joining, bank1's fragment with
    it.  The join still finishes before the answer, nothing is prepared
    anywhere, and the abort is the notice's alone."""
    cluster, topology = build_three(seed=151)
    tracer = cluster.enable_tracing()
    keyspace = topology.account_server(0)
    released_at = hold_row_at(cluster, "bank1", keyspace, 3, 4_000.0)
    rapp = ReplicatedApp(cluster, "bank0")
    aborts = counter(cluster, "bank0", "tm.aborts")
    seen = {}

    def txn():
        tid = yield from rapp.begin_transaction()
        seen["tid"] = tid
        yield from rapp.read(topology.account_server(2), "get_balance",
                             {"row": 1}, tid)
        yield from put(rapp, keyspace, 3, 777, tid)
        (copy,) = copy_processes(cluster, "bank0", tid)
        seen["done"] = finished_at(cluster, copy)
        cluster.engine.schedule(100.0, lambda: cluster.crash_node("bank2"))
        committed = yield from rapp.end_transaction(tid)
        seen["answered"] = cluster.engine.now
        return committed

    assert cluster.run_on("bank0", txn()) is False
    tid = seen["tid"]
    assert rapp.refusal == "peer bank2 failed"
    # The copy ended when bank1's fragment was aborted, the foreign lock
    # still held.
    assert seen["done"] and seen["done"][0] <= seen["answered"]
    assert released_at == []
    assert counter(cluster, "bank0", "tm.aborts") == aborts + 1
    assert cluster.meter.counter("aborts_on_failure") == 1
    assert spans(tracer, tid, "2pc.prepare") == []
    assert spans(tracer, tid, "2pc.prepare_req") == []
    cluster.settle()
    for node in ("bank0", "bank1"):
        assert locks(cluster, node, keyspace).held_keys(tid) == []


def test_a_family_aborted_before_tm_end_still_answers_after_its_copies():
    """bank1 dies with the copy's call to it in flight, and the client
    asks for the outcome only after the detector's notice has aborted
    the family: the refusal still waits for the copy (the call's 30 s
    deadline), so nothing of the transaction runs on behind it."""
    cluster, topology = build_replicated(seed=163)
    keyspace = topology.account_server(0)
    rapp = ReplicatedApp(cluster, "bank0")
    cluster.run_on("bank0", run_transaction(rapp,       # binds bank1's copy
        lambda tid: put(rapp, keyspace, 2, 10, tid)))
    seen = {}

    def txn():
        tid = yield from rapp.begin_transaction()
        yield from put(rapp, keyspace, 2, 20, tid)
        (copy,) = copy_processes(cluster, "bank0", tid)
        seen["done"] = finished_at(cluster, copy)
        cluster.engine.schedule(60.0, lambda: cluster.crash_node("bank1"))
        yield Timeout(cluster.engine, 5_000.0)
        assert cluster.meter.counter("aborts_on_failure") == 1
        assert copy.alive
        committed = yield from rapp.end_transaction(tid)
        seen["answered"] = cluster.engine.now
        return committed

    assert cluster.run_on("bank0", txn()) is False
    assert rapp.refusal == "peer bank1 failed"
    (done,) = seen["done"]
    assert done <= seen["answered"]


# -- (e) -------------------------------------------------------------------------


def test_a_transaction_without_a_footprint_keeps_the_old_path():
    """No footprint, nothing to join: the commit span opens first and
    the spanning-tree query runs inside it, as before write-behind
    copies went to the coordinator."""
    cluster = TabsCluster(TabsConfig(
        seed=157, workload=WORKLOAD,
        replication=ReplicationConfig.available_copies()))
    topology = cluster.build_workload()
    tracer = cluster.enable_tracing()
    asked = spanning_queries(cluster, "bank0")
    app = cluster.application("bank0")
    tids = []

    def body(tid):
        tids.append(tid)
        for node in ("bank0", "bank1"):
            ref = yield from app.lookup_one(topology.account_server(0),
                                            node_name=node)
            yield from app.call(ref, "put_balance",
                                {"row": 9, "balance": 4}, tid)

    cluster.run_on("bank0", app.run_transaction(body))
    (tid,) = tids
    ((at, family),) = asked
    (commit,) = spans(tracer, tid, "2pc.commit")
    assert family == str(tid) and commit.start_ms < at
