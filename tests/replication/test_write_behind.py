"""Write-behind replica copies: ``write_all`` waits for the first copy
only; the other copies run as home-node processes, joined by the
coordinator before it prepares or by the client before ``tm.abort``
(docs/REPLICATION.md "Write-behind copies";
``test_end_transaction.py`` has the coordinator's side).

One test per rule the mechanism keeps: the overlap is real, first copy
synchronous, FIFO per replica server, footprint at issue, join before
the outcome, read-your-writes, a failed copy aborts, nothing leaks.
"""

import pytest

from tests.reconfig.conftest import counter
from tests.replication.conftest import build_replicated

from repro.app.library import run_transaction
from repro.chaos import ChaosController, FaultPlan, LinkFaultWindow
from repro.errors import CommunicationError, TransactionAborted
from repro.replication import audit_replica_convergence
from repro.replication.router import ReplicatedApp
from repro.sim import Timeout
from repro.workloads.debitcredit import TxnSpec, replicated_debitcredit_txn


def broadcasts(cluster):
    return sum(tabs.ns.broadcasts for tabs in cluster.nodes.values())


class SpyApp:
    """The router's inner library, recording the transaction-control
    calls that reach it (the router only ever goes through ``.app``)."""

    def __init__(self, app):
        self._app = app
        self.ctx = app.ctx
        self.control = []

    def __getattr__(self, name):
        return getattr(self._app, name)

    def end_transaction(self, tid, extra=None):
        self.control.append(("end", extra))
        committed = yield from self._app.end_transaction(tid, extra=extra)
        return committed

    def abort_transaction(self, tid, reason=""):
        self.control.append(("abort", self.ctx.engine.now))
        yield from self._app.abort_transaction(tid, reason=reason)


def spied(cluster, home):
    rapp = ReplicatedApp(cluster, home)
    rapp.app = SpyApp(rapp.app)
    return rapp


def copy_processes(cluster, home, tid):
    return [process for process in cluster.node(home).node._processes
            if process.name.startswith(f"{home}:write-behind:{tid}:")]


def locks(cluster, node, keyspace):
    return cluster.node(node).servers[keyspace].library.locks


def committed_balance(cluster, node, keyspace, row):
    """The row as the copy at ``node`` holds it, read there directly."""
    app = cluster.application(node)

    def txn():
        tid = yield from app.begin_transaction()
        ref = yield from app.lookup_one(keyspace, node_name=node)
        reply = yield from app.call(ref, "get_balance", {"row": row}, tid)
        yield from app.end_transaction(tid)
        return reply["balance"]

    return cluster.run_on(node, txn())


def put(rapp, keyspace, row, balance, tid):
    yield from rapp.write_all(keyspace, "put_balance",
                              {"row": row, "balance": balance}, tid)


def test_overlap_is_real_and_bounded():
    """An idle warm rf=2 DebitCredit transaction, begin to commit reply:
    1 699.2 sim-ms with the copies written in sequence, 1 298.5 with
    them written behind -- and the same name lookups and RPC attempts
    either way.  Today 1 171.9: the Transaction Manager prepares and
    finishes each node's four servers in one exchange instead of four
    (-60.0: -30 at the subordinate before its vote, -30 before its
    ack), and the history append is one ``put_row`` that moves the
    cursor too, where it was a put and a ``put_strand_count`` to the
    same server (-66.6: one first-copy call, and one link less in the
    write-behind chain the commit waits out).  Then 1 067.5: each tier
    is one call to the copy that serialises it -- ``add_to_balance``
    (54.5) where it was ``get_balance_for_update`` + ``put_balance``
    (32.1 + 48.5), ``append`` (76.9) where it was
    ``strand_count_for_update`` + ``put_row`` (32.1 + 70.9) -- so one
    26.1 sim-ms local data-server call less per tier (-104.4).  Now
    973.8, two changes that each stand alone: ``end_transaction`` no
    longer waits for the last copy before it sends ``tm.end`` -- the
    coordinator's commit read, dispatch and spanning-tree query run
    under the copy's tail and it joins the copies just before it
    prepares (-71.3) -- and the branch row goes after the history
    append, so the tail is the 117.4 sim-ms branch copy instead of the
    139.8 history-row copy (-22.4)."""
    cluster, topology = build_replicated(seed=41)
    spec = TxnSpec(home_branch=0, teller=1, account_branch=0, account=1,
                   amount=5)

    def run():
        rapp = ReplicatedApp(cluster, "bank0")
        started = cluster.engine.now
        cluster.run_on("bank0", run_transaction(rapp,
            lambda tid: replicated_debitcredit_txn(rapp, topology, spec,
                                                   tid)))
        return cluster.engine.now - started

    run()   # binds bank1's copies
    warm, retries = broadcasts(cluster), counter(cluster, "bank0",
                                                 "rpc.retries")
    elapsed = run()
    assert elapsed < 1699.2 - 300.0
    assert elapsed == pytest.approx(973.8)
    assert broadcasts(cluster) == warm
    assert counter(cluster, "bank0", "rpc.retries") == retries == 0
    assert audit_replica_convergence(cluster) == []


def test_two_writes_of_one_cell_land_in_issue_order_on_every_copy():
    cluster, topology = build_replicated(seed=43)
    controller = ChaosController(cluster, FaultPlan.of(LinkFaultWindow(
        0.0, 60_000.0, "bank0", "bank1", reorder=0.9,
        reorder_delay_ms=400.0)), seed=43)
    controller.install()
    rapp = ReplicatedApp(cluster, "bank0")
    keyspace = topology.account_server(0)
    assert cluster.placement.replicas(keyspace) == ("bank0", "bank1")

    def body(tid):
        yield from put(rapp, keyspace, 7, 111, tid)
        yield from put(rapp, keyspace, 7, 222, tid)

    cluster.run_on("bank0", run_transaction(rapp, body))
    cluster.settle()
    assert committed_balance(cluster, "bank0", keyspace, 7) == 222
    assert committed_balance(cluster, "bank1", keyspace, 7) == 222
    assert audit_replica_convergence(cluster) == []


def hold_row_at(cluster, node, keyspace, row, for_ms):
    """Another transaction takes ``row``'s write lock at the copy on
    ``node`` and aborts ``for_ms`` later; returns [release instant]."""
    app = cluster.application(node)
    released_at = []

    def holder():
        tid = yield from app.begin_transaction()
        ref = yield from app.lookup_one(keyspace, node_name=node)
        yield from app.call(ref, "add_to_balance",
                            {"row": row, "amount": 0}, tid)
        yield Timeout(cluster.engine, for_ms)
        released_at.append(cluster.engine.now)
        yield from app.abort_transaction(tid)

    cluster.spawn_on(node, holder())
    return released_at


def test_a_later_copy_never_overtakes_an_earlier_one_to_the_same_server():
    """The copy of row 7 is parked on a foreign lock at bank1; the copy
    of row 8, free to go, still waits its turn behind it."""
    cluster, topology = build_replicated(seed=45)
    rapp = ReplicatedApp(cluster, "bank0")
    keyspace = topology.account_server(0)
    released_at = hold_row_at(cluster, "bank1", keyspace, 7, 2_000.0)

    def body(tid):
        yield Timeout(cluster.engine, 200.0)   # the holder has row 7
        yield from put(rapp, keyspace, 7, 111, tid)
        yield from put(rapp, keyspace, 8, 222, tid)
        first, second = copy_processes(cluster, "bank0", tid)
        yield Timeout(cluster.engine, 1_000.0)
        assert not released_at and first.alive and second.alive
        assert locks(cluster, "bank1", keyspace).held_keys(tid) == []
        yield first
        assert second.alive

    cluster.run_on("bank0", run_transaction(rapp, body))
    cluster.settle()
    assert committed_balance(cluster, "bank1", keyspace, 7) == 111
    assert committed_balance(cluster, "bank1", keyspace, 8) == 222
    assert audit_replica_convergence(cluster) == []


def test_a_copy_that_dies_mid_call_aborts_the_transaction():
    """The copy goes to the coordinator with ``tm.end``, which joins it
    before it prepares; ``end_transaction`` no longer raises the copy's
    error but reports the refusal, and ``run_transaction`` raises
    ``TransactionAborted`` with the reason.  Here that reason names the
    copy's node: the failure detector (1.5 s) aborts the family on
    bank1's crash long before the call's 30 s deadline fails the copy,
    and the first abort is the one the coordinator reports.  Either
    way nothing is prepared and no lock is left behind."""
    cluster, topology = build_replicated(seed=47)
    rapp = spied(cluster, "bank0")
    keyspace = topology.account_server(0)
    before = committed_balance(cluster, "bank0", keyspace, 3)
    # Bind bank1's copy first, so the copy below is a call in flight and
    # not a name lookup.
    cluster.run_on("bank0", run_transaction(rapp,
        lambda tid: put(rapp, keyspace, 3, before, tid)))
    rapp.app.control.clear()
    validation = counter(cluster, "bank0", "replication.validation_abort")
    tids = []

    def body(tid):
        tids.append(tid)
        yield from put(rapp, keyspace, 3, before + 50, tid)
        # The first copy holds the lock and the new value; bank1 dies
        # with the write-behind request already dispatched to it.
        assert locks(cluster, "bank0", keyspace).held_keys(tid)
        yield Timeout(cluster.engine, 60.0)
        cluster.crash_node("bank1")

    with pytest.raises(TransactionAborted, match="peer bank1 failed"):
        cluster.run_on("bank0", run_transaction(rapp, body))
    (tid,) = tids
    assert [op for op, _ in rapp.app.control] == ["end"]     # no tm.abort
    (copy,) = rapp.app.control[0][1]["copies"]
    with pytest.raises(CommunicationError):
        copy.result()
    assert counter(cluster, "bank0", "replication.validation_abort") \
        == validation
    assert locks(cluster, "bank0", keyspace).held_keys(tid) == []
    assert not any(process.alive
                   for process in copy_processes(cluster, "bank0", tid))
    assert rapp._behind == {} and rapp._footprints == {}
    assert committed_balance(cluster, "bank0", keyspace, 3) == before


def test_abort_returns_only_after_every_copy_has_finished():
    """The write-behind call is parked on a lock another transaction
    holds at the copy; the abort waits for it instead of racing it."""
    cluster, topology = build_replicated(seed=53)
    rapp = spied(cluster, "bank0")
    keyspace = topology.account_server(0)
    released_at = hold_row_at(cluster, "bank1", keyspace, 5, 2_000.0)

    def txn():
        tid = yield from rapp.begin_transaction()
        yield Timeout(cluster.engine, 200.0)   # the holder has row 5
        yield from put(rapp, keyspace, 5, 999, tid)
        yield from rapp.abort_transaction(tid)
        return tid

    served = cluster.node("bank1").servers[keyspace].library.requests_served
    tid = cluster.run_on("bank0", txn())
    # tm.abort was sent after the holder let go and the copy's handler
    # ran to completion -- nothing of the transaction is still executing.
    (abort,) = rapp.app.control
    assert abort[0] == "abort" and abort[1] > released_at[0]
    library = cluster.node("bank1").servers[keyspace].library
    assert library.requests_served == served + 2   # the holder's read too
    assert not any(process.alive and process.name.endswith(":put_balance")
                   for process in cluster.node("bank1").node._processes)
    assert not any(process.alive
                   for process in copy_processes(cluster, "bank0", tid))
    cluster.settle()
    for node in ("bank0", "bank1"):
        assert locks(cluster, node, keyspace).held_keys(tid) == []
    assert rapp._behind == {}
    assert audit_replica_convergence(cluster) == []


def test_read_your_writes_when_the_view_changes_between_write_and_read():
    cluster, topology = build_replicated(seed=59)
    rapp = ReplicatedApp(cluster, "bank0")
    keyspace = topology.account_server(1)
    assert cluster.placement.replicas(keyspace) == ("bank1", "bank0")
    before = committed_balance(cluster, "bank0", keyspace, 2)
    view = cluster.node("bank0").replication.view

    def txn():
        tid = yield from rapp.begin_transaction()
        yield from put(rapp, keyspace, 2, before + 77, tid)
        # bank1 served the synchronous copy; the local copy is still
        # being written behind when the detector speaks.
        (copy,) = copy_processes(cluster, "bank0", tid)
        assert copy.alive
        view.observe(cluster.engine.now, "bank0", "suspect", "bank1")
        reply = yield from rapp.read(keyspace, "get_balance", {"row": 2},
                                     tid)
        assert not copy.alive
        yield from rapp.abort_transaction(tid)
        return reply["balance"]

    assert cluster.run_on("bank0", txn()) == before + 77


def test_home_node_crash_takes_the_copy_processes_with_it():
    cluster, topology = build_replicated(seed=61)
    rapp = ReplicatedApp(cluster, "bank0")
    keyspace = topology.account_server(0)
    before = committed_balance(cluster, "bank0", keyspace, 4)
    seen = {}

    def txn():
        tid = yield from rapp.begin_transaction()
        yield from rapp.write_all(keyspace, "add_to_balance",
                                  {"row": 4, "amount": 9}, tid)
        seen["tid"] = tid
        seen["copies"] = copy_processes(cluster, "bank0", tid)
        # From the engine, as a fault plan would: a process cannot pull
        # the plug on its own node.
        cluster.engine.schedule(10.0, lambda: cluster.crash_node("bank0"))
        yield Timeout(cluster.engine, 20.0)
        raise AssertionError("the client outlived its node")

    client = cluster.spawn_on("bank0", txn())
    cluster.settle()
    assert not client.alive
    (copy,) = seen["copies"]
    assert not copy.alive and not copy.ok
    assert copy_processes(cluster, "bank0", seen["tid"]) == []
    cluster.restart_node("bank0")
    cluster.settle(extra_ms=30_000.0)
    assert audit_replica_convergence(cluster) == []
    for node in ("bank0", "bank1"):
        assert locks(cluster, node, keyspace).held_keys(seen["tid"]) == []
        assert committed_balance(cluster, node, keyspace, 4) == before


def test_single_target_spawns_nothing():
    cluster, topology = build_replicated(seed=67)
    cluster.crash_node("bank1")
    cluster.node("bank0").replication.view.observe(0.0, "bank0", "suspect",
                                                   "bank1")
    rapp = ReplicatedApp(cluster, "bank0")
    keyspace = topology.account_server(0)
    degraded = counter(cluster, "bank0", "replication.write_all_degraded")

    def body(tid):
        yield from put(rapp, keyspace, 6, 123, tid)
        assert copy_processes(cluster, "bank0", tid) == []
        assert rapp._behind == {}

    cluster.run_on("bank0", run_transaction(rapp, body))
    assert counter(cluster, "bank0", "replication.write_all_degraded") \
        == degraded + 1
    assert committed_balance(cluster, "bank0", keyspace, 6) == 123


def test_footprint_lists_a_write_behind_target_as_of_its_issue():
    """bank1 flaps (suspect, then recovered) while its copy is in flight:
    the footprint keeps the failure count from *before* the call, so
    rule 1 refuses the commit; counted after the call it would pass."""
    cluster, topology = build_replicated(seed=71)
    rapp = spied(cluster, "bank0")
    keyspace = topology.account_server(0)
    view = cluster.node("bank0").replication.view

    def txn():
        tid = yield from rapp.begin_transaction()
        yield from put(rapp, keyspace, 8, 321, tid)
        view.observe(cluster.engine.now, "bank0", "suspect", "bank1")
        view.observe(cluster.engine.now, "bank0", "recovered", "bank1")
        committed = yield from rapp.end_transaction(tid)
        return committed

    assert cluster.run_on("bank0", txn()) is False
    ((op, extra),) = rapp.app.control
    assert op == "end"
    shipped = extra["replication"]
    assert shipped["written"] == {"bank0": 0, "bank1": 0}
    assert shipped["keyspaces"] == {keyspace: ["bank0", "bank1"]}
    assert view.fail_count("bank1") == 1
    assert counter(cluster, "bank0", "replication.validation_abort") == 1
    assert rapp._behind == {} and rapp._footprints == {}
