"""A write-behind copy to a replica that crashed before it was suspected
(docs/REPLICATION.md "Write-behind copies"): if the copy finds no trace
of its target and nothing of the transaction was ever sent there, it
waits -- at most the failure detector's bound -- for the detector to
confirm the crash, and then skips the replica: a degraded write, as if
the copy had been issued once the detector had spoken.  Otherwise the
copy fails and the commit is refused, as before.
"""

import pytest

from tests.reconfig.conftest import counter
from tests.replication.conftest import build_replicated
from tests.replication.test_write_behind import (
    committed_balance,
    copy_processes,
    put,
    spied,
)

from repro.app.library import run_transaction
from repro.errors import TransactionAborted
from repro.replication import audit_replica_convergence
from repro.sim import Timeout

#: suspicion_timeout_ms + 2 * probe_interval_ms at the default config
DETECT_WITHIN_MS = 1_500.0 + 2 * 250.0


def degraded(cluster):
    return counter(cluster, "bank0", "replication.write_all_degraded")


def test_a_copy_to_a_replica_that_died_unsuspected_is_a_degraded_write():
    """bank1 is down but still trusted when the transaction writes: its
    copy's lookup fails, the copy waits for the suspicion and skips it,
    and the transaction commits.  The restarted bank1 catches up."""
    cluster, topology = build_replicated(seed=101)
    rapp = spied(cluster, "bank0")
    keyspace = topology.account_server(0)
    assert cluster.placement.replicas(keyspace) == ("bank0", "bank1")
    before = committed_balance(cluster, "bank0", keyspace, 3)
    view = cluster.node("bank0").replication.view
    counted = degraded(cluster)
    cluster.crash_node("bank1")
    crashed_at = cluster.engine.now

    def body(tid):
        yield from put(rapp, keyspace, 3, before + 50, tid)
        assert view.available("bank1")          # not suspected yet
        (copy,) = copy_processes(cluster, "bank0", tid)
        assert (yield copy) == "bank1"
        assert not view.available("bank1")
        assert cluster.engine.now - crashed_at <= DETECT_WITHIN_MS

    cluster.run_on("bank0", run_transaction(rapp, body))
    assert degraded(cluster) == counted + 1
    assert rapp._behind == {} and rapp._footprints == {}
    assert view._awaiting == {}
    assert committed_balance(cluster, "bank0", keyspace, 3) == before + 50
    cluster.restart_node("bank1")
    cluster.settle(extra_ms=10_000.0)
    assert committed_balance(cluster, "bank1", keyspace, 3) == before + 50
    assert audit_replica_convergence(cluster) == []


def test_a_live_replica_without_the_name_still_refuses_the_commit():
    """bank1 is up but its copy of the key-space is not registered: no
    suspicion comes, so the copy fails once the detector's bound has
    passed, and the commit is refused with its error -- exactly that
    bound later than when the copy failed at once (1 081.5 sim-ms after
    the write was issued)."""
    cluster, topology = build_replicated(seed=103)
    rapp = spied(cluster, "bank0")
    keyspace = topology.account_server(0)
    before = committed_balance(cluster, "bank0", keyspace, 4)
    view = cluster.node("bank0").replication.view
    counted = degraded(cluster)
    cluster.node("bank1").servers[keyspace].library.fail()
    issued = []

    def body(tid):
        issued.append(cluster.engine.now)
        yield from put(rapp, keyspace, 4, before + 60, tid)

    with pytest.raises(TransactionAborted,
                       match=f"write-behind:.*{keyspace}@bank1 failed: "
                             "LookupFailed"):
        cluster.run_on("bank0", run_transaction(rapp, body))
    refused_after = cluster.engine.now - issued[0]
    assert refused_after == pytest.approx(1_081.5 + DETECT_WITHIN_MS)
    assert view.available("bank1") and view.fail_count("bank1") == 0
    assert degraded(cluster) == counted
    assert view._awaiting == {}
    assert rapp._behind == {} and rapp._footprints == {}
    assert committed_balance(cluster, "bank0", keyspace, 4) == before


def test_a_skipped_replica_back_before_the_commit_aborts_it():
    """Rule 2: bank1 is back (and seen back) before the transaction
    commits, holding none of its write -- the commit is refused."""
    cluster, topology = build_replicated(seed=107)
    rapp = spied(cluster, "bank0")
    keyspace = topology.account_server(0)
    before = committed_balance(cluster, "bank0", keyspace, 5)
    view = cluster.node("bank0").replication.view
    cluster.crash_node("bank1")

    def txn():
        tid = yield from rapp.begin_transaction()
        yield from put(rapp, keyspace, 5, before + 70, tid)
        (copy,) = copy_processes(cluster, "bank0", tid)
        assert (yield copy) == "bank1"
        cluster.node("bank1").node.restart()
        while not view.available("bank1"):
            yield Timeout(cluster.engine, 100.0)
        assert view.fail_count("bank1") == 2     # suspected, then restarted
        committed = yield from rapp.end_transaction(tid)
        return committed

    validation = counter(cluster, "bank0", "replication.validation_abort")
    assert cluster.run_on("bank0", txn()) is False
    assert "missed a write" in rapp.refusal
    assert counter(cluster, "bank0", "replication.validation_abort") \
        == validation + 1
    cluster.settle(extra_ms=10_000.0)
    for node in ("bank0", "bank1"):
        assert committed_balance(cluster, node, keyspace, 5) == before
    assert audit_replica_convergence(cluster) == []


def test_a_copy_queued_behind_a_skipped_one_skips_without_waiting_again():
    """Two writes to the same replica server: the second copy waits for
    the first, finds it skipped the node, and skips too, at once."""
    cluster, topology = build_replicated(seed=109)
    rapp = spied(cluster, "bank0")
    keyspace = topology.account_server(0)
    counted = degraded(cluster)
    view = cluster.node("bank0").replication.view
    waits = []
    confirm = view.failure_confirmed

    def counted_wait(process, peer, fail_count, within_ms):
        waits.append(peer)
        return (yield from confirm(process, peer, fail_count, within_ms))

    view.failure_confirmed = counted_wait
    cluster.crash_node("bank1")
    finished = []

    def body(tid):
        yield from put(rapp, keyspace, 6, 600, tid)
        yield from put(rapp, keyspace, 7, 700, tid)
        first, second = copy_processes(cluster, "bank0", tid)
        for copy in (first, second):
            assert (yield copy) == "bank1"
            finished.append(cluster.engine.now)

    cluster.run_on("bank0", run_transaction(rapp, body))
    assert finished[0] == finished[1] and waits == ["bank1"]
    assert degraded(cluster) == counted + 2
    assert committed_balance(cluster, "bank0", keyspace, 6) == 600
    assert committed_balance(cluster, "bank0", keyspace, 7) == 700


def bind_copy(cluster, rapp, keyspace, row):
    """Write ``row`` once so the home node holds a binding for bank1's
    copy: a later copy's lookup is answered at once and its call starts."""
    balance = committed_balance(cluster, "bank0", keyspace, row)
    cluster.run_on("bank0", run_transaction(rapp,
        lambda tid: put(rapp, keyspace, row, balance, tid)))
    return balance


def test_a_copy_whose_call_never_posted_is_a_degraded_write():
    """bank1 crashes inside the copy's request leg, before the post: the
    call fails ``NotPosted``, the family's spanning tree does not list
    bank1, so the copy waits for the suspicion and skips it."""
    cluster, topology = build_replicated(seed=113)
    rapp = spied(cluster, "bank0")
    keyspace = topology.account_server(0)
    before = bind_copy(cluster, rapp, keyspace, 8)
    home = cluster.node("bank0")
    counted = degraded(cluster)

    def body(tid):
        yield from put(rapp, keyspace, 8, before + 80, tid)
        (copy,) = copy_processes(cluster, "bank0", tid)
        yield Timeout(cluster.engine, 10.0)
        cluster.crash_node("bank1")
        assert (yield copy) == "bank1"
        assert not home.cm.reached(tid, "bank1")

    cluster.run_on("bank0", run_transaction(rapp, body))
    assert degraded(cluster) == counted + 1
    assert home.replication.view._awaiting == {}
    assert rapp._behind == {} and rapp._footprints == {}
    assert committed_balance(cluster, "bank0", keyspace, 8) == before + 80


def test_a_copy_to_a_node_the_family_reached_still_refuses():
    """Rule 1: an earlier copy of the transaction reached bank1, so when
    a later copy's call to bank1 never posts, the family's work there
    died with the node -- the copy fails at once, without waiting for
    the detector, and the commit is refused."""
    cluster, topology = build_replicated(seed=127)
    rapp = spied(cluster, "bank0")
    keyspace = topology.account_server(0)
    before = bind_copy(cluster, rapp, keyspace, 9)
    home = cluster.node("bank0")
    counted = degraded(cluster)
    waits = []
    confirm = home.replication.view.failure_confirmed

    def counted_wait(process, peer, fail_count, within_ms):
        waits.append(peer)
        return (yield from confirm(process, peer, fail_count, within_ms))

    home.replication.view.failure_confirmed = counted_wait

    def body(tid):
        yield from put(rapp, keyspace, 9, before + 90, tid)
        (first,) = copy_processes(cluster, "bank0", tid)
        assert (yield first) is None
        assert home.cm.reached(tid, "bank1")
        yield from put(rapp, keyspace, 10, 100, tid)
        yield Timeout(cluster.engine, 10.0)
        cluster.crash_node("bank1")

    with pytest.raises(TransactionAborted,
                       match=f"write-behind:.*{keyspace}@bank1 failed: "
                             "NotPosted"):
        cluster.run_on("bank0", run_transaction(rapp, body))
    assert waits == [] and degraded(cluster) == counted
    assert rapp._behind == {} and rapp._footprints == {}
    assert committed_balance(cluster, "bank0", keyspace, 9) == before
