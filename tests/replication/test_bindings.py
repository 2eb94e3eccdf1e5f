"""Bindings under replication: the router and the workloads call
``lookup_one`` per copy per operation and were not edited; the node's
binding table is what stops that from reaching the Name Server."""

from tests.reconfig.conftest import build_reconfig, counter
from tests.replication.conftest import build_replicated

from repro.app.library import run_transaction
from repro.replication import audit_replica_convergence
from repro.replication.router import ReplicatedApp
from repro.workloads.debitcredit import TxnSpec, replicated_debitcredit_txn


def broadcasts(cluster):
    return sum(tabs.ns.broadcasts for tabs in cluster.nodes.values()
               if tabs.node.alive)


def run_txn(cluster, topology, home, spec):
    # A new application object per transaction, as the open-loop
    # workloads build them: nothing is carried over on the caller's side.
    rapp = ReplicatedApp(cluster, home)

    def body(tid):
        yield from replicated_debitcredit_txn(rapp, topology, spec, tid)

    cluster.run_on(home, run_transaction(rapp, body))


def test_second_transaction_on_a_warm_node_broadcasts_nothing():
    """Eight ``lookup_one`` calls per transaction: four serialising
    calls (three ``add_to_balance``, one ``append``) and the four copies
    they name.  (Twelve while each tier was a for-update read and a put
    to two copies -- the read carried a number to the client only for
    the client to send it straight back; fourteen while the history
    append was a ``put_row`` and a ``put_strand_count``.)"""
    cluster, topology = build_replicated(seed=41)
    spec = TxnSpec(home_branch=0, teller=1, account_branch=0, account=1,
                   amount=5)
    run_txn(cluster, topology, "bank0", spec)
    warm = broadcasts(cluster)
    asked = counter(cluster, "bank0", "ns.lookups")
    hits = counter(cluster, "bank0", "ns.bind_hits")
    assert warm > 0   # the first one did resolve bank1's copies

    run_txn(cluster, topology, "bank0", spec)
    assert broadcasts(cluster) == warm
    assert counter(cluster, "bank0", "ns.lookups") == asked
    # all eight lookup_one calls of an rf=2 DebitCredit transaction
    assert counter(cluster, "bank0", "ns.bind_hits") - hits == 8
    assert audit_replica_convergence(cluster) == []


def test_migrated_shard_is_a_new_key_one_miss_then_hits():
    """A binding is keyed (key-space, node), so a committed migration
    needs no invalidation hook: the destination copy is a key nobody has
    bound yet, and the source's entry is simply never asked for again."""
    cluster, topology, manager = build_reconfig(seed=43, originator="bank1")
    keyspace = topology.account_server(0)
    spec = TxnSpec(home_branch=0, teller=1, account_branch=0, account=2,
                   amount=7)
    run_txn(cluster, topology, "bank0", spec)
    assert (keyspace, "bank1") in cluster.node("bank0").node.bindings
    manager.join("bank2")
    assert manager.run_migration(keyspace, "bank1", "bank2") is True
    assert cluster.placement.replicas(keyspace) == ("bank0", "bank2")
    assert (keyspace, "bank2") not in cluster.node("bank0").node.bindings

    before = broadcasts(cluster)
    run_txn(cluster, topology, "bank0", spec)
    bound = cluster.node("bank0").node.bindings[(keyspace, "bank2")]
    assert bound.node_name == "bank2" and bound.port.alive
    assert broadcasts(cluster) == before + 1   # the destination, once
    run_txn(cluster, topology, "bank0", spec)
    assert broadcasts(cluster) == before + 1
    assert audit_replica_convergence(cluster) == []


def test_write_all_reaches_a_restarted_replica_without_an_rpc_retry():
    """The dead port is what invalidates: once the detector reports the
    restart, the first write to the new incarnation misses the binding,
    asks once, and calls a fresh reference -- the stale one is never
    tried, so the RPC layer has nothing to retry."""
    cluster, topology = build_replicated(seed=47)
    spec = TxnSpec(home_branch=0, teller=1, account_branch=0, account=3,
                   amount=9)
    run_txn(cluster, topology, "bank0", spec)
    keyspace = topology.account_server(0)
    stale = cluster.node("bank0").node.bindings[(keyspace, "bank1")]

    view = cluster.node("bank0").replication.view
    cluster.crash_node("bank1")
    view.observe(0.0, "bank0", "suspect", "bank1")
    cluster.restart_node("bank1")
    cluster.settle(extra_ms=5_000.0)
    view.observe(0.0, "bank0", "restart-observed", "bank1")

    retries = counter(cluster, "bank0", "rpc.retries")
    degraded = counter(cluster, "bank0", "replication.write_all_degraded")
    run_txn(cluster, topology, "bank0", spec)
    fresh = cluster.node("bank0").node.bindings[(keyspace, "bank1")]
    assert fresh.epoch == stale.epoch + 1 and fresh.port.alive
    assert counter(cluster, "bank0", "rpc.retries") == retries
    assert counter(cluster, "bank0", "replication.write_all_degraded") \
        == degraded
    assert audit_replica_convergence(cluster) == []
