"""Degraded service, not outage: routing around a dead replica."""

from tests.replication.conftest import build_replicated

from repro.app.library import run_transaction
from repro.replication.router import ReplicatedApp
from repro.workloads.debitcredit import replicated_debitcredit_txn
from repro.workloads.debitcredit import TxnSpec


def counter(cluster, node, name):
    return cluster.metrics.counter(node, name).value


class TestReadFailover:
    def test_read_fails_over_past_a_crashed_replica(self):
        """Branch 1's key-spaces anchor on bank1; with bank1 dead (and
        not yet suspected) a read from bank0 times out there and fails
        over to the local copy."""
        cluster, topology = build_replicated(seed=11)
        cluster.crash_node("bank1")
        rapp = ReplicatedApp(cluster, "bank0")
        keyspace = topology.account_server(1)
        assert cluster.placement.replicas(keyspace)[0] == "bank1"

        def txn():
            tid = yield from rapp.begin_transaction()
            reply = yield from rapp.read(keyspace, "get_balance",
                                         {"row": 1}, tid)
            committed = yield from rapp.end_transaction(tid)
            return reply, committed

        reply, committed = cluster.run_on("bank0", txn())
        assert "balance" in reply
        assert committed is True
        assert counter(cluster, "bank0", "replication.read_failover") >= 1

    def test_suspected_replica_is_skipped_without_an_attempt(self):
        """Once the detector has spoken, reads go straight to a live
        copy -- no timeout paid, no failover counted."""
        cluster, topology = build_replicated(seed=13)
        cluster.crash_node("bank1")
        view = cluster.node("bank0").replication.view
        view.observe(0.0, "bank0", "suspect", "bank1")
        rapp = ReplicatedApp(cluster, "bank0")

        def txn():
            tid = yield from rapp.begin_transaction()
            reply = yield from rapp.read(topology.account_server(1),
                                         "get_balance", {"row": 1}, tid)
            yield from rapp.end_transaction(tid)
            return reply

        reply = cluster.run_on("bank0", txn())
        assert "balance" in reply
        assert counter(cluster, "bank0", "replication.read_failover") == 0


class TestDegradedWrites:
    def test_transactions_commit_with_one_replica_down(self):
        cluster, topology = build_replicated(seed=17)
        cluster.crash_node("bank1")
        view = cluster.node("bank0").replication.view
        view.observe(0.0, "bank0", "suspect", "bank1")
        rapp = ReplicatedApp(cluster, "bank0")
        spec = TxnSpec(home_branch=0, teller=1, account_branch=0,
                       account=3, amount=10)

        def body(tid):
            yield from replicated_debitcredit_txn(rapp, topology, spec, tid)

        cluster.run_on("bank0", run_transaction(rapp, body))
        assert counter(cluster, "bank0",
                       "replication.write_all_degraded") >= 1
        assert counter(cluster, "bank0",
                       "replication.validation_abort") == 0

    def test_degraded_write_skips_the_down_copy(self):
        """The surviving copy carries the new value; the dead copy keeps
        the old one until catch-up (audited in test_catchup)."""
        cluster, topology = build_replicated(seed=19)
        rapp = ReplicatedApp(cluster, "bank0")
        keyspace = topology.branch_server(0)

        def read_balance():
            tid = yield from rapp.begin_transaction()
            reply = yield from rapp.read(keyspace, "get_balance",
                                         {"row": 1}, tid)
            yield from rapp.end_transaction(tid)
            return reply["balance"]

        before = cluster.run_on("bank0", read_balance())
        cluster.crash_node("bank1")
        cluster.node("bank0").replication.view.observe(
            0.0, "bank0", "suspect", "bank1")

        def update(tid):
            yield from rapp.write_all(keyspace, "add_to_balance",
                                      {"row": 1, "amount": 100}, tid)

        cluster.run_on("bank0", run_transaction(rapp, update))
        after = cluster.run_on("bank0", read_balance())
        assert after == before + 100
