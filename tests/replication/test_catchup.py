"""Replica catch-up: the read barrier and convergence after a restart."""

import pytest

from tests.replication.conftest import build_replicated

from repro.app.library import run_transaction
from repro.core.config import ReplicationConfig
from repro.errors import ReplicaUnavailable
from repro.replication import audit_replica_convergence
from repro.replication.router import ReplicatedApp
from repro.workloads.debitcredit import (
    DebitCreditWorkload,
    TxnSpec,
    replicated_debitcredit_txn,
)


def counter(cluster, node, name):
    return cluster.metrics.counter(node, name).value


class TestReadBarrier:
    def test_catching_up_replica_refuses_gated_reads(self):
        cluster, topology = build_replicated(seed=23)
        keyspace = topology.account_server(1)  # anchored on bank1
        cluster.node("bank1").servers[keyspace].catchup_pending = True
        app = cluster.application("bank0")

        def probe():
            tid = yield from app.begin_transaction()
            ref = yield from app.lookup_one(keyspace, node_name="bank1")
            try:
                yield from app.call(ref, "get_balance", {"row": 1}, tid)
            except ReplicaUnavailable:
                yield from app.abort_transaction(tid, reason="barrier")
                return True
            yield from app.end_transaction(tid)
            return False

        assert cluster.run_on("bank0", probe()) is True

    def test_router_fails_over_past_the_barrier(self):
        cluster, topology = build_replicated(seed=29)
        keyspace = topology.account_server(1)
        cluster.node("bank1").servers[keyspace].catchup_pending = True
        rapp = ReplicatedApp(cluster, "bank0")

        def txn():
            tid = yield from rapp.begin_transaction()
            reply = yield from rapp.read(keyspace, "get_balance",
                                         {"row": 1}, tid)
            yield from rapp.end_transaction(tid)
            return reply

        reply = cluster.run_on("bank0", txn())
        assert "balance" in reply
        assert counter(cluster, "bank0", "replication.read_failover") >= 1

    def test_catchup_ops_pass_the_barrier(self):
        """The catch-up transactions themselves must not be refused, or
        two replicas recovering from a total shard outage could never
        merge from each other."""
        cluster, topology = build_replicated(seed=31)
        keyspace = topology.account_server(1)
        rapp = ReplicatedApp(cluster, "bank0")

        def seed_write(tid):
            yield from rapp.write_all(keyspace, "add_to_balance",
                                      {"row": 1, "amount": 1}, tid)

        cluster.run_on("bank0", run_transaction(rapp, seed_write))
        cluster.node("bank1").servers[keyspace].catchup_pending = True
        app = cluster.application("bank0")

        def probe():
            tid = yield from app.begin_transaction()
            ref = yield from app.lookup_one(keyspace, node_name="bank1")
            listing = yield from app.call(ref, "repl_cells", {}, tid)
            yield from app.end_transaction(tid)
            return listing

        listing = cluster.run_on("bank0", probe())
        assert listing["offsets"]


@pytest.fixture()
def recovered_cluster():
    """Commit; crash bank1; commit degraded; restart bank1 (running
    catch-up); return everything the assertions need."""
    cluster, topology = build_replicated(seed=37)
    rapp = ReplicatedApp(cluster, "bank0")

    def run_txn(spec):
        def body(tid):
            yield from replicated_debitcredit_txn(rapp, topology, spec, tid)
        cluster.run_on("bank0", run_transaction(rapp, body))

    run_txn(TxnSpec(home_branch=0, teller=1, account_branch=0,
                    account=1, amount=25))
    cluster.crash_node("bank1")
    cluster.node("bank0").replication.view.observe(
        0.0, "bank0", "suspect", "bank1")
    # Three degraded commits bank1 never saw: the catch-up must carry
    # their account, teller, branch, and history effects across.
    for account in (2, 3, 4):
        run_txn(TxnSpec(home_branch=0, teller=2, account_branch=0,
                        account=account, amount=40))
    cluster.restart_node("bank1")
    cluster.settle(extra_ms=5_000.0)
    cluster.node("bank0").replication.view.observe(
        0.0, "bank0", "restart-observed", "bank1")
    return cluster, topology


class TestCatchup:
    def test_barrier_drops_after_catchup(self, recovered_cluster):
        cluster, topology = recovered_cluster
        for keyspace in cluster.placement.keyspaces_on("bank1"):
            assert cluster.node("bank1").servers[keyspace] \
                .catchup_pending is False

    def test_catchup_transfers_pages_and_converges(self, recovered_cluster):
        cluster, _ = recovered_cluster
        assert counter(cluster, "bank1", "replica.catchup_pages") > 0
        assert audit_replica_convergence(cluster) == []

    def test_caught_up_replica_serves_current_values(self, recovered_cluster):
        """Read bank1's copy directly: it must show the balance from the
        commits it missed."""
        cluster, topology = recovered_cluster
        keyspace = topology.branch_server(0)
        app = cluster.application("bank1")

        def read():
            tid = yield from app.begin_transaction()
            ref = yield from app.lookup_one(keyspace, node_name="bank1")
            reply = yield from app.call(ref, "get_balance", {"row": 1}, tid)
            yield from app.end_transaction(tid)
            return reply["balance"]

        assert cluster.run_on("bank1", read()) == 25 + 3 * 40

    def test_full_replica_writes_resume(self, recovered_cluster):
        cluster, topology = recovered_cluster
        rapp = ReplicatedApp(cluster, "bank0")
        degraded_before = counter(cluster, "bank0",
                                  "replication.write_all_degraded")
        spec = TxnSpec(home_branch=0, teller=1, account_branch=0,
                       account=5, amount=5)

        def body(tid):
            yield from replicated_debitcredit_txn(rapp, topology, spec, tid)

        cluster.run_on("bank0", run_transaction(rapp, body))
        assert counter(cluster, "bank0", "replication.write_all_degraded") \
            == degraded_before
        assert audit_replica_convergence(cluster) == []


class TestOnlyStaleCellsAreCopied:
    def test_a_restart_that_missed_nothing_applies_nothing(self):
        """rf=2 DebitCredit traffic, settled, then the copy where the
        branch-0 key-spaces serialise restarts.  Every copy of every
        write holds the one version the serialising copy stamped, so
        catch-up reads each chunk's versions and finds nothing stale: no
        apply transaction, no page."""
        cluster, topology = build_replicated(seed=41)
        driver = DebitCreditWorkload(cluster, topology, seed=41)
        driver.schedule_traffic(txns=8)
        driver.run(until_ms=1_000_000.0)
        cluster.settle()
        assert driver.stats.outcomes() == {"committed": 8}
        assert cluster.placement.replicas(topology.branch_server(0)) \
            == ("bank0", "bank1")
        tracer = cluster.enable_tracing()
        cluster.crash_node("bank0")
        cluster.restart_node("bank0")
        cluster.settle(extra_ms=5_000.0)
        names = [span.name for span in tracer.spans]
        assert names.count("replica.catchup") \
            == len(cluster.placement.keyspaces_on("bank0"))
        assert "ds:repl_apply_batch" not in names
        assert counter(cluster, "bank0", "replica.catchup_pages") == 0
        assert "ds:repl_versions" in names
        for keyspace in cluster.placement.keyspaces_on("bank0"):
            assert cluster.node("bank0").servers[keyspace] \
                .catchup_pending is False
        assert audit_replica_convergence(cluster) == []


class TestNoPeerReachable:
    def test_a_peer_down_past_the_budget_is_skipped_and_the_copy_serves_itself(
            self):
        """bank1 restarts while bank0, the only other copy of every
        key-space, is down: each catch-up spends its retry budget on
        bank0, skips it, and serves the recovered local state."""
        cluster, topology = build_replicated(seed=43)
        cluster.crash_node("bank1")
        cluster.crash_node("bank0")
        cluster.restart_node("bank1")
        cluster.settle(extra_ms=5_000.0)
        hosted = cluster.placement.keyspaces_on("bank1")
        assert counter(cluster, "bank1",
                       "replication.catchup_skipped_peer") == len(hosted)
        assert counter(cluster, "bank1",
                       "replication.catchup_selfserve") == len(hosted)
        for keyspace in hosted:
            assert cluster.node("bank1").servers[keyspace] \
                .catchup_pending is False


class TestConvergenceAudit:
    def test_two_copies_of_one_cell_that_differ_are_reported(self):
        """A balance stored at bank1's copy alone, outside the router."""
        cluster, topology = build_replicated(seed=47)
        keyspace = topology.account_server(0)
        app = cluster.application("bank1")

        def stray_put():
            tid = yield from app.begin_transaction()
            ref = yield from app.lookup_one(keyspace, node_name="bank1")
            yield from app.call(ref, "put_balance",
                                {"row": 3, "balance": 999}, tid)
            assert (yield from app.end_transaction(tid))

        assert audit_replica_convergence(cluster) == []
        cluster.run_on("bank1", stray_put())
        violations = audit_replica_convergence(cluster)
        assert [v.kind for v in violations] == ["replica-divergence"]
        assert repr(keyspace) in violations[0].detail
        assert "'bank0': None" in violations[0].detail

    def test_a_key_space_with_one_copy_has_nothing_to_compare(self):
        cluster, topology = build_replicated(
            seed=47, replication=ReplicationConfig.available_copies(1))
        assert cluster.placement.replicas(topology.account_server(0)) \
            == ("bank0",)
        assert audit_replica_convergence(cluster) == []
