"""Replication observability: redundancy gauges and the barrier window.

Two signals ride on the metrics registry when replication is enabled:

- ``replication.available_copies[keyspace]`` -- a per-shard gauge of how
  many copies *this node* currently believes reachable.  It moves with
  the availability view (suspect / restart-observed / recovered), so a
  dashboard shows redundancy eroding before anything fails outright.
- ``replica.catchup_wait_ms`` -- a histogram of how long each recovering
  shard's read barrier stayed up: the per-shard degraded-service window.

And the commit's own account (ROADMAP item 7(a)): which log forces and
datagrams are the workload transaction's, and which spans say a
transaction is housekeeping.
"""

from tests.reconfig.conftest import counter
from tests.replication.conftest import build_replicated

from repro.app.library import run_transaction
from repro.kernel.costs import Primitive
from repro.perf.pathmodel import commit_path
from repro.replication.router import ReplicatedApp
from repro.workloads.debitcredit import TxnSpec, replicated_debitcredit_txn


def copies_gauge(cluster, node, keyspace):
    return cluster.metrics.gauge(
        node, f"replication.available_copies[{keyspace}]").value


class TestAvailableCopiesGauge:
    def test_primed_at_full_redundancy(self):
        """Installing the placement primes every locally hosted shard's
        gauge at rf (both copies reachable on a fresh cluster)."""
        cluster, _ = build_replicated(seed=41)
        keyspaces = cluster.placement.keyspaces_on("bank0")
        assert keyspaces
        for keyspace in keyspaces:
            assert copies_gauge(cluster, "bank0", keyspace) == 2

    def test_suspicion_drops_the_gauge(self):
        cluster, _ = build_replicated(seed=43)
        view = cluster.node("bank0").replication.view
        view.observe(0.0, "bank0", "suspect", "bank1")
        cluster.node("bank0").replication.refresh_copy_gauges()
        for keyspace in cluster.placement.keyspaces_on("bank0"):
            assert copies_gauge(cluster, "bank0", keyspace) == 1

    def test_recovery_restores_the_gauge(self):
        cluster, _ = build_replicated(seed=47)
        runtime = cluster.node("bank0").replication
        runtime.view.observe(0.0, "bank0", "suspect", "bank1")
        runtime.refresh_copy_gauges()
        runtime.view.observe(10.0, "bank0", "recovered", "bank1")
        runtime.refresh_copy_gauges()
        for keyspace in cluster.placement.keyspaces_on("bank0"):
            assert copies_gauge(cluster, "bank0", keyspace) == 2

    def test_detector_events_move_the_gauge_without_manual_refresh(self):
        """The fd_observers hook wires detector events to the gauges, in
        order (view first, then refresh) so the refresh reads the
        *updated* view."""
        cluster, _ = build_replicated(seed=53)
        node = cluster.node("bank0")
        keyspace = cluster.placement.keyspaces_on("bank0")[0]
        for observer in node.fd_observers:
            observer(0.0, "bank0", "suspect", "bank1")
        assert copies_gauge(cluster, "bank0", keyspace) == 1
        for observer in node.fd_observers:
            observer(5.0, "bank0", "recovered", "bank1")
        assert copies_gauge(cluster, "bank0", keyspace) == 2


class TestCatchupWaitHistogram:
    def test_recovery_observes_one_wait_per_replicated_shard(self):
        """Crash, degraded commit, restart: every replicated shard on the
        recovering node logs exactly one barrier window, in simulated
        ms, with ordered percentiles for the latency report."""
        cluster, topology = build_replicated(seed=59)
        rapp = ReplicatedApp(cluster, "bank0")

        def run_txn(spec):
            def body(tid):
                yield from replicated_debitcredit_txn(rapp, topology,
                                                      spec, tid)
            cluster.run_on("bank0", run_transaction(rapp, body))

        run_txn(TxnSpec(home_branch=0, teller=1, account_branch=0,
                        account=1, amount=25))
        cluster.crash_node("bank1")
        cluster.node("bank0").replication.view.observe(
            0.0, "bank0", "suspect", "bank1")
        run_txn(TxnSpec(home_branch=0, teller=2, account_branch=0,
                        account=2, amount=40))
        cluster.restart_node("bank1")
        cluster.settle(extra_ms=5_000.0)

        hist = cluster.metrics.histogram("bank1", "replica.catchup_wait_ms")
        replicated = [ks for ks in cluster.placement.keyspaces_on("bank1")
                      if len(cluster.placement.replicas(ks)) > 1]
        assert hist.count == len(replicated) > 0
        assert hist.min >= 0.0
        assert hist.p50 <= hist.p95 <= hist.p99 <= hist.max

    def test_fault_free_run_observes_nothing(self):
        """No recovery, no barrier: the histogram stays absent so the
        metrics snapshot of an unreplicated-path run is unchanged."""
        cluster, topology = build_replicated(seed=61)
        rapp = ReplicatedApp(cluster, "bank0")
        spec = TxnSpec(home_branch=0, teller=1, account_branch=0,
                       account=3, amount=10)

        def body(tid):
            yield from replicated_debitcredit_txn(rapp, topology, spec, tid)

        cluster.run_on("bank0", run_transaction(rapp, body))
        snapshot = cluster.metrics.snapshot()
        assert not any("catchup_wait" in name
                       for name in snapshot["histograms"])


class TestWhoseForcesTheyAre:
    def test_idle_rf2_commit_is_three_forces_and_four_datagrams(self):
        """The two-node update row of Table 5-3, ``commit_path(2,
        update=True)``: PREPARED forced at the subordinate, COMMITTED at
        both; prepare, vote, commit, ack.  Everything a loaded run counts
        above that per commit is other transactions' -- aborted attempts,
        three-node commits, maintenance -- not this one's."""
        cluster, topology = build_replicated(seed=41)
        rapp = ReplicatedApp(cluster, "bank0")
        spec = TxnSpec(home_branch=0, teller=1, account_branch=0,
                       account=1, amount=5)

        def run():
            cluster.run_on("bank0", run_transaction(rapp,
                lambda tid: replicated_debitcredit_txn(rapp, topology, spec,
                                                       tid)))
            cluster.settle()

        def counts():
            return (counter(cluster, "bank0", "wal.forces"),
                    counter(cluster, "bank1", "wal.forces"),
                    cluster.meter.count(Primitive.DATAGRAM))

        run()   # warm: binds bank1's copies
        before = counts()
        run()
        home, subordinate, datagrams = (
            now - then for now, then in zip(counts(), before))
        assert (home, subordinate) == (1, 2)
        assert datagrams == 4
        path = commit_path(2, update=True)
        assert (home + subordinate, datagrams) == (path.stable_writes,
                                                   path.datagrams)

    def test_maintenance_transactions_say_so_on_their_root_span(self):
        """Catch-up runs a stream of one-call transactions
        (``call_in_transaction``); their ``txn`` roots carry
        ``kind="maintenance"``, the workload's carry nothing."""
        cluster, topology = build_replicated(seed=67)
        tracer = cluster.enable_tracing()
        rapp = ReplicatedApp(cluster, "bank0")

        def run_txn(spec):
            cluster.run_on("bank0", run_transaction(rapp,
                lambda tid: replicated_debitcredit_txn(rapp, topology, spec,
                                                       tid)))

        run_txn(TxnSpec(home_branch=0, teller=1, account_branch=0,
                        account=1, amount=25))
        cluster.crash_node("bank1")
        cluster.node("bank0").replication.view.observe(
            0.0, "bank0", "suspect", "bank1")
        run_txn(TxnSpec(home_branch=0, teller=2, account_branch=0,
                        account=2, amount=40))
        cluster.restart_node("bank1")
        cluster.settle(extra_ms=5_000.0)

        by_id = {span.span_id: span for span in tracer.spans}
        roots = [span for span in tracer.spans if span.name == "txn"]
        maintenance = [span for span in roots
                       if span.attrs.get("kind") == "maintenance"]
        assert len(roots) - len(maintenance) == 2   # the two run_txn
        assert maintenance and {span.node for span in maintenance} \
            == {"bank1"}
        # Every repl_* call hangs off a maintenance root, and nothing
        # else does.
        for span in tracer.spans:
            if span.name.startswith("rpc:"):
                root = by_id[span.parent_id]
                assert (root.attrs.get("kind") == "maintenance") \
                    == span.name.startswith("rpc:repl_"), span.name
