"""End-to-end flight-recorder guarantees.

Three contracts from the observability work:

1. **Byte determinism** -- two same-seed traced chaos runs export
   byte-identical Chrome JSON and JSONL (the trace is a pure function of
   the seed, like everything else in the simulation).
2. **Non-interference** -- tracing must not perturb the measured run: the
   Table 5-2/5-3 primitive counts of a traced benchmark equal the
   untraced ones exactly.
3. **Completeness** -- the span tree of one distributed write transaction
   contains the whole causal chain: client call, lock acquisition, log
   force, 2PC prepare, vote, commit, ack -- across both nodes.
"""

import pytest

from repro.app.library import run_transaction
from repro.chaos import (
    ChaosController,
    ChaosWorkload,
    CrashAt,
    FaultPlan,
    PartitionAt,
)
from repro.chaos.workload import build_cluster
from repro.core.config import TabsConfig
from repro.obs import chrome_trace_json, jsonl_events
from repro.perf.benchmarks import BENCHMARKS_BY_KEY, run_benchmark
from repro.replication.router import ReplicatedApp

CHAOS_PLAN = FaultPlan.of(
    CrashAt(300.0, "n1", restart_after_ms=400.0),
    PartitionAt(900.0, (("n0",), ("n1", "n2")), heal_after_ms=400.0))


def traced_chaos_run(seed: int = 2026):
    cluster = build_cluster(seed=seed)
    tracer = cluster.enable_tracing()
    controller = ChaosController(cluster, CHAOS_PLAN, seed=seed)
    workload = ChaosWorkload(cluster, controller, seed=seed)
    workload.setup()
    controller.install()
    workload.schedule_traffic(transfers=8, spacing_ms=100.0)
    workload.play(2_500.0)
    return cluster, tracer


class TestDetectorDecisions:
    def test_every_detector_decision_is_an_fd_event_on_the_observer(self):
        """Probes are in no trace; who declared whom dead, and when, is."""
        plan = FaultPlan.of(
            CrashAt(300.0, "n1", restart_after_ms=400.0),
            PartitionAt(1_000.0, (("n0",), ("n1", "n2")),
                        heal_after_ms=2_500.0))
        cluster = build_cluster(seed=7)
        tracer = cluster.enable_tracing()
        controller = ChaosController(cluster, plan, seed=7)
        workload = ChaosWorkload(cluster, controller, seed=7)
        workload.setup()
        controller.install()
        workload.schedule_traffic(transfers=2)
        workload.play(5_000.0)
        decisions = [(entry[0], entry[2], entry[3].replace("-", "_"),
                      entry[4]) for entry in controller.trace
                     if entry[1] == "fd"]
        events = [(event.time_ms, event.node, event.name[3:],
                   event.attrs["peer"]) for event in tracer.events
                  if event.name.startswith("fd.")]
        assert events == decisions
        assert {event[2] for event in events} == {
            "suspect", "restart_observed", "recovered"}
        assert all(event.component == "CM" for event in tracer.events
                   if event.name.startswith("fd."))
        assert not any(event.attrs.get("op", "").startswith("fd.")
                       for event in tracer.events)


class TestByteDeterminism:
    def test_same_seed_chaos_traces_are_byte_identical(self):
        (_, tracer_a) = traced_chaos_run(seed=2026)
        (_, tracer_b) = traced_chaos_run(seed=2026)
        assert len(tracer_a.spans) > 10, "trace suspiciously empty"
        assert chrome_trace_json(tracer_a) == chrome_trace_json(tracer_b)
        assert jsonl_events(tracer_a) == jsonl_events(tracer_b)

    def test_different_seed_diverges(self):
        (_, tracer_a) = traced_chaos_run(seed=2026)
        (_, tracer_b) = traced_chaos_run(seed=2027)
        assert chrome_trace_json(tracer_a) != chrome_trace_json(tracer_b)


def run_w1w1(traced: bool):
    captured = []

    def instrument(cluster):
        captured.append(cluster)
        if traced:
            cluster.enable_tracing()

    result = run_benchmark(BENCHMARKS_BY_KEY["w1w1"],
                           TabsConfig(seed=1985), iterations=3,
                           instrument=instrument)
    return result, captured[0]


@pytest.fixture(scope="module")
def w1w1_traced():
    return run_w1w1(traced=True)


class TestNonInterference:
    def test_primitive_counts_identical_traced_vs_untraced(self, w1w1_traced):
        """Tracing on must leave Tables 5-2/5-3 byte-for-byte unchanged."""
        traced_result, _ = w1w1_traced
        untraced_result, _ = run_w1w1(traced=False)
        assert traced_result.precommit_counts == \
            untraced_result.precommit_counts
        assert traced_result.commit_counts == untraced_result.commit_counts
        assert traced_result.elapsed_ms == untraced_result.elapsed_ms
        assert traced_result.tabs_process_ms == \
            untraced_result.tabs_process_ms

    def test_metrics_registry_identical_traced_vs_untraced(self, w1w1_traced):
        from repro.obs import metrics_json

        _, traced_cluster = w1w1_traced
        _, untraced_cluster = run_w1w1(traced=False)
        assert metrics_json(traced_cluster.metrics) == \
            metrics_json(untraced_cluster.metrics)


class TestSpanTreeCompleteness:
    def test_distributed_write_has_the_full_causal_chain(self, w1w1_traced):
        _, cluster = w1w1_traced
        tracer = cluster.ctx.tracer
        # Find a committed transaction family rooted in a txn span.
        roots = [span for span in tracer.spans
                 if span.name == "txn" and span.attrs.get("committed")]
        assert roots, "no committed txn root span recorded"
        root = roots[0]
        family = [span for span in tracer.spans
                  if span.family == root.family]
        names = {span.name for span in family}
        for required in ("txn", "rpc:set_cell", "ds:set_cell",
                         "lock.acquire", "rm.spool", "2pc.commit",
                         "2pc.prepare", "2pc.prepare_req", "2pc.vote",
                         "rm.force_status", "wal.force", "2pc.phase2",
                         "2pc.commit_req", "2pc.ack"):
            assert required in names, f"span {required!r} missing"
        # Both nodes participate in the one family tree.
        assert {span.node for span in family} == {"node0", "node1"}
        # Every family span reaches the root by walking parent links.
        by_id = {span.span_id: span for span in family}
        for span in family:
            current = span
            hops = 0
            while current.span_id != root.span_id:
                assert current.parent_id in by_id, \
                    f"{current.name} detached from the family tree"
                current = by_id[current.parent_id]
                hops += 1
                assert hops < 50
        # The cross-node hop: node1's prepare_req parents into node0's
        # prepare span; node0's vote parents into node1's prepare_req.
        prepare_req = next(s for s in family if s.name == "2pc.prepare_req")
        assert by_id[prepare_req.parent_id].node == "node0"
        vote = next(s for s in family if s.name == "2pc.vote")
        assert by_id[vote.parent_id].node == "node1"


# -- every span closes ---------------------------------------------------------

def open_spans_on_live_nodes(cluster):
    return [(span.name, span.node, span.start_ms)
            for span in cluster.ctx.tracer.spans
            if span.open and cluster.nodes[span.node].node.alive]


class TestNoSpanLeftOpen:
    """Spans open through one ``with`` scope, so every exit path closes
    them: at quiescence nothing on a live node is still open."""

    def test_debitcredit_with_lock_timeout_aborts(self):
        from repro.core.cluster import TabsCluster
        from repro.core.config import WorkloadConfig
        from repro.workloads import DebitCreditWorkload

        # One hot branch row, arrivals far faster than a transaction, and
        # a lock time-out shorter than one: waiters time out and abort.
        cluster = TabsCluster(TabsConfig(
            seed=7, lock_timeout_ms=300.0,
            workload=WorkloadConfig(branches=1, accounts_per_branch=20,
                                    tellers_per_branch=2)))
        cluster.enable_tracing()
        driver = DebitCreditWorkload(cluster, cluster.build_workload(),
                                     seed=7)
        driver.schedule_traffic(txns=12, spacing_ms=20.0)
        driver.run(until_ms=1_000_000.0)
        cluster.settle()
        outcomes = driver.stats.outcomes()
        assert outcomes.get("committed") and outcomes.get("aborted")
        waits = [span for span in cluster.ctx.tracer.spans
                 if span.name == "lock.wait"]
        assert any(span.attrs.get("error") == "LockTimeout"
                   for span in waits)
        assert open_spans_on_live_nodes(cluster) == []

    def test_canned_chaos_scenario(self):
        from repro.__main__ import _run_chaos_target

        cluster = _run_chaos_target(2026, traced=True)
        assert len(cluster.ctx.tracer.spans) > 100
        assert open_spans_on_live_nodes(cluster) == []

    def test_replicated_chaos_with_write_behind_copies_in_flight(self):
        """A write-behind copy is a process of its own; a crash (the home
        node's or the copy's) and the join must still close its spans.

        The rolling plan of tests/chaos/test_replication.py with both
        crashes 100 ms earlier: since each tier is one serialising call
        and one copy (not a read, a put and a copy), bank1 has nothing
        in flight at 2 000 ms; at 1 900 ms it dies with a remote
        ``add_to_balance`` and a write-behind ``put_balance`` open."""
        from tests.chaos.test_replication import WORKLOAD

        from repro.core.cluster import TabsCluster
        from repro.core.config import ReplicationConfig
        from repro.workloads import DebitCreditWorkload

        cluster = TabsCluster(TabsConfig(
            seed=515, workload=WORKLOAD,
            replication=ReplicationConfig.available_copies()))
        topology = cluster.build_workload()
        cluster.enable_tracing()
        plan = FaultPlan.of(
            CrashAt(1_900.0, "bank1", restart_after_ms=5_000.0),
            CrashAt(10_900.0, "bank0", restart_after_ms=5_000.0))
        controller = ChaosController(cluster, plan, seed=515)
        controller.install()
        driver = DebitCreditWorkload(cluster, topology,
                                     controller=controller, seed=515)
        driver.schedule_traffic(txns=40, spacing_ms=400.0)
        _, report = driver.play(24_000.0)
        assert report.ok, report.violations
        spans = cluster.ctx.tracer.spans
        roots = {span.span_id for span in spans if span.name == "txn"}
        assert any(span.attrs.get("truncated") == "crash"
                   and span.name.startswith("rpc:put_")
                   and span.attrs["target"] != span.node
                   and span.parent_id in roots for span in spans)
        assert open_spans_on_live_nodes(cluster) == []


class TestWriteBehindSpans:
    """One family, two calls in flight on the home node: the spans stay
    a tree (tests/replication/test_write_behind.py has the mechanism)."""

    def test_rf2_transaction_parents_every_call_where_it_was_made(self):
        """Eight ``rpc:`` spans: four serialising calls at the home
        copy (three ``add_to_balance``, one ``append``) and the four
        puts they name at the other.  (Twelve while each tier was a
        for-update read at one copy and a put to both; fourteen while
        the history append ended with a separate ``put_strand_count``.)"""
        from tests.replication.conftest import build_replicated

        from repro.workloads.debitcredit import (
            TxnSpec,
            replicated_debitcredit_txn,
        )

        cluster, topology = build_replicated(seed=41)
        tracer = cluster.enable_tracing()
        rapp = ReplicatedApp(cluster, "bank0")
        spec = TxnSpec(home_branch=0, teller=1, account_branch=0, account=1,
                       amount=5)
        cluster.run_on("bank0", run_transaction(rapp,
            lambda tid: replicated_debitcredit_txn(rapp, topology, spec,
                                                   tid)))
        cluster.settle()
        (root,) = [span for span in tracer.spans if span.name == "txn"
                   and span.node == "bank0" and span.attrs.get("committed")]
        by_id = {span.span_id: span for span in tracer.spans}
        family = [span for span in tracer.spans if span.family == root.family]
        calls = [span for span in family if span.name.startswith("rpc:")]
        # Four serialising calls here, the four copies they name there.
        assert len(calls) == 8
        assert sum(span.attrs["target"] == "bank1" for span in calls) == 4
        for call in calls:
            assert call.parent_id == root.span_id, call.name
        overlapped = [call for call in calls if any(
            other is not call and other.start_ms < call.end_ms
            and call.start_ms < other.end_ms for other in calls)]
        assert overlapped, "no write-behind call overlapped a foreground one"
        operations = [span for span in family if span.name.startswith("ds:")
                      and not span.name.startswith("ds:ds.")]
        assert len(operations) == 8
        for operation in operations:
            call = by_id[operation.parent_id]
            assert call.name == "rpc:" + operation.name[len("ds:"):]
            assert call.attrs["target"] == operation.node
            # The update executes where the client is; only the
            # absolute value it computed travels.
            assert operation.node == (
                "bank1" if operation.name.startswith("ds:put_") else "bank0")
        assert sorted(operation.name for operation in operations) == (
            ["ds:add_to_balance"] * 3 + ["ds:append"]
            + ["ds:put_balance"] * 3 + ["ds:put_row"])
        assert open_spans_on_live_nodes(cluster) == []


class TestScatteredServerSpans:
    """One family, four data-server calls in flight on one node: each is
    handled by a process of its own that starts in the context its
    message carried, so the ``ds:ds.*`` spans are siblings under the
    phase that sent them, not a chain."""

    def test_local_debitcredit_servers_are_siblings_under_their_phase(self):
        from repro.core.cluster import TabsCluster
        from repro.core.config import WorkloadConfig
        from repro.workloads import DebitCreditWorkload

        cluster = TabsCluster(TabsConfig(seed=11, workload=WorkloadConfig(
            branches=1, accounts_per_branch=50, tellers_per_branch=2)))
        tracer = cluster.enable_tracing()
        driver = DebitCreditWorkload(cluster, cluster.build_workload(),
                                     seed=11)
        driver.schedule_traffic(txns=6, spacing_ms=40.0)
        driver.run(until_ms=1_000_000.0)
        cluster.settle()
        assert driver.stats.outcomes() == {"committed": 6}
        by_id = {span.span_id: span for span in tracer.spans}
        for op, phase in (("ds:ds.prepare", "2pc.prepare"),
                          ("ds:ds.commit", "2pc.phase2")):
            by_parent: dict[int, list] = {}
            for span in tracer.spans:
                if span.name == op:
                    by_parent.setdefault(span.parent_id, []).append(span)
            assert len(by_parent) == 6
            for parent_id, siblings in by_parent.items():
                parent = by_id[parent_id]
                assert parent.name == phase
                # account, teller, branch, history
                assert len(siblings) == 4
                assert len({span.attrs["server"] for span in siblings}) == 4
                assert {span.node for span in siblings} == {parent.node}
                assert {span.family for span in siblings} == {parent.family}
                assert len({span.start_ms for span in siblings}) == 1
        assert open_spans_on_live_nodes(cluster) == []


class TestRf2Parentage:
    """Four clients of an rf=2 DebitCredit cluster: on every node, the
    families' serialising calls, write-behind copies and the servers'
    spooling overlap.  Each span still hangs off the process that caused
    it (docs/OBSERVABILITY.md "Parent rule")."""

    @pytest.fixture(scope="class")
    def run(self):
        import random

        from tests.replication.conftest import build_replicated

        from repro.workloads.debitcredit import (
            draw_spec,
            replicated_debitcredit_txn,
        )

        cluster, topology = build_replicated(seed=31)
        tracer = cluster.enable_tracing()
        rng = random.Random(5)
        committed = []

        def client(index):
            home = topology.client_home(index)
            rapp = ReplicatedApp(cluster, topology.node_name(home))
            for _ in range(15):
                spec = draw_spec(rng, cluster.config.workload, home)
                yield from run_transaction(rapp,
                    lambda tid, spec=spec: replicated_debitcredit_txn(
                        rapp, topology, spec, tid))
                committed.append(spec)

        for index in range(4):
            home = topology.client_home(index)
            cluster.spawn_on(topology.node_name(home), client(index))
        cluster.settle(extra_ms=5_000.0)
        assert len(committed) == 60
        return cluster, tracer, {span.span_id: span for span in tracer.spans}

    def test_every_spool_hangs_off_the_operation_of_the_server_it_logged(
            self, run):
        cluster, tracer, by_id = run
        spools = [span for span in tracer.spans if span.name == "rm.spool"]
        assert len(spools) == 600
        for spool in spools:
            record = cluster.node(spool.node).rm.wal.record_at(
                spool.attrs["lsn"])
            parent = by_id[spool.parent_id]
            assert parent.name.startswith("ds:"), parent.name
            assert (parent.node, parent.attrs["server"]) == \
                (spool.node, record.server)
        assert [spool for spool in spools
                if by_id[spool.parent_id].name == "rm.spool"] == []

    def test_every_write_behind_copy_hangs_off_its_family_root(self, run):
        _, tracer, _ = run
        roots = {span.family: span.span_id for span in tracer.spans
                 if span.name == "txn"}
        copies = [span for span in tracer.spans
                  if span.name.startswith("rpc:put_")]
        assert len(copies) == 240
        assert [copy.name for copy in copies
                if copy.parent_id != roots[copy.family]] == []
