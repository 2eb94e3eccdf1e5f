"""Ablations of the design choices the paper discusses.

1. **Value versus operation logging** -- the empirical comparison the
   paper's Conclusions promise ("we plan to empirically compare the
   relative merits of value and operation logging"): per-transaction
   latency, log bytes, and crash-recovery work for the same workload
   under each algorithm.
2. **Checkpoint frequency versus recovery effort** -- checkpoints "serve
   to reduce the amount of log data that must be available for crash
   recovery and shorten the time to recover" (Section 2.1.3).
3. **Time-outs versus a deadlock detector** -- TABS resolves deadlock by
   time-outs; other systems run wait-for-graph detectors (Obermarck, R*).
   How long does a deadlocked pair stall under each policy?
4. **Datagram loss versus distributed commit** -- the commit protocol uses
   unacknowledged datagrams; lost prepares abort transactions after the
   vote time-out rather than wedging them.
"""

import pytest

from benchmarks.conftest import write_result
from repro.core.cluster import TabsCluster
from repro.core.config import TabsConfig
from repro.locking.deadlock import DeadlockDetector
from repro.servers.int_array import IntegerArrayServer
from repro.servers.op_array import OperationArrayServer
from repro.sim import Timeout
from repro.wal import encode_record
from repro.wal.records import OperationRecord, ValueUpdateRecord


# ---------------------------------------------------------------------------
# Ablation 1: value versus operation logging
# ---------------------------------------------------------------------------

def run_logging_workload(use_operation_logging: bool, transactions: int = 20):
    cluster = TabsCluster(TabsConfig())
    cluster.add_node("n1")
    if use_operation_logging:
        cluster.add_server("n1", OperationArrayServer.factory("arr"))
        op, extra = "add_cell", {"delta": 1}
    else:
        cluster.add_server("n1", IntegerArrayServer.factory("arr"))
        op, extra = "set_cell", {"value": 1}
    cluster.start()
    app = cluster.application("n1", measured=True)
    ref = cluster.run_on("n1", app.lookup_one("arr"))
    tabs = cluster.node("n1")

    def one(iteration):
        tid = yield from app.begin_transaction()
        yield from app.call(ref, op, {"cell": (iteration % 50) + 1, **extra},
                            tid)
        yield from app.end_transaction(tid)

    cluster.run_on("n1", one(0))
    started = cluster.engine.now
    for iteration in range(1, transactions + 1):
        cluster.run_on("n1", one(iteration))
    elapsed = (cluster.engine.now - started) / transactions

    durable = tabs.rm.wal.read_forward(tabs.rm.wal.store.truncated_before)
    recovery_records = [r for r in durable
                        if isinstance(r, (ValueUpdateRecord,
                                          OperationRecord))]
    log_bytes = sum(len(encode_record(r)) for r in recovery_records)

    crash_started = cluster.engine.now
    cluster.crash_node("n1")
    report = cluster.restart_node("n1")
    recovery_ms = cluster.engine.now - crash_started
    return {
        "elapsed_ms": elapsed,
        "log_bytes_per_txn": log_bytes / transactions,
        "recovery_ms": recovery_ms,
        "records_scanned": report.log_records_scanned,
    }


def run_region_workload(use_operation_logging: bool, transactions: int = 10,
                        region_cells: int = 64):
    """Initialise a 64-cell region per transaction.

    Value logging must spool one old/new record per cell; operation
    logging captures the whole multi-page region in a single
    ``fill_range`` record -- the advantage Section 2.1.3 claims.
    """
    cluster = TabsCluster(TabsConfig())
    cluster.add_node("n1")
    if use_operation_logging:
        cluster.add_server("n1", OperationArrayServer.factory("arr"))
    else:
        cluster.add_server("n1", IntegerArrayServer.factory("arr"))
    cluster.start()
    app = cluster.application("n1")
    ref = cluster.run_on("n1", app.lookup_one("arr"))
    tabs = cluster.node("n1")

    def one(iteration):
        tid = yield from app.begin_transaction()
        if use_operation_logging:
            yield from app.call(ref, "fill_range",
                                {"start": 1, "count": region_cells,
                                 "value": iteration}, tid)
        else:
            for cell in range(1, region_cells + 1):
                yield from app.call(ref, "set_cell",
                                    {"cell": cell, "value": iteration},
                                    tid)
        yield from app.end_transaction(tid)

    started = cluster.engine.now
    for iteration in range(transactions):
        cluster.run_on("n1", one(iteration))
    elapsed = (cluster.engine.now - started) / transactions
    durable = tabs.rm.wal.read_forward(tabs.rm.wal.store.truncated_before)
    recovery_records = [r for r in durable
                        if isinstance(r, (ValueUpdateRecord,
                                          OperationRecord))]
    return {
        "elapsed_ms": elapsed,
        "records_per_txn": len(recovery_records) / transactions,
        "log_bytes_per_txn": sum(len(encode_record(r))
                                 for r in recovery_records) / transactions,
    }


@pytest.fixture(scope="module")
def logging_comparison():
    return {"value": run_logging_workload(False),
            "operation": run_logging_workload(True)}


@pytest.fixture(scope="module")
def region_comparison():
    return {"value": run_region_workload(False),
            "operation": run_region_workload(True)}


def test_render_logging_ablation(logging_comparison, region_comparison,
                                 benchmark):
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    lines = ["Ablation: value vs operation logging", "=" * 37,
             "single-cell updates:"]
    for name, stats in logging_comparison.items():
        lines.append(f"  {name:10s} elapsed={stats['elapsed_ms']:7.1f} ms  "
                     f"log={stats['log_bytes_per_txn']:7.1f} B/txn  "
                     f"recovery={stats['recovery_ms']:8.1f} ms "
                     f"({stats['records_scanned']} records)")
    lines.append("64-cell (multi-page) region updates:")
    for name, stats in region_comparison.items():
        lines.append(f"  {name:10s} elapsed={stats['elapsed_ms']:7.1f} ms  "
                     f"log={stats['log_bytes_per_txn']:7.1f} B/txn  "
                     f"records={stats['records_per_txn']:5.1f}/txn")
    write_result("ablation_logging.txt", "\n".join(lines))


def test_operation_records_are_smaller(region_comparison):
    """One record per multi-page region versus one per cell: 'operations
    on multi-page objects can be recorded in one log record' and the
    algorithm 'may require less log space'."""
    assert region_comparison["operation"]["records_per_txn"] == 1
    assert region_comparison["value"]["records_per_txn"] == 64
    assert region_comparison["operation"]["log_bytes_per_txn"] < \
        region_comparison["value"]["log_bytes_per_txn"] / 5


def test_region_update_is_much_faster_under_operation_logging(
        region_comparison):
    assert region_comparison["operation"]["elapsed_ms"] < \
        region_comparison["value"]["elapsed_ms"] / 3


def test_forward_latency_is_comparable_for_single_cells(logging_comparison):
    ratio = (logging_comparison["operation"]["elapsed_ms"]
             / logging_comparison["value"]["elapsed_ms"])
    assert 0.8 < ratio < 1.2


# ---------------------------------------------------------------------------
# Ablation 2: checkpoint frequency versus recovery effort
# ---------------------------------------------------------------------------

def run_checkpoint_sweep(checkpoint_every: int | None,
                         transactions: int = 60):
    cluster = TabsCluster(TabsConfig())
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("arr"))
    cluster.start()
    app = cluster.application("n1")
    ref = cluster.run_on("n1", app.lookup_one("arr"))
    tabs = cluster.node("n1")

    def one(iteration):
        tid = yield from app.begin_transaction()
        yield from app.call(ref, "set_cell",
                            {"cell": (iteration % 20) + 1, "value": 1}, tid)
        yield from app.end_transaction(tid)

    for iteration in range(transactions):
        cluster.run_on("n1", one(iteration))
        if checkpoint_every and (iteration + 1) % checkpoint_every == 0:
            cluster.run_on("n1", tabs.rm.take_checkpoint({}, flush=True))
    started = cluster.engine.now
    cluster.crash_node("n1")
    report = cluster.restart_node("n1")
    return {"recovery_ms": cluster.engine.now - started,
            "values_restored": report.values_restored}


@pytest.fixture(scope="module")
def checkpoint_sweep():
    return {interval: run_checkpoint_sweep(interval)
            for interval in (None, 30, 10)}


def test_render_checkpoint_ablation(checkpoint_sweep, benchmark):
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    lines = ["Ablation: checkpoint interval vs recovery effort", "=" * 48]
    for interval, stats in checkpoint_sweep.items():
        label = "never" if interval is None else f"every {interval} txns"
        lines.append(f"checkpoint {label:15s} recovery="
                     f"{stats['recovery_ms']:8.1f} ms  objects restored="
                     f"{stats['values_restored']}")
    write_result("ablation_checkpoints.txt", "\n".join(lines))


def test_frequent_checkpoints_shrink_recovery(checkpoint_sweep):
    assert checkpoint_sweep[10]["values_restored"] <= \
        checkpoint_sweep[30]["values_restored"] <= \
        checkpoint_sweep[None]["values_restored"]
    assert checkpoint_sweep[10]["values_restored"] < \
        checkpoint_sweep[None]["values_restored"]


# ---------------------------------------------------------------------------
# Ablation 3: time-outs versus a deadlock detector
# ---------------------------------------------------------------------------

def run_deadlock(policy: str, lock_timeout_ms: float = 10_000.0,
                 detector_period_ms: float = 1_000.0):
    """Two transactions lock cells 1/2 in opposite orders; returns the
    simulated time until both have finished (one aborted, one committed)."""
    cluster = TabsCluster(TabsConfig(lock_timeout_ms=lock_timeout_ms))
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("arr"))
    cluster.start()
    app = cluster.application("n1")
    ref = cluster.run_on("n1", app.lookup_one("arr"))
    tabs = cluster.node("n1")
    server = tabs.servers["arr"]

    outcomes = []

    def contender(first_cell, second_cell, start_delay_ms):
        # Staggered starts: with identical time-outs both victims of a
        # symmetric deadlock expire together and *both* abort -- a known
        # weakness of the time-out policy the stagger sidesteps, so the
        # ablation measures resolution latency, not the pathology.
        yield Timeout(cluster.engine, start_delay_ms)
        tid = yield from app.begin_transaction()
        try:
            yield from app.call(ref, "set_cell",
                                {"cell": first_cell, "value": 1}, tid)
            yield Timeout(cluster.engine, 500.0)
            yield from app.call(ref, "set_cell",
                                {"cell": second_cell, "value": 1}, tid)
            ok = yield from app.end_transaction(tid)
            outcomes.append("committed" if ok else "aborted")
        except Exception:
            yield from app.abort_transaction(tid)
            outcomes.append("aborted")

    processes = [cluster.spawn_on("n1", contender(1, 2, 0.0)),
                 cluster.spawn_on("n1", contender(2, 1, 300.0))]

    if policy == "detector":
        detector = DeadlockDetector([server.library.locks])

        def watch():
            while any(p.alive for p in processes):
                yield Timeout(cluster.engine, detector_period_ms)
                victim = detector.choose_victim()
                if victim is not None:
                    yield from app.abort_transaction(
                        victim, reason="deadlock detected")

        cluster.spawn_on("n1", watch())

    started = cluster.engine.now
    for process in processes:
        cluster.engine.run_until(process)
    assert sorted(outcomes) == ["aborted", "committed"]
    return cluster.engine.now - started


@pytest.fixture(scope="module")
def deadlock_times():
    return {"timeout": run_deadlock("timeout"),
            "detector": run_deadlock("detector")}


def test_render_deadlock_ablation(deadlock_times, benchmark):
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    lines = ["Ablation: deadlock resolution policy", "=" * 36]
    for policy, stall in deadlock_times.items():
        lines.append(f"{policy:10s} resolved after {stall:8.1f} ms")
    write_result("ablation_deadlock.txt", "\n".join(lines))


def test_detector_resolves_faster_than_timeouts(deadlock_times):
    assert deadlock_times["detector"] < deadlock_times["timeout"] / 2


# ---------------------------------------------------------------------------
# Ablation 4: datagram loss versus distributed commit
# ---------------------------------------------------------------------------

def run_lossy_commits(loss_rate: float, transactions: int = 12):
    cluster = TabsCluster(TabsConfig(datagram_loss_rate=loss_rate))
    for name in ("a", "b"):
        cluster.add_node(name)
        cluster.add_server(name, IntegerArrayServer.factory(f"arr_{name}"))
    cluster.start()
    # Shorten the vote time-out so lost prepares abort quickly.
    cluster.node("a").tm.vote_timeout_ms = 3_000.0
    cluster.node("a").tm.ack_timeout_ms = 1_000.0
    cluster.node("b").tm.ack_timeout_ms = 1_000.0
    app = cluster.application("a")
    local = cluster.run_on("a", app.lookup_one("arr_a"))
    remote = cluster.run_on("a", app.lookup_one("arr_b"))

    committed = 0
    for iteration in range(transactions):
        def body():
            tid = yield from app.begin_transaction()
            yield from app.call(local, "set_cell",
                                {"cell": 1, "value": iteration}, tid)
            yield from app.call(remote, "set_cell",
                                {"cell": 1, "value": iteration}, tid)
            ok = yield from app.end_transaction(tid)
            return ok

        if cluster.run_on("a", body()):
            committed += 1
        cluster.settle(extra_ms=8_000.0)
    return committed / transactions


def test_datagram_loss_costs_commits_but_never_wedges(benchmark):
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    reliable = run_lossy_commits(0.0)
    lossy = run_lossy_commits(0.35)
    write_result("ablation_datagram_loss.txt", "\n".join([
        "Ablation: datagram loss vs 2-node commit success", "=" * 48,
        f"loss=0.00  commit rate={reliable:.2f}",
        f"loss=0.35  commit rate={lossy:.2f}",
    ]))
    assert reliable == 1.0
    assert lossy < 1.0  # lost prepares/votes abort some transactions
    assert lossy > 0.0  # but the system keeps making progress
