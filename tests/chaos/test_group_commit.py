"""Torture tests for the group-commit pipeline.

The dangerous instant group commit introduces is the force window: several
transactions' commit records sit in the volatile log buffer awaiting one
shared stable-storage write.  A crash inside that window must be atomic
per transaction -- every waiter loses its commit (nothing was durable) and
none of them may have been acknowledged to a client.
:class:`CrashOnGroupForce` hits exactly that instant, via the pipeline's
``on_group_force`` hook.

The grouped pipeline must also preserve the harness's core property:
chaos runs stay a pure function of ``(seed, plan)``.
"""

from repro.chaos import (
    ChaosController,
    CrashAt,
    CrashOnGroupForce,
    FaultPlan,
)
from repro.chaos.workload import build_cluster
from repro.core.config import CommitConfig
from tests.chaos.conftest import run_scenario

CLIENTS = 6


def drive_window_crash(plan: FaultPlan, seed: int = 11):
    """Six concurrent two-cell transactions against one grouped-commit
    node; returns (controller, acked, cell values after quiescence)."""
    commit = CommitConfig.grouped(force_window_ms=5.0)
    cluster = build_cluster(1, seed=seed, commit=commit)
    controller = ChaosController(cluster, plan, seed=seed)
    controller.install()
    acked: dict[int, bool] = {}

    def worker(index: int):
        app = cluster.application("n0")
        ref = yield from app.lookup_one("bank0")
        tid = yield from app.begin_transaction()
        yield from app.call(ref, "set_cell",
                            {"cell": 2 * index + 1, "value": 100 + index},
                            tid)
        yield from app.call(ref, "set_cell",
                            {"cell": 2 * index + 2, "value": 200 + index},
                            tid)
        ok = yield from app.end_transaction(tid)
        acked[index] = ok

    for index in range(CLIENTS):
        cluster.spawn_on("n0", worker(index), name=f"client{index}")
    assert cluster.engine.drain(120_000.0), "failed to quiesce"

    values: dict[int, int] = {}

    def reader():
        app = cluster.application("n0")
        ref = yield from app.lookup_one("bank0")
        tid = yield from app.begin_transaction()
        for cell in range(1, 2 * CLIENTS + 1):
            reply = yield from app.call(ref, "get_cell", {"cell": cell}, tid)
            values[cell] = reply["value"]
        yield from app.abort_transaction(tid)

    process = cluster.spawn_on("n0", reader(), name="reader")
    cluster.engine.run_until(process)
    return controller, acked, values


def committed_clients(values: dict[int, int]) -> set[int]:
    return {index for index in range(CLIENTS)
            if values[2 * index + 1] == 100 + index
            and values[2 * index + 2] == 200 + index}


def assert_per_txn_atomicity(values: dict[int, int]) -> None:
    """Each transaction wrote two cells: both landed or neither did."""
    for index in range(CLIENTS):
        first = values[2 * index + 1]
        second = values[2 * index + 2]
        both = first == 100 + index and second == 200 + index
        neither = first == 0 and second == 0
        assert both or neither, \
            f"client {index} half-committed: cells=({first}, {second})"


def test_control_run_batches_and_commits_everything():
    """Without faults the six commits share one force window."""
    controller, acked, values = drive_window_crash(FaultPlan.of())
    assert committed_clients(values) == set(range(CLIENTS))
    assert all(acked.get(index) for index in range(CLIENTS))
    pipeline = controller.cluster.node("n0").rm.wal.group_pipeline
    assert pipeline is not None
    assert pipeline.coalesced >= CLIENTS
    # Group commit's whole point: fewer physical forces than commits.
    assert controller.cluster.node("n0").rm.wal.forces < CLIENTS


def test_crash_inside_force_window_commits_none():
    """A crash before the batched stable write loses every waiter --
    atomically, and without any client having been acknowledged."""
    plan = FaultPlan.of(CrashOnGroupForce("n0", min_batch=2,
                                          restart_after_ms=500.0))
    controller, acked, values = drive_window_crash(plan)

    fired = [event for event in controller.trace
             if event[1] == "group-force-crash"]
    assert len(fired) == 1, "crash trigger never fired"
    at, _, _, batch_size, _ = fired[0]
    assert batch_size >= 2, "crash hit a singleton batch"
    # The crash lands at the hook's own instant, not a poll later.
    assert (at, "crash", "n0") in {event[:3] for event in controller.trace}

    assert_per_txn_atomicity(values)
    # The crash fired before the stable write: none of the window's
    # waiters may be durable, and none may have been acknowledged.
    assert committed_clients(values) == set()
    assert not any(acked.values())


def test_node_recovers_and_commits_after_window_crash():
    """The crashed node comes back able to run new transactions."""
    plan = FaultPlan.of(CrashOnGroupForce("n0", min_batch=2,
                                          restart_after_ms=500.0))
    controller, _, _ = drive_window_crash(plan)
    cluster = controller.cluster
    outcome = {}

    def late_client():
        app = cluster.application("n0")
        ref = yield from app.lookup_one("bank0")
        tid = yield from app.begin_transaction()
        yield from app.call(ref, "set_cell", {"cell": 40, "value": 7}, tid)
        outcome["ok"] = yield from app.end_transaction(tid)

    process = cluster.spawn_on("n0", late_client(), name="late")
    cluster.engine.run_until(process)
    assert outcome["ok"]


def test_group_force_action_skips_paper_pipeline():
    """Arming the trigger against a paper-pipeline node records a skip."""
    cluster = build_cluster(1, seed=3)
    plan = FaultPlan.of(CrashOnGroupForce("n0"))
    controller = ChaosController(cluster, plan, seed=3)
    controller.install()
    assert ("group-force-watch-skipped" in
            {event[1] for event in controller.trace})
    assert cluster.engine.drain(60_000.0)


GROUPED_PLAN = FaultPlan.of(
    CrashAt(700.0, "n1", restart_after_ms=500.0),
    CrashAt(1_900.0, "n0", restart_after_ms=400.0))


def execute_grouped(seed: int):
    run = run_scenario(GROUPED_PLAN, seed=seed, transfers=10,
                       run_ms=4_000.0, trace_network=True,
                       commit=CommitConfig.grouped())
    return run, run.controller.trace, run.cluster.engine.now


def test_grouped_torture_keeps_invariants():
    """Crash/recovery torture under group commit + coalesced datagrams:
    conservation, atomicity, and durability audits must still pass."""
    run, _, _ = execute_grouped(seed=909)
    run.assert_clean()


def test_grouped_runs_are_seed_deterministic():
    """The grouped pipeline must not break replayability: same
    ``(seed, plan)``, same trace, same final clock."""
    _, trace_a, now_a = execute_grouped(seed=909)
    _, trace_b, now_b = execute_grouped(seed=909)
    assert trace_a == trace_b
    assert now_a == now_b
