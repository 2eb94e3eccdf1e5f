"""Determinism regression: a chaos run is a pure function of its seeds.

The whole point of simulation testing is replayability -- a failure seed
can be re-run under a debugger and behaves identically.  These tests
assert it end to end: same ``(seed, plan)`` must reproduce the *entire*
event trace (every datagram send/receive/loss, every crash, restart,
trigger, and transaction outcome) and the same final simulated clock;
a different seed must diverge.
"""

import hashlib
import json

from repro.chaos import (
    BitRotAt,
    CrashAt,
    FaultPlan,
    LinkFaultWindow,
    LogSectorRotAt,
    PartitionAt,
    TornWriteAt,
    random_plan,
)
from tests.chaos.conftest import run_scenario

PLAN = FaultPlan.of(
    CrashAt(350.0, "n1", restart_after_ms=450.0),
    PartitionAt(1_000.0, (("n0",), ("n1", "n2")), heal_after_ms=500.0),
    LinkFaultWindow(1_800.0, 2_600.0, "n0", "n2", loss=0.3, duplicate=0.2,
                    reorder=0.2))

CORRUPTION_PLAN = FaultPlan.of(
    TornWriteAt(900.0, "n1", restart_after_ms=500.0),
    LogSectorRotAt(1_600.0, "n0"),
    BitRotAt(2_100.0, "n2", salt=11),
    CrashAt(2_700.0, "n0", restart_after_ms=400.0))


def execute(seed: int):
    run = run_scenario(PLAN, seed=seed, transfers=10, run_ms=4_000.0,
                       trace_network=True)
    return run, run.controller.trace, run.cluster.engine.now


def test_same_seed_reproduces_run_exactly():
    run_a, trace_a, now_a = execute(seed=2026)
    run_b, trace_b, now_b = execute(seed=2026)
    assert len(trace_a) > 50, "trace suspiciously empty"
    assert trace_a == trace_b
    assert now_a == now_b
    outcomes_a = [(r.index, r.outcome) for r in run_a.workload.stats.records]
    outcomes_b = [(r.index, r.outcome) for r in run_b.workload.stats.records]
    assert outcomes_a == outcomes_b


# Digests of the canonical (PLAN, seed=2026) run under the default
# ``pipeline="paper"`` configuration.  A refactor keeps them byte for
# byte; a deliberate change to default behaviour re-pins them once and
# says what moved.  Last re-pinned when the spanning tree came to be
# written as a request is posted (docs/PROTOCOL.md "Remote
# operation"): metrics f4e7f1c6... -> 48540296...; the trace did not move.
# ``n2/tm.aborts`` falls 4 -> 3.  At 2 852.6 ms n1's call of ``n1.2``
# to n2 found n2 unreachable before posting; it used to enter n2 in the
# family's tree anyway, so n1's restart at 3 525 ms had n2 walk ``n1.2``
# as a peer failure ("peer n1 restarted").  Every other remote-sites
# notice now leaves half a call (44.5 ms) later.  The final clock and
# all ten outcomes are unchanged.
GOLDEN_TRACE_SHA = \
    "7d3ee81d80f1afc0402e2aac934835b03f9440ec09899dbb7058888de3a82ef9"
GOLDEN_METRICS_SHA = \
    "48540296d9401d61579071fd32a32840fabe8c5dec28c548825ff61c8c107f8f"
GOLDEN_FINAL_NOW = 125571.71966982371


def test_paper_pipeline_matches_prerefactor_goldens():
    """The paper pipeline is byte-identical to the pre-refactor code.

    If this fails, a change altered default behaviour -- either gate it
    behind :class:`~repro.core.config.CommitConfig` or (for a deliberate
    semantic change) recapture the digests and say so in the commit.
    """
    from repro.obs import metrics_json

    run, trace, now = execute(seed=2026)
    trace_sha = hashlib.sha256(repr(trace).encode()).hexdigest()
    metrics_sha = hashlib.sha256(json.dumps(
        metrics_json(run.cluster.metrics),
        sort_keys=True).encode()).hexdigest()
    assert now == GOLDEN_FINAL_NOW
    assert trace_sha == GOLDEN_TRACE_SHA
    assert metrics_sha == GOLDEN_METRICS_SHA


def test_profiled_run_matches_goldens_byte_for_byte():
    """The wall-clock profiler's zero-feedback invariant, end to end.

    Running the canonical chaos scenario with ``enable_profiling()`` on
    must reproduce the *same* golden digests as the unprofiled run: the
    profiler reads the wall clock but feeds nothing back into simulated
    state, so the event trace, the metrics dump, and the final clock are
    untouched down to the byte.  The tracer is on too, so every process
    resumption is timed and booked to a span component.
    """
    from repro.obs import metrics_json

    def instrument(cluster):
        cluster.enable_tracing()
        cluster.enable_profiling()

    run = run_scenario(PLAN, seed=2026, transfers=10, run_ms=4_000.0,
                       trace_network=True, instrument=instrument)
    trace_sha = hashlib.sha256(
        repr(run.controller.trace).encode()).hexdigest()
    metrics_sha = hashlib.sha256(json.dumps(
        metrics_json(run.cluster.metrics),
        sort_keys=True).encode()).hexdigest()
    assert run.cluster.engine.now == GOLDEN_FINAL_NOW
    assert trace_sha == GOLDEN_TRACE_SHA
    assert metrics_sha == GOLDEN_METRICS_SHA
    # ... and the profiler did actually observe the run.  (It attaches
    # after build_cluster's startup events, so steps <= lifetime total.)
    profiler = run.cluster.ctx.profiler
    assert 0 < profiler.steps <= run.cluster.engine.events_executed
    assert profiler.handlers, "profiler attributed no handler categories"
    assert {"WAL", "TM", "sim"} <= set(profiler.components)


def test_different_seed_diverges():
    _, trace_a, _ = execute(seed=2026)
    _, trace_b, _ = execute(seed=2027)
    assert trace_a != trace_b


def execute_corruption(seed: int):
    run = run_scenario(CORRUPTION_PLAN, seed=seed, transfers=10,
                       run_ms=4_500.0, trace_network=True,
                       archive_dump_at_ms=300.0)
    return run, run.controller.trace, run.cluster.engine.now


def test_corruption_faults_are_seed_deterministic():
    """Checksum detections, duplex repairs, salvages, and page repairs
    must replay exactly: the corruption fault surface (including the
    controller's RNG picks of target pages and log sectors) is part of
    the deterministic event trace."""
    run_a, trace_a, now_a = execute_corruption(seed=3131)
    run_b, trace_b, now_b = execute_corruption(seed=3131)
    assert trace_a == trace_b
    assert now_a == now_b
    assert {"torn-write", "archive-dump"} <= run_a.trace_kinds()
    from repro.obs import metrics_json

    assert metrics_json(run_a.cluster.metrics) == \
        metrics_json(run_b.cluster.metrics)


def test_corruption_weight_zero_leaves_random_plans_unchanged():
    """``corruption_weight=0`` must draw nothing from the plan RNG, so
    every historical ``(seed, plan)`` pair replays byte-identically."""
    nodes = ["n0", "n1", "n2"]
    for seed in range(40, 52):
        baseline = random_plan(seed=seed, nodes=nodes,
                               duration_ms=8_000.0, episodes=5)
        explicit = random_plan(seed=seed, nodes=nodes,
                               duration_ms=8_000.0, episodes=5,
                               corruption_weight=0)
        assert baseline == explicit


def execute_debitcredit(seed: int):
    """A fault-free DebitCredit run; returns its observable fingerprint.

    The workload threads one seed through spec draws, spawn jitter, and
    the cluster RNG, so the fingerprint (every outcome, the full metrics
    dump, the final clock) must be a pure function of ``seed``.
    """
    from repro.core.cluster import TabsCluster
    from repro.core.config import TabsConfig, WorkloadConfig
    from repro.obs import metrics_json
    from repro.workloads import DebitCreditWorkload

    config = TabsConfig(seed=seed, workload=WorkloadConfig(
        branches=2, accounts_per_branch=300, tellers_per_branch=4,
        locality=0.7))
    cluster = TabsCluster(config)
    topology = cluster.build_workload()
    driver = DebitCreditWorkload(cluster, topology, seed=seed)
    driver.schedule_traffic(txns=10)
    driver.run(60_000.0)
    cluster.settle()
    outcomes = [(r.index, r.outcome, r.spec) for r in driver.stats.records]
    metrics_sha = hashlib.sha256(json.dumps(
        metrics_json(cluster.metrics), sort_keys=True).encode()).hexdigest()
    return outcomes, metrics_sha, cluster.engine.now


def test_debitcredit_runs_are_seed_deterministic():
    """Same seed + config -> byte-identical metrics digest and clock."""
    outcomes_a, metrics_a, now_a = execute_debitcredit(seed=1306)
    outcomes_b, metrics_b, now_b = execute_debitcredit(seed=1306)
    assert outcomes_a == outcomes_b
    assert metrics_a == metrics_b
    assert now_a == now_b
    assert all(outcome == "committed" for _, outcome, _ in outcomes_a)


def test_debitcredit_different_seed_diverges():
    outcomes_a, metrics_a, _ = execute_debitcredit(seed=1306)
    outcomes_b, metrics_b, _ = execute_debitcredit(seed=1307)
    assert [spec for _, _, spec in outcomes_a] != \
        [spec for _, _, spec in outcomes_b]
    assert metrics_a != metrics_b


def test_corruption_weight_adds_corruption_episodes():
    nodes = ["n0", "n1", "n2"]
    plans = [random_plan(seed=seed, nodes=nodes, duration_ms=8_000.0,
                         episodes=6, corruption_weight=6)
             for seed in range(20)]
    kinds = {type(action).__name__
             for plan in plans for action in plan}
    assert {"TornWriteAt", "BitRotAt", "LostWriteAt",
            "LogSectorRotAt"} <= kinds
