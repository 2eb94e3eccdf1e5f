"""Simulator raw speed -- the meta-benchmark behind ROADMAP item 3.

Every other bench measures the *simulated* system; this one measures the
simulator.  Three representative workloads -- disjoint multi-client
throughput (pure event-loop churn), DebitCredit under the hot row (lock
waits + 2PC + group-commit machinery), and DebitCredit over rf=2
available-copies replication (write fan-out, the heaviest fabric) -- run
for a fixed simulated window while the harness records:

- **deterministic shape**: events scheduled/executed, daemon share, heap
  high-water, committed transactions, events per commit, and events per
  *simulated* second.  These are pure functions of the configuration and
  go into the committed ``BENCH_sim_speed.json`` baseline -- they gate
  *event-churn* regressions (a change that doubles the events behind one
  commit shows up here even if the wall clock forgives it).
- **wall speed**: simulated-events per wall second and wall seconds per
  simulated second.  Real time is nondeterministic, so these stay out of
  the committed baseline; the smoke gate applies a generous absolute
  floor that only an order-of-magnitude regression (an accidentally
  quadratic heap, say) can trip.

``python benchmarks/bench_sim_speed.py --json`` regenerates
``BENCH_sim_speed.json`` at the repository root (deterministic sections
only -- regenerating an unchanged tree is a no-op diff); ``--smoke``
runs the shortened CI variant and exits nonzero if the gate fails.
"""

import json
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # running as a script, not under pytest
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_ROOT / "src"))
    sys.path.insert(0, str(_ROOT))

import pytest

from benchmarks.conftest import (
    REPO_ROOT,
    baseline_main,
    drift_problems,
    write_result,
)
from repro.core.cluster import TabsCluster
from repro.core.config import ReplicationConfig, TabsConfig, WorkloadConfig
from repro.perf.debitcredit import run_debitcredit
from repro.perf.throughput import run_throughput
from repro.workloads import DebitCreditWorkload

SEED = 1985
#: hot-row DebitCredit: eight branches co-hosted on one bank node
DEBITCREDIT_WORKLOAD = WorkloadConfig(branches=8, branches_per_node=8,
                                      accounts_per_branch=1_000)
#: rf=2 over two nodes, 70% remote accounts: heaviest message fabric
REPLICATED_WORKLOAD = WorkloadConfig(branches=2, accounts_per_branch=200,
                                     tellers_per_branch=4, locality=0.3)
REPLICATION = ReplicationConfig.available_copies()
REPLICATED_SPACING_MS = 300.0
FULL_DURATION_MS = 10_000.0
SMOKE_DURATION_MS = 4_000.0
#: smoke events-per-commit may drift this much from the committed
#: full-run baseline (shorter window -> heavier startup transient).
#: Events per commit is the window-stable churn measure; events per
#: simulated second is *not* gated across window sizes because the
#: post-deadline drain tail scales differently with the window.
SMOKE_DRIFT_TOLERANCE = 0.35
#: absolute wall-speed floor per scenario, events per wall second: it
#: trips only on an order-of-magnitude engine regression.  Measured wall
#: speed, with its spread, is tabsbench's job (benchmarks/tabsbench).
MIN_EVENTS_PER_WALL_SEC = 25_000.0
BASELINE_PATH = REPO_ROOT / "BENCH_sim_speed.json"


def _capture(captured):
    def instrument(cluster):
        captured.append(cluster)
    return instrument


def run_disjoint(duration_ms: float):
    """Eight clients, disjoint cells: event-loop churn, no contention."""
    captured: list[TabsCluster] = []
    result = run_throughput(8, "disjoint", duration_ms,
                            config=TabsConfig(seed=SEED),
                            instrument=_capture(captured))
    return captured[0], result.committed


def run_hot_row(duration_ms: float):
    """Eight DebitCredit clients against eight co-hosted hot branches."""
    captured: list[TabsCluster] = []
    result = run_debitcredit(8, duration_ms,
                             config=TabsConfig(seed=SEED),
                             workload=DEBITCREDIT_WORKLOAD,
                             instrument=_capture(captured))
    return captured[0], result.committed


def run_replicated(duration_ms: float):
    """DebitCredit over rf=2 available-copies replication, fault-free."""
    config = TabsConfig(seed=SEED, workload=REPLICATED_WORKLOAD,
                        replication=REPLICATION)
    cluster = TabsCluster(config)
    topology = cluster.build_workload()
    driver = DebitCreditWorkload(cluster, topology, seed=SEED)
    offered = int(duration_ms / REPLICATED_SPACING_MS)
    driver.schedule_traffic(txns=offered,
                            spacing_ms=REPLICATED_SPACING_MS)
    driver.run(duration_ms)
    cluster.settle()
    return cluster, driver.stats.outcomes().get("committed", 0)


SCENARIOS = {
    "disjoint": run_disjoint,
    "debitcredit_hot_row": run_hot_row,
    "replicated_rf2": run_replicated,
}


def measure(runner, duration_ms: float) -> tuple[dict, dict]:
    """Run one scenario; split the reading into (deterministic, wall)."""
    start = time.perf_counter()
    cluster, committed = runner(duration_ms)
    wall_s = time.perf_counter() - start
    engine = cluster.engine
    sim_s = engine.now / 1000.0
    events = engine.events_executed
    deterministic = {
        "sim_ms": round(engine.now, 3),
        "events_scheduled": engine.events_scheduled,
        "events_executed": events,
        "daemon_executed": engine.daemon_executed,
        "heap_high_water": engine.heap_high_water,
        "committed": committed,
        "events_per_commit": round(events / committed, 1) if committed
        else 0.0,
        "events_per_sim_sec": round(events / sim_s, 1) if sim_s else 0.0,
    }
    wall = {
        "wall_sec": round(wall_s, 3),
        "events_per_wall_sec": round(events / wall_s, 0) if wall_s
        else 0.0,
        "wall_sec_per_sim_sec": round(wall_s / sim_s, 5) if sim_s
        else 0.0,
    }
    return deterministic, wall


def run_all(duration_ms: float) -> dict:
    scenarios = {}
    wall = {}
    for name, runner in SCENARIOS.items():
        scenarios[name], wall[name] = measure(runner, duration_ms)
    return {"duration_ms": duration_ms, "seed": SEED,
            "scenarios": scenarios, "wall": wall}


def deterministic_payload(payload: dict) -> dict:
    """What the committed baseline holds: everything but wall readings."""
    return {key: value for key, value in payload.items()
            if key != "wall"}


@pytest.fixture(scope="module")
def sim_speed_results():
    return run_all(FULL_DURATION_MS)


def test_render_sim_speed(sim_speed_results, benchmark):
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    lines = ["Simulator raw speed (events/sim-sec deterministic; "
             "wall readings vary by machine)", "=" * 72,
             f"{'scenario':>20s} {'events':>8s} {'commits':>8s} "
             f"{'ev/commit':>10s} {'ev/sim-s':>10s} {'ev/wall-s':>10s} "
             f"{'wall/sim':>9s}"]
    for name, det in sim_speed_results["scenarios"].items():
        wall = sim_speed_results["wall"][name]
        lines.append(
            f"{name:>20s} {det['events_executed']:>8d} "
            f"{det['committed']:>8d} {det['events_per_commit']:>10.1f} "
            f"{det['events_per_sim_sec']:>10.1f} "
            f"{wall['events_per_wall_sec']:>10.0f} "
            f"{wall['wall_sec_per_sim_sec']:>9.5f}")
    write_result("sim_speed.txt", "\n".join(lines))


def test_every_scenario_commits(sim_speed_results):
    for name, det in sim_speed_results["scenarios"].items():
        assert det["committed"] > 0, f"{name} committed nothing"
        assert det["events_executed"] > 0


def test_engine_counters_are_consistent(sim_speed_results):
    """Executed events never exceed scheduled ones, and the daemon share
    is counted within -- the always-on churn counters must agree."""
    for name, det in sim_speed_results["scenarios"].items():
        assert det["events_executed"] <= det["events_scheduled"], name
        assert det["daemon_executed"] <= det["events_executed"], name
        assert det["heap_high_water"] > 0, name


def test_baseline_json_matches_current_tree(sim_speed_results):
    """BENCH_sim_speed.json is regenerated, not hand-edited.  Only the
    deterministic sections are committed (wall speed varies by host)."""
    committed = json.loads(BASELINE_PATH.read_text())
    assert committed == deterministic_payload(sim_speed_results)


def smoke_check(payload: dict) -> tuple[bool, str]:
    """Gate the shortened CI run.

    Deterministic gate: per-scenario events-per-commit within tolerance
    of the committed full-run baseline (catches event-churn bloat: a
    change that doubles the events behind one commit).  Wall gate: a
    generous absolute events-per-wall-second floor (catches
    order-of-magnitude simulator slowdowns without flaking on slow
    runners).
    """
    problems = []
    committed = json.loads(BASELINE_PATH.read_text())
    for name, det in payload["scenarios"].items():
        want = committed["scenarios"][name]["events_per_commit"]
        got = det["events_per_commit"]
        problems += drift_problems(f"{name} events/commit", got, want,
                                   SMOKE_DRIFT_TOLERANCE)
        if det["committed"] <= 0:
            problems.append(f"{name} committed nothing")
    for name, wall in payload["wall"].items():
        if wall["events_per_wall_sec"] < MIN_EVENTS_PER_WALL_SEC:
            problems.append(
                f"{name} ran at {wall['events_per_wall_sec']:.0f} "
                f"events/wall-sec, under the {MIN_EVENTS_PER_WALL_SEC:.0f}"
                " floor: the simulator itself has slowed an order of "
                "magnitude")
    fastest = max(wall["events_per_wall_sec"]
                  for wall in payload["wall"].values())
    summary = (f"fastest={fastest:.0f} ev/wall-sec, "
               + ", ".join(
                   f"{name}={det['events_per_commit']} ev/commit"
                   for name, det in payload["scenarios"].items()))
    if problems:
        summary += "; " + "; ".join(problems)
    return not problems, summary


def main(argv: list[str] | None = None) -> int:
    return baseline_main(
        argv,
        description="Regenerate the simulator raw-speed baseline.",
        baseline_path=BASELINE_PATH,
        payload_fn=run_all,
        full_duration_ms=FULL_DURATION_MS,
        smoke_duration_ms=SMOKE_DURATION_MS,
        smoke_check=smoke_check,
        json_filter=deterministic_payload)


if __name__ == "__main__":
    raise SystemExit(main())
