"""Committed TPS while every shard loses a replica -- the availability bench.

Two branches sharded over two nodes with rf=2 (every key-space has a
copy on both), driven by steady DebitCredit traffic while a seeded
rolling plan derived from the placement map crashes one replica of
every shard in turn (stagger wider than the restart window, so no shard
ever loses both copies at once).  The claim under test is the PR's
headline: a replica crash is *degraded service* -- writes fan out to
fewer copies, reads fail over, commits keep flowing -- never an outage.
The payload therefore records, besides committed TPS, the **maximum
commit gap**: the longest stretch of simulated time with no commit
anywhere in the cluster.

``python benchmarks/bench_availability.py --json`` regenerates
``BENCH_availability.json`` at the repository root; ``--smoke`` runs a
shortened variant whose gate also checks TPS against the committed
baseline (CI uploads the smoke payload as an artifact).
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # running as a script, not under pytest
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_ROOT / "src"))
    sys.path.insert(0, str(_ROOT))

from benchmarks.conftest import (
    FAULT_FULL_DURATION_MS,
    FaultBench,
    FaultBenchTests,
    FaultRun,
)
from repro.chaos import FaultPlan, crash_one_replica_per_shard


def rolling_plan(placement, duration_ms: float) -> FaultPlan:
    """One crash per shard's last-rank replica, staggered so restarts
    complete before the next crash lands."""
    return FaultPlan(crash_one_replica_per_shard(
        placement,
        at_ms=0.15 * duration_ms,
        restart_after_ms=0.20 * duration_ms,
        stagger_ms=0.45 * duration_ms))


def run_availability(duration_ms: float) -> dict:
    run = FaultRun(duration_ms)
    plan = rolling_plan(run.cluster.placement, duration_ms)
    run.install(plan)
    run.offer_traffic()
    run.play()
    return run.result(
        {"plan": [{"node": action.node, "at_ms": action.at_ms,
                   "restart_after_ms": action.restart_after_ms}
                  for action in plan]},
        {"read_failovers": run.counter_sum("replication.read_failover"),
         "degraded_writes":
             run.counter_sum("replication.write_all_degraded")})


BENCH = FaultBench(
    "availability", run_availability,
    description="Regenerate the replication availability baseline.",
    title="DebitCredit under rolling replica crashes (rf=2, one replica "
          "per shard)",
    detail=lambda r: (f"read failovers {r['read_failovers']}  degraded "
                      f"writes {r['degraded_writes']}  catchup pages "
                      f"{r['catchup_pages']}"),
    disturbance="under rolling crashes", headline="degraded_writes")


class TestAvailability(FaultBenchTests):
    bench = BENCH

    def test_every_crash_lands_inside_the_run(self, result):
        """The commits counted flowed *through* both crash windows."""
        assert max(a["at_ms"] for a in result["plan"]) < \
            FAULT_FULL_DURATION_MS

    def test_service_degraded_not_refused(self, result):
        assert result["degraded_writes"] > 0
        assert result["catchup_pages"] > 0


if __name__ == "__main__":
    raise SystemExit(BENCH.main())
