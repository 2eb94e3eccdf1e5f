"""Commit continuity through a live shard migration -- the reconfig bench.

Two branches sharded over two nodes with rf=2, driven by steady
DebitCredit traffic while a third node joins the *running* cluster and
one account shard is migrated onto it as a crash-safe transaction
(durable intent, extend epoch, chunked copy behind the read barrier,
commit-sequence bump, shrink epoch).  The claim under test is this PR's
headline: reconfiguration is an online operation -- traffic keeps
committing while the shard moves, with the disruption bounded to the
epoch-bump abort windows and the copy's fan-in.  The payload therefore
records, besides committed TPS, the **maximum commit gap**: the longest
stretch of simulated time with no commit anywhere in the cluster.

``python benchmarks/bench_reconfig.py --json`` regenerates
``BENCH_reconfig.json`` at the repository root; ``--smoke`` runs a
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
    FaultBench,
    FaultBenchTests,
    FaultRun,
)
from repro.chaos import FaultPlan
from repro.core.config import ReconfigConfig
from repro.reconfig import ReconfigManager
from repro.reconfig.migration import COPY_MAX_RETRIES
from repro.replication.catchup import RETRY_MS

RECONFIG = ReconfigConfig.online()
#: the migration starts this far into the run -- late enough that the
#: steady-state TPS is established, early enough that the copy, the
#: barrier drop, and both epoch bumps land well inside the window
MIGRATE_AT_FRACTION = 0.35


def run_reconfig(duration_ms: float) -> dict:
    run = FaultRun(duration_ms, reconfig=RECONFIG)
    manager = ReconfigManager(run.cluster, "bank0")
    # No faults: the controller rides along purely for its commit trace.
    run.install(FaultPlan(()))
    manager.join("bank2")  # live join; hosts nothing until the migration
    run.offer_traffic()
    keyspace = run.topology.account_server(1)
    holder = {}
    run.cluster.engine.schedule(
        MIGRATE_AT_FRACTION * duration_ms,
        lambda: holder.update(
            c=manager.spawn_migration(keyspace, "bank0", "bank2")))
    run.play()
    # lists, not tuples: the result must equal its own JSON round trip
    migration_events = [[round(t, 1), phase] for t, phase, *_
                        in manager.events]
    return run.result(
        {"migrate_at_ms": MIGRATE_AT_FRACTION * duration_ms,
         "keyspace": keyspace},
        {"migration_committed": holder["c"].result is True,
         "migration_events": migration_events,
         "placement_epoch": run.cluster.placement_epoch,
         "final_replicas": list(run.cluster.placement.replicas(keyspace)),
         "copy_chunks": sum(1 for _, phase in migration_events
                            if phase == "copy"),
         "epoch_installs": run.counter_sum("reconfig.epoch_installs")})


BENCH = FaultBench(
    "reconfig", run_reconfig,
    description="Regenerate the online-reconfiguration baseline.",
    title="DebitCredit through a live shard migration (join + move, rf=2)",
    detail=lambda r: (f"migration committed: {r['migration_committed']}  "
                      f"epoch {r['placement_epoch']}  "
                      f"copy chunks {r['copy_chunks']}"),
    disturbance="through the migration", headline="migration_committed",
    config_blocks={"reconfig": {
        "copy_retry_ms": RETRY_MS,
        "copy_max_retries": COPY_MAX_RETRIES}},
    own_problems=lambda payload: (
        [] if payload["migration_committed"]
        else ["the live migration did not commit"]))


class TestReconfig(FaultBenchTests):
    bench = BENCH

    def test_migration_lands(self, result):
        """The acceptance bar: the shard moves while transactions commit."""
        assert result["migration_committed"] is True
        assert result["final_replicas"][-1] == "bank2"


if __name__ == "__main__":
    raise SystemExit(BENCH.main())
