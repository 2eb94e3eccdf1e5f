"""Storage-corruption torture: the faults the paper ruled out of scope.

Torn page writes at a power failure, bit rot on data pages, silently
lost writes, and log-sector decay -- each injected into a live cluster
under randomized traffic, with the full invariant audit afterwards.  The
stack must *degrade gracefully*: checksums detect every corruption, the
duplexed log self-repairs or salvages its tail, corrupt data pages are
restored from the archive and rolled forward, and no committed
transaction is ever lost, duplicated, or served corrupt data.
"""

from repro.chaos import (
    BitRotAt,
    ChaosController,
    ChaosWorkload,
    CrashAt,
    FaultPlan,
    LogSectorRotAt,
    LostWriteAt,
    TornWriteAt,
)
from repro.chaos.workload import build_cluster
from tests.chaos.conftest import run_scenario

#: the acceptance scenario: a torn write at a crash, single-copy rot on
#: a durable log sector, bit rot on a data page, and an ordinary crash,
#: all in one run with an early archive dump as the repair base
ACCEPTANCE_PLAN = FaultPlan.of(
    TornWriteAt(1_500.0, "n1", restart_after_ms=600.0),
    LogSectorRotAt(2_200.0, "n0"),
    BitRotAt(2_800.0, "n2", salt=7),
    CrashAt(3_500.0, "n0", restart_after_ms=500.0),
)


def test_torn_write_bit_rot_and_crash_stay_consistent():
    run = run_scenario(ACCEPTANCE_PLAN, seed=4242, transfers=14,
                       run_ms=6_000.0, archive_dump_at_ms=400.0)
    run.assert_clean()
    kinds = run.trace_kinds()
    assert "torn-write" in kinds
    assert "archive-dump" in kinds
    metrics = run.cluster.metrics
    # The bit-rotted page on n2 was detected and repaired (live repair
    # or the recovery scrub of the finale), never left latent.
    assert metrics.counter("n2", "disk.corruption_detected").value >= 1
    assert metrics.counter("n2", "media.page_repairs").value >= 1
    # The single-copy log rot on n0 healed from the duplex mirror.
    assert metrics.counter("n0", "wal.duplex_repairs").value >= 1


def test_torn_log_tail_is_salvaged():
    run = run_scenario(ACCEPTANCE_PLAN, seed=4242, transfers=14,
                       run_ms=6_000.0, archive_dump_at_ms=400.0)
    (torn,) = run.events("torn-write")
    # (time, "torn-write", node, data_key, torn_lsn): this seed's torn
    # write catches both an in-flight data sector and a buffered record.
    assert torn[2] == "n1"
    assert torn[4] != -1, "seed no longer tears a buffered log record"
    assert run.cluster.metrics.counter(
        "n1", "wal.salvage_truncations").value >= 1
    store = run.cluster.node("n1").log_store
    assert store.media_intact()


def test_lost_write_is_detected_and_repaired():
    # Arm while n1 is down: recovery's closing flush re-writes bank1's
    # page 0 (the account cells), the armed fault swallows it, and the
    # conservation read or the finale scrub must catch and repair it.
    plan = FaultPlan.of(
        CrashAt(1_200.0, "n1", restart_after_ms=600.0),
        LostWriteAt(1_400.0, "n1", segment_id="n1:bank1", page=0),
    )
    run = run_scenario(plan, seed=909, transfers=12, run_ms=5_000.0,
                       archive_dump_at_ms=300.0)
    run.assert_clean()
    assert "lost-write-armed" in run.trace_kinds()
    metrics = run.cluster.metrics
    assert metrics.counter("n1", "disk.corruption_detected").value >= 1
    assert run.cluster.node("n1").node.disk.verify_page("n1:bank1", 0)


def test_torn_tail_unreadable_on_both_copies_truncates():
    # A torn write lands half a frame on BOTH log-disk copies -- the
    # both-copies-unreadable case salvage truncation exists for.  The
    # record was never acknowledged, so dropping it loses nothing: the
    # cluster must audit clean, the suffix simply never happened.
    plan = FaultPlan.of(
        TornWriteAt(1_800.0, "n2", restart_after_ms=700.0),
    )
    run = run_scenario(plan, seed=321, transfers=12, run_ms=5_000.0,
                       archive_dump_at_ms=300.0)
    run.assert_clean()
    assert run.cluster.node("n2").log_store.media_intact()


def test_corruption_spans_and_counters_surface_in_exports():
    """A traced corruption run exports media-repair spans + counters."""
    cluster = build_cluster(3, seed=4242)
    tracer = cluster.enable_tracing()
    controller = ChaosController(cluster, ACCEPTANCE_PLAN, seed=4242)
    workload = ChaosWorkload(cluster, controller, seed=4242)
    workload.setup()
    controller.install()
    workload.schedule_archive_dumps(400.0)
    workload.schedule_traffic(transfers=14)
    quiet, report = workload.play(6_000.0)
    assert quiet and report.ok, "\n".join(
        str(v) for v in report.violations)
    span_names = {span.name for span in tracer.spans}
    assert "recovery.replay" in span_names
    from repro.obs import metrics_json

    counters = cluster.metrics.snapshot()["counters"]
    assert counters.get("n2/disk.corruption_detected", 0) >= 1
    assert counters.get("n2/media.page_repairs", 0) >= 1
    assert counters.get("n0/wal.duplex_repairs", 0) >= 1
    assert "wal.duplex_repairs" in metrics_json(cluster.metrics)
