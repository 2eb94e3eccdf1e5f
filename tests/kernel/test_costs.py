"""Tests for the primitive cost model and the cost meter."""

import pytest

from repro.kernel.costs import (
    ACHIEVABLE_1985,
    MEASURED_1985,
    ZERO_COST,
    CostMeter,
    CpuCosts,
    Phase,
    Primitive,
)


def test_measured_profile_matches_table_5_1():
    t = MEASURED_1985.times
    assert t[Primitive.DATA_SERVER_CALL] == 26.1
    assert t[Primitive.INTER_NODE_DATA_SERVER_CALL] == 89.0
    assert t[Primitive.DATAGRAM] == 25.0
    assert t[Primitive.SMALL_MESSAGE] == 3.0
    assert t[Primitive.LARGE_MESSAGE] == 4.4
    assert t[Primitive.POINTER_MESSAGE] == 18.3
    assert t[Primitive.RANDOM_PAGED_IO] == 32.0
    assert t[Primitive.SEQUENTIAL_READ] == 16.0
    assert t[Primitive.STABLE_STORAGE_WRITE] == 79.0


def test_achievable_profile_matches_table_5_5():
    t = ACHIEVABLE_1985.times
    assert t[Primitive.DATA_SERVER_CALL] == 2.5
    assert t[Primitive.INTER_NODE_DATA_SERVER_CALL] == 9.0
    assert t[Primitive.DATAGRAM] == 2.0
    assert t[Primitive.SMALL_MESSAGE] == 1.0
    assert t[Primitive.LARGE_MESSAGE] == 1.25
    assert t[Primitive.POINTER_MESSAGE] == 15.0
    assert t[Primitive.RANDOM_PAGED_IO] == 32.0  # "no improvement assumed"
    assert t[Primitive.SEQUENTIAL_READ] == 10.0
    assert t[Primitive.STABLE_STORAGE_WRITE] == 32.0


def test_every_profile_covers_every_primitive():
    for profile in (MEASURED_1985, ACHIEVABLE_1985, ZERO_COST):
        assert set(profile.times) == set(Primitive)


def test_cpu_costs_calibration_sums():
    """The calibrated splits must reproduce the Section 5.2 aggregates."""
    cpu = CpuCosts()
    # Local read-only txn: TM 36 ms, RM 5 ms -> TABS process time 41 ms.
    assert cpu.tm_begin + cpu.tm_commit_read == 36.0
    assert cpu.rm_read_txn == 5.0
    # Write adds RM 10+8 and TM 24 -> TABS process time 83 ms.
    read_tabs = cpu.tm_begin + cpu.tm_commit_read + cpu.rm_read_txn
    write_tabs = (read_tabs + cpu.rm_spool_record +
                  cpu.rm_commit_write_extra + cpu.tm_commit_write_extra)
    assert read_tabs == 41.0
    assert write_tabs == 83.0


def test_meter_counts_per_phase():
    meter = CostMeter()
    meter.phase = Phase.PRE_COMMIT
    meter.record(Primitive.SMALL_MESSAGE, 3.0)
    meter.record(Primitive.SMALL_MESSAGE, 3.0)
    meter.phase = Phase.COMMIT
    meter.record(Primitive.SMALL_MESSAGE, 3.0)
    meter.record(Primitive.STABLE_STORAGE_WRITE, 79.0)
    assert meter.count(Primitive.SMALL_MESSAGE, Phase.PRE_COMMIT) == 2
    assert meter.count(Primitive.SMALL_MESSAGE, Phase.COMMIT) == 1
    assert meter.count(Primitive.SMALL_MESSAGE) == 3
    assert meter.phase_counts(Phase.COMMIT) == {
        Primitive.SMALL_MESSAGE: 1, Primitive.STABLE_STORAGE_WRITE: 1}


def test_meter_fractional_counts():
    """Half-datagram accounting (Table 5-3's 2.5 datagrams)."""
    meter = CostMeter()
    meter.phase = Phase.COMMIT
    meter.record(Primitive.DATAGRAM, 25.0)
    meter.record(Primitive.DATAGRAM, 25.0)
    meter.record(Primitive.DATAGRAM, 12.5, fraction=0.5)
    assert meter.count(Primitive.DATAGRAM, Phase.COMMIT) == pytest.approx(2.5)


def test_meter_primitive_time_accumulates():
    meter = CostMeter()
    meter.phase = Phase.PRE_COMMIT
    meter.record(Primitive.SMALL_MESSAGE, 3.0)
    meter.record(Primitive.LARGE_MESSAGE, 4.4)
    assert meter.primitive_time[Phase.PRE_COMMIT] == pytest.approx(7.4)


def test_meter_cpu_accounting_and_reset():
    meter = CostMeter()
    meter.record_cpu("TM", 12.0)
    meter.record_cpu("TM", 24.0)
    meter.record_cpu("RM", 5.0)
    assert meter.total_cpu(("TM",)) == 36.0
    assert meter.total_cpu() == 41.0
    meter.reset()
    assert meter.total_cpu() == 0.0
    assert meter.phase is Phase.BACKGROUND
