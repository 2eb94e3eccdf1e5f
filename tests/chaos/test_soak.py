"""The slow soak: many seeds, random fault schedules, full audits.

Run explicitly with ``pytest -m slow tests/chaos`` (excluded from the
default CI lane).  Every seed is an independent torture run; a failure
message names the seed, which reproduces the run exactly.
"""

import random

import pytest

from repro.chaos import CrashAt, FaultPlan, random_plan
from tests.chaos.conftest import run_scenario
from tests.chaos.test_debitcredit import run_debitcredit_chaos
from tests.chaos.test_replication import run_replicated_chaos

NODES = ["n0", "n1", "n2"]
BANK_NODES = ["bank0", "bank1"]


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(40, 52))
def test_soak_random_faults(seed):
    plan = random_plan(seed=seed, nodes=NODES, duration_ms=8_000.0,
                       episodes=5)
    run = run_scenario(plan, seed=seed, transfers=24, enqueues=6,
                       with_queue=True, run_ms=10_000.0)
    assert run.quiet, f"seed {seed}: no quiescence after repair"
    assert run.report.ok, f"seed {seed} violations:\n" + "\n".join(
        f"  {violation}" for violation in run.report.violations)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(70, 80))
def test_soak_storage_corruption(seed):
    """Random schedules with the corruption fault kinds enabled.

    ``corruption_weight`` biases half the episodes toward torn writes,
    bit rot, lost writes, and log-sector rot; the archive dump early in
    the run gives media repair its base image.  Whatever the mix, every
    audit -- including storage integrity -- must come back green.
    """
    plan = random_plan(seed=seed, nodes=NODES, duration_ms=8_000.0,
                       episodes=6, corruption_weight=9)
    run = run_scenario(plan, seed=seed, transfers=24, run_ms=10_000.0,
                       archive_dump_at_ms=350.0)
    assert run.quiet, f"seed {seed}: no quiescence after repair"
    assert run.report.ok, f"seed {seed} violations:\n" + "\n".join(
        f"  {violation}" for violation in run.report.violations)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [60, 61, 62])
def test_soak_bigger_cluster(seed):
    nodes = [f"n{i}" for i in range(5)]
    plan = random_plan(seed=seed, nodes=nodes, duration_ms=8_000.0,
                       episodes=6)
    run = run_scenario(plan, seed=seed, node_count=5, transfers=30,
                       run_ms=10_000.0)
    assert run.quiet and run.report.ok, (
        f"seed {seed} violations:\n" + "\n".join(
            f"  {v}" for v in run.report.violations))


def rolling_two_crash_plan(seed):
    """One copy of every shard down at a time, never both: a victim, an
    instant and an outage drawn from the seed, then the other node once
    the first has been back for four to seven seconds."""
    rng = random.Random(seed)
    first = rng.choice(BANK_NODES)
    (second,) = set(BANK_NODES) - {first}
    crash_at = rng.uniform(800.0, 6_000.0)
    outage = rng.uniform(1_500.0, 5_000.0)
    return FaultPlan.of(
        CrashAt(crash_at, first, restart_after_ms=outage),
        CrashAt(crash_at + outage + rng.uniform(4_000.0, 7_000.0), second,
                restart_after_ms=rng.uniform(1_500.0, 5_000.0)))


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(200, 224))
def test_soak_replicated_rolling_crashes(seed):
    """rf=2 DebitCredit inside available-copies' envelope: whatever the
    instants, write-behind copies in flight included, every audit --
    conservation, atomicity, replica convergence -- comes back green."""
    driver, _, report = run_replicated_chaos(rolling_two_crash_plan(seed),
                                             seed=seed, txns=48)
    assert report.ok, f"seed {seed} violations:\n" + "\n".join(
        f"  {violation}" for violation in report.violations)
    assert driver.stats.outcomes().get("committed", 0) > 0


@pytest.mark.parametrize("seed", [
    *range(500, 504),  # the four every lane runs
    525,  # two aborts of one prepared fragment walked its chain twice
    *(pytest.param(seed, marks=pytest.mark.slow)
      for seed in range(504, 512))])
def test_soak_debitcredit_overlapping_incrementers(seed):
    """Single-copy DebitCredit, two branches, arrivals 80 ms apart -- a
    sixth of a transaction, so several incrementers hold each branch and
    teller row whenever a fault lands: crashes catch operation records
    of winners, losers and in-doubt transactions interleaved on one
    page, partitions abort one holder beside live ones.  Three-pass
    operation recovery has to leave all four ledgers agreeing."""
    plan = random_plan(seed=seed, nodes=BANK_NODES, duration_ms=8_000.0,
                       episodes=5)
    driver, _, report = run_debitcredit_chaos(plan, seed=seed, txns=40,
                                              spacing_ms=80.0)
    assert report.ok, f"seed {seed} violations:\n" + "\n".join(
        f"  {violation}" for violation in report.violations)
    assert driver.stats.outcomes().get("committed", 0) > 0
