"""Chaos scenarios for the DebitCredit workload.

The banking invariants must survive the workload's own worst case: the
node holding a hot branch row dying in the middle of two-phase commit.
Money conservation (three redundant ledgers plus the history journal)
is audited after repair, exactly as in the fault-free property suite --
a lost or duplicated flow anywhere in crash recovery, presumed abort,
or lock release shows up as diverging tier totals.
"""

import pytest

from repro.chaos import ChaosController, CrashAt, CrashWhenLogged, FaultPlan
from repro.core.cluster import TabsCluster
from repro.core.config import TabsConfig, WorkloadConfig
from repro.workloads import DebitCreditWorkload, debitcredit_txn
from repro.workloads.debitcredit import TxnSpec
from tests.chaos.conftest import DurableWitness

#: two branches on two nodes, account traffic frequently remote so 2PC
#: crosses nodes; small partitions keep the audits cheap
WORKLOAD = WorkloadConfig(branches=2, accounts_per_branch=200,
                          tellers_per_branch=4, locality=0.3)


def run_debitcredit_chaos(plan: FaultPlan, seed: int, txns: int = 16,
                          run_ms: float = 20_000.0,
                          spacing_ms: float = 400.0, instrument=None):
    config = TabsConfig(seed=seed, workload=WORKLOAD)
    cluster = TabsCluster(config)
    topology = cluster.build_workload()
    if instrument is not None:
        instrument(cluster)
    controller = ChaosController(cluster, plan, seed=seed)
    controller.install()
    driver = DebitCreditWorkload(cluster, topology, controller=controller,
                                 seed=seed)
    driver.schedule_traffic(txns=txns, spacing_ms=spacing_ms)
    _, report = driver.play(run_ms)
    return driver, controller, report


def commit_one_more(driver, home_branch: int = 0) -> bool:
    """One fresh DebitCredit transaction through the (restarted) node."""
    spec = TxnSpec(home_branch=home_branch, teller=1,
                   account_branch=home_branch, account=1, amount=5)
    node = driver.topology.node_name(home_branch)
    app = driver.cluster.application(node)

    def txn():
        tid = yield from app.begin_transaction()
        yield from debitcredit_txn(app, driver.topology, spec, tid)
        return (yield from app.end_transaction(tid))

    committed = driver.cluster.run_on(node, txn())
    if committed:
        driver.stats.records.append(
            type(driver.stats.records[0])(len(driver.stats.records), spec,
                                          outcome="committed"))
    return committed


MID_PREPARE_PLAN = FaultPlan.of(
    CrashWhenLogged(
        crash_node="bank0",
        # bank0 durably prepared (it is a 2PC participant; purely local
        # commits never log a prepare) but the coordinator has not
        # committed: the canonical in-flight-2PC window.
        seen=(("bank0", "prepared"),),
        not_seen=(("bank1", "committed"),),
        restart_after_ms=4_000.0))  # > detector suspicion + probes (~2s)


@pytest.fixture(scope="module")
def mid_prepare_witness():
    return DurableWitness()


@pytest.fixture(scope="module")
def mid_prepare_run(mid_prepare_witness):
    return run_debitcredit_chaos(MID_PREPARE_PLAN, seed=2306,
                                 instrument=mid_prepare_witness)


def test_hot_branch_crash_mid_prepare_conserves_money(mid_prepare_run,
                                                      mid_prepare_witness):
    driver, controller, report = mid_prepare_run
    crashes = [e for e in controller.trace if e[1] == "crash"]
    assert crashes, "the mid-prepare trigger never fired"
    mid_prepare_witness.assert_fired_at_boundary(
        controller.trace, MID_PREPARE_PLAN.actions[0])
    assert report.ok, report.violations


def test_presumed_abort_resolves_the_orphaned_prepare(mid_prepare_run):
    """The surviving coordinator detects the participant's death and
    aborts the in-flight transaction rather than blocking on it."""
    driver, controller, report = mid_prepare_run
    meter = driver.cluster.meter
    assert meter.counter("failures_detected") > 0
    assert meter.counter("aborts_on_failure") > 0
    outcomes = driver.stats.outcomes()
    assert outcomes.get("aborted", 0) + outcomes.get("unknown", 0) > 0


def test_restarted_hot_branch_serves_traffic(mid_prepare_run):
    driver, _, _ = mid_prepare_run
    assert driver.cluster.node("bank0").node.alive
    assert commit_one_more(driver, home_branch=0)
    # The fresh flow lands in the ledgers too: re-audit conservation.
    assert driver.check_conservation() == []


ACCOUNT_CRASH_PLAN = FaultPlan.of(
    CrashAt(1_500.0, "bank1", restart_after_ms=4_000.0))


def test_account_node_crash_mid_run_conserves_money():
    """Kill the node holding remote accounts mid-traffic: every remote
    transaction caught in 2PC must resolve one way, never half."""
    driver, controller, report = run_debitcredit_chaos(
        ACCOUNT_CRASH_PLAN, seed=515)
    assert {e[1] for e in controller.trace} >= {"crash", "restart"}
    assert report.ok, report.violations
    outcomes = driver.stats.outcomes()
    assert outcomes.get("committed", 0) > 0, outcomes


DOUBLE_CRASH_PLAN = FaultPlan.of(
    CrashAt(1_200.0, "bank0", restart_after_ms=4_000.0),
    CrashAt(8_000.0, "bank1", restart_after_ms=4_000.0))


def test_both_banks_crash_in_turn_conserves_money():
    driver, _, report = run_debitcredit_chaos(DOUBLE_CRASH_PLAN, seed=99,
                                              run_ms=24_000.0)
    assert report.ok, report.violations
