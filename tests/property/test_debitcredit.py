"""Property tests: DebitCredit conserves money for any seed and load.

The workload's three balance tiers (branches, tellers, accounts) are
redundant ledgers of the same committed flows, and the history file is
their journal.  Whatever the seed, client count, topology packing, or
locality, after a drain:

- ``sum(branches) == sum(tellers) == sum(accounts) == sum(history)``,
- the history row count equals the committed transaction count, and
- the standard durable-state audits (atomicity, client commits,
  drainage) hold.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cluster import TabsCluster
from repro.core.config import TabsConfig, WorkloadConfig
from repro.sim import Timeout
from repro.workloads import DebitCreditWorkload
from tests.property.conftest import fast_config

SETTINGS = settings(max_examples=12, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def run_workload(seed: int, txns: int, workload: WorkloadConfig,
                 power_cycle: bool = False) -> DebitCreditWorkload:
    cluster = TabsCluster(fast_config(seed=seed, workload=workload))
    topology = cluster.build_workload()
    driver = DebitCreditWorkload(cluster, topology, seed=seed)
    driver.schedule_traffic(txns=txns)
    driver.run(until_ms=1_000_000.0)
    cluster.settle()
    if power_cycle:
        driver.crash_and_recover_all()
    return driver


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       txns=st.integers(min_value=1, max_value=24))
@SETTINGS
def test_money_is_conserved_after_drain(seed: int, txns: int):
    driver = run_workload(seed, txns, WorkloadConfig(
        branches=2, accounts_per_branch=500))
    report = driver.check_invariants()
    assert report.ok, report.violations
    assert driver.stats.outcomes() == {"committed": txns}


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       branches=st.integers(min_value=1, max_value=4),
       branches_per_node=st.integers(min_value=1, max_value=4),
       locality=st.sampled_from([0.0, 0.5, 0.9, 1.0]))
@SETTINGS
def test_conservation_across_topology_packings(seed: int, branches: int,
                                               branches_per_node: int,
                                               locality: float):
    """Any packing of branches onto nodes, any locality mix."""
    driver = run_workload(seed, 10, WorkloadConfig(
        branches=branches, branches_per_node=branches_per_node,
        tellers_per_branch=3, accounts_per_branch=100,
        locality=locality))
    report = driver.check_invariants()
    assert report.ok, report.violations


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@SETTINGS
def test_history_row_count_equals_committed_count(seed: int):
    driver = run_workload(seed, 15, WorkloadConfig(
        branches=2, accounts_per_branch=500))
    sums = driver._tier_sums()
    committed = driver.stats.committed()
    assert sums["history_rows"] == len(committed)
    assert sums["history"] == sum(r.spec.amount for r in committed)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_conservation_survives_a_power_cycle(seed: int):
    """Crash-all/recover-all rebuilds the same conserved state from the
    logs, and the disk-versus-log audits then apply too."""
    driver = run_workload(seed, 8, WorkloadConfig(
        branches=2, accounts_per_branch=200), power_cycle=True)
    report = driver.check_invariants()
    assert report.ok, report.violations


@given(fates=st.lists(
    st.tuples(st.integers(min_value=-50, max_value=50).filter(bool),
              st.floats(min_value=0.0, max_value=40.0),   # starts at
              st.floats(min_value=0.0, max_value=80.0),   # holds for
              st.booleans()),                             # commits
    min_size=2, max_size=6),
    power_cycle=st.booleans())
@SETTINGS
def test_concurrent_incrementers_leave_the_committed_sum(fates,
                                                         power_cycle):
    """Any interleaving of commits and aborts of k transactions holding
    one teller row in INCREMENT together: every abort takes out exactly
    its own amount (an inverse operation, not an old value -- there is
    no single old value under concurrent holders), so the row ends at
    the committers' sum, before and after a power cycle."""
    cluster = TabsCluster(TabsConfig(workload=WorkloadConfig(
        branches=1, tellers_per_branch=1, accounts_per_branch=1)))
    cluster.build_workload()
    app = cluster.application("bank0")

    def incrementer(amount, start_ms, hold_ms, commits):
        yield Timeout(cluster.engine, start_ms)
        tid = yield from app.begin_transaction()
        ref = yield from app.lookup_one("tellers0", node_name="bank0")
        yield from app.call(ref, "add_to_balance",
                            {"row": 1, "amount": amount}, tid)
        yield Timeout(cluster.engine, hold_ms)
        if commits:
            assert (yield from app.end_transaction(tid))
        else:
            yield from app.abort_transaction(tid)

    workers = [cluster.spawn_on("bank0", incrementer(*fate))
               for fate in fates]
    for worker in workers:
        cluster.engine.run_until(worker)
    cluster.settle()
    tellers = cluster.node("bank0").servers["tellers0"]
    assert tellers.library.locks.waits == 0
    if power_cycle:
        cluster.crash_node("bank0")
        cluster.restart_node("bank0")

    def read(tid):
        app = cluster.application("bank0")
        ref = yield from app.lookup_one("tellers0", node_name="bank0")
        reply = yield from app.call(ref, "get_balance", {"row": 1}, tid)
        return reply["balance"]

    assert cluster.run_transaction("bank0", read) == sum(
        amount for amount, _, _, commits in fates if commits)


def test_sparse_accounts_scale_to_millions():
    """The millions() preset builds and serves traffic: account cells
    live in sparse segments, so scale costs address space, not memory."""
    driver = run_workload(7, 6, WorkloadConfig(
        branches=2, branches_per_node=2, accounts_per_branch=1_000_000,
        tellers_per_branch=2))
    report = driver.check_invariants()
    assert report.ok, report.violations
    touched = {r.spec.account for r in driver.stats.records}
    assert max(touched) > 1_000  # the draw really spans the space
