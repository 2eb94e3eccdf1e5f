"""Unit tests for the DebitCredit schema, servers, topology and oracle."""

import pytest

from repro.core.cluster import TabsCluster
from repro.core.config import ReplicationConfig, TabsConfig, WorkloadConfig
from repro.core.facility import SEGMENT_VA_STRIDE
from repro.kernel.costs import ZERO_COST, ZERO_CPU
from repro.sim import Timeout
from repro.wal.records import OperationRecord, TransactionStatusRecord
from repro.workloads import (
    DebitCreditTopology,
    DebitCreditWorkload,
    debitcredit_txn,
    draw_spec,
)
from repro.workloads.debitcredit import TxnSpec, pages_for


def zero_cost_config(**overrides) -> TabsConfig:
    return TabsConfig(profile=ZERO_COST, cpu_costs=ZERO_CPU, **overrides)


def build(workload: WorkloadConfig):
    cluster = TabsCluster(zero_cost_config(workload=workload))
    topology = cluster.build_workload()
    return cluster, topology


class TestWorkloadConfig:
    @pytest.mark.parametrize("kwargs", [
        {"branches": 0},
        {"branches_per_node": 0},
        {"tellers_per_branch": 0},
        {"accounts_per_branch": 0},
        {"locality": 1.5},
        {"locality": -0.1},
        {"max_delta": 0},
        {"history_slots_per_teller": 0},
    ])
    def test_knob_floors(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadConfig(**kwargs)

    def test_accounts_must_fit_one_segment(self):
        cells = SEGMENT_VA_STRIDE // 4
        WorkloadConfig(accounts_per_branch=cells)  # exactly full: fine
        with pytest.raises(ValueError):
            WorkloadConfig(accounts_per_branch=cells + 1)

    def test_history_must_fit_one_segment(self):
        with pytest.raises(ValueError):
            WorkloadConfig(tellers_per_branch=100,
                           history_slots_per_teller=SEGMENT_VA_STRIDE)

    def test_node_count_is_ceil_division(self):
        assert WorkloadConfig(branches=8, branches_per_node=3).nodes == 3
        assert WorkloadConfig(branches=8, branches_per_node=8).nodes == 1
        assert WorkloadConfig(branches=2).nodes == 2

    def test_millions_preset_spans_millions_of_accounts(self):
        preset = WorkloadConfig.millions()
        assert preset.total_accounts >= 4_000_000


class TestTopology:
    def test_branches_packed_onto_nodes(self):
        topology = DebitCreditTopology(branches=6, branches_per_node=2)
        assert topology.nodes == 3
        assert topology.node_names == ["bank0", "bank1", "bank2"]
        assert topology.node_name(0) == topology.node_name(1) == "bank0"
        assert topology.node_name(5) == "bank2"
        assert [topology.node_name(b) for b in (2, 3)] == ["bank1"] * 2

    def test_client_home_deals_nodes_first(self):
        topology = DebitCreditTopology(branches=6, branches_per_node=2)
        homes = [topology.client_home(c) for c in range(6)]
        # First three clients land on three different nodes.
        assert [topology.node_name(h) for h in homes[:3]] == \
            ["bank0", "bank1", "bank2"]
        assert sorted(homes) == [0, 1, 2, 3, 4, 5]

    def test_client_home_wraps_past_branch_count(self):
        topology = DebitCreditTopology(branches=3, branches_per_node=3)
        assert [topology.client_home(c) for c in range(5)] == \
            [0, 1, 2, 0, 1]


class TestDrawSpec:
    def test_locality_one_never_leaves_home(self):
        import random

        workload = WorkloadConfig(branches=4, locality=1.0)
        rng = random.Random(3)
        specs = [draw_spec(rng, workload, home_branch=2) for _ in range(50)]
        assert all(s.account_branch == 2 and not s.remote for s in specs)
        assert all(s.amount != 0 for s in specs)

    def test_locality_zero_always_remote(self):
        import random

        workload = WorkloadConfig(branches=4, locality=0.0)
        rng = random.Random(3)
        specs = [draw_spec(rng, workload, home_branch=2) for _ in range(50)]
        assert all(s.account_branch != 2 and s.remote for s in specs)

    def test_single_branch_cannot_be_remote(self):
        import random

        workload = WorkloadConfig(branches=1, locality=0.0)
        spec = draw_spec(random.Random(1), workload, home_branch=0)
        assert spec.account_branch == 0


class TestServers:
    @pytest.fixture(scope="class")
    def bank(self):
        return build(WorkloadConfig(branches=1, tellers_per_branch=2,
                                    accounts_per_branch=50))

    def test_add_to_balance_accumulates(self, bank):
        """The account tier owns its row and hands the balance back."""
        cluster, topology = bank

        def txn(tid):
            app = cluster.application("bank0")
            ref = yield from app.lookup_one("accounts0", node_name="bank0")
            reply = yield from app.call(ref, "add_to_balance",
                                        {"row": 1, "amount": 70}, tid)
            assert reply["balance"] == 70
            reply = yield from app.call(ref, "add_to_balance",
                                        {"row": 1, "amount": -30}, tid)
            return reply["balance"]

        assert cluster.run_transaction("bank0", txn) == 40

    @pytest.mark.parametrize("server", ["tellers0", "branch0"])
    def test_commuting_tiers_accumulate_without_reporting(self, bank, server):
        """Branch and teller rows are added to under INCREMENT: the reply
        carries no balance (the sum may include other transactions'
        uncommitted amounts); a read in the same transaction needs READ,
        which INCREMENT does not cover, and takes it."""
        cluster, topology = bank

        def txn(tid):
            app = cluster.application("bank0")
            ref = yield from app.lookup_one(server, node_name="bank0")
            reply = yield from app.call(ref, "add_to_balance",
                                        {"row": 1, "amount": 70}, tid)
            assert reply == {}
            yield from app.call(ref, "add_to_balance",
                                {"row": 1, "amount": -30}, tid)
            reply = yield from app.call(ref, "get_balance", {"row": 1}, tid)
            return reply["balance"]

        assert cluster.run_transaction("bank0", txn) == 40

    def test_row_out_of_range_rejected(self, bank):
        cluster, topology = bank

        def txn(tid):
            app = cluster.application("bank0")
            ref = yield from app.lookup_one("accounts0", node_name="bank0")
            yield from app.call(ref, "add_to_balance",
                                {"row": 51, "amount": 1}, tid)

        with pytest.raises(Exception, match="outside"):
            cluster.run_transaction("bank0", txn)

    def test_history_append_assigns_slots_and_rolls_back(self, bank):
        cluster, topology = bank
        app = cluster.application("bank0")

        def append(amount, tid):
            ref = yield from app.lookup_one("history0", node_name="bank0")
            return (yield from app.call(
                ref, "append", {"strand": 0, "amount": amount, "branch": 0,
                                "teller": 1, "account": 1}, tid))

        def committed(tid):
            return (yield from append(11, tid))

        assert cluster.run_transaction("bank0", committed)["slot"] == 0

        def aborted():
            tid = yield from app.begin_transaction()
            yield from append(99, tid)
            yield from app.abort_transaction(tid)

        cluster.run_on("bank0", aborted())

        def read(tid):
            ref = yield from app.lookup_one("history0", node_name="bank0")
            count = yield from app.call(ref, "strand_count", {"strand": 0},
                                        tid)
            row = yield from app.call(ref, "read_row",
                                      {"strand": 0, "slot": 0}, tid)
            return count["count"], row["row"]

        count, row = cluster.run_transaction("bank0", read)
        assert count == 1  # the aborted append's cursor bump rolled back
        assert row == [11, 0, 1, 1]

    def test_history_strand_capacity_enforced(self):
        cluster, topology = build(WorkloadConfig(
            branches=1, tellers_per_branch=1, history_slots_per_teller=2))
        app = cluster.application("bank0")

        def fill(tid):
            ref = yield from app.lookup_one("history0", node_name="bank0")
            for _ in range(3):
                yield from app.call(
                    ref, "append", {"strand": 0, "amount": 1, "branch": 0,
                                    "teller": 1, "account": 1}, tid)

        with pytest.raises(Exception, match="full"):
            cluster.run_transaction("bank0", fill)


class TestCommutingRows:
    """Branch and teller rows under concurrent incrementers (real
    costs: the interleavings below depend on the page fault and the
    spool taking time)."""

    @pytest.fixture
    def bank(self):
        cluster = TabsCluster(TabsConfig(workload=WorkloadConfig(
            branches=1, tellers_per_branch=2, accounts_per_branch=10)))
        cluster.build_workload()
        app = cluster.application("bank0")
        ref = cluster.run_on("bank0",
                             app.lookup_one("branch0", node_name="bank0"))
        return cluster, app, ref

    @staticmethod
    def balance(cluster, app, ref):
        def read(tid):
            reply = yield from app.call(ref, "get_balance", {"row": 1}, tid)
            return reply["balance"]
        return cluster.run_transaction("bank0", read)

    def test_two_adds_to_a_cold_row_at_one_instant_both_land(self, bank):
        """Both fault the never-touched page in, both hold INCREMENT,
        both commit: the row is their sum and nobody waited."""
        cluster, app, ref = bank

        def incrementer(amount):
            tid = yield from app.begin_transaction()
            yield from app.call(ref, "add_to_balance",
                                {"row": 1, "amount": amount}, tid)
            return (yield from app.end_transaction(tid))

        workers = [cluster.spawn_on("bank0", incrementer(amount))
                   for amount in (50, 7)]
        assert [cluster.engine.run_until(w) for w in workers] == [True, True]
        branch = cluster.node("bank0").servers["branch0"]
        assert branch.library.locks.waits == 0
        assert self.balance(cluster, app, ref) == 57

    @pytest.mark.parametrize("abort_after_ms", [
        20.0,  # the abort lands in the page fault
        40.0,  # the abort lands between the add and its log record
    ])
    def test_an_add_aborted_mid_flight_leaves_the_others_amount(
            self, bank, abort_after_ms):
        """The victim's abort arrives while its operation is in flight
        and another incrementer holds the row.  The abort waits for the
        operation: the add lands, its record joins the transaction's
        chain, and the undo walk compensates it before the ABORTED
        record.  The row ends at the other transaction's amount."""
        cluster, app, ref = bank
        started = {}

        def victim():
            tid = started["victim"] = yield from app.begin_transaction()
            yield from app.call(ref, "add_to_balance",
                                {"row": 1, "amount": 50}, tid)
            return (yield from app.end_transaction(tid))

        def other():
            tid = yield from app.begin_transaction()
            yield from app.call(ref, "add_to_balance",
                                {"row": 1, "amount": 7}, tid)
            yield Timeout(cluster.engine, 300.0)
            return (yield from app.end_transaction(tid))

        def killer():
            while "victim" not in started:
                yield Timeout(cluster.engine, 0.25)
            yield Timeout(cluster.engine, abort_after_ms)
            yield from app.abort_transaction(started["victim"])

        victim, other, _ = [cluster.spawn_on("bank0", body())
                            for body in (victim, other, killer)]
        assert cluster.engine.run_until(victim) is False
        assert cluster.engine.run_until(other) is True
        cluster.settle()
        assert self.balance(cluster, app, ref) == 7

        tabs = cluster.node("bank0")
        log = tabs.rm.wal.read_forward(tabs.rm.wal.store.truncated_before)
        adds = [r for r in log if isinstance(r, OperationRecord)
                and r.tid == started["victim"]]
        (aborted,) = [r.lsn for r in log
                      if isinstance(r, TransactionStatusRecord)
                      and r.tid == started["victim"]]
        add, compensation = adds
        assert compensation.compensates_lsn == add.lsn
        assert add.lsn < compensation.lsn < aborted

    def test_two_clients_of_one_branch_overlap(self):
        """Closed-loop clients homed on one branch, different tellers and
        accounts: the only row they share is the branch balance, and
        under INCREMENT they hold it together -- the branch server never
        makes anyone wait (under WRITE every transaction but the first
        did, from the branch update through the other's commit)."""
        workload = WorkloadConfig(branches=1, tellers_per_branch=2,
                                  accounts_per_branch=10)
        cluster = TabsCluster(TabsConfig(workload=workload))
        topology = cluster.build_workload()
        app = cluster.application("bank0")
        branch = cluster.node("bank0").servers["branch0"]
        row = branch._row_oid(1)
        most_holders = 0

        def client(number):
            nonlocal most_holders
            for round_ in range(6):
                spec = TxnSpec(home_branch=0, teller=number,
                               account_branch=0, account=number,
                               amount=number * 10 + round_)
                tid = yield from app.begin_transaction()
                yield from debitcredit_txn(app, topology, spec, tid)
                most_holders = max(
                    most_holders,
                    len(branch.library.locks._locks[row].holders))
                assert (yield from app.end_transaction(tid))

        clients = [cluster.spawn_on("bank0", client(number))
                   for number in (1, 2)]
        for process in clients:
            cluster.engine.run_until(process)
        cluster.settle()
        assert most_holders == 2
        assert branch.library.locks.waits == 0
        driver = DebitCreditWorkload(cluster, topology)
        sums = driver._tier_sums()
        expected = sum(number * 10 + round_
                       for number in (1, 2) for round_ in range(6))
        # (the account walk covers only accounts a driver's own traffic
        # touched, and this driver scheduled none)
        assert sums["branches"] == sums["tellers"] == sums["history"] \
            == expected


class TestBuild:
    def test_pages_for_rounds_up(self):
        assert pages_for(1) == 1
        assert pages_for(128) == 1   # 128 4-byte cells fill one 512B page
        assert pages_for(129) == 2

    def test_build_places_four_servers_per_branch(self):
        cluster, topology = build(WorkloadConfig(branches=4,
                                                 branches_per_node=2,
                                                 accounts_per_branch=50))
        assert sorted(cluster.nodes) == ["bank0", "bank1"]
        names = {name for tabs_node in cluster.nodes.values()
                 for name in tabs_node.servers}
        for branch in range(4):
            assert {f"branch{branch}", f"tellers{branch}",
                    f"accounts{branch}", f"history{branch}"} <= names


class TestConservationOracle:
    """The audits must be able to *fail*: plant one defect after a clean
    fault-free run and the matching violation has to surface.  Both read
    paths of the merged tier walk (single-copy ``app.call`` and rf=2
    ``rapp.read``) are pinned."""

    @pytest.fixture(params=[False, True], ids=["single-copy", "rf2"])
    def clean_run(self, request):
        replication = (ReplicationConfig.available_copies() if request.param
                       else ReplicationConfig())
        cluster = TabsCluster(TabsConfig(
            seed=31, replication=replication,
            workload=WorkloadConfig(branches=2, accounts_per_branch=50,
                                    tellers_per_branch=2)))
        driver = DebitCreditWorkload(cluster, cluster.build_workload(),
                                     seed=31)
        driver.schedule_traffic(txns=6)
        driver.run(until_ms=1_000_000.0)
        cluster.settle()
        assert driver.stats.outcomes() == {"committed": 6}
        assert driver.check_conservation() == []
        return driver

    def test_a_stray_teller_update_breaks_conservation(self, clean_run):
        driver = clean_run
        cluster = driver.cluster
        if driver.replicated:
            rapp = cluster.replicated_application("bank0")

            def stray(tid):
                yield from rapp.write_all(
                    "tellers0", "add_to_balance", {"row": 1, "amount": 7},
                    tid)

            cluster.run_on("bank0", rapp.run_transaction(stray))
        else:
            def stray(tid):
                app = cluster.application("bank0")
                ref = yield from app.lookup_one("tellers0",
                                                node_name="bank0")
                yield from app.call(ref, "add_to_balance",
                                    {"row": 1, "amount": 7}, tid)

            cluster.run_transaction("bank0", stray)
        assert [v.kind for v in driver.check_conservation()] == \
            ["conservation"]

    def test_a_misreported_commit_breaks_the_history_checks(self, clean_run):
        driver = clean_run
        driver.stats.records[0].outcome = "aborted"
        assert [v.kind for v in driver.check_conservation()] == \
            ["history-count", "history-amounts"]


def test_controller_free_finale_names_crash_and_recover_all():
    """``controller`` defaults to None; finale() used to die on it with
    an AttributeError instead of saying what to call."""
    cluster, topology = build(WorkloadConfig(branches=1,
                                             accounts_per_branch=10))
    with pytest.raises(ValueError, match="crash_and_recover_all"):
        DebitCreditWorkload(cluster, topology).finale()
