"""Property test: the serialising call counts every committed add once.

Under rf=2 a DebitCredit update executes at the first available copy of
its key-space and the absolute value it computed is written behind to
the other (docs/REPLICATION.md "Write-behind copies").  Whatever the
interleaving of a handful of transactions on ONE account, teller, branch
row and history strand, issued from two home nodes -- one holding the
first copy, one holding none -- and whichever copy is out of service:

- every caught-up copy of every tier ends at the sum of the committed
  amounts (nothing lost, nothing applied twice),
- the history strand holds exactly the committed rows, and
- the replica-convergence audit is clean: every copy holds every cell
  at the same version and value.

When the first copy crashes mid-stream its own clients die with it, so
their outcomes are unknown: the tiers then sum to the history, which
holds every committed row and, of the rest, only unknown ones.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cluster import TabsCluster
from repro.core.config import ReplicationConfig, TabsConfig, WorkloadConfig
from repro.errors import (
    CommunicationError,
    LockTimeout,
    LookupFailed,
    ReplicaUnavailable,
    TransactionAborted,
)
from repro.replication import audit_replica_convergence
from repro.replication.router import ReplicatedApp
from repro.sim import Timeout
from repro.workloads.debitcredit import TxnSpec, replicated_debitcredit_txn

HOMES = ("bank0", "bank2")   # first copy here / no copy here
COPIES = ("bank0", "bank1")  # branch 0's key-spaces, in placement order


def state_at(cluster, topology, node):
    """(account, teller, branch, history amounts) of the contended rows
    as the copies on ``node`` hold them."""
    app = cluster.application(node)

    def txn():
        tid = yield from app.begin_transaction()
        balances = []
        for keyspace in (topology.account_server(0),
                         topology.teller_server(0),
                         topology.branch_server(0)):
            ref = yield from app.lookup_one(keyspace, node_name=node)
            reply = yield from app.call(ref, "get_balance", {"row": 1}, tid)
            balances.append(reply["balance"])
        ref = yield from app.lookup_one(topology.history_server(0),
                                        node_name=node)
        reply = yield from app.call(ref, "strand_count", {"strand": 0}, tid)
        amounts = []
        for slot in range(reply["count"]):
            row = yield from app.call(ref, "read_row",
                                      {"strand": 0, "slot": slot}, tid)
            amounts.append(row["row"][0])
        yield from app.end_transaction(tid)
        return (*balances, amounts)

    return cluster.run_on(node, txn())


def play(adds, outage, barrier_ms, crash_ms, down_ms=None):
    """Run one client per add under ``outage`` and settle; return the
    cluster, its topology and the outcome of each add whose client
    finished.  ``down_ms`` is how long the first copy stays down when it
    restarts mid-stream (default: past the failure detector's bound)."""
    cluster = TabsCluster(TabsConfig(
        replication=ReplicationConfig.available_copies(),
        workload=WorkloadConfig(branches=3, accounts_per_branch=10,
                                tellers_per_branch=1)))
    topology = cluster.build_workload()
    keyspaces = [topology.account_server(0), topology.teller_server(0),
                 topology.branch_server(0), topology.history_server(0)]
    for keyspace in keyspaces:
        assert cluster.placement.replicas(keyspace) == COPIES
    engine = cluster.engine
    if outage == "first catching up":
        servers = [cluster.node("bank0").servers[keyspace]
                   for keyspace in keyspaces]
        for server in servers:
            server.catchup_pending = True
        engine.schedule(barrier_ms, lambda: [
            setattr(server, "catchup_pending", False) for server in servers])
    elif outage == "second down":
        cluster.crash_node("bank1")
        for home in HOMES:
            cluster.node(home).replication.view.observe(
                engine.now, home, "suspect", "bank1")
    elif outage == "first restarts mid-stream":
        if down_ms is None:
            # Down past the failure detector's bound, then barrier_ms
            # more.  A restart the detector has not noticed yet is the
            # last test below.
            config = cluster.config
            down_ms = (config.suspicion_timeout_ms
                       + 2 * config.probe_interval_ms + barrier_ms)
        engine.schedule(crash_ms, lambda: cluster.crash_node("bank0"))
        engine.schedule(crash_ms + down_ms,
                        lambda: cluster.node("bank0").node.restart())
    outcomes = {}  # add -> committed; a client its node killed has none

    def client(index, home, amount, start_ms, hold_ms, commits):
        rapp = ReplicatedApp(cluster, home)
        spec = TxnSpec(home_branch=0, teller=1, account_branch=0, account=1,
                       amount=amount)
        yield Timeout(engine, start_ms)
        tid = yield from rapp.begin_transaction()
        try:
            yield from replicated_debitcredit_txn(rapp, topology, spec, tid)
            yield Timeout(engine, hold_ms)
        except (LockTimeout, ReplicaUnavailable, TransactionAborted,
                CommunicationError, LookupFailed):
            commits = False
        if commits:
            outcomes[index] = yield from rapp.end_transaction(tid)
            return
        yield from rapp.abort_transaction(tid)
        outcomes[index] = False

    for index, add in enumerate(adds):
        cluster.spawn_on(add[0], client(index, *add))
    cluster.settle(extra_ms=barrier_ms)
    if outage == "second down":
        cluster.restart_node("bank1")
    if outage in ("second down", "first restarts mid-stream"):
        cluster.settle(extra_ms=30_000.0)
    return cluster, topology, outcomes


@given(adds=st.lists(
    st.tuples(st.sampled_from(HOMES),
              st.integers(min_value=-50, max_value=50).filter(bool),
              st.floats(min_value=0.0, max_value=1_500.0),   # starts at
              st.floats(min_value=0.0, max_value=100.0),     # holds for
              st.booleans()),                                # commits
    min_size=1, max_size=6),
    outage=st.sampled_from(["none", "first catching up", "second down",
                            "first restarts mid-stream"]),
    barrier_ms=st.floats(min_value=0.0, max_value=3_000.0),
    crash_ms=st.floats(min_value=0.0, max_value=1_500.0))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_committed_add_is_counted_once_on_every_caught_up_copy(
        adds, outage, barrier_ms, crash_ms):
    cluster, topology, outcomes = play(adds, outage, barrier_ms, crash_ms)
    committed = [add[1] for index, add in enumerate(adds)
                 if outcomes.get(index)]
    unknown = [add[1] for index, add in enumerate(adds)
               if index not in outcomes]
    if outage != "first restarts mid-stream":
        assert unknown == []
    for node in COPIES:
        account, teller, branch, history = state_at(cluster, topology, node)
        assert account == teller == branch == sum(history), (node, outcomes)
        assert Counter(committed) <= Counter(history) \
            <= Counter(committed + unknown), (node, history, outcomes)
    assert audit_replica_convergence(cluster) == []


def test_a_join_that_arrives_while_the_abort_runs_is_refused():
    """The first copy crashes at 609 ms and restarts at once, before the
    detector notices.  The "restarted" notice aborts the family at bank2
    while a write-behind ``put_balance`` is still on its way to bank1's
    ``tellers0``; it joins between the abort's undo and its ``ds.abort``
    scatter, whose server list is already read.  Accepted, its WRITE
    lock would outlive the family; refused, nothing is left behind."""
    cluster, topology, outcomes = play([("bank2", 1, 85.0, 0.0, False)],
                                       "first restarts mid-stream",
                                       barrier_ms=0.0, crash_ms=609.0,
                                       down_ms=0.0)
    assert outcomes == {0: False}
    for node in COPIES:
        assert state_at(cluster, topology, node) == (0, 0, 0, [])
    assert audit_replica_convergence(cluster) == []


def test_a_write_behind_to_a_restarted_first_copy_opens_no_fragment():
    """The first copy is down 994 ms from 994 ms.  The "restarted"
    notice aborts the family at bank2, and the write-behind for bank0's
    new incarnation would leave after it, opening a fresh fragment that
    holds ``branch0`` and that no abort ever reaches.  bank2's abort mark
    refuses the call before it leaves: every copy ends clean."""
    cluster, topology, outcomes = play([("bank2", 1, 39.0, 0.0, True)],
                                       "first restarts mid-stream",
                                       barrier_ms=0.0, crash_ms=994.0,
                                       down_ms=994.0)
    assert outcomes == {0: False}
    for node in COPIES:
        assert state_at(cluster, topology, node) == (0, 0, 0, [])
    assert audit_replica_convergence(cluster) == []
