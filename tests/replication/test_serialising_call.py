"""The serialising call: ``write_all`` executes a read-modify-write at
the first available copy that answers, and that copy's reply names the
absolute write every other copy stores (docs/REPLICATION.md "Write-behind
copies").

What the fail-over must keep: the lock-site order across the read
barrier, at-most-once execution of an op that is *not* idempotent, the
slot one copy chose being the slot the other stores, the blind write
naming itself as the copy, and one version per write at every copy.
"""

import pytest

from tests.reconfig.conftest import counter
from tests.replication.conftest import WORKLOAD, build_replicated
from tests.replication.test_write_behind import (
    committed_balance,
    copy_processes,
    locks,
    spied,
)

from repro.app.library import run_transaction
from repro.core.cluster import TabsCluster
from repro.core.config import ReplicationConfig, TabsConfig, WorkloadConfig
from repro.errors import LockTimeout, TransactionAborted
from repro.replication import audit_replica_convergence, replica_cells
from repro.replication.router import ReplicatedApp
from repro.sim import Timeout
from repro.workloads.debitcredit import RowOutOfRange


def add(rapp, keyspace, row, amount, tid):
    reply = yield from rapp.write_all(keyspace, "add_to_balance",
                                      {"row": row, "amount": amount}, tid)
    return reply


def replace_op(cluster, node, keyspace, op, handler):
    """Serve ``op`` at the copy on ``node`` with ``handler(original,
    body, tid)`` (a generator) until the node restarts."""
    server = cluster.node(node).servers[keyspace]
    original = getattr(server, "op_" + op)
    setattr(server, "op_" + op,
            lambda body, tid: handler(original, body, tid))
    server._op_cache.pop(op, None)


# -- (a) the first copy is catching up ---------------------------------------


def test_a_catching_up_first_copy_locks_refuses_and_stores_the_copy():
    cluster, topology = build_replicated(seed=73)
    keyspace = topology.account_server(0)
    assert cluster.placement.replicas(keyspace) == ("bank0", "bank1")
    before = committed_balance(cluster, "bank0", keyspace, 3)
    first = cluster.node("bank0").servers[keyspace]
    first.catchup_pending = True
    rapp = ReplicatedApp(cluster, "bank0")
    failovers = counter(cluster, "bank0", "replication.read_failover")
    updates = {node: counter(cluster, node, "account_server.updates")
               for node in ("bank0", "bank1")}

    def body(tid):
        reply = yield from add(rapp, keyspace, 3, 40, tid)
        # The router consumed the copy the reply named.
        assert reply == {"balance": before + 40}
        # Refused, but only after the row was locked where every
        # contender looks first; the value came from bank1.
        assert locks(cluster, "bank0", keyspace).held_keys(tid)
        assert locks(cluster, "bank1", keyspace).held_keys(tid)
        (copy,) = copy_processes(cluster, "bank0", tid)
        assert copy.name.endswith(f"{keyspace}@bank0")

    cluster.run_on("bank0", run_transaction(rapp, body))
    assert counter(cluster, "bank0", "replication.read_failover") \
        == failovers + 1
    # One execution, one absolute put: each copy was written once.
    for node in ("bank0", "bank1"):
        assert counter(cluster, node, "account_server.updates") \
            == updates[node] + 1
    first.catchup_pending = False
    cluster.settle()
    for node in ("bank0", "bank1"):
        assert committed_balance(cluster, node, keyspace, 3) == before + 40
    assert audit_replica_convergence(cluster) == []


def test_contenders_either_side_of_the_barrier_serialise_at_the_first_copy():
    """One arrives while the barrier is up, one just after it clears --
    inside the window where the first has been refused at bank0 and its
    copy has not landed there yet.  Were the refusal lock-free, the
    second would win bank0, the first hold bank1, and each copy wait out
    the other's lock (the copy-against-copy deadlock
    docs/REPLICATION.md names)."""
    cluster, topology = build_replicated(seed=79)
    keyspace = topology.account_server(0)
    before = committed_balance(cluster, "bank0", keyspace, 5)
    first = cluster.node("bank0").servers[keyspace]
    first.catchup_pending = True
    executed_at, committed, committed_at = {}, {}, {}

    def contender(name, start_ms, amount):
        rapp = ReplicatedApp(cluster, "bank0")
        yield Timeout(cluster.engine, start_ms)
        tid = yield from rapp.begin_transaction()
        reply = yield from add(rapp, keyspace, 5, amount, tid)
        executed_at[name] = (cluster.engine.now, reply["balance"])
        committed[name] = yield from rapp.end_transaction(tid)
        committed_at[name] = cluster.engine.now

    started = cluster.engine.now
    cluster.spawn_on("bank0", contender("early", 0.0, 7))
    cluster.engine.schedule(
        60.0, lambda: setattr(first, "catchup_pending", False))
    cluster.spawn_on("bank0", contender("late", 70.0, 11))
    cluster.settle()
    assert committed == {"early": True, "late": True}
    # The late one executed after the early one, on the early one's sum.
    assert executed_at["early"][1] == before + 7
    assert executed_at["late"][1] == before + 18
    assert executed_at["late"][0] > executed_at["early"][0]
    assert committed_at["late"] - started \
        < cluster.node("bank0").config.lock_timeout_ms
    for node in ("bank0", "bank1"):
        assert locks(cluster, node, keyspace).timeouts == 0
        assert committed_balance(cluster, node, keyspace, 5) == before + 18
    assert audit_replica_convergence(cluster) == []


def test_a_copy_suspected_during_the_walk_is_not_written_behind():
    """bank1 is dead but not yet suspected when the add starts; finding
    that out (a lookup that fails) outlasts the detector.  The copies to
    write are those available when the write is issued, so this is a
    degraded write that commits, not a copy sent after a node the view
    already gave up on."""
    cluster, topology = build_replicated(seed=113)
    keyspace = topology.account_server(1)
    assert cluster.placement.replicas(keyspace) == ("bank1", "bank0")
    before = committed_balance(cluster, "bank0", keyspace, 4)
    rapp = ReplicatedApp(cluster, "bank0")
    view = cluster.node("bank0").replication.view
    degraded = counter(cluster, "bank0", "replication.write_all_degraded")
    cluster.crash_node("bank1")

    def body(tid):
        cluster.engine.schedule(200.0, lambda: view.observe(
            cluster.engine.now, "bank0", "suspect", "bank1"))
        started = cluster.engine.now
        reply = yield from add(rapp, keyspace, 4, 6, tid)
        assert cluster.engine.now - started > 200.0
        assert reply == {"balance": before + 6}
        assert copy_processes(cluster, "bank0", tid) == []

    cluster.run_on("bank0", run_transaction(rapp, body))
    assert counter(cluster, "bank0", "replication.write_all_degraded") \
        == degraded + 1
    assert committed_balance(cluster, "bank0", keyspace, 4) == before + 6


# -- (b) at most once ---------------------------------------------------------


def die_after_executing(cluster, node, keyspace, executions):
    """The copy on ``node`` executes its next ``add_to_balance`` and the
    node crashes before the reply is sent."""
    def execute_then_die(original, body, tid):
        reply = yield from original(body, tid)
        executions.append(reply["balance"])
        # From the engine: a process cannot pull the plug on its own node.
        cluster.engine.schedule(0.0, lambda: cluster.crash_node(node))
        yield Timeout(cluster.engine, 1.0)
        raise AssertionError("the handler outlived its node")

    replace_op(cluster, node, keyspace, "add_to_balance", execute_then_die)


def assert_old_balance_everywhere(cluster, keyspace, row, before):
    assert committed_balance(cluster, "bank1", keyspace, row) == before
    cluster.restart_node("bank0")
    cluster.settle(extra_ms=30_000.0)
    for node in ("bank0", "bank1"):
        assert committed_balance(cluster, node, keyspace, row) == before
    assert audit_replica_convergence(cluster) == []


def test_first_copy_crashing_after_it_executed_never_commits():
    """``add_to_balance`` is not idempotent.  bank0 executes it and dies
    before replying.  The detector is faster than the call's deadline,
    so by the time the client fails over the Transaction Manager has
    aborted the family on the failure notice: the second execution is a
    zombie's first call at bank1, refused by bank1's abort mark before
    the server runs it, with ``TransactionAborted``, and nothing of
    either execution is ever committed.  The refused call leaves nothing behind on bank1."""
    cluster, topology = build_replicated(seed=83)
    keyspace = topology.account_server(0)
    assert cluster.placement.replicas(keyspace) == ("bank0", "bank1")
    before = committed_balance(cluster, "bank1", keyspace, 2)
    executions, tids, refused = [], [], []
    die_after_executing(cluster, "bank0", keyspace, executions)
    rapp = spied(cluster, "bank1")
    bank1 = cluster.node("bank1")
    served = bank1.servers[keyspace].library.requests_served

    def body(tid):
        tids.append(tid)
        with pytest.raises(TransactionAborted) as error:
            yield from add(rapp, keyspace, 2, 500, tid)
        refused.append(error.value)
        raise error.value

    client = cluster.spawn_on("bank1", run_transaction(rapp, body))
    cluster.settle(extra_ms=40_000.0)
    assert executions == [before + 500]
    assert [error.tid for error in refused] == tids
    with pytest.raises(TransactionAborted):
        client.result()
    assert cluster.meter.counter("aborts_on_failure") == 1
    assert counter(cluster, "bank1", "replication.read_failover") == 1
    assert [op for op, _ in rapp.app.control] == ["abort"]  # no tm.end
    library = bank1.servers[keyspace].library
    assert library.requests_served == served
    assert tids[0] not in library._txns
    assert locks(cluster, "bank1", keyspace).held_keys(tids[0]) == []
    # Every process the call started on bank1 has ended.
    assert [process.name for process in bank1.node._processes
            if process.alive and process.name.endswith(":add_to_balance")
            ] == []
    assert_old_balance_everywhere(cluster, keyspace, 2, before)


def test_an_aborted_family_opens_no_fragment_after_its_abort():
    """The same crash with the client homed on a third node, and bank0
    back before the call's deadline.  The family aborts at bank2 on the
    failure notice, telling nobody (bank0 is the dead peer).  The call
    still waits out its deadline; its fail-over to bank1 would open a
    fresh fragment there, and its write-behind one at bank0's new
    incarnation.  Neither leaves bank2: the family is in bank2's abort
    mark, so the fail-over is refused where it starts, with
    ``TransactionAborted``, and is not retried.  One execution, no
    fragment at either copy, no lock held."""
    cluster = TabsCluster(TabsConfig(
        seed=83, replication=ReplicationConfig.available_copies(),
        workload=WorkloadConfig(branches=3, accounts_per_branch=50,
                                tellers_per_branch=2, locality=1.0)))
    topology = cluster.build_workload()
    keyspace = topology.account_server(0)
    assert cluster.placement.replicas(keyspace) == ("bank0", "bank1")
    before = committed_balance(cluster, "bank1", keyspace, 2)
    executions, tids = [], []
    die_after_executing(cluster, "bank0", keyspace, executions)
    rapp = spied(cluster, "bank2")

    def restart_bank0():
        yield Timeout(cluster.engine, 5_000.0)
        yield from cluster.node("bank0").restart_generator()

    def body(tid):
        tids.append(tid)
        reply = yield from add(rapp, keyspace, 2, 500, tid)
        executions.append(reply["balance"])

    cluster.spawn_on("bank1", restart_bank0())
    client = cluster.spawn_on("bank2", run_transaction(rapp, body))
    cluster.settle(extra_ms=60_000.0)
    with pytest.raises(TransactionAborted, match="aborted on bank2"):
        client.result()
    assert executions == [before + 500]
    assert [op for op, _ in rapp.app.control] == ["abort"]
    for node in ("bank0", "bank1", "bank2"):
        assert cluster.node(node).tm.phase_of(tids[0]) is None
    assert tids[0] in cluster.node("bank2").node.aborted
    for node in ("bank0", "bank1", "bank2"):
        for name in cluster.node(node).servers:
            assert locks(cluster, node, name).held_keys(tids[0]) == []
    for node in ("bank0", "bank1"):
        assert committed_balance(cluster, node, keyspace, 2) == before
    assert audit_replica_convergence(cluster) == []


def test_second_execution_after_a_crashed_first_aborts_at_the_join():
    """The same crash with a detector slower than the call's deadline,
    so the fail-over is served: bank1 executes the add too, the put it
    names cannot reach the dead copy, and the coordinator's join before
    prepare aborts the transaction -- one execution died with bank0, the
    other is rolled back.  ``end_transaction`` reports the refusal
    instead of raising the copy's error, so ``run_transaction`` raises
    ``TransactionAborted`` carrying it."""
    cluster = TabsCluster(TabsConfig(
        seed=83, workload=WORKLOAD, suspicion_timeout_ms=120_000.0,
        replication=ReplicationConfig.available_copies()))
    topology = cluster.build_workload()
    keyspace = topology.account_server(0)
    before = committed_balance(cluster, "bank1", keyspace, 2)
    executions, tids = [], []
    die_after_executing(cluster, "bank0", keyspace, executions)
    rapp = spied(cluster, "bank1")

    def body(tid):
        tids.append(tid)
        reply = yield from add(rapp, keyspace, 2, 500, tid)
        executions.append(reply["balance"])
        assert locks(cluster, "bank1", keyspace).held_keys(tid)
        (copy,) = copy_processes(cluster, "bank1", tid)
        assert copy.name.endswith(f"{keyspace}@bank0")

    # the dead copy's binding is gone
    with pytest.raises(TransactionAborted,
                       match="write-behind:.*@bank0 failed: LookupFailed"):
        cluster.run_on("bank1", run_transaction(rapp, body))
    assert executions == [before + 500, before + 500]
    assert cluster.meter.counter("aborts_on_failure") == 0
    assert [op for op, _ in rapp.app.control] == ["end"]     # no tm.abort
    assert rapp._behind == {} and rapp._footprints == {}
    assert locks(cluster, "bank1", keyspace).held_keys(tids[0]) == []
    assert_old_balance_everywhere(cluster, keyspace, 2, before)


def test_first_copy_whose_reply_is_lost_counts_the_add_once():
    """The copy is alive, merely slower than the call's deadline: it
    executed, the client fails over, bank1 executes on the *old* value
    (nothing was written behind yet) and the absolute put it names
    overwrites bank0's own sum with the same number."""
    cluster, topology = build_replicated(seed=89)
    keyspace = topology.account_server(0)
    before = committed_balance(cluster, "bank1", keyspace, 2)
    executions = []

    def execute_then_stall(original, body, tid):
        reply = yield from original(body, tid)
        executions.append(("bank0", reply["balance"]))
        yield Timeout(cluster.engine, 31_000.0)   # past the RPC deadline
        return reply

    replace_op(cluster, "bank0", keyspace, "add_to_balance",
               execute_then_stall)
    rapp = spied(cluster, "bank1")
    failovers = counter(cluster, "bank1", "replication.read_failover")

    def body(tid):
        reply = yield from add(rapp, keyspace, 2, 500, tid)
        executions.append(("bank1", reply["balance"]))

    cluster.run_on("bank1", run_transaction(rapp, body))
    assert executions == [("bank0", before + 500), ("bank1", before + 500)]
    assert counter(cluster, "bank1", "replication.read_failover") \
        == failovers + 1
    assert [op for op, _ in rapp.app.control] == ["end"]
    cluster.settle(extra_ms=5_000.0)
    for node in ("bank0", "bank1"):
        assert committed_balance(cluster, node, keyspace, 2) == before + 500
    assert audit_replica_convergence(cluster) == []


# -- (c) append ---------------------------------------------------------------


def build_short_strands(seed):
    cluster = TabsCluster(TabsConfig(
        seed=seed, replication=ReplicationConfig.available_copies(),
        workload=WorkloadConfig(branches=2, accounts_per_branch=50,
                                tellers_per_branch=2, locality=1.0,
                                history_slots_per_teller=2)))
    return cluster, cluster.build_workload()


def strand_at(cluster, node, keyspace, strand):
    """(cursor, rows) of ``strand`` as the copy at ``node`` holds it."""
    app = cluster.application(node)

    def txn():
        tid = yield from app.begin_transaction()
        ref = yield from app.lookup_one(keyspace, node_name=node)
        reply = yield from app.call(ref, "strand_count", {"strand": strand},
                                    tid)
        rows = []
        for slot in range(reply["count"]):
            row = yield from app.call(ref, "read_row",
                                      {"strand": strand, "slot": slot}, tid)
            rows.append(row["row"])
        yield from app.end_transaction(tid)
        return reply["count"], rows

    return cluster.run_on(node, txn())


def append(rapp, keyspace, strand, amount, tid):
    reply = yield from rapp.write_all(
        keyspace, "append", {"strand": strand, "amount": amount,
                             "branch": 0, "teller": strand + 1,
                             "account": 9}, tid)
    return reply


def test_the_slot_the_serialising_copy_chose_is_the_slot_the_other_stores():
    cluster, topology = build_short_strands(seed=97)
    keyspace = topology.history_server(0)
    assert cluster.placement.replicas(keyspace) == ("bank0", "bank1")
    rapp = ReplicatedApp(cluster, "bank0")
    slots = []

    def one(amount):
        def body(tid):
            reply = yield from append(rapp, keyspace, 1, amount, tid)
            slots.append(reply)
        cluster.run_on("bank0", run_transaction(rapp, body))

    one(10)
    # The second slot is chosen at bank1: bank0 refuses from behind its
    # barrier and stores what bank1 names.
    cluster.node("bank0").servers[keyspace].catchup_pending = True
    one(-4)
    cluster.node("bank0").servers[keyspace].catchup_pending = False
    cluster.settle()
    assert slots == [{"slot": 0}, {"slot": 1}]
    for node in ("bank0", "bank1"):
        assert strand_at(cluster, node, keyspace, 1) == (
            2, [[10, 0, 2, 9], [-4, 0, 2, 9]])
        assert strand_at(cluster, node, keyspace, 0) == (0, [])
    assert audit_replica_convergence(cluster) == []


def test_a_full_strand_refuses_at_the_serialising_copy_and_writes_nothing():
    cluster, topology = build_short_strands(seed=101)
    keyspace = topology.history_server(0)
    rapp = ReplicatedApp(cluster, "bank0")
    for amount in (1, 2):
        cluster.run_on("bank0", run_transaction(rapp,
            lambda tid, amount=amount: append(rapp, keyspace, 0, amount,
                                              tid)))
    cluster.settle()
    other = cluster.node("bank1").servers[keyspace].library
    served = other.requests_served
    tids = []

    def overflow(tid):
        tids.append(tid)
        try:
            yield from append(rapp, keyspace, 0, 3, tid)
        finally:
            assert copy_processes(cluster, "bank0", tid) == []

    with pytest.raises(RowOutOfRange, match="slot 2 of strand 0"):
        cluster.run_on("bank0", run_transaction(rapp, overflow))
    cluster.settle()
    assert other.requests_served == served
    for node in ("bank0", "bank1"):
        assert locks(cluster, node, keyspace).held_keys(tids[0]) == []
        assert strand_at(cluster, node, keyspace, 0) == (
            2, [[1, 0, 1, 9], [2, 0, 1, 9]])


def test_a_put_past_the_strand_is_the_error_a_read_past_it_is():
    """One mistake, one error type: ``put_row`` raised a bare
    ``ServerError`` where ``read_row`` raised ``RowOutOfRange``."""
    cluster, topology = build_short_strands(seed=103)
    keyspace = topology.history_server(0)
    app = cluster.application("bank0")

    def call(op, body):
        def txn(tid):
            ref = yield from app.lookup_one(keyspace, node_name="bank0")
            yield from app.call(ref, op, body, tid)
        return txn

    row = {"strand": 0, "amount": 1, "branch": 0, "teller": 1, "account": 1}
    for op, body in (("put_row", {**row, "slot": 2}),
                     ("read_row", {"strand": 0, "slot": 2}),
                     ("put_row", {**row, "strand": 2, "slot": 0}),
                     ("append", {**row, "strand": 2})):
        with pytest.raises(RowOutOfRange):
            cluster.run_on("bank0", app.run_transaction(call(op, body)))


# -- (e) a blind absolute write ------------------------------------------------


def test_a_reply_without_a_copy_fans_the_same_op_out():
    """The blind absolute write: the first copy stamps the version and
    names ``put_balance`` with the body the caller gave, plus that
    version, as the copy, so every copy gets ``put_balance``."""
    cluster, topology = build_replicated(seed=107)
    tracer = cluster.enable_tracing()
    keyspace = topology.account_server(0)
    rapp = ReplicatedApp(cluster, "bank0")

    def body(tid):
        reply = yield from rapp.write_all(keyspace, "put_balance",
                                          {"row": 6, "balance": 314}, tid)
        assert reply == {"balance": 314}
        assert len(copy_processes(cluster, "bank0", tid)) == 1

    cluster.run_on("bank0", run_transaction(rapp, body))
    cluster.settle()
    operations = sorted((span.name, span.node) for span in tracer.spans
                        if span.name.startswith("ds:")
                        and not span.name.startswith("ds:ds."))
    assert operations == [("ds:put_balance", "bank0"),
                          ("ds:put_balance", "bank1")]
    for node in ("bank0", "bank1"):
        assert committed_balance(cluster, node, keyspace, 6) == 314


def test_every_copy_of_a_write_holds_the_same_cell():
    """An add, an append and a blind put: each write carries the one
    version the copy that executed it stamped, so the copies' raw cells,
    version and value, are identical."""
    cluster, topology = build_replicated(seed=127)
    accounts = topology.account_server(0)
    history = topology.history_server(0)
    rapp = ReplicatedApp(cluster, "bank0")

    def body(tid):
        yield from add(rapp, accounts, 3, 40, tid)
        yield from append(rapp, history, 1, 40, tid)
        yield from rapp.write_all(accounts, "put_balance",
                                  {"row": 7, "balance": 12}, tid)

    cluster.run_on("bank0", run_transaction(rapp, body))
    cluster.settle()
    for keyspace, cells in ((accounts, 2), (history, 2)):
        first, second = (replica_cells(cluster.node(node), keyspace)
                         for node in ("bank0", "bank1"))
        assert len(first) == cells
        assert first == second
    assert audit_replica_convergence(cluster) == []


def test_a_lock_conflict_does_not_shop_for_another_copy():
    """Fail-over is for a copy that cannot answer; one that answers
    "held" is the serialisation working."""
    cluster, topology = build_replicated(seed=109)
    keyspace = topology.account_server(0)
    holder = ReplicatedApp(cluster, "bank0")
    waiter = ReplicatedApp(cluster, "bank0")
    failovers = counter(cluster, "bank0", "replication.read_failover")

    def txn():
        held = yield from holder.begin_transaction()
        yield from add(holder, keyspace, 1, 1, held)
        tid = yield from waiter.begin_transaction()
        locks(cluster, "bank0", keyspace).default_timeout_ms = 200.0
        with pytest.raises(LockTimeout):
            yield from add(waiter, keyspace, 1, 1, tid)
        assert locks(cluster, "bank1", keyspace).held_keys(tid) == []
        yield from waiter.abort_transaction(tid)
        yield from holder.abort_transaction(held)

    cluster.run_on("bank0", txn())
    assert counter(cluster, "bank0", "replication.read_failover") \
        == failovers
