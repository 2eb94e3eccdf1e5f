"""Page write-back and log reclamation racing live transactions.

A write-back writes the image it was granted: the page and its
``page_lsn`` are copied when it starts, a store made while it waits for
the write permission or the disk keeps the frame dirty, and the Recovery
Manager keeps the log from ``page_lsn + 1`` for it.  Reclamation's
checkpoint names the transactions still in flight, so recovery's backward
scan reaches the records of a page the flush stole from one.  Each sweep
starts the flush at a range of instants across the racing transaction's
life and checks the committed value after a crash at every one.
"""

import pytest

from repro import TabsCluster, TabsConfig
from repro.core.config import WorkloadConfig
from repro.servers.int_array import IntegerArrayServer
from repro.servers.op_array import OperationArrayServer
from repro.sim import Timeout
from repro.workloads.debitcredit import DebitCreditWorkload

from tests.integration.test_crash_recovery import make_cluster, run_get, \
    run_set

CRASH_AFTER_MS = 3_000.0


def crash_and_restart(cluster, since: float):
    cluster.engine.run(until=since + CRASH_AFTER_MS)
    cluster.crash_node("n1")
    cluster.restart_node("n1")
    return cluster.application("n1")


def add_cell(cluster, app, delta, abort=False):
    def body():
        tid = yield from app.begin_transaction()
        ref = yield from app.lookup_one("ops")
        yield from app.call(ref, "add_cell", {"cell": 1, "delta": delta},
                            tid)
        if abort:
            yield from app.abort_transaction(tid)
        else:
            assert (yield from app.end_transaction(tid))
    cluster.run_on("n1", body())


def get_cell(cluster, app):
    def body(tid):
        ref = yield from app.lookup_one("ops")
        result = yield from app.call(ref, "get_cell", {"cell": 1}, tid)
        return result["value"]
    return cluster.run_transaction("n1", body)


def flush_at(cluster, delay_ms):
    cluster.engine.schedule(delay_ms, lambda: cluster.spawn_on(
        "n1", cluster.node("n1").node.vm.flush_all(), name="flush"))


@pytest.mark.parametrize("delay_ms", range(0, 120, 10))
def test_store_during_flush_is_redone_once(delay_ms):
    """An operation-logged add commits while ``flush_all`` writes its
    page back.  The disk gets the image from before the add, under the
    sequence number of that image, so recovery redoes the add once."""
    cluster = make_cluster(OperationArrayServer.factory("ops"))
    app = cluster.application("n1")
    add_cell(cluster, app, 5)
    t0 = cluster.engine.now
    flush_at(cluster, delay_ms)
    add_cell(cluster, app, 5)
    app = crash_and_restart(cluster, t0)
    assert get_cell(cluster, app) == 10


@pytest.mark.parametrize("delay_ms", range(0, 100, 2))
def test_flush_during_an_operation_undo_is_not_undone_twice(delay_ms):
    """An operation-logged add is aborted while ``flush_all`` runs.  The
    Recovery Manager keeps the page pinned from the undo's store until it
    carries the compensation's LSN, so no image holding the inverse
    reaches disk under the add's sequence number."""
    cluster = make_cluster(OperationArrayServer.factory("ops"))
    app = cluster.application("n1")
    add_cell(cluster, app, 5)
    t0 = cluster.engine.now
    flush_at(cluster, delay_ms)
    add_cell(cluster, app, 7, abort=True)
    app = crash_and_restart(cluster, t0)
    assert get_cell(cluster, app) == 5


@pytest.mark.parametrize("delay_ms", range(0, 80, 10))
def test_reclamation_keeps_an_uncommitted_steal_undoable(delay_ms):
    """A value-logged update that never commits is on its page when
    reclamation flushes it; the crash must still restore the committed
    value."""
    cluster = make_cluster()
    app = cluster.application("n1")
    tabs = cluster.node("n1")
    run_set(cluster, app, 1, 10)
    t0 = cluster.engine.now

    def never_commits():
        tid = yield from app.begin_transaction()
        ref = yield from app.lookup_one("array")
        yield from app.call(ref, "set_cell", {"cell": 1, "value": 999}, tid)
        yield Timeout(cluster.engine, 10 * CRASH_AFTER_MS)

    cluster.spawn_on("n1", never_commits())
    cluster.engine.schedule(delay_ms, lambda: cluster.spawn_on(
        "n1", tabs.rm._reclaim(), name="reclaim"))
    app = crash_and_restart(cluster, t0)
    assert run_get(cluster, app, 1) == 10


def test_reclamation_keeps_up_with_debitcredit():
    """A 1 024-record log under DebitCredit traffic for 60 sim-s: it is
    truncated again and again, never fills, every transaction resolves,
    and the audits pass after a crash and restart."""
    cluster = TabsCluster(TabsConfig(
        seed=7, log_capacity_records=1024,
        workload=WorkloadConfig(branches=2, accounts_per_branch=200,
                                tellers_per_branch=4)))
    driver = DebitCreditWorkload(cluster, cluster.build_workload(), seed=7)
    truncations = {}
    fullest = {}
    for name, tabs_node in cluster.nodes.items():
        store = tabs_node.log_store
        truncations[name] = 0
        fullest[name] = 0

        def truncate_before(lsn, name=name, store=store,
                            truncate=store.truncate_before):
            before = store.truncated_before
            truncate(lsn)
            truncations[name] += store.truncated_before > before

        def watch(record, name=name, store=store):
            fullest[name] = max(fullest[name], len(store))

        store.truncate_before = truncate_before
        store.observers.append(watch)
    driver.schedule_traffic(txns=1200, spacing_ms=80.0)
    driver.run(until_ms=65_000.0)
    cluster.settle()
    assert min(truncations.values()) >= 3, truncations
    assert max(fullest.values()) < 1024, fullest
    assert set(driver.stats.outcomes()) <= {"committed", "aborted"}, \
        driver.stats.outcomes()
    driver.crash_and_recover_all()
    report = driver.check_invariants()
    assert report.ok, report.violations
