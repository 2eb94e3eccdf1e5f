"""The limited subtransaction facility (Sections 2.1.3, 3.2.3).

- a subtransaction behaves as a completely separate transaction for
  synchronization (it can even deadlock with its siblings);
- it is not committed until its top-level parent commits;
- it can abort without causing its parent to abort;
- when a parent commits or aborts, its live subtransactions go with it.
"""

import pytest

from repro import TabsCluster, TabsConfig, TransactionAborted
from repro.servers.int_array import IntegerArrayServer


@pytest.fixture
def cluster():
    cluster = TabsCluster(TabsConfig())
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("array"))
    cluster.start()
    return cluster


@pytest.fixture
def env(cluster):
    app = cluster.application("n1")
    ref = cluster.run_on("n1", app.lookup_one("array"))
    return cluster, app, ref


def set_cell(app, ref, tid, cell, value):
    yield from app.call(ref, "set_cell", {"cell": cell, "value": value}, tid)


def get_cell(app, ref, tid, cell):
    result = yield from app.call(ref, "get_cell", {"cell": cell}, tid)
    return result["value"]


def read_later(cluster, app, ref, cell):
    def body(tid):
        value = yield from get_cell(app, ref, tid, cell)
        return value
    return cluster.run_transaction("n1", body)


def test_subtransaction_ids_nest(env):
    cluster, app, ref = env

    def body():
        parent = yield from app.begin_transaction()
        child = yield from app.begin_transaction(parent=parent)
        grandchild = yield from app.begin_transaction(parent=child)
        yield from app.end_transaction(grandchild)
        yield from app.end_transaction(child)
        yield from app.end_transaction(parent)
        return parent, child, grandchild

    parent, child, grandchild = cluster.run_on("n1", body())
    assert child.parent == parent
    assert grandchild.parent == child
    assert grandchild.toplevel == parent


def test_subtransaction_commit_is_deferred_to_parent(env):
    """A committed subtransaction's update is invisible to other
    transactions until the top level commits."""
    cluster, app, ref = env
    from repro.sim import Timeout

    def body():
        parent = yield from app.begin_transaction()
        child = yield from app.begin_transaction(parent=parent)
        yield from set_cell(app, ref, child, 1, 42)
        yield from app.end_transaction(child)  # merge into parent
        yield Timeout(cluster.engine, 8_000.0)  # < the 10 s lock time-out
        yield from app.end_transaction(parent)

    process = cluster.spawn_on("n1", body())
    cluster.engine.run(until=cluster.engine.now + 3_000.0)

    # Mid-flight: the child ended, but another reader must still block /
    # not see the value (we use a conditional probe via a short timeout).
    probe_app = cluster.application("n1")

    def probe():
        tid = yield from probe_app.begin_transaction()
        try:
            value = yield from probe_app.call(
                ref, "get_cell", {"cell": 1}, tid)
            return value["value"]
        finally:
            yield from probe_app.abort_transaction(tid)

    probe_process = cluster.spawn_on("n1", probe())
    cluster.engine.run(until=cluster.engine.now + 2_000.0)
    assert not probe_process.processed  # blocked on the inherited lock
    cluster.engine.run_until(process)
    cluster.engine.run_until(probe_process)
    assert probe_process.result() == 42  # granted only after parent commit


def test_subtransaction_abort_spares_parent(env):
    cluster, app, ref = env

    def body():
        parent = yield from app.begin_transaction()
        yield from set_cell(app, ref, parent, 1, 10)
        child = yield from app.begin_transaction(parent=parent)
        yield from set_cell(app, ref, child, 2, 20)
        yield from app.abort_transaction(child)
        committed = yield from app.end_transaction(parent)
        return committed

    assert cluster.run_on("n1", body()) is True
    assert read_later(cluster, app, ref, 1) == 10
    assert read_later(cluster, app, ref, 2) == 0


def test_parent_abort_takes_down_live_children(env):
    cluster, app, ref = env

    def body():
        parent = yield from app.begin_transaction()
        child = yield from app.begin_transaction(parent=parent)
        yield from set_cell(app, ref, child, 1, 5)
        # Child never ends; parent aborts.
        yield from app.abort_transaction(parent)

    cluster.run_on("n1", body())
    assert read_later(cluster, app, ref, 1) == 0


def test_live_subtransactions_are_walked_in_identifier_order(env):
    """Committing a subtransaction merges its live children first, and
    aborting a parent aborts its live children first: both walk a *set*
    of siblings, deepest first and then by identifier -- not in the
    set's order, which follows the string hash and so differs between
    interpreter runs."""
    cluster, app, ref = env
    tm = cluster.node("n1").tm
    folded, aborted = [], []
    fold, abort_subtree = tm._fold, tm._abort_subtree

    def spy_fold(child, into):
        folded.append(child.tid)
        yield from fold(child, into)

    def spy_abort_subtree(state, children, reason=""):
        aborted.append(state.tid)
        yield from abort_subtree(state, children, reason=reason)

    tm._fold, tm._abort_subtree = spy_fold, spy_abort_subtree

    def body():
        parent = yield from app.begin_transaction()
        middle = yield from app.begin_transaction(parent=parent)
        for _ in range(6):
            yield from app.begin_transaction(parent=middle)
        yield from app.end_transaction(middle)
        for _ in range(6):
            yield from app.begin_transaction(parent=parent)
        yield from app.abort_transaction(parent)
        return parent, middle

    parent, middle = cluster.run_on("n1", body())
    assert folded == [middle.child(i) for i in range(1, 7)] + [middle]
    assert aborted == [parent.child(i) for i in range(2, 8)] + [parent]


def test_parent_commit_sweeps_up_unended_children(env):
    """When a parent transaction commits, its subtransactions are
    committed as well."""
    cluster, app, ref = env

    def body():
        parent = yield from app.begin_transaction()
        child = yield from app.begin_transaction(parent=parent)
        yield from set_cell(app, ref, child, 3, 33)
        committed = yield from app.end_transaction(parent)
        return committed

    assert cluster.run_on("n1", body()) is True
    assert read_later(cluster, app, ref, 3) == 33


def test_intra_transaction_isolation_between_siblings(env):
    """Subtransactions synchronize like separate transactions: two
    siblings updating the same datum conflict (the paper's noted
    intra-transaction deadlock risk)."""
    cluster, app, ref = env

    def body():
        parent = yield from app.begin_transaction()
        first = yield from app.begin_transaction(parent=parent)
        yield from set_cell(app, ref, first, 1, 1)
        second = yield from app.begin_transaction(parent=parent)
        # The sibling blocks on first's lock until its time-out.
        try:
            yield from app.call(ref, "set_cell",
                                {"cell": 1, "value": 2}, second)
            return "no conflict"
        except Exception as error:
            return type(error).__name__

    # Lock time-outs surface as LockTimeout marshalled through the server.
    assert cluster.run_on("n1", body()) == "LockTimeout"


def test_sibling_can_update_after_sibling_merges(env):
    """Once a subtransaction ends, its locks pass to the parent, and a
    later sibling (same family) may acquire them."""
    cluster, app, ref = env

    def body():
        parent = yield from app.begin_transaction()
        first = yield from app.begin_transaction(parent=parent)
        yield from set_cell(app, ref, first, 1, 1)
        yield from app.end_transaction(first)
        second = yield from app.begin_transaction(parent=parent)
        # The parent holds the lock now; the sibling is a *different*
        # transaction and must fail (strict separation, per the paper).
        try:
            yield from app.call(ref, "set_cell",
                                {"cell": 1, "value": 2}, second)
            outcome = "acquired"
        except Exception as error:
            outcome = type(error).__name__
        yield from app.end_transaction(parent)
        return outcome

    assert cluster.run_on("n1", body()) == "LockTimeout"


def test_begin_under_terminated_parent_rejected(env):
    cluster, app, ref = env

    def body():
        parent = yield from app.begin_transaction()
        yield from app.abort_transaction(parent)
        yield from app.begin_transaction(parent=parent)

    with pytest.raises(TransactionAborted):
        cluster.run_on("n1", body())


def test_crash_before_parent_commit_undoes_merged_child(env):
    cluster, app, ref = env
    from repro.sim import Timeout

    def body():
        parent = yield from app.begin_transaction()
        child = yield from app.begin_transaction(parent=parent)
        yield from set_cell(app, ref, child, 1, 77)
        yield from app.end_transaction(child)
        yield Timeout(cluster.engine, 60_000.0)  # parent never commits

    cluster.spawn_on("n1", body())
    cluster.engine.run(until=cluster.engine.now + 5_000.0)
    cluster.crash_node("n1")
    cluster.restart_node("n1")

    app2 = cluster.application("n1")

    def check(tid):
        ref2 = yield from app2.lookup_one("array")
        result = yield from app2.call(ref2, "get_cell", {"cell": 1}, tid)
        return result["value"]

    assert cluster.run_transaction("n1", check) == 0


def test_committed_parent_with_merged_child_survives_crash(env):
    cluster, app, ref = env

    def body():
        parent = yield from app.begin_transaction()
        child = yield from app.begin_transaction(parent=parent)
        yield from set_cell(app, ref, child, 1, 88)
        yield from app.end_transaction(child)
        yield from set_cell(app, ref, parent, 2, 99)
        yield from app.end_transaction(parent)

    cluster.run_on("n1", body())
    cluster.crash_node("n1")
    cluster.restart_node("n1")

    app2 = cluster.application("n1")

    def check(tid):
        ref2 = yield from app2.lookup_one("array")
        first = yield from app2.call(ref2, "get_cell", {"cell": 1}, tid)
        second = yield from app2.call(ref2, "get_cell", {"cell": 2}, tid)
        return first["value"], second["value"]

    assert cluster.run_transaction("n1", check) == (88, 99)
