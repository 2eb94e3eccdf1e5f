"""Unit tests for the application library (Table 3-2)."""

import pytest

from repro import TabsCluster, TransactionAborted
from repro.errors import InvalidTransaction
from repro.kernel.costs import Phase
from repro.servers.int_array import IntegerArrayServer
from tests.property.conftest import fast_config


@pytest.fixture
def cluster():
    cluster = TabsCluster(fast_config())
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("array"))
    cluster.start()
    return cluster


def test_begin_returns_fresh_toplevel_tids(cluster):
    app = cluster.application("n1")

    def body():
        first = yield from app.begin_transaction()
        second = yield from app.begin_transaction()
        return first, second

    first, second = cluster.run_on("n1", body())
    assert first != second
    assert first.is_toplevel and second.is_toplevel


def test_end_of_unknown_transaction_raises(cluster):
    app = cluster.application("n1")
    from repro.txn.ids import TransactionID

    def body():
        yield from app.end_transaction(TransactionID("n1", 424242))

    with pytest.raises(InvalidTransaction):
        cluster.run_on("n1", body())


def test_abort_is_idempotent(cluster):
    app = cluster.application("n1")

    def body():
        tid = yield from app.begin_transaction()
        yield from app.abort_transaction(tid)
        yield from app.abort_transaction(tid)  # second abort: no-op

    cluster.run_on("n1", body())


def test_end_after_abort_reports_not_committed(cluster):
    app = cluster.application("n1")

    def body():
        tid = yield from app.begin_transaction()
        yield from app.abort_transaction(tid, reason="because")
        committed = yield from app.end_transaction(tid)
        return committed

    assert cluster.run_on("n1", body()) is False


def test_run_transaction_commits_and_returns(cluster):
    app = cluster.application("n1")

    def body(tid):
        return "result"
        yield

    assert cluster.run_transaction("n1", body) == "result"


def test_run_transaction_aborts_on_exception(cluster):
    app = cluster.application("n1")

    def body(tid):
        raise ValueError("user code failed")
        yield

    with pytest.raises(ValueError):
        cluster.run_transaction("n1", body)
    assert cluster.metrics.counter("n1", "tm.aborts").value >= 1


def test_run_transaction_retries_aborts(cluster):
    app = cluster.application("n1")
    attempts = []

    def body(tid):
        attempts.append(tid)
        if len(attempts) < 3:
            raise TransactionAborted(tid, "simulated conflict")
        return "eventually"
        yield

    result = cluster.run_on(
        "n1", app.run_transaction(body, retries=5))
    assert result == "eventually"
    assert len(attempts) == 3
    assert len(set(attempts)) == 3  # a fresh transaction per attempt


def test_run_transaction_gives_up_after_retries(cluster):
    app = cluster.application("n1")

    def body(tid):
        raise TransactionAborted(tid, "always conflicts")
        yield

    with pytest.raises(TransactionAborted):
        cluster.run_on("n1", app.run_transaction(body, retries=2))


def test_measured_app_flips_meter_phases(cluster):
    app = cluster.application("n1", measured=True)
    observed = []

    def body():
        tid = yield from app.begin_transaction()
        observed.append(cluster.meter.phase)
        ref = yield from app.lookup_one("array")
        yield from app.call(ref, "get_cell", {"cell": 1}, tid)
        yield from app.end_transaction(tid)
        observed.append(cluster.meter.phase)

    cluster.run_on("n1", body())
    assert observed == [Phase.PRE_COMMIT, Phase.PRE_COMMIT]


def test_unmeasured_app_leaves_meter_in_background(cluster):
    app = cluster.application("n1")

    def body():
        tid = yield from app.begin_transaction()
        yield from app.end_transaction(tid)

    cluster.run_on("n1", body())
    assert cluster.meter.phase is Phase.BACKGROUND
