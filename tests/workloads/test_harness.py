"""The client harness's outcome taxonomy, each outcome from its cause.

A toy :class:`SeededWorkload` -- three hooks over a one-node integer
array -- stands in for every real workload: the base class owns the
spawn-or-skip decision, the begin -> body -> end attempt and the
best-effort abort, so the taxonomy is tested here once, not per
subclass.  Faults are injected by wrapping the application library the
attempt drives; everything the script leaves alone runs for real.
"""

import pytest

from repro import TabsCluster, TabsConfig
from repro.chaos import ChaosController, FaultPlan
from repro.errors import CommunicationError
from repro.servers.int_array import IntegerArrayServer
from repro.workloads.harness import SeededWorkload, TxnRecord


class ToyWorkload(SeededWorkload):
    """Each transaction writes its own index into cell 1."""

    def client_node(self, record):
        return "n1"

    def body(self, app, record, tid):
        ref = yield from app.lookup_one("array")
        yield from app.call(ref, "set_cell",
                            {"cell": 1, "value": record.index + 100}, tid)

    def trace_fields(self, record):
        return (record.index, record.outcome)


class ScriptedApp:
    """The real application library, except where ``script`` intervenes:
    ``begin`` / ``abort`` name an exception to raise instead of calling
    through, ``refuse_commit`` makes ``end_transaction`` abort and
    report False."""

    def __init__(self, app, **script):
        self.app = app
        self.script = script

    def begin_transaction(self):
        if "begin" in self.script:
            raise self.script["begin"]
        return (yield from self.app.begin_transaction())

    def end_transaction(self, tid):
        if self.script.get("refuse_commit"):
            yield from self.app.abort_transaction(tid)
            return False
        return (yield from self.app.end_transaction(tid))

    def abort_transaction(self, tid, reason=""):
        if "abort" in self.script:
            raise self.script["abort"]
        yield from self.app.abort_transaction(tid, reason=reason)

    def __getattr__(self, name):  # lookup_one / call: straight through
        return getattr(self.app, name)


def play_one(body_error=None, **script):
    """One scheduled transaction on a fresh one-node cluster; returns
    ``(workload, record, controller)`` after the run drains."""
    cluster = TabsCluster(TabsConfig())
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("array"))
    cluster.start()
    controller = ChaosController(cluster, FaultPlan(()))
    workload = ToyWorkload(cluster, controller)
    real_open = workload.open_app
    workload.open_app = lambda record: ScriptedApp(real_open(record),
                                                   **script)
    if body_error is not None:
        real_body = workload.body

        def failing_body(app, record, tid):
            yield from real_body(app, record, tid)
            raise body_error

        workload.body = failing_body
    record = TxnRecord(0)
    workload._schedule([record], first_at_ms=5.0, spacing_ms=100.0)
    return workload, record, controller


def cell_one(cluster) -> int:
    def read(tid):
        app = cluster.application("n1")
        ref = yield from app.lookup_one("array")
        reply = yield from app.call(ref, "get_cell", {"cell": 1}, tid)
        return reply["value"]

    return cluster.run_transaction("n1", read)


def traced_outcomes(controller) -> list:
    return [event[2:] for event in controller.trace if event[1] == "txn"]


def test_client_node_down_at_arrival_is_skipped_and_never_spawned():
    workload, record, controller = play_one()
    spawned = []
    workload._attempt = lambda record: spawned.append(record)
    workload.cluster.crash_node("n1")
    workload.run(50.0)
    assert record.outcome == "skipped"
    assert record.tid is None and not spawned
    assert traced_outcomes(controller) == [(0, "skipped")]


@pytest.mark.parametrize("script,body_error,outcome,cell", [
    # begin_transaction raises: never began, definitely no effects
    ({"begin": CommunicationError("TM unreachable")}, None, "failed", 0),
    # body raises, the best-effort abort goes through
    ({}, RuntimeError("server said no"), "aborted", 0),
    # body raises and the TM is gone: the abort cannot be delivered
    ({"abort": CommunicationError("TM gone")}, RuntimeError("boom"),
     "unknown", None),
    # end_transaction returns False
    ({"refuse_commit": True}, None, "aborted", 0),
    # end_transaction returns True
    ({}, None, "committed", 100),
], ids=["failed", "aborted-by-client", "unknown", "aborted-at-commit",
        "committed"])
def test_each_outcome_follows_from_its_cause(script, body_error, outcome,
                                             cell):
    workload, record, controller = play_one(body_error, **script)
    workload.run(50.0)
    workload.cluster.settle()
    assert record.outcome == outcome
    assert (record.tid is None) == (outcome == "failed")
    assert bool(record.error) == (outcome in ("failed", "unknown")
                                  or body_error is not None)
    assert traced_outcomes(controller) == [(0, outcome)]
    if cell is not None:
        assert cell_one(workload.cluster) == cell


def test_play_runs_repairs_and_audits_in_one_call():
    workload, record, _ = play_one()
    quiet, report = workload.play(50.0)
    assert quiet and report.ok, report.violations
    assert record.outcome == "committed"


def test_finale_without_a_controller_names_the_alternative():
    cluster = TabsCluster(TabsConfig())
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("array"))
    cluster.start()
    workload = ToyWorkload(cluster)
    with pytest.raises(ValueError, match="crash_and_recover_all"):
        workload.finale()
    with pytest.raises(ValueError, match="crash_and_recover_all"):
        workload.play()
    workload.crash_and_recover_all()
    assert workload.check_invariants().ok
