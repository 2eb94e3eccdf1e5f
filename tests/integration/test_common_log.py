"""Several data servers sharing one node's common log.

"All objects in TABS use one of two co-existing write-ahead logging
techniques and share a common log" (Section 2.1.3): value-logged and
operation-logged servers interleave records in a single log, one
transaction can span both, and crash recovery untangles them.
"""

import pytest

from repro import TabsCluster, TabsConfig
from repro.servers.int_array import IntegerArrayServer
from repro.servers.op_array import OperationArrayServer
from repro.wal.records import OperationRecord, ValueUpdateRecord


@pytest.fixture
def env():
    cluster = TabsCluster(TabsConfig())
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("values"))
    cluster.add_server("n1", OperationArrayServer.factory("counters"))
    cluster.start()
    app = cluster.application("n1")

    def refs():
        values = yield from app.lookup_one("values")
        counters = yield from app.lookup_one("counters")
        return values, counters

    values, counters = cluster.run_on("n1", refs())
    return cluster, app, values, counters


def test_one_transaction_spans_both_logging_techniques(env):
    cluster, app, values, counters = env

    def body(tid):
        yield from app.call(values, "set_cell",
                            {"cell": 1, "value": 10}, tid)
        yield from app.call(counters, "add_cell",
                            {"cell": 1, "delta": 3}, tid)

    cluster.run_transaction("n1", body)
    tabs = cluster.node("n1")
    durable = tabs.rm.wal.read_forward(tabs.rm.wal.store.truncated_before)
    kinds = {type(r).__name__ for r in durable}
    assert "ValueUpdateRecord" in kinds
    assert "OperationRecord" in kinds


def test_abort_undoes_across_both_servers(env):
    cluster, app, values, counters = env

    def aborted():
        tid = yield from app.begin_transaction()
        yield from app.call(values, "set_cell",
                            {"cell": 1, "value": 99}, tid)
        yield from app.call(counters, "add_cell",
                            {"cell": 1, "delta": 99}, tid)
        yield from app.abort_transaction(tid)

    cluster.run_on("n1", aborted())

    def read(tid):
        first = yield from app.call(values, "get_cell", {"cell": 1}, tid)
        second = yield from app.call(counters, "get_cell", {"cell": 1},
                                     tid)
        return first["value"], second["value"]

    assert cluster.run_transaction("n1", read) == (0, 0)


def test_interleaved_records_recover_to_their_own_servers(env):
    cluster, app, values, counters = env

    def mixed(tid):
        yield from app.call(values, "set_cell", {"cell": 1, "value": 5},
                            tid)
        yield from app.call(counters, "add_cell", {"cell": 1, "delta": 7},
                            tid)
        yield from app.call(values, "set_cell", {"cell": 2, "value": 6},
                            tid)
        yield from app.call(counters, "add_cell", {"cell": 2, "delta": 8},
                            tid)

    cluster.run_transaction("n1", mixed)
    cluster.crash_node("n1")
    report = cluster.restart_node("n1")
    assert report.values_restored >= 2
    assert report.operations_redone >= 2

    app2 = cluster.application("n1")

    def verify(tid):
        values2 = yield from app2.lookup_one("values")
        counters2 = yield from app2.lookup_one("counters")
        out = []
        for cell in (1, 2):
            v = yield from app2.call(values2, "get_cell", {"cell": cell},
                                     tid)
            c = yield from app2.call(counters2, "get_cell", {"cell": cell},
                                     tid)
            out.append((v["value"], c["value"]))
        return out

    assert cluster.run_transaction("n1", verify) == [(5, 7), (6, 8)]


def test_records_carry_their_servers_names(env):
    cluster, app, values, counters = env

    def body(tid):
        yield from app.call(values, "set_cell", {"cell": 3, "value": 1},
                            tid)
        yield from app.call(counters, "add_cell", {"cell": 3, "delta": 1},
                            tid)

    cluster.run_transaction("n1", body)
    tabs = cluster.node("n1")
    durable = tabs.rm.wal.read_forward(tabs.rm.wal.store.truncated_before)
    value_servers = {r.server for r in durable
                     if isinstance(r, ValueUpdateRecord)}
    op_servers = {r.server for r in durable
                  if isinstance(r, OperationRecord)}
    assert "values" in value_servers
    assert "counters" in op_servers
