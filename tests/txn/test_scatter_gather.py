"""The Transaction Manager talks to all of a node's data servers at once.

``TransactionManager._call_servers`` posts a phase's request to every
server the transaction joined on this node and then collects the
replies, so prepare and phase two cost one exchange whatever the server
count, the vote is combined after every reply is in, and a server that
failed and was recovered mid-exchange is asked again at its new port
without the others being asked twice.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import TabsCluster, TabsConfig
from repro.kernel.ports import Port
from repro.kernel.service import respond
from repro.perf.pathmodel import commit_path
from repro.servers.int_array import IntegerArrayServer
from repro.sim import Process
from tests.property.conftest import fast_config

NODE = "n1"


def build(servers: int, config: TabsConfig | None = None) -> TabsCluster:
    cluster = TabsCluster(config or TabsConfig())
    cluster.add_node(NODE)
    for index in range(servers):
        cluster.add_server(NODE, IntegerArrayServer.factory(f"a{index}"))
    cluster.start()
    return cluster


def library(cluster: TabsCluster, index: int):
    return cluster.node(NODE).servers[f"a{index}"].library


def begin_and_touch(cluster, app, roles, parent=None):
    """Begin a transaction and operate on server ``a<i>`` per ``roles[i]``:
    ``"update"`` sets cell 1 to ``100 + i``, ``"read_only"`` reads it."""
    def body():
        if parent is None:
            tid = yield from app.begin_transaction()
        else:
            tid = yield from app.begin_transaction(parent=parent)
        for index, role in enumerate(roles):
            ref = yield from app.lookup_one(f"a{index}")
            if role == "update":
                yield from app.call(ref, "set_cell",
                                    {"cell": 1, "value": 100 + index}, tid)
            else:
                yield from app.call(ref, "get_cell", {"cell": 1}, tid)
        return tid
    return cluster.run_on(NODE, body())


def vote_abort(server, tid):
    """Make ``server`` vote abort when ``tid`` prepares, as one whose own
    check refused the transaction would."""
    prepare = server._sys_prepare

    def sys_prepare(message):
        if message.body["tid"] != tid:
            return (yield from prepare(message))
        yield server.ctx.cpu("DS", server.ctx.cpu_costs.ds_txn_overhead)
        respond(message, {"vote": "abort"})

    server._sys_prepare = sys_prepare


def cell(cluster, app, index):
    def body(tid):
        ref = yield from app.lookup_one(f"a{index}")
        reply = yield from app.call(ref, "get_cell", {"cell": 1}, tid)
        return reply["value"]
    return cluster.run_transaction(NODE, body)


def served(tracer, op):
    """Server name -> the ``ds:<op>`` spans it served."""
    by_server: dict[str, list] = {}
    for span in tracer.spans:
        if span.name == "ds:" + op:
            by_server.setdefault(span.attrs["server"], []).append(span)
    return by_server


@pytest.fixture
def reply_ports(monkeypatch):
    """Every reply port the service kit builds, as built."""
    made = []

    class Recorded(Port):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr("repro.kernel.service.Port", Recorded)
    return made


def run_to_scatter(cluster, reply_ports, op):
    """Step the engine through the event that posts ``op`` to the servers."""
    while not any(port.name == f"tm-reply:{op}" for port in reply_ports):
        assert cluster.engine.step(), f"{op} was never sent"


# -- (a) the longest path does not grow with the server count ------------------


@pytest.mark.parametrize("servers", [1, 2, 4])
def test_prepare_and_phase_two_last_one_exchange(servers):
    """Table 5-3 counts the longest path and lets parallel branches
    overlap: the local servers are such branches.  One Data Server Call
    each way at Table 5-1 times is 10.0 sim-ms, for 1, 2 and 4 servers --
    what ``commit_path(1, update=True)`` has always claimed by counting a
    fixed number of small messages and no per-server term."""
    cluster = build(servers)
    tracer = cluster.enable_tracing()
    app = cluster.application(NODE)
    tid = begin_and_touch(cluster, app, ["update"] * servers)
    assert cluster.run_on(NODE, app.end_transaction(tid)) is True
    cluster.settle()
    lasted = {span.name: span.end_ms - span.start_ms
              for span in tracer.spans
              if span.name in ("2pc.prepare", "2pc.phase2", "2pc.commit")}
    assert lasted["2pc.prepare"] == pytest.approx(10.0)
    assert lasted["2pc.phase2"] == pytest.approx(10.0)
    assert lasted["2pc.commit"] == pytest.approx(129.0)
    path = commit_path(1, update=True)
    assert (path.small, path.large, path.stable_writes) == (8, 1, 1)
    for op in ("ds.prepare", "ds.commit"):
        spans = served(tracer, op)
        assert sorted(spans) == [f"a{i}" for i in range(servers)]
        assert len({span.start_ms for (span,) in spans.values()}) == 1


# -- (b) one abort vote among four ---------------------------------------------


def test_one_abort_vote_aborts_all_four_and_strands_no_reply(reply_ports):
    cluster = build(4)
    tracer = cluster.enable_tracing()
    app = cluster.application(NODE)
    tid = begin_and_touch(cluster, app, ["update"] * 4)
    vote_abort(library(cluster, 1), tid)

    assert cluster.run_on(NODE, app.end_transaction(tid)) is False
    cluster.settle()
    assert cluster.node(NODE).tm.phase_of(tid) is None
    assert tid in cluster.node(NODE).node.aborted
    # A refused commit is one abort.
    assert cluster.metrics.counter(NODE, "tm.aborts").value == 1
    # The vote was combined after all four answered, so no reply was
    # left behind on a port nobody will read ...
    assert sorted(served(tracer, "ds.prepare")) == ["a0", "a1", "a2", "a3"]
    replies = [port for port in reply_ports
               if port.name.startswith("tm-reply:ds.")]
    assert len(replies) == 8
    assert [port for port in replies if port.queued] == []
    # ... and every server was told, released its locks, and undid its
    # write.
    assert sorted(served(tracer, "ds.abort")) == ["a0", "a1", "a2", "a3"]
    for index in range(4):
        assert library(cluster, index).locks.held_keys(tid) == []
        assert cell(cluster, app, index) == 0


# -- (c) a server fails after the scatter ---------------------------------------


def test_retry_reaches_the_recovered_server_and_nobody_else(reply_ports):
    """Phase two: ``ds.commit`` is on its way to four servers when one
    dies.  It is recovered inside the deadline; the retry goes to the
    rebound port, alone, and the commit completes."""
    cluster = build(4)
    tracer = cluster.enable_tracing()
    tabs = cluster.node(NODE)
    app = cluster.application(NODE)
    tid = begin_and_touch(cluster, app, ["update"] * 4)
    ending = Process(cluster.engine, app.end_transaction(tid), name="end")
    run_to_scatter(cluster, reply_ports, "ds.commit")
    scattered_at = cluster.engine.now
    old_port = library(cluster, 2).port
    tabs.fail_server("a2")
    cluster.run_on(NODE, tabs.recover_server_generator("a2"))
    assert cluster.engine.now - scattered_at < 1_000.0
    assert library(cluster, 2).port is not old_port
    assert not ending.triggered

    assert cluster.engine.run_until(ending) is True
    cluster.settle()
    commits = served(tracer, "ds.commit")
    assert {name: len(spans) for name, spans in commits.items()} == {
        "a0": 1, "a1": 1, "a2": 1, "a3": 1}
    # The dead incarnation served nothing; the new one was asked at the
    # deadline, once.
    assert commits["a2"][0].start_ms >= scattered_at + 1_000.0
    assert commits["a0"][0].start_ms < scattered_at + 1_000.0
    assert sum(port.name == "tm-reply:ds.commit"
               for port in reply_ports) == 5
    for index in range(4):
        assert library(cluster, index).locks.held_keys(tid) == []
        assert cell(cluster, app, index) == 100 + index


def test_server_failed_mid_prepare_and_recovered_aborts_everywhere(
        reply_ports):
    """Phase one: the dead server's volatile state (locks, write set) is
    gone, so its recovery aborts the transaction; the prepare still in
    flight reads its missing reply as an abort vote, and the three
    servers that did answer are not asked to prepare again."""
    cluster = build(4)
    tracer = cluster.enable_tracing()
    tabs = cluster.node(NODE)
    app = cluster.application(NODE)
    tid = begin_and_touch(cluster, app, ["update"] * 4)
    ending = Process(cluster.engine, app.end_transaction(tid), name="end")
    run_to_scatter(cluster, reply_ports, "ds.prepare")
    tabs.fail_server("a2")
    cluster.run_on(NODE, tabs.recover_server_generator("a2"))

    assert cluster.engine.run_until(ending) is False
    cluster.settle()
    assert tabs.tm.phase_of(tid) is None
    assert tid in tabs.node.aborted
    prepares = served(tracer, "ds.prepare")
    assert {name: len(spans) for name, spans in prepares.items()} == {
        "a0": 1, "a1": 1, "a3": 1}
    assert sorted(served(tracer, "ds.abort")) == ["a0", "a1", "a2", "a3"]
    for index in range(4):
        assert library(cluster, index).locks.held_keys(tid) == []
        assert cell(cluster, app, index) == 0


def test_server_that_never_comes_back_votes_abort(reply_ports):
    """The lost server only read: an update there would park the
    Recovery Manager's undo walk on the dead port, which has no time-out
    of its own -- recovering the server is what aborts such a
    transaction (the test above)."""
    cluster = build(4)
    tracer = cluster.enable_tracing()
    tabs = cluster.node(NODE)
    app = cluster.application(NODE)
    tid = begin_and_touch(cluster, app,
                          ["update", "update", "read_only", "update"])
    ending = Process(cluster.engine, app.end_transaction(tid), name="end")
    run_to_scatter(cluster, reply_ports, "ds.prepare")
    scattered_at = cluster.engine.now
    tabs.fail_server("a2")

    assert cluster.engine.run_until(ending) is False
    # Thirty one-second attempts to prepare it, thirty to tell it.
    assert cluster.engine.now - scattered_at >= 60_000.0
    assert sum(port.name == "tm-reply:ds.prepare"
               for port in reply_ports) == 3 + 30
    prepares = served(tracer, "ds.prepare")
    assert {name: len(spans) for name, spans in prepares.items()} == {
        "a0": 1, "a1": 1, "a3": 1}
    for index in (0, 1, 3):
        assert library(cluster, index).locks.held_keys(tid) == []
        assert cell(cluster, app, index) == 0


# -- (d) read-only servers drop out at prepare -----------------------------------


def test_read_only_servers_release_at_prepare_and_do_no_commit_work():
    cluster = build(4)
    tracer = cluster.enable_tracing()
    app = cluster.application(NODE)
    roles = ["update", "read_only", "update", "read_only"]
    tid = begin_and_touch(cluster, app, roles)
    readers = [library(cluster, index) for index in (1, 3)]
    assert all(lib.locks.held_keys(tid) for lib in readers)
    released_at = {}
    for lib in readers:
        release_all = lib.locks.release_all

        def noting(tid, lib=lib, release_all=release_all):
            released_at.setdefault(lib.server_id, cluster.engine.now)
            return release_all(tid)
        lib.locks.release_all = noting

    assert cluster.run_on(NODE, app.end_transaction(tid)) is True
    cluster.settle()
    (prepare,) = [s for s in tracer.spans if s.name == "2pc.prepare"]
    (phase2,) = [s for s in tracer.spans if s.name == "2pc.phase2"]
    assert prepare.attrs["vote"] == "update"
    for name in ("a1", "a3"):
        assert prepare.start_ms <= released_at[name] <= prepare.end_ms
    # Phase two still tells every server the TM knows (as it always
    # has); a reader has no record left and charges no commit CPU.
    commits = served(tracer, "ds.commit")
    assert sorted(commits) == ["a0", "a1", "a2", "a3"]
    assert phase2.end_ms - phase2.start_ms == pytest.approx(10.0)
    for index, role in enumerate(roles):
        assert library(cluster, index).locks.held_keys(tid) == []
        assert cell(cluster, app, index) == (100 + index
                                             if role == "update" else 0)


# -- (e) a subtransaction folds through the same helper ---------------------------


def test_subtransaction_over_three_servers_folds_into_its_parent():
    cluster = build(3)
    tracer = cluster.enable_tracing()
    tm = cluster.node(NODE).tm
    app = cluster.application(NODE)
    parent = cluster.run_on(NODE, app.begin_transaction())
    child = begin_and_touch(cluster, app, ["update"] * 3, parent=parent)
    assert all(library(cluster, i).locks.held_keys(child) for i in range(3))

    assert cluster.run_on(NODE, app.end_transaction(child)) is True
    folds = served(tracer, "ds.subtxn_commit")
    assert sorted(folds) == ["a0", "a1", "a2"]
    assert len({span.start_ms for (span,) in folds.values()}) == 1
    assert tm.phase_of(child) is None
    for index in range(3):
        assert library(cluster, index).locks.held_keys(child) == []
        assert library(cluster, index).locks.held_keys(parent)

    assert cluster.run_on(NODE, app.end_transaction(parent)) is True
    cluster.settle()
    assert sorted(served(tracer, "ds.prepare")) == ["a0", "a1", "a2"]
    for index in range(3):
        assert library(cluster, index).locks.held_keys(parent) == []
        assert cell(cluster, app, index) == 100 + index


# -- the combination rule, for any assignment --------------------------------------


@given(roles=st.lists(
    st.sampled_from(["update", "read_only", "abort", "dead"]),
    min_size=1, max_size=5))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_outcome_is_the_combination_rule_and_every_server_ends_lock_free(
        roles):
    """Commit iff no server votes abort and none is unreachable; either
    way no server is left holding a lock of the transaction.  (A dead
    server only read -- see the never-comes-back test.)"""
    cluster = build(len(roles), fast_config())
    tabs = cluster.node(NODE)
    app = cluster.application(NODE)
    tid = begin_and_touch(
        cluster, app,
        ["update" if role in ("update", "abort") else "read_only"
         for role in roles])
    libraries = [library(cluster, index) for index in range(len(roles))]
    for index, role in enumerate(roles):
        if role == "abort":
            vote_abort(libraries[index], tid)
        elif role == "dead":
            tabs.fail_server(f"a{index}")

    committed = cluster.run_on(NODE, app.end_transaction(tid))
    cluster.settle()
    assert committed is not ("abort" in roles or "dead" in roles)
    assert tabs.tm.phase_of(tid) is None
    assert (tid in tabs.node.aborted) is not committed
    for index, role in enumerate(roles):
        assert libraries[index].locks.held_keys(tid) == []
        assert libraries[index].locks.wait_graph() == []
        if role != "dead":
            expected = 100 + index if committed and role == "update" else 0
            assert cell(cluster, app, index) == expected
