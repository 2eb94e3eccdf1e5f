"""Model-based check of the commit protocol on a real three-node cluster.

Hypothesis drives top-level transactions and subtransactions two levels
deep, homed on any node, through ``add_cell`` calls to an
operation-logged array on any node, EndTransaction and
AbortTransaction, while crashing and restarting any node and opening
link windows that duplicate (and reorder) datagrams.  Each ``settle``
drains the simulation and checks four invariants:

1. every fragment of a decided family agrees on its outcome: no
   identifier is logged both committed and aborted anywhere, and no
   Transaction Manager holds a fragment in the other outcome;
2. no lock is held, or awaited, by a decided family;
3. ``audit_abort_order`` is clean on every node (no update record after
   its transaction's ABORTED record);
4. every cell equals the sum of its committed adds: an add counts when
   its call returned, its family's top level is logged committed, and
   no subtransaction between them aborted.

After the settle, no process may be left alive on a live node: at
quiescence one would wait for good.

The example budget comes from the active Hypothesis profile; CI's
storage soak runs ``--hypothesis-profile=soak`` (``conftest.py``).
Every run of this module counts the cells of docs/PROTOCOL.md's table
its messages reach (``tests/protocol_cells.py``) and writes the counts
to ``commit-protocol-cells.json`` under pytest's base temporary
directory (``--basetemp``); ``tests/txn/test_protocol_table.py`` reaches
every cell deterministically.
"""

import json
from dataclasses import dataclass, field

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    precondition,
    rule,
)

from repro import TabsCluster, TabsConfig
from repro.errors import InvalidTransaction
from repro.recovery.audit import audit_abort_order, watch_terminal_statuses
from repro.servers.op_array import OperationArrayServer
from repro.sim import Process
from repro.txn.manager import TABLE
from tests.protocol_cells import cells_reached

NODES = ("n0", "n1", "n2")
CELLS = (1, 2)
#: simulated time one client step may take before the model moves on
#: (a call waiting for a lock keeps running in the background)
STEP_MS = 400.0


@pytest.fixture(scope="module", autouse=True)
def cell_report(tmp_path_factory):
    """Count the table cells this module's runs reach, and report them."""
    with cells_reached() as reached:
        yield reached
    cells = [{"row": row, "message": column, "reached": reached[row, column]}
             for column, rows in TABLE.items() if column != "tm.abort"
             for row in rows]
    report = tmp_path_factory.getbasetemp() / "commit-protocol-cells.json"
    report.write_text(json.dumps({
        "cells": cells,
        "reached": sum(1 for cell in cells if cell["reached"]),
        "of": len(cells)}, indent=1) + "\n")


def server_of(node: str) -> str:
    return f"ops{node[1:]}"


def _quietly(body):
    """A client step whose call may fail: the outcome is read from the
    logs, not from the client (generator)."""
    try:
        yield from body
    except Exception:
        pass


@dataclass(eq=False)
class Txn:
    home: str
    parent: "Txn | None"
    #: the home node and its incarnation; the client dies with it
    home_node: object
    epoch: int
    tid: object = None
    #: (server, cell, delta) of every add whose call returned
    adds: list = field(default_factory=list)
    #: open; ending / aborting while that call runs; then ended (a
    #: subtransaction merged), committed, refused or aborted; lost when
    #: it never began
    status: str = "open"
    #: the client step running for it, if any
    step: Process | None = None

    @property
    def depth(self) -> int:
        return 0 if self.parent is None else 1 + self.parent.depth

    @property
    def top(self) -> "Txn":
        return self if self.parent is None else self.parent.top

    @property
    def open(self) -> bool:
        """Neither it nor an ancestor ended or aborted."""
        return self.status == "open" and (self.parent is None
                                          or self.parent.open)

    @property
    def idle(self) -> bool:
        """Can its client issue the next call?  Only while it is open,
        no call of its runs and its home node has not crashed."""
        return (self.open and (self.step is None or not self.step.alive)
                and self.home_node.alive and self.home_node.epoch == self.epoch)


class CommitProtocolModel(RuleBasedStateMachine):
    txns = Bundle("txns")

    def __init__(self) -> None:
        super().__init__()
        cluster = self.cluster = TabsCluster(TabsConfig())
        for node in NODES:
            cluster.add_node(node)
            cluster.add_server(node, OperationArrayServer.factory(
                server_of(node)))
        cluster.start()
        self.history = watch_terminal_statuses(cluster)
        self.all: list[Txn] = []

    # -- driving ---------------------------------------------------------

    def _run(self, ms: float = STEP_MS) -> None:
        engine = self.cluster.engine
        engine.run(until=engine.now + ms)

    def _client(self, txn: Txn, body, run: bool = True) -> None:
        """Start one client step for ``txn`` on its home node and run
        the simulation for ``STEP_MS``; a crash of the node kills it."""
        if self.cluster.node(txn.home).node.alive:
            txn.step = self.cluster.spawn_on(txn.home, body, name="model")
        if run:
            self._run()

    # -- rules -------------------------------------------------------------

    @rule(target=txns, home=st.sampled_from(NODES))
    def begin_top(self, home):
        txn = self._txn(home, None)
        self._begin(txn)
        return txn

    @rule(target=txns, parent=txns)
    def begin_sub(self, parent):
        txn = self._txn(parent.home, parent)
        if parent.depth < 2 and parent.idle:
            self._begin(txn)
        else:
            txn.status = "lost"
        return txn

    def _txn(self, home: str, parent: Txn | None) -> Txn:
        node = self.cluster.node(home).node
        return Txn(home, parent, node, node.epoch)

    def _begin(self, txn: Txn) -> None:
        app = self.cluster.application(txn.home)

        def body():
            parent = txn.parent.tid if txn.parent else None
            try:
                txn.tid = yield from (app.begin_transaction(parent=parent)
                                      if parent else app.begin_transaction())
            except Exception:
                txn.status = "lost"
        self.all.append(txn)
        self._client(txn, body())
        if txn.tid is None:
            txn.status = "lost"

    @rule(txn=txns, node=st.sampled_from(NODES), cell=st.sampled_from(CELLS),
          delta=st.integers(1, 9))
    def add(self, txn, node, cell, delta):
        if not txn.idle:
            return
        app = self.cluster.application(txn.home)
        server = server_of(node)

        def body():
            try:
                ref = yield from app.lookup_one(server, node_name=node)
                yield from app.call(ref, "add_cell",
                                    {"cell": cell, "delta": delta}, txn.tid)
            except Exception:
                return  # the client may still end it, or abort it
            txn.adds.append((server, cell, delta))
        self._client(txn, body())

    @rule(txn=consumes(txns))
    def end(self, txn):
        # Calls of the family's other members may still be outstanding:
        # the commit waits for a running one and fails a queued one.
        if not txn.idle:
            return
        app = self.cluster.application(txn.home)

        def body():
            committed = yield from app.end_transaction(txn.tid)
            if txn.parent is not None:
                txn.status = "ended" if committed else "aborted"
            else:
                txn.status = "committed" if committed else "refused"
        txn.status = "ending"
        self._client(txn, _quietly(body()))

    @rule(txn=consumes(txns))
    def abort(self, txn):
        if txn.idle:
            self._abort(txn)

    def _abort(self, txn: Txn, run: bool = True) -> None:
        app = self.cluster.application(txn.home)

        def body():
            yield from app.abort_transaction(txn.tid)
            txn.status = "aborted"
        txn.status = "aborting"
        self._client(txn, _quietly(body()), run)

    @rule(node=st.sampled_from(NODES),
          down_ms=st.sampled_from([0.0, 300.0, 3_000.0]))
    def crash_and_restart(self, node, down_ms):
        cluster = self.cluster
        if not cluster.node(node).node.alive:
            return
        engine = cluster.engine
        engine.schedule(0.0, lambda: cluster.crash_node(node))
        engine.schedule(down_ms, lambda: Process(
            engine, cluster.node(node).restart_generator(),
            name=f"model-restart:{node}"))
        self._run(down_ms + 1.0)

    @rule(pair=st.permutations(NODES), ms=st.sampled_from([200.0, 2_000.0]))
    def duplicating_link(self, pair, ms):
        engine = self.cluster.engine
        self.cluster.network.set_link_fault(
            pair[0], pair[1], duplicate=1.0, reorder=0.5,
            until=engine.now + ms)

    @rule()
    def wait(self):
        self._run()

    @precondition(lambda self: self.all)
    @rule()
    def settle(self):
        """Every client still holding an open transaction aborts it;
        then the simulation drains and the invariants are checked."""
        while idle := [txn for txn in self.all if txn.idle]:
            for txn in idle:
                self._abort(txn, run=False)
            self.cluster.settle()
        self.cluster.settle()
        parked = [txn.tid for txn in self.all
                  if txn.step is not None and txn.step.alive]
        assert parked == [], f"client steps never ended: {parked}"
        # Quiescent: nothing is due but the detectors' heartbeats, so a
        # process still alive waits for something that will never come.
        stuck = [(name, process.name, process.trace_stack)
                 for name, tabs_node in self.cluster.nodes.items()
                 if tabs_node.node.alive
                 for process in tabs_node.node.live_processes()]
        assert stuck == [], f"processes parked at quiescence: {stuck}"
        self.check()

    def teardown(self):
        self.settle()

    # -- invariants ----------------------------------------------------------

    def outcomes(self) -> dict:
        """Exact tid -> the terminal statuses ever logged for it."""
        merged: dict = {}
        for per_node in self.history.values():
            for tid, statuses in per_node.items():
                merged.setdefault(tid, set()).update(statuses)
        return merged

    def check(self) -> None:
        outcomes = self.outcomes()
        decided = {tid for tid in outcomes if tid.is_toplevel}
        # 1. agreement
        for tid, statuses in outcomes.items():
            assert len(statuses) == 1, f"{tid} logged {statuses}"
        for name, tabs_node in self.cluster.nodes.items():
            if not tabs_node.node.alive:
                continue
            for tid, state in tabs_node.tm._states.items():
                outcome = outcomes.get(tid)
                if outcome and state.phase.terminal:
                    assert {state.phase.value} == outcome, (name, tid)
        # 2. no lock of a decided family
        for name, tabs_node in self.cluster.nodes.items():
            for server in tabs_node.servers.values():
                for key, entry in server.library.locks._locks.items():
                    waiting = [w.tid for w in entry.queue]
                    family = [tid for tid in [*entry.holders, *waiting]
                              if tid.toplevel in decided]
                    assert family == [], f"{name}:{key} held by {family}"
        # 3. abort order
        for tabs_node in self.cluster.nodes.values():
            assert audit_abort_order(tabs_node) == []
        # 4. cells
        expected = {(server_of(node), cell): 0
                    for node in NODES for cell in CELLS}
        for txn in self.all:
            if txn.tid is None or not self.counts(txn, outcomes):
                continue
            for server, cell, delta in txn.adds:
                expected[server, cell] += delta
        assert self.cells() == expected

    def counts(self, txn: Txn, outcomes: dict) -> bool:
        """Did ``txn``'s adds commit?"""
        if "committed" not in outcomes.get(txn.top.tid, ()):
            return False
        while txn.parent is not None:
            if "aborted" in outcomes.get(txn.tid, ()) \
                    or txn.status == "aborted":
                return False
            txn = txn.parent
        return True

    def cells(self) -> dict:
        values = {}
        for node in NODES:
            app = self.cluster.application(node)
            server = server_of(node)

            def read(tid):
                ref = yield from app.lookup_one(server, node_name=node)
                for cell in CELLS:
                    reply = yield from app.call(ref, "get_cell",
                                                {"cell": cell}, tid)
                    values[server, cell] = reply["value"]
            self.cluster.run_transaction(node, read)
        return values


TestCommitProtocolModel = CommitProtocolModel.TestCase
# A fifth of the profile's examples: each drives a whole cluster.
TestCommitProtocolModel.settings = settings(
    deadline=None, max_examples=max(1, settings.default.max_examples // 5))


# Shrunk examples, pinned.  The first three failed at the parent of the
# change that added this model, the next two while it was being
# written; the last two held a lock for good until a commit merged its
# members as an abort ends them.


def test_a_subtransaction_aborted_with_its_parent_is_undone_once():
    """The client aborts the top level and its subtransaction at once:
    the top level's walk aborts the subtransaction, whose own abort
    finds that walk begun and waits for it.  Walked twice, the add was
    compensated twice and the cell ended at -1."""
    state = CommitProtocolModel()
    top = state.begin_top(home="n0")
    sub = state.begin_sub(parent=top)
    state.add(cell=1, delta=1, node="n0", txn=sub)
    state.teardown()


def test_a_remote_subtransaction_fragment_aborts_with_its_top_level():
    """Only the subtransaction called n1: its fragment there is tracked
    under its own identifier.  The top level's ``tm.abort_req`` now
    reaches it, and the family's remote-sites notice is kept on the root
    so the abort asks for the spanning tree at all.  Before, the
    fragment held its lock at n1 forever."""
    state = CommitProtocolModel()
    top = state.begin_top(home="n0")
    sub = state.begin_sub(parent=top)
    state.add(cell=1, delta=1, node="n1", txn=sub)
    state.teardown()


def test_a_grandchild_merged_then_aborted_is_undone():
    """A subtransaction's subtransaction adds, both merge into the top
    level, and the top level aborts.  Splicing the merged chain must
    follow it to its end, through the grandchild's records; it stopped
    at the first one and the add survived the abort."""
    state = CommitProtocolModel()
    top = state.begin_top(home="n0")
    sub = state.begin_sub(parent=top)
    subsub = state.begin_sub(parent=sub)
    state.add(cell=1, delta=1, node="n0", txn=subsub)
    state.end(txn=sub)
    state.teardown()
    rm = state.cluster.node("n0").rm
    assert rm._chains == {} and rm._first_lsn == {}


def test_a_restart_noticed_late_spares_a_family_of_the_new_incarnation():
    """n1 restarts before the family first calls it, and n2's detector
    notices only after that call.  The family never reached the old
    incarnation, so the notice is not about it
    (``SpanningRecord.child_epochs``).  Told anyway, n2 aborted the
    family and left n1 out of the abort, as the peer whose work is gone:
    the fragment there held its lock forever."""
    state = CommitProtocolModel()
    top = state.begin_top(home="n2")
    state.add(cell=1, delta=2, node="n0", txn=top)
    state.crash_and_restart(down_ms=300.0, node="n1")
    state.add(cell=2, delta=7, node="n1", txn=top)
    state.teardown()


def test_members_aborted_at_once_keep_their_own_ack_collections():
    """The client aborts a family member by member, all at once, and
    every member's walk tells n2.  Each walk waits for its own acks: the
    collections are keyed by the member's identifier, not the family's.
    Keyed by the family, the walks overwrote one another's collection,
    one walk died on the missing key, and every abort waiting for it --
    and the clients behind them -- was parked for good."""
    state = CommitProtocolModel()
    top = state.begin_top(home="n1")
    for _ in range(3):
        sub = state.begin_sub(parent=top)
    subsub = state.begin_sub(parent=sub)
    state.add(cell=2, delta=9, node="n2", txn=subsub)
    state.teardown()


def test_an_add_queued_behind_its_parent_fails_at_the_commit():
    """A subtransaction's add waits for the WRITE lock its parent holds,
    and the client ends the parent meanwhile.  The commit merges the
    subtransaction once none of its operations runs, and the merge fails
    the add still queued, as an abort's ``ds.abort`` does.  Before, the
    add was granted after the commit released the parent's locks, under
    a subtransaction nobody would ever end, and held its lock for good."""
    state = CommitProtocolModel()
    top = state.begin_top(home="n0")
    sub = state.begin_sub(parent=top)
    state.add(cell=1, delta=1, node="n0", txn=top)
    state.add(cell=1, delta=2, node="n0", txn=sub)
    assert sub.step.alive
    state.end(txn=top)
    state.settle()
    assert top.status == "committed"
    assert sub.adds == []
    cluster = state.cluster
    assert cluster.node("n0").tm.phase_of(sub.tid) is None
    locks = cluster.node("n0").servers["ops0"].library.locks
    assert locks.held_keys(sub.tid) == []
    assert state.cells()["ops0", 1] == 1


def test_an_operation_of_a_merged_subtransaction_opens_no_fragment():
    """The client ends the top level, which merges its subtransaction,
    then calls again under the subtransaction's identifier.  The join is
    refused: a subtransaction of a family born at the node has a state
    there until it ends.  Before, the join opened a fresh fragment that
    nobody would ever end, and its lock was held for good."""
    state = CommitProtocolModel()
    top = state.begin_top(home="n0")
    sub = state.begin_sub(parent=top)
    state.add(cell=1, delta=1, node="n0", txn=sub)
    state.end(txn=top)
    assert top.status == "committed"
    cluster = state.cluster
    app = cluster.application("n0")

    def late_add():
        ref = yield from app.lookup_one("ops0", node_name="n0")
        yield from app.call(ref, "add_cell", {"cell": 2, "delta": 5},
                            sub.tid)
    with pytest.raises(InvalidTransaction):
        cluster.run_on("n0", late_add())
    assert cluster.node("n0").tm.phase_of(sub.tid) is None
    locks = cluster.node("n0").servers["ops0"].library.locks
    assert locks.held_keys(sub.tid) == []
    state.settle()
    assert state.cells()["ops0", 2] == 0
