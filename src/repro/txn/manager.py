"""The Transaction Manager process.

Responsibilities (Section 3.2.3): allocating globally unique transaction
identifiers, tracking which data servers and remote sites act on behalf of
each transaction, and driving the tree-structured two-phase commit protocol
in which each node serves as coordinator for the nodes that are its
children in the spanning tree recorded by the Communication Manager.

Local request port (``transaction_manager`` service):

====================  ========================================================
``tm.begin``          allocate a (sub)transaction id; reply
``tm.join``           a data server performed its first operation; ack
``tm.remote_sites``   Communication Manager: remote sites now involved
``tm.remote_arrived`` Communication Manager: a remote-born transaction is
                      active here; ack back to the CM
``tm.end``            commit request from the application; reply bool
``tm.abort``          abort request; reply
====================  ========================================================

Datagram-borne protocol (arriving via the Communication Manager):
``tm.prepare_req`` / ``tm.vote`` / ``tm.commit_req`` / ``tm.abort_req`` /
``tm.ack`` / ``tm.outcome_query`` / ``tm.outcome_reply``.

What ``tm.join``, ``tm.prepare_req``, ``tm.commit_req``, ``tm.abort_req``
/ ``tm.abort``, ``tm.peer_failed``, ``tm.outcome_query`` and ``tm.end`` do
is docs/PROTOCOL.md's table, held here as :data:`TABLE`: the message's
handler looks up the tid's row at this node once
(:meth:`TransactionManager.row`) and runs that row's cell.

Commit of an update subtree follows presumed-abort conventions: a
subordinate forces a PREPARED record before voting and a COMMITTED record
before acknowledging; the coordinator forces its COMMITTED record before
phase two and appends an unforced end record once all acknowledgements are
in; an in-doubt subordinate that finds no coordinator state learns
"aborted".  Read-only participants vote read-only, release their locks at
prepare time, and drop out of phase two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.comm.manager import SERVICE as CM_SERVICE
from repro.errors import InvalidTransaction, TransactionAborted
from repro.kernel.messages import Message
from repro.kernel.node import Node
from repro.kernel.ports import Port
from repro.kernel.service import (
    Service,
    answer,
    handlers_of,
    post,
    request,
    respond,
    respond_error,
    unmarshal,
)
from repro.obs.tracer import NO_SPAN
from repro.recovery.manager import SERVICE as RM_SERVICE
from repro.sim import PARKED, Engine, Event, Process, join_all
from repro.txn.ids import NULL_TID, TidFactory, TransactionID
from repro.txn.status import TransactionState, TxnPhase

if TYPE_CHECKING:  # pragma: no cover
    from repro.recovery.manager import RecoveryManagerClient

SERVICE = "transaction_manager"

#: How long the coordinator waits for votes before aborting.
DEFAULT_VOTE_TIMEOUT_MS = 60_000.0
#: How long phase two waits for an acknowledgement before retrying.
DEFAULT_ACK_TIMEOUT_MS = 10_000.0
#: Retry interval while resolving an in-doubt (prepared) transaction.
RESOLVE_RETRY_MS = 5_000.0


#: the rows of docs/PROTOCOL.md's table that are not a phase: no state
#: and not marked; marked (with no state, or in a column the mark
#: outranks the phase in); an abort's walk running
NO_STATE, MARKED, WALK = "no state", "marked", "walk running"
#: the rows that are a fragment's phase, by its name
ACTIVE, PREPARING, PREPARED, COMMITTED = (
    "ACTIVE", "PREPARING", "PREPARED", "COMMITTED")
#: the columns in which the abort mark outranks the fragment's phase
MARK_FIRST = frozenset({"tm.join", "tm.prepare_req"})

#: docs/PROTOCOL.md's table, column by column: the action each row's cell
#: runs (a :class:`TransactionManager` method taking the row's state, if
#: any, and the message).  A row a column lacks is the table's ``--``:
#: the message is dropped.  ``tm.abort``, ``tm.abort_req`` and
#: ``tm.peer_failed`` run their cell once per member of the tid here.
TABLE: dict[str, dict[str, str]] = {
    "tm.join": {NO_STATE: "_join_foreign", MARKED: "_refuse_join",
                ACTIVE: "_join", PREPARING: "_refuse_join",
                PREPARED: "_refuse_join", COMMITTED: "_refuse_join"},
    "tm.prepare_req": {NO_STATE: "_prepare_unseen", MARKED: "_vote_abort",
                       ACTIVE: "_prepare", PREPARING: "_ignore",
                       PREPARED: "_vote_update", COMMITTED: "_ignore"},
    "tm.commit_req": {NO_STATE: "_ack_commit", MARKED: "_ack_commit",
                      ACTIVE: "_commit", PREPARED: "_commit",
                      COMMITTED: "_ack_commit"},
    "tm.abort_req": {NO_STATE: "_ignore", MARKED: "_ignore", ACTIVE: "_walk",
                     PREPARING: "_walk", PREPARED: "_walk", WALK: "_walk",
                     COMMITTED: "_ignore"},
    "tm.peer_failed": {NO_STATE: "_ignore", MARKED: "_ignore",
                       ACTIVE: "_doom_and_walk", PREPARING: "_doom",
                       PREPARED: "_ignore", WALK: "_doom_and_walk",
                       COMMITTED: "_ignore"},
    "tm.outcome_query": {NO_STATE: "_tell_outcome", MARKED: "_tell_outcome",
                         ACTIVE: "_ignore", PREPARING: "_ignore",
                         PREPARED: "_ignore", WALK: "_ignore",
                         COMMITTED: "_tell_outcome"},
    "tm.end": {NO_STATE: "_end_unknown", MARKED: "_end_aborted",
               ACTIVE: "_end", WALK: "_end"},
}
TABLE["tm.abort"] = TABLE["tm.abort_req"]


def _deepest_first(tid: TransactionID) -> tuple:
    """Sort key for walking a set of subtransactions: descendants before
    their ancestors, siblings by identifier (not by set order, which
    follows the string hash)."""
    return -len(tid.path), tid


@dataclass
class _Votes:
    engine: Engine
    expected: set[str]
    received: dict[str, str] = field(default_factory=dict)
    #: the awaiting process and its park token, once it awaits
    waiter: tuple[Process, int] | None = None
    #: every expected response has arrived ...
    complete: bool = False
    #: ... and the entry that hands the news over has run
    settled: bool = False

    def record(self, sender: str, response: str) -> None:
        """Note one response; the last expected one ends the wait, in an
        entry of its own (which runs before the wait begins, or not)."""
        self.received[sender] = response
        if not self.complete and set(self.received) >= self.expected:
            self.complete = True
            self.engine.schedule_now(self._settle)

    def _settle(self) -> None:
        self.settled = True
        if self.waiter is not None:
            process, token = self.waiter
            process.end(token, True)

    def wait(self, timeout_ms: float) -> object:
        """Park the running process until the collection is complete,
        and return what it yields: it resumes with True, or with None
        once ``timeout_ms`` has passed first."""
        process: Process = self.engine.active_process  # type: ignore
        token = process.park(timeout_ms)
        if self.settled:
            process.wake(token, True)
        else:
            self.waiter = (process, token)
        return PARKED


class TransactionManager:
    """One per node."""

    def __init__(self, node: Node,
                 recovery_manager: "RecoveryManagerClient") -> None:
        self.node = node
        self.ctx = node.ctx
        self.rm = recovery_manager
        self.port = node.create_port("tm")
        node.register_service(SERVICE, self.port)
        self.tids = TidFactory(node.name, epoch=node.epoch)
        self._states: dict[TransactionID, TransactionState] = {}
        #: open vote/ack collections keyed by (kind, tid)
        self._collections: dict[tuple[str, TransactionID], _Votes] = {}
        self.vote_timeout_ms = DEFAULT_VOTE_TIMEOUT_MS
        self.ack_timeout_ms = DEFAULT_ACK_TIMEOUT_MS
        self.max_ack_retries = 3
        #: how long a prepared subordinate waits before inquiring
        self.prepared_inquiry_ms = 30_000.0
        #: "checkpoints are performed at intervals determined by the
        #: transaction manager" (Section 3.2.2): one every N commits.
        #: None disables TM-driven checkpoints.
        self.checkpoint_every_commits: int | None = None
        #: available-copies commit-time validation: callable taking the
        #: client's replication footprint and returning an abort reason
        #: or None (wired by the node's ReplicaRuntime; None when
        #: replication is off)
        self.replication_validator: "Callable[[dict], str | None] | None" \
            = None
        #: availability probe for phase-two ack collections: a child the
        #: probe reports down cannot ack, so waiting out the timeout only
        #: freezes the family's locks -- presumed abort / the recovery
        #: outcome query already cover it.  None (replication off) keeps
        #: the measured system's exact waiting behavior.
        self.peer_down_probe: "Callable[[str], bool] | None" = None
        self._commits_since_checkpoint = 0
        #: the request loop; its gate is the crash-recovery gate: while
        #: set, inbound messages wait in the port queue so protocol traffic
        #: cannot race log replay
        self._service = Service(node, self.port, "tm", handlers_of(self),
                                "transaction-manager")

    # -- plumbing ---------------------------------------------------------------

    def hold_messages_until_recovered(self) -> None:
        """Close the message gate until :meth:`recovery_complete`.

        A restarting node can receive commit-protocol traffic -- e.g. a
        prompt abort triggered by a peer's failure detector -- while its
        own log replay is still restoring the very transactions those
        messages concern.  Processing an abort mid-replay interleaves
        its undo with recovery's redo, resurrecting prepared-but-aborted
        effects.  While the gate is closed, inbound messages simply wait
        in the port queue; nothing is dropped.
        """
        self._service.gate = Event(self.ctx.engine,
                                   name=f"tm-recovered:{self.node.name}")

    def recovery_complete(self) -> None:
        """Open the message gate: this node's state is consistent again."""
        gate, self._service.gate = self._service.gate, None
        if gate is not None and not gate.triggered:
            gate.succeed()

    def _state(self, tid: TransactionID) -> TransactionState:
        try:
            return self._states[tid]
        except KeyError:
            raise InvalidTransaction(
                f"transaction {tid} is unknown on node "
                f"{self.node.name!r}") from None

    def _answer(self, message: Message, op: str, **body) -> None:
        """Send ``op`` about ``message``'s tid to the node it came from."""
        self._send_datagram(message.body["from"], op, body,
                            message.body["tid"])

    def _send_datagram(self, target: str, op: str, body: dict,
                       tid: TransactionID) -> None:
        payload = Message(op=op, tid=tid,
                          body={**body, "service": SERVICE,
                                "from": self.node.name, "tid": tid})
        self.node.service(CM_SERVICE).send(Message(
            op="cm.send_datagram", body={"target": target,
                                         "payload": payload}))

    # -- begin / join / bookkeeping ----------------------------------------------

    def _handle_begin(self, message: Message):
        yield self.ctx.cpu("TM", self.ctx.cpu_costs.tm_begin)
        parent_tid: TransactionID = message.body.get("parent", NULL_TID)
        if parent_tid.is_null:
            tid = self.tids.new_toplevel()
        else:
            if self.row(parent_tid, message.op)[0] != ACTIVE:
                respond_error(message, TransactionAborted(
                    parent_tid, self.node.aborted.get(
                        parent_tid, "parent is no longer active")))
                return
            tid = self.tids.new_subtransaction(parent_tid)
        self._states[tid] = TransactionState(tid)
        respond(message, {"tid": tid})

    def _join(self, state, message: Message) -> None:
        state.servers.add(message.body["server"])
        state.server_ports[message.body["server"]] = message.body["port"]
        respond(message, {"ok": True})

    def _join_foreign(self, state, message: Message) -> None:
        """A remote subtransaction operating here: tracked under its own
        id.  A subtransaction of a family born here was begun here and
        has a state until it ends, so without one it has ended: merged
        into its parent or aborted."""
        tid: TransactionID = message.body["tid"]
        if tid.is_toplevel or tid.node == self.node.name:
            respond_error(message, InvalidTransaction(str(tid)))
            return
        state = self._states[tid] = TransactionState(tid)
        self._join(state, message)

    def _refuse_join(self, state, message: Message) -> None:
        """An operation asks to join a fragment whose abort began, or that
        has begun to vote, after it was admitted: refused, or its locks
        would belong to a fragment nobody will ever end, or its updates
        would miss the prepare records the vote rests on."""
        tid: TransactionID = message.body["tid"]
        respond_error(message, TransactionAborted(tid, self.node.aborted.get(
            tid, "the fragment has voted")))

    def _handle_remote_sites(self, message: Message) -> None:
        # One notice per family: it goes on the family's root here, which
        # every member's abort consults.
        tid: TransactionID = message.body["tid"]
        state = self._states.get(tid.toplevel) or self._states.get(tid)
        if state is not None:
            state.has_remote_sites = True

    def _handle_remote_arrived(self, message: Message) -> None:
        tid: TransactionID = message.body["tid"]
        if self.row(tid, message.op)[0] == NO_STATE:
            self._states[tid] = TransactionState(
                tid, parent_node=message.body["parent_node"])
        # Ack back to the Communication Manager (counted small message).
        self.node.service(CM_SERVICE).send(
            Message(op="cm.ack_remote", body={"tid": tid}))

    # -- docs/PROTOCOL.md's table ---------------------------------------------------

    def row(self, tid: TransactionID,
            column: str) -> tuple[str, TransactionState | None]:
        """``tid``'s row of the table at this node, and its state if it
        has one.  The abort mark outranks the phase only in the
        :data:`MARK_FIRST` columns; elsewhere a marked fragment with a
        state is in its phase's row, or in the walk's while one runs."""
        state = self._states.get(tid)
        if tid in self.node.aborted and (state is None
                                         or column in MARK_FIRST):
            return MARKED, state
        if state is None:
            return NO_STATE, None
        if state.walk is not None:
            return WALK, state
        return state.phase.name, state

    def _cell(self, tid: TransactionID, message: Message):
        """Run ``message``'s cell for ``tid``'s row: what the action
        returns, the generator of a cell that waits (None for one that
        never does, and for the table's ``--``)."""
        row, state = self.row(tid, message.op)
        action = TABLE[message.op].get(row)
        return None if action is None else getattr(self, action)(
            state, message)

    def _dispatch_now(self, message: Message) -> None:
        """The handler of a column whose cells never wait."""
        self._cell(message.body["tid"], message)

    def _dispatch(self, message: Message):
        """The handler of a column whose cells may wait; the subordinate's
        two requests run in a span."""
        tid: TransactionID = message.body["tid"]
        with (NO_SPAN if message.op == "tm.end" else self.ctx.span(
                "2pc." + message.op[3:], self.node.name, "TM", tid=tid,
                coordinator=message.body["from"])):
            step = self._cell(tid, message)
            if step is not None:
                yield from step

    def _abort_members(self, message: Message):
        """The handler of ``tm.abort``, ``tm.abort_req`` and
        ``tm.peer_failed``: each member of the tid here gets its own row's
        cell, deepest first, and then the sender its answer."""
        tid: TransactionID = message.body["tid"]
        if message.op == "tm.peer_failed":
            # A coordinator mid-prepare stops waiting for the dead peer.
            peer = message.body["peer"]
            votes = self._collections.get(("vote", tid))
            if (votes is not None and peer in votes.expected
                    and peer not in votes.received):
                votes.record(peer, "abort")
        for member in self._members(tid):
            step = self._cell(member, message)
            if step is not None:
                yield from step
        if message.op == "tm.abort":
            respond(message, {"aborted": True})
        elif message.op == "tm.abort_req":
            self._answer(message, "tm.ack", ack="aborted")

    _handle_join = _handle_outcome_query = _dispatch_now
    _handle_prepare_req = _handle_commit_req = _handle_end = _dispatch
    _handle_abort = _handle_abort_req = _handle_peer_failed = _abort_members

    def _ignore(self, state, message: Message) -> None:
        """The cells where a message changes nothing."""

    # -- the family's members here ---------------------------------------------------

    def _members(self, tid: TransactionID) -> list[TransactionID]:
        """``tid`` and its descendants that have a state on this node,
        deepest first: a subtransaction begun here, or one that operated
        here remotely under its own identifier."""
        return sorted((other for other in self._states
                       if other == tid or tid.is_ancestor_of(other)),
                      key=_deepest_first)

    def _merge_members(self, tid: TransactionID, into: TransactionID):
        """Fold ``tid``'s members here, deepest first, each into its
        nearest ancestor with a state here, and last ``tid`` itself into
        ``into`` (a subtransaction's EndTransaction: its parent) -- or
        leave ``tid`` as the root when ``into`` is ``tid`` (a top level's
        commit, a subordinate's prepare).  The permanent commit comes
        only with the top level's (Section 2.1.3)."""
        for member in self._members(tid):
            state = self._states.get(member)
            if member == into or state is None:
                continue
            parent = member.parent
            while parent not in self._states and parent != into:
                parent = parent.parent
            yield from self._fold(state, self._state(parent))

    def _fold(self, child: TransactionState, into: TransactionState):
        """Make ``into`` the owner of everything ``child`` did here: once
        none of ``child``'s operations runs here (as an abort waits), each
        server re-files the locks and write set and fails the requests
        still queued, the Recovery Manager splices the undo chains, and
        ``child`` is forgotten."""
        yield from self.node.until_idle(child.tid)
        ports = dict(child.server_ports)
        replies, errors = yield from self._call_servers(
            child.tid, list(ports), "ds.subtxn_commit",
            {"child": child.tid, "parent": into.tid})
        for server in replies:
            into.servers.add(server)
            into.server_ports.setdefault(server, ports[server])
        if errors:
            raise next(iter(errors.values()))
        yield from self.rm.merge_chain_via_message(child.tid, into.tid)
        into.has_remote_sites = (into.has_remote_sites
                                 or child.has_remote_sites)
        self._forget(child.tid)

    def _children(self, state: TransactionState, *others: str):
        """This node's children in ``state``'s commit spanning tree, minus
        itself and ``others`` (the node that asked) -- generator.

        An interior node fetches them from the Communication Manager;
        a family with no remote sites below here skips the query.
        """
        root = (state if state.tid.is_toplevel
                else self._states.get(state.tid.toplevel))
        if not (state.has_remote_sites
                or root is not None and root.has_remote_sites):
            return []
        info = yield from request(
            self.node, self.node.service(CM_SERVICE), "cm.spanning_info",
            {"tid": state.tid}, reply="tm-reply:cm.spanning_info")
        skip = (self.node.name, *others)
        return [child for child in info["children"] if child not in skip]

    def _call_servers(self, tid: TransactionID, servers: list[str], op: str,
                      body: dict, retries: int = 30,
                      retry_ms: float = 1_000.0):
        """Request/response with a node's data servers, all at once: post
        ``op`` to every one of ``servers`` (sends are asynchronous), then
        collect the replies in the order given, so the exchange costs one
        round trip whatever the server count.

        Resilient to a server process failing and being recovered
        mid-protocol: a server silent for ``retry_ms`` is posted to again
        at its (possibly rebound) port, up to ``retries`` times in all;
        servers that answered are not asked twice.  Returns ``(replies,
        errors)``, both keyed by server -- the reply body, or the
        exception that stands in for it: the server's own error, no port
        under ``tid``, or retries exhausted.  Every reply is collected
        before returning; what an error means is the caller's decision.
        """
        replies: dict[str, dict] = {}
        errors: dict[str, Exception] = {}
        silent = list(servers)
        for _ in range(retries):
            state = self._states.get(tid)
            posted = []
            for server in silent:
                port = state.server_ports.get(server) if state else None
                if port is None:
                    errors[server] = InvalidTransaction(
                        f"no port for server {server!r} under {tid}")
                    continue
                posted.append((server, post(self.node, port, op, body,
                                            reply=f"tm-reply:{op}")))
            silent = []
            for server, reply_port in posted:
                response = yield from answer(reply_port, retry_ms)
                if response is None:
                    silent.append(server)
                    continue
                try:
                    replies[server] = unmarshal(response)
                except Exception as error:  # noqa: BLE001 - what it raised
                    errors[server] = error
            if not silent:
                break
        for server in silent:
            errors[server] = TransactionAborted(
                tid, f"data server {server!r} unreachable for {op!r}")
        return replies, errors

    # -- commit: application entry point --------------------------------------------

    def _end_unknown(self, state, message: Message) -> None:
        respond_error(message, InvalidTransaction(str(message.body["tid"])))

    def _end_aborted(self, state, message: Message):
        """Nothing the client sent on its way is still running when it
        hears the outcome."""
        yield from join_all(message.body.get("copies", ()))
        self._reply_end(message, False)

    def _reply_end(self, message: Message, committed: bool) -> None:
        respond(message, {"committed": committed, "reason": "" if committed
                          else self.node.aborted[message.body["tid"]]})

    def _end(self, state, message: Message):
        tid = state.tid
        if not tid.is_toplevel:
            try:
                yield from self._merge_members(tid, into=tid.parent)
            except Exception as error:  # noqa: BLE001 - a server refused
                # The child stays ACTIVE for its caller to abort.
                respond_error(message, error)
                return
            respond(message, {"committed": True})
            return
        yield self.ctx.cpu("TM", self.ctx.cpu_costs.tm_commit_read)
        yield self.ctx.cpu("other", self.ctx.cpu_costs.tm_dispatch_slop)
        # Live subtransactions commit with their parent.
        yield from self._merge_members(tid, into=tid)
        children, reason = None, None
        footprint = message.body.get("replication")
        if footprint is not None:
            children, reason = yield from self._settle_replicated(
                state, footprint, message.body["copies"])
        if reason is None:
            committed = yield from self._commit_root(state, children)
        else:
            yield from self._abort_subtree(state, children, reason=reason)
            committed = False
        self._reply_end(message, committed)

    def _settle_replicated(self, state: TransactionState, footprint: dict,
                           copies: list):
        """Everything a replicated transaction must settle before it
        prepares (generator returning ``(children, abort reason or
        None)``).

        The spanning tree is asked for while ``copies`` -- the client's
        write-behind copies still running, processes of this node -- are
        in flight, then they are joined: the first failure in issue order
        aborts the transaction.  A copy's first message may leave after
        that answer, so a footprint node missing from it means asking
        again.  Then available-copies validation: a site failure erased
        its in-memory CC state, so a write that touched a since-failed
        replica cannot be trusted -- abort before prepare fans out.
        """
        children = yield from self._children(state)
        failed = yield from join_all(copies)
        touched = (set(footprint["written"]) | set(footprint["read"])) \
            - {self.node.name}
        if not touched <= set(children):
            children = yield from self._children(state)
        if failed is not None:
            copy, error = failed
            return children, f"{copy.name} failed: {error!r}"
        if state.phase.terminal or self.replication_validator is None:
            return children, None
        reason = self.replication_validator(footprint)
        if reason is not None:
            self.ctx.metrics.counter(
                self.node.name, "replication.validation_abort").inc()
        return children, reason

    def _commit_root(self, state: TransactionState,
                     children: list[str] | None = None):
        """Commit a top-level transaction at its birth node (generator;
        True iff committed).  ``children`` is the spanning tree's answer
        if the caller already has it."""
        tid = state.tid
        if state.phase.terminal:
            # A peer-failure notification aborted the family between the
            # client's EndTransaction and here.
            return False
        started = self.ctx.now
        with self.ctx.span("2pc.commit", self.node.name, "TM",
                           tid=tid) as span:
            if children is None:
                children = yield from self._children(state)
            vote = yield from self._prepare_subtree(state, children)
            if vote == "abort":
                yield from self._abort_subtree(state, children)
                span.set(outcome="abort")
                return False
            if vote == "read_only":
                # No updates anywhere: note completion (unforced) and
                # finish.
                self.rm.note_txn_done(tid)
                # Single-CPU serialization: the Recovery Manager's
                # bookkeeping delays the application's next request on a
                # real Perq.
                yield self.ctx.cpu_costs.rm_read_txn
                self._forget(tid)
                self._maybe_checkpoint()
                self._observe_commit(started, 1 + len(children), "read")
                span.set(outcome="read_only")
                return True

            # Update transaction: force the commit record, then phase two.
            yield from self.rm.append_status_via_message(
                tid, "committed", servers=tuple(sorted(state.servers)),
                children=tuple(children))
            yield self.ctx.cpu("TM",
                               self.ctx.cpu_costs.tm_commit_write_extra)
            state.advance(TxnPhase.COMMITTED)
            if self.ctx.merged_architecture:
                # Improved architecture: phase two overlaps succeeding
                # transactions; the application's reply does not wait for
                # it.
                self.node.spawn(self._finish_phase_two(state, children),
                                name=f"tm:lazy-p2:{tid}", defused=True)
            else:
                yield from self._finish_phase_two(state, children)
            self._maybe_checkpoint()
            self._observe_commit(started, 1 + len(children), "write")
            span.set(outcome="committed")
            return True

    def _observe_commit(self, started: float, nodes: int,
                        kind: str) -> None:
        """Per-protocol commit-path latency (Table 5-7's row naming)."""
        protocol = f"{nodes}_node_{kind}"
        self.ctx.metrics.counter(self.node.name,
                                 f"commit.{protocol}").inc()
        self.ctx.metrics.histogram(
            self.node.name, f"commit.{protocol}_ms").observe(
            self.ctx.now - started)

    def _finish_phase_two(self, state: TransactionState,
                          children: list[str]):
        tid = state.tid
        yield from self._phase_two(state, children, "commit")
        if state.pending_acks:
            # A child is unreachable: keep the committed state so its
            # recovery can learn the outcome.  A stray ack completes us.
            return
        if children:
            # The unforced end record stops recovery from re-driving phase
            # two; a purely local commit needs none.
            self.rm.note_txn_done(tid)
        self._forget(tid)

    def _maybe_checkpoint(self) -> None:
        """TM-driven periodic checkpoints, counted in commits."""
        if not self.checkpoint_every_commits:
            return
        self._commits_since_checkpoint += 1
        if self._commits_since_checkpoint < self.checkpoint_every_commits:
            return
        self._commits_since_checkpoint = 0
        self.node.service(RM_SERVICE).send(Message(
            op="rm.checkpoint",
            body={"active_transactions": self.active_transactions()}))

    # -- prepare phase -----------------------------------------------------------------

    def _prepare_subtree(self, state: TransactionState,
                         children: list[str]):
        """Prepare local servers and child nodes; combined vote."""
        tid = state.tid
        if tid in self.node.aborted:
            # Its abort began under our feet (a peer-failure notification)
            # while the caller was off gathering spanning info.
            return "abort"
        state.advance(TxnPhase.PREPARING)
        with self.ctx.span("2pc.prepare", self.node.name, "TM", tid=tid,
                           children=lambda: ",".join(children)) as span:
            collection = None
            if children:
                collection = self._open_collection("vote", tid, children)
                for child in children:
                    self._send_datagram(child, "tm.prepare_req", {}, tid)

            replies, errors = yield from self._call_servers(
                tid, list(state.server_ports), "ds.prepare", {"tid": tid})
            votes = {reply["vote"] for reply in replies.values()}
            if errors or "abort" in votes:
                # A server that cannot be reached cannot promise anything.
                combined = "abort"
            elif "update" in votes:
                combined = "update"
            else:
                combined = "read_only"
            if collection is not None:
                remote_votes = yield from self._await_collection(
                    "vote", tid, self.vote_timeout_ms)
                if remote_votes is None or "abort" in remote_votes.values():
                    combined = "abort"
                elif ("update" in remote_votes.values()
                      and combined != "abort"):
                    combined = "update"
            if tid in self.node.aborted:
                # A peer-failure notice doomed the family meanwhile: nothing
                # durable is promised yet, so the vote is abort.
                combined = "abort"
            span.set(vote=combined)
            return combined

    def _live_children(self, children: list[str]) -> list[str]:
        """The children worth awaiting: all of them, minus any a
        configured availability probe currently reports down."""
        if self.peer_down_probe is None:
            return list(children)
        return [child for child in children
                if not self.peer_down_probe(child)]

    def _open_collection(self, kind: str, tid: TransactionID,
                         expected: list[str]) -> _Votes:
        votes = _Votes(self.ctx.engine, set(expected))
        self._collections[(kind, tid)] = votes
        return votes

    def _await_collection(self, kind: str, tid: TransactionID,
                          timeout_ms: float):
        """Wait for all expected responses; None on timeout."""
        votes = self._collections[(kind, tid)]
        complete = yield votes.wait(timeout_ms)
        del self._collections[(kind, tid)]
        if complete is None and len(votes.received) < len(votes.expected):
            return None
        return votes.received

    def _handle_vote(self, message: Message) -> None:
        self._record_response("vote", "voter", message)

    def _handle_ack(self, message: Message) -> None:
        self._record_response("ack", "acker", message)

    def _record_response(self, kind: str, sender_attr: str,
                         message: Message) -> None:
        tid: TransactionID = message.body["tid"]
        sender: str = message.body["from"]
        response: str = message.body.get(kind, "")
        # Zero-duration span under the subordinate's prepare / phase-two
        # span that caused this arrival.
        with self.ctx.span("2pc." + kind, self.node.name, "TM", tid=tid,
                           **{sender_attr: sender, kind: response}):
            pass
        votes = self._collections.get((kind, tid))
        if votes is not None:
            votes.record(sender, response)
        elif kind == "ack":
            self._stray_ack(tid, sender)
        # otherwise: a stale vote after a timeout-driven abort

    def _stray_ack(self, tid: TransactionID, child: str) -> None:
        """A late phase-two ack from a child that crashed mid-protocol and
        resolved the transaction through its own recovery."""
        state = self._states.get(tid)
        if state is None or not state.pending_acks:
            return
        state.pending_acks.discard(child)
        if not state.pending_acks:
            self.rm.note_txn_done(tid)
            self._forget(tid)

    # -- peer-failure notifications (from the Communication Manager) --------------

    def _doom(self, state, message: Message) -> None:
        """A peer spanning this family was declared dead or restarted:
        presumed abort, promptly.  The family is doomed here through the
        abort mark, so a fragment mid-prepare votes abort when its prepare
        ends and a later ``tm.prepare_req`` votes abort at once.  PREPARED
        and COMMITTED fragments are never touched: a prepared subordinate
        must learn the outcome from its coordinator (possibly via
        recovery-time outcome queries), and a committed transaction is
        history."""
        self._mark(message.body["tid"], self._peer_failure(message))

    def _doom_and_walk(self, state, message: Message):
        """:meth:`_doom`, and abort the ACTIVE fragment (releasing its
        locks), telling the family's children but the failed peer."""
        self._doom(state, message)
        children = [c for c in message.body.get("children", ())
                    if c not in (message.body["peer"], self.node.name)]
        self.ctx.meter.bump("aborts_on_failure")
        yield from self._abort_subtree(state, children,
                                       reason=self._peer_failure(message))

    @staticmethod
    def _peer_failure(message: Message) -> str:
        return f"peer {message.body['peer']} " \
               f"{message.body.get('event', 'failed')}"

    # -- subordinate side ---------------------------------------------------------------

    def _vote_abort(self, state, message: Message) -> None:
        """Aborted or doomed here (e.g. a peer-failure notification beat
        the coordinator's prepare): the vote must be abort."""
        self._answer(message, "tm.vote", vote="abort")

    def _vote_update(self, state, message: Message) -> None:
        """A duplicated request (or a second parent in the tree): a
        promise once made stands -- aborting now would break it."""
        self._answer(message, "tm.vote", vote="update")

    def _prepare_unseen(self, state, message: Message):
        """The top level itself never operated here, but one of its
        subtransactions may have (tracked under its own id): give the
        family a root to merge into.  With none, the transaction was never
        seen here (or a read-only participation already forgotten): vote
        read-only."""
        tid: TransactionID = message.body["tid"]
        if self._members(tid):
            state = self._states[tid] = TransactionState(
                tid, parent_node=message.body["from"])
            return self._prepare(state, message)
        self._answer(message, "tm.vote", vote="read_only")

    def _prepare(self, state, message: Message):
        tid = state.tid
        coordinator: str = message.body["from"]
        yield self.ctx.cpu("TM", self.ctx.cpu_costs.tm_commit_read)
        yield from self._merge_members(tid, into=tid)
        yield self.ctx.cpu("other", self.ctx.cpu_costs.tm_dispatch_slop)
        children = yield from self._children(state, coordinator)
        try:
            vote = yield from self._prepare_subtree(state, children)
        except Exception:
            vote = "abort"
        if vote == "update":
            # Sorted, here and in the committed records: recovery
            # rebuilds ``server_ports`` from this tuple and phase two
            # releases locks in its order, which must not be a set's
            # (string hashes change from one process to the next).
            yield from self.rm.append_status_via_message(
                tid, "prepared", servers=tuple(sorted(state.servers)),
                children=tuple(children), coordinator=coordinator)
            state.advance(TxnPhase.PREPARED)
            # Watchdog: if the outcome never arrives (lost datagram,
            # coordinator hiccup), inquire rather than block forever.
            self.node.spawn(self._watch_prepared(state),
                            name=f"tm:watch:{tid}", defused=True)
        elif vote == "read_only":
            # Read-only optimization: locks are already released
            # (servers release at prepare); drop out of phase two
            # entirely.
            self._forget(tid)
        else:
            yield from self._abort_subtree(state, children)
        self._answer(message, "tm.vote", vote=vote)

    def _commit(self, state, message: Message):
        yield self.ctx.cpu("TM", self.ctx.cpu_costs.tm_commit_write_extra)
        yield from self._finish_prepared(state, commit=True)
        self._ack_commit(state, message)

    def _ack_commit(self, state, message: Message) -> None:
        """Ack even for unknown transactions: we may have committed and
        forgotten already, and commit_req datagrams can be retried."""
        self._answer(message, "tm.ack", ack="committed")

    def _finish_prepared(self, state: TransactionState, commit: bool):
        """Phase two at a prepared subordinate (also used after recovery)."""
        tid = state.tid
        children = yield from self._children(state, state.parent_node)
        if not commit:
            yield from self._abort_subtree(state, children)
            return
        # Force our COMMITTED record before acknowledging (presumed
        # abort: once we ack, the coordinator may forget the outcome).
        yield from self.rm.append_status_via_message(
            tid, "committed", servers=tuple(sorted(state.servers)),
            children=tuple(children))
        state.advance(TxnPhase.COMMITTED)
        yield from self._phase_two(state, children, "commit")
        self.rm.note_txn_done(tid)
        self._forget(tid)

    # -- phase two ----------------------------------------------------------------------

    def _phase_two(self, state: TransactionState, children: list[str],
                   outcome: str):
        """Deliver the outcome to local servers and child nodes.

        Local servers are awaited.  Remote children are retried a bounded
        number of times; any that stay silent (crashed mid-protocol) remain
        in ``state.pending_acks`` and the coordinator keeps the
        transaction's state so the child's recovery-time outcome query can
        be answered -- completion then arrives as a stray ack.
        """
        tid = state.tid
        with self.ctx.span("2pc.phase2", self.node.name, "TM", tid=tid,
                           outcome=outcome) as span:
            state.pending_acks = set(children)
            awaited = self._live_children(children)
            if awaited:
                self._open_collection("ack", tid, awaited)
            for child in children:
                self._send_datagram(child, f"tm.{outcome}_req", {}, tid)
            # Errors are dropped: an unreachable server lost its volatile
            # state with its process; there is nothing left to release there.
            yield from self._call_servers(tid, list(state.server_ports),
                                          f"ds.{outcome}", {"tid": tid})
            if awaited:
                acks = yield from self._await_collection(
                    "ack", tid, self.ack_timeout_ms)
                state.pending_acks -= set(acks or {})
            retries = 0
            while (awaited and state.pending_acks
                   and retries < self.max_ack_retries):
                retries += 1
                awaited = self._live_children(sorted(state.pending_acks))
                if not awaited:
                    # Every silent child is a known-down peer: its
                    # recovery's outcome query will complete us as a
                    # stray ack.
                    break
                self.ctx.metrics.counter(
                    self.node.name,
                    "tm.commit_retransmits").inc(len(awaited))
                self._open_collection("ack", tid, awaited)
                for child in awaited:
                    self._send_datagram(child, f"tm.{outcome}_req", {}, tid)
                acks = yield from self._await_collection(
                    "ack", tid, self.ack_timeout_ms)
                state.pending_acks -= set(acks or {})
            span.set(pending=len(state.pending_acks))

    # -- abort ---------------------------------------------------------------------------

    def _walk(self, state, message: Message):
        """Abort one member of the tid.  The spanning tree is kept per
        family; an aborting subtransaction ships its own tid to the same
        children, and nodes that never served it simply acknowledge."""
        children = yield from self._children(state, message.body.get("from"))
        yield from self._abort_subtree(state, children,
                                       reason=message.body.get("reason", ""))

    def _abort_subtree(self, state: TransactionState, children: list[str],
                       reason: str = ""):
        """Undo local effects, release locks, and abort child nodes.

        Aborting a subtransaction does not abort its parent (Section 2.1.3);
        aborting a parent aborts all its live descendants: an abort request
        walks each member of the tid here (:meth:`_abort_members`), and a
        commit or prepare that aborts has folded them into ``state``
        first.  One walk per fragment: an abort that finds the walk begun
        waits for it to end and returns as it does.
        """
        if state.phase.terminal:
            # Already resolved (e.g. a peer-failure abort raced a
            # timeout-driven one): nothing left to undo or release.
            return
        if state.walk is not None:
            yield state.walk
            return
        tid = state.tid
        # A reason the mark already holds: a peer-failure notice doomed
        # the family while this fragment was preparing.
        reason = reason or self.node.aborted.get(tid, "")
        self._mark(tid, reason or "aborted")
        state.walk = Event(self.ctx.engine, name=f"abort:{tid}")
        if self.ctx.tracer is not None:
            self.ctx.tracer.event("2pc.abort", self.node.name, "TM",
                                  tid=tid, reason=reason)
        self.ctx.metrics.counter(self.node.name, "tm.aborts").inc()
        collection = None
        awaited = self._live_children(children)
        if awaited:
            collection = self._open_collection("ack", tid, awaited)
        for child in children:
            # A down child is still told (datagram semantics: dropped on
            # the floor) but not awaited -- presumed abort means its
            # recovery resolves the fragment without our help.
            self._send_datagram(child, "tm.abort_req", {}, tid)
        # Once none of the transaction's operations runs here, every
        # record it will ever write here is in its backward chain (one
        # queued for a lock stops at the grant, or fails when ds.abort
        # releases the locks).  The Recovery Manager follows the chain and
        # instructs servers to undo their effects (Section 3.2.2) ...
        yield from self.node.until_idle(tid)
        yield from self.rm.abort_via_message(tid)
        # ... then the servers drop the transaction and release its locks.
        # (errors dropped: a dead server has no locks left to release)
        yield from self._call_servers(tid, list(state.server_ports),
                                      "ds.abort", {"tid": tid})
        if collection is not None:
            timeout_ms = self.vote_timeout_ms
            if self.peer_down_probe is not None:
                # Replicated clusters bound the client's reply latency:
                # the local locks are already released above, so a child
                # that dies after the collection opened should cost an
                # ack timeout, not a vote timeout.
                timeout_ms = min(timeout_ms, self.ack_timeout_ms)
            yield from self._await_collection("ack", tid, timeout_ms)
        if not state.phase.terminal:
            state.advance(TxnPhase.ABORTED)
        # From here the mark alone answers for the fragment, with the
        # walk's reason (presumed abort: no state means not committed).
        self._mark(tid, reason or "aborted")
        walk, state.walk = state.walk, None
        walk.succeed()
        self._forget(tid)

    def _mark(self, tid: TransactionID, reason: str) -> None:
        """The node's abort mark (docs/PROTOCOL.md "Why an abort reaches
        every fragment once"): from here on no operation of ``tid`` starts
        on this node, no server joins it, its prepare votes abort, no call
        of it or of its descendants leaves the node, and ``reason`` is the
        answer to an EndTransaction or a join."""
        self.node.aborted[tid] = reason

    def _forget(self, tid: TransactionID) -> None:
        state = self._states.pop(tid, None)
        if state is not None:
            # A protocol step still holding the state finds no server to
            # call.
            state.server_ports.clear()

    # -- recovery resolution ------------------------------------------------------------

    def restore_prepared(self, tid: TransactionID, coordinator: str,
                         servers: tuple[str, ...],
                         server_ports: dict[str, Port],
                         children: tuple[str, ...] = ()) -> None:
        """Called by the facility after crash recovery for each in-doubt
        transaction found in the log; resolution starts immediately."""
        state = self._states[tid] = TransactionState(
            tid, phase=TxnPhase.PREPARED, parent_node=coordinator,
            servers=set(servers), server_ports=dict(server_ports),
            has_remote_sites=bool(children))
        self.node.spawn(self._resolve_in_doubt(state),
                        name=f"tm:resolve:{tid}", defused=True)

    def restore_committed_unacked(self, tid: TransactionID,
                                  children: tuple[str, ...]) -> None:
        """A coordinator's commit record without an end record: phase two
        may not have completed; repeat it (idempotent at the children).
        As the first time round, a child that stays silent keeps the
        state -- ending here would answer its outcome query "aborted"."""
        state = TransactionState(tid, phase=TxnPhase.COMMITTED)
        self._states[tid] = state
        self.node.spawn(self._finish_phase_two(state, list(children)),
                        name=f"tm:reship:{tid}", defused=True)

    def _watch_prepared(self, state: TransactionState):
        """Self-inquiry for a subordinate stuck in PREPARED: after the
        inquiry delay, ask the coordinator for the outcome directly."""
        yield self.prepared_inquiry_ms
        yield from self._resolve_in_doubt(state)

    def _in_doubt(self, state: TransactionState) -> bool:
        """``state`` is still the tid's here, and still PREPARED: no
        outcome has arrived through the normal channel."""
        return (self._states.get(state.tid) is state
                and state.phase is TxnPhase.PREPARED)

    def _resolve_in_doubt(self, state: TransactionState):
        """Blocking resolution: ask the coordinator until it answers.

        This is two-phase commit's blocking window -- the prepared data
        stays locked until the coordinator recovers, exactly the failure
        mode the paper acknowledges for its choice of protocol.
        """
        tid = state.tid
        while self._in_doubt(state):
            self._open_collection("outcome", tid, [state.parent_node])
            self._send_datagram(state.parent_node, "tm.outcome_query", {},
                                tid)
            replies = yield from self._await_collection(
                "outcome", tid, RESOLVE_RETRY_MS)
            if replies and self._in_doubt(state):
                outcome = replies[state.parent_node]
                yield from self._finish_prepared(
                    state, commit=(outcome == "committed"))
                # The coordinator may still be holding the transaction open
                # waiting for our phase-two acknowledgement.
                self._send_datagram(state.parent_node, "tm.ack",
                                    {"ack": outcome}, tid)
                return

    def _tell_outcome(self, state, message: Message) -> None:
        """A COMMITTED fragment answers "committed"; no state means no
        commit (presumed abort).  An undecided one does not answer: the
        subordinate will ask again."""
        self._answer(message, "tm.outcome_reply",
                     outcome="aborted" if state is None else "committed")

    def _handle_outcome_reply(self, message: Message) -> None:
        tid: TransactionID = message.body["tid"]
        votes = self._collections.get(("outcome", tid))
        if votes is not None:
            votes.record(message.body["from"], message.body["outcome"])

    # -- single-server recovery support ----------------------------------------------------

    def rebind_server_port(self, server: str, port: Port) -> None:
        """A data server was re-created: point its pending transactions'
        2PC messages at the new request port."""
        for state in self._states.values():
            if server in state.server_ports:
                state.server_ports[server] = port

    def transactions_with_server(self, server: str) -> list[TransactionID]:
        """ACTIVE and PREPARING transactions this server joined.

        These lost their server-side state (locks, buffered write sets)
        when the server process died and must be aborted; prepared
        transactions instead get their locks re-acquired from the log.
        """
        return [tid for tid, state in self._states.items()
                if server in state.servers
                and state.phase in (TxnPhase.ACTIVE, TxnPhase.PREPARING)]

    # -- introspection -------------------------------------------------------------------

    def phase_of(self, tid: TransactionID) -> TxnPhase | None:
        state = self._states.get(tid)
        return state.phase if state else None

    def active_transactions(self) -> dict[TransactionID, str]:
        return {tid: state.phase.value for tid, state in self._states.items()
                if not state.phase.terminal}
