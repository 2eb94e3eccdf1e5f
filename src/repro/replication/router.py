"""Write-all-available / read-any-available routing for applications.

:class:`ReplicatedApp` wraps an :class:`~repro.app.library
.ApplicationLibrary` with the available-copies client protocol:

- **reads** go to any available copy, failing over down the key-space's
  placement order when a replica is down, unreachable, or refuses with
  the post-recovery read barrier (each hop counts
  ``replication.read_failover``);
- **writes** reach *all* available copies (``write_all``); writing
  fewer copies than the placement lists counts
  ``replication.write_all_degraded``.  The op -- a blind write or a
  whole read-modify-write -- executes at the *first* available copy in
  placement order, failing over like a read, so two transactions
  updating the same cell serialize at one site; its reply names the
  absolute write the other copies store.  Those are *write-behind*:
  home-node processes, FIFO per replica server, that overlap the
  transaction's next operations.  ``tm.abort`` is sent once they have
  all finished; ``tm.end`` carries the ones still running to the
  coordinator -- the home node's Transaction Manager -- which joins
  them just before it prepares (docs/REPLICATION.md "Write-behind
  copies").

The router records a *footprint* per transaction -- which nodes
received writes, which nodes served plain reads (each with the failure
count observed at first touch), and which key-spaces were written
where -- and ships it with ``EndTransaction``.  The Transaction
Manager validates it against the current availability view before
running 2PC (see :func:`~repro.replication.view.validate_footprint`):
a site failure erases read locks as well as write locks, so reads from
a since-failed copy abort at commit too.
"""

from __future__ import annotations

from typing import Callable

from repro.app.library import run_transaction
from repro.errors import (
    CommunicationError,
    LockTimeout,
    LookupFailed,
    ReplicaUnavailable,
    TransactionAborted,
)
from repro.sim import Process, join_all
from repro.txn.ids import TransactionID

#: per-target failures that mean "try another copy", not "give up"
_FAILOVER_ERRORS = (ReplicaUnavailable, LookupFailed, CommunicationError)


class ReplicatedApp:
    """Transaction control plus replica routing for one application."""

    def __init__(self, cluster, node_name: str) -> None:
        if cluster.placement is None:
            raise ReplicaUnavailable(
                "cluster has no placement map (replication not built)")
        # A placement exists only with replication on, and then every
        # node runs a replication runtime.
        tabs_node = cluster.node(node_name)
        self.cluster = cluster
        self.node_name = node_name
        self.app = cluster.application(node_name)
        self.ctx = self.app.ctx
        #: write-behind copies are processes of the home node, so a
        #: home-node crash kills them with the client
        self._node = tabs_node.node
        self._runtime = tabs_node.replication
        self.view = tabs_node.replication.view
        #: stamp transactions with the placement epoch they route under
        #: (commit-time rule 3); off by default so replication-only
        #: message bodies stay byte-identical to PR 7
        self._stamp_epoch = tabs_node.config.reconfig.enabled
        #: tid -> {"written": {node: fail_count},
        #:         "read": {node: fail_count}, "keyspaces": {ks: set}}
        self._footprints: dict[TransactionID, dict] = {}
        #: tid -> [(node, key-space, process)] in issue order: the
        #: transaction's write-behind copies, finished or not
        self._behind: dict[TransactionID,
                           list[tuple[str, str, Process]]] = {}

    @property
    def placement(self):
        """The placement currently installed on the home node's runtime.

        A property, not a construction-time snapshot: online
        reconfiguration installs successor epochs mid-run, and an open
        app must route by the live map (stale routing would be caught at
        commit by the epoch rule anyway -- this avoids the pointless
        abort storm).
        """
        return self._runtime.placement

    # -- transaction control ----------------------------------------------------

    def begin_transaction(self):
        tid = yield from self.app.begin_transaction()
        self._footprints[tid] = self._new_footprint()
        return tid

    def end_transaction(self, tid: TransactionID):
        """Ask for the outcome at once (generator; True iff committed).

        The write-behind copies still running go with the footprint, in
        issue order, to the coordinator: it overlaps them with its own
        EndTransaction bookkeeping and joins them just before it
        prepares.  A copy that failed aborts the transaction there, and
        this returns False with a reason naming the copy's error.
        """
        footprint = self._footprints.pop(tid, None)
        copies = self._behind.pop(tid, ())
        extra = None
        if footprint and (footprint["written"] or footprint["read"]):
            shipped = {
                "written": dict(footprint["written"]),
                "read": dict(footprint["read"]),
                "keyspaces": {keyspace: sorted(nodes) for keyspace, nodes
                              in footprint["keyspaces"].items()}}
            if "epoch" in footprint:
                shipped["epoch"] = footprint["epoch"]
            extra = {"replication": shipped,
                     "copies": [copy for _, _, copy in copies]}
        committed = yield from self.app.end_transaction(tid, extra=extra)
        return committed

    @property
    def refusal(self) -> str:
        """Why the last refused EndTransaction was refused."""
        return self.app.refusal

    def abort_transaction(self, tid: TransactionID, reason: str = ""):
        self._footprints.pop(tid, None)
        # The router leaves no operation in flight behind an abort; what
        # the copies answered no longer matters.
        yield from self._join_behind(tid)
        yield from self.app.abort_transaction(tid, reason=reason)

    def run_transaction(self, body_fn: Callable, retries: int = 0,
                        backoff_ms: float = 200.0):
        """Begin, run ``body_fn(tid)``, commit; jittered retries on abort
        (generator): :func:`repro.app.library.run_transaction` over the
        routed bracket, with a refusing copy retryable too."""
        return run_transaction(
            self, body_fn, retries, backoff_ms,
            retryable=(TransactionAborted, LockTimeout, ReplicaUnavailable))

    # -- routed operations ------------------------------------------------------

    def _counter(self, name: str):
        return self.ctx.metrics.counter(self.node_name, name)

    def _new_footprint(self) -> dict:
        footprint: dict = {"written": {}, "read": {}, "keyspaces": {}}
        if self._stamp_epoch:
            # The epoch at first touch is the one the transaction routed
            # under; commit-time rule 3 aborts it if a migration moved
            # the map meanwhile.
            footprint["epoch"] = self._runtime.epoch
        return footprint

    def _footprint(self, tid: TransactionID) -> dict:
        footprint = self._footprints.get(tid)
        if footprint is None:
            footprint = self._footprints[tid] = self._new_footprint()
        return footprint

    def _record_write(self, tid: TransactionID, node: str) -> None:
        # setdefault: the count at *first* touch is the binding one -- a
        # replica that restarts between two writes of the same
        # transaction must fail validation, not refresh its entry.
        self._footprint(tid)["written"].setdefault(
            node, self.view.fail_count(node))

    def _record_read(self, tid: TransactionID, node: str) -> None:
        self._footprint(tid)["read"].setdefault(
            node, self.view.fail_count(node))

    def _available(self, keyspace: str) -> list[str]:
        """The copies to address, in placement order.

        The view can be stale (e.g. every peer suspected during a
        partition that just healed): with none listed, try them all
        rather than refusing outright.  Safe either way -- a copy that
        is truly down raises mid-call, and one that was merely suspected
        records its current fail count, which rule 1 re-checks at
        commit.
        """
        placement = self.placement
        return (self.view.available_replicas(placement, keyspace)
                or list(placement.replicas(keyspace)))

    def _first_to_answer(self, keyspace: str, op: str, body: dict,
                         tid: TransactionID):
        """Invoke ``op`` at the available copies of ``keyspace`` in
        placement order until one answers (generator returning ``(node,
        reply)``).

        Failing over keeps serialization because every contender walks
        the same placement order and sees the same refusals, so
        same-cell writers lock at the same site; a lock *conflict*
        (:class:`~repro.errors.LockTimeout`) deliberately does not fail
        over -- shopping past a held lock is exactly the
        two-writers-two-sites race the protocol exists to prevent.
        """
        candidates = self._available(keyspace)
        last_error: Exception | None = None
        for node in candidates:
            # Read your writes: nothing of this transaction is still on
            # its way to the copy about to be asked.
            yield from self._join_behind(tid, node)
            try:
                ref = yield from self.app.lookup_one(keyspace,
                                                     node_name=node)
                reply = yield from self.app.call(ref, op, body, tid)
            except _FAILOVER_ERRORS as error:
                self._counter("replication.read_failover").inc()
                last_error = error
                continue
            return node, reply
        raise ReplicaUnavailable(
            f"no available copy of {keyspace!r} could serve {op!r} "
            f"(tried {candidates!r})") from last_error

    def read(self, keyspace: str, op: str, body: dict,
             tid: TransactionID):
        """Invoke a read op on any available copy of ``keyspace``.

        The serving node is always recorded in the footprint: a site
        failure erases read locks too, so a since-failed copy's read
        must abort at commit or a concurrent writer committing at the
        surviving copies would give the reader read skew.
        """
        node, reply = yield from self._first_to_answer(keyspace, op, body,
                                                       tid)
        self._record_read(tid, node)
        return reply

    def write_all(self, keyspace: str, op: str, body: dict,
                  tid: TransactionID):
        """Invoke a write op on *all* available copies of ``keyspace``.

        ``op`` executes at the **first** available copy in placement
        order that answers -- the one site where same-cell writers
        serialise, whether ``op`` is a blind write or a
        read-modify-write -- and that copy's reply is returned.  Taking
        or re-entering the write lock there first is what keeps the
        fan-out deadlock-free: two writers issuing every copy at once
        could each win one copy and sit out a lock time-out.  A reply
        may name, under ``"copy"``, the deterministic ``(op, body)`` the
        other copies are to store instead (the absolute value a
        read-modify-write computed); without it they get the same op.
        Every other copy is *write-behind*: recorded in the footprint
        now, written by a home-node process after the previous
        write-behind call of this transaction to the same replica server
        ``(node, key-space)`` has finished, and joined by the coordinator
        before it prepares (:meth:`end_transaction`) or by
        :meth:`abort_transaction`.

        A copy that fails aborts the transaction -- raising here if none
        executes ``op``; for a write-behind one, the coordinator refuses
        the commit (a copy the walk passed over and the view still lists
        is written behind like the rest: catching up, it stores the
        value; dead, it fails the join).  Per the available-copies rule
        the transaction must abort anyway, and commit-time validation
        backstops the case where the failure is only noticed later.
        """
        first, reply = yield from self._first_to_answer(keyspace, op, body,
                                                        tid)
        op, body = reply.pop("copy", (op, body))
        self._record_write(tid, first)
        written = self._footprint(tid)["keyspaces"].setdefault(keyspace,
                                                               set())
        written.add(first)
        # Asked again: a walk past a dead copy can outlast the detector's
        # time-out, and the copies to write are those available *now*.
        behind = [node for node in self._available(keyspace)
                  if node != first]
        if 1 + len(behind) < len(self.placement.replicas(keyspace)):
            self._counter("replication.write_all_degraded").inc()
        copies = self._behind.setdefault(tid, []) if behind else []
        for node in behind:
            # Footprint at issue: commit-time rules 1 and 2 see every
            # copy the transaction tried to write, with the failure
            # count from before the call, even if the join fails.
            self._record_write(tid, node)
            written.add(node)
            previous = next((copy for at, space, copy in reversed(copies)
                             if (at, space) == (node, keyspace)), None)
            copies.append((node, keyspace, self._node.spawn(
                self._copy_behind(previous, keyspace, node, op, dict(body),
                                  tid),
                name=f"write-behind:{tid}:{keyspace}@{node}",
                defused=True)))
        return reply

    def _copy_behind(self, previous: Process | None, keyspace: str,
                     node: str, op: str, body: dict, tid: TransactionID):
        """One write-behind copy (generator; a home-node process).

        ``previous`` is this transaction's preceding copy to the same
        replica server: waiting for it keeps two writes of one cell in
        issue order at the copy whatever the link does, and its failure
        is this copy's too -- the transaction is lost either way.
        """
        if previous is not None:
            yield previous
        ref = yield from self.app.lookup_one(keyspace, node_name=node)
        yield from self.app.call(ref, op, body, tid)

    def _join_behind(self, tid: TransactionID, node: str | None = None):
        """Wait for the transaction's write-behind copies -- those to
        ``node``, or all of them, which also drops the table (generator).
        What they answered is dropped: both callers only need them
        finished."""
        copies = (self._behind.pop(tid, ()) if node is None
                  else self._behind.get(tid, ()))
        yield from join_all([copy for at, _, copy in copies
                             if node is None or at == node])
