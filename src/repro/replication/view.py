"""The availability view: which peers this node currently trusts.

Fed by the PR 2 :class:`~repro.comm.failures.FailureDetector` through
the node's persistent ``fd_observers`` list, so the view survives the
node's own crash/rebuild cycles.  Three detector events matter:

- ``"suspect"`` -- the peer stopped answering probes.  It becomes
  unavailable and its *fail count* is bumped: any open transaction that
  wrote to it can no longer trust that site's in-memory lock and
  buffer state.
- ``"restart-observed"`` -- a pong arrived bearing a higher kernel
  epoch: the peer died and came back while we weren't looking.  It is
  available again, but the fail count bumps (its CC state was erased by
  the restart even if we never saw it down).
- ``"recovered"`` -- a false suspicion: the same epoch answered again.
  The peer is available and the fail count stays -- the *suspicion*
  already bumped it, and conservatively a transaction that wrote
  through the flap aborts (the detector cannot prove the silence was
  harmless).

Commit-time validation (:func:`validate_footprint`) compares the fail
counts recorded at access time against the current view: any difference
means the touched replica's volatile CC state may be gone, so the
transaction aborts rather than commit around a write a replica silently
dropped -- or around a read whose lock no longer protects it.

A process can also wait on the view for a peer's failure to be
confirmed (:meth:`AvailabilityView.failure_confirmed`): the detector
event that bumps the fail count ends the wait, so nothing polls.
"""

from __future__ import annotations

from repro.sim import PARKED


class AvailabilityView:
    """One node's opinion of which peers are up, with failure epochs."""

    def __init__(self, local_node: str) -> None:
        self.local_node = local_node
        self._down: set[str] = set()
        self._fail_counts: dict[str, int] = {}
        #: peer -> [(process, park token)] waiting for its failure
        self._awaiting: dict[str, list] = {}

    # -- failure-detector observer ------------------------------------------------

    def observe(self, time_ms: float, local_node: str, event: str,
                peer: str) -> None:
        """``fd_observers`` hook (see FailureDetector)."""
        if event == "suspect":
            self._down.add(peer)
        elif event in ("restart-observed", "recovered"):
            self._down.discard(peer)
        if event in ("suspect", "restart-observed"):
            self._fail_counts[peer] = self._fail_counts.get(peer, 0) + 1
            for process, token in self._awaiting.pop(peer, ()):
                process.end(token, True)

    # -- queries --------------------------------------------------------------------

    def available(self, node: str) -> bool:
        """Is ``node`` believed up?  The local node always is."""
        return node == self.local_node or node not in self._down

    def fail_count(self, node: str) -> int:
        """How many times ``node`` has been seen to fail (monotonic)."""
        return self._fail_counts.get(node, 0)

    def available_replicas(self, placement, keyspace: str) -> list[str]:
        """The key-space's replicas currently believed up, in placement
        order."""
        return [node for node in placement.replicas(keyspace)
                if self.available(node)]

    # -- waiting for a failure ------------------------------------------------------

    def failure_confirmed(self, process, peer: str, fail_count: int,
                          within_ms: float):
        """Has the detector reported ``peer`` failed since its fail count
        was ``fail_count``?  If not yet, ``process`` -- the running one
        -- parks until a ``"suspect"`` or ``"restart-observed"`` for
        ``peer`` ends the wait, for at most ``within_ms`` (generator
        returning the answer)."""
        if self.fail_count(peer) != fail_count:
            return True
        waiter = (process, process.park(within_ms))
        waiters = self._awaiting.setdefault(peer, [])
        waiters.append(waiter)
        try:
            confirmed = yield PARKED
        finally:
            # Timed out (or killed with its node): leave no entry behind.
            if self._awaiting.get(peer) is waiters:
                waiters.remove(waiter)
                if not waiters:
                    del self._awaiting[peer]
        return confirmed is True


def validate_footprint(view: AvailabilityView, placement,
                       footprint: dict,
                       epoch: int | None = None) -> str | None:
    """Commit-time validation of a transaction's replication footprint.

    ``footprint`` is gathered client-side by the router:
    ``{"written": {node: fail_count_at_first_write},
    "read": {node: fail_count_at_first_read},
    "keyspaces": {keyspace: [nodes written]}}``, plus -- when online
    reconfiguration is enabled -- ``"epoch"``, the placement epoch the
    transaction routed under.  Returns an abort reason, or None if the
    transaction may commit.

    Rule 1 (the RepCRec rule): a site failure erases its in-memory CC
    state, so a transaction that *touched* a since-failed replica must
    abort -- whether the replica is still down or already back (a
    changed fail count betrays the restart, and covers the
    suspect -> recovered -> suspect flap).  Plain reads are covered
    too: the failed site's read lock is erased with the rest of its CC
    state, so a concurrent writer could update the item at surviving
    copies and commit -- letting the reader also commit would be read
    skew, not single-copy serializability.

    Rule 2 (the post-recovery write barrier): if a replica of a written
    key-space is available *now* but missed the write (it was down or
    recovering when the write fanned out), committing would strand a
    stale copy that the catch-up merge may already have passed over.
    The transaction aborts; its retry writes to the recovered copy too.

    Rule 3 (the stale-epoch rule, online reconfiguration): a
    transaction that routed under one placement epoch must not commit
    under another.  A migration committed while the transaction was
    open may have re-homed a key-space it touched -- its writes fanned
    out to the *old* replica set, so committing could strand the newly
    installed copy stale (the mirror image of rule 2) or keep a
    dropped copy authoritative.  Conservative like rule 1: the epoch
    bump aborts every open stamped transaction, and retries route
    under the new map.
    """
    if epoch is not None and footprint.get("epoch", epoch) != epoch:
        return (f"placement epoch changed mid-transaction "
                f"({footprint['epoch']} -> {epoch})")
    for node, recorded in footprint.get("written", {}).items():
        if not view.available(node):
            return f"replica {node!r} failed after a write touched it"
        if view.fail_count(node) != recorded:
            return (f"replica {node!r} restarted after a write touched it "
                    f"(fail count {recorded} -> {view.fail_count(node)})")
    for node, recorded in footprint.get("read", {}).items():
        if not view.available(node):
            return f"replica {node!r} failed after serving a read"
        if view.fail_count(node) != recorded:
            return (f"replica {node!r} restarted after serving a read "
                    f"(fail count {recorded} -> {view.fail_count(node)})")
    if placement is not None:
        for keyspace, written in footprint.get("keyspaces", {}).items():
            written_set = set(written)
            for node in placement.replicas(keyspace):
                if view.available(node) and node not in written_set:
                    return (f"replica {node!r} of {keyspace!r} recovered "
                            "mid-transaction and missed a write")
    return None
