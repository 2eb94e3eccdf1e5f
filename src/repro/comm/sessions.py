"""Reliable sessions between Communication Managers.

Two Communication Managers cooperate to provide at-most-once, ordered
delivery of arbitrary-sized messages (Section 3.2.4).  In the simulation
the wire itself never reorders, so a session's job is *failure semantics*:
it pins the epoch of the remote node at establishment and breaks --
permanently -- when the peer crashes, restarts, or becomes unreachable.  A
broken session raises :class:`SessionBroken` on use; this is how senders
learn of remote node crashes.

Sessions are "more costly communication ... used only for the remote
procedure calls that implement operations on remote data objects"; the
commit protocol uses datagrams instead.
"""

from __future__ import annotations

from repro.errors import SessionBroken
from repro.comm.network import Network


class Session:
    """One direction-agnostic session between a local and a remote node."""

    def __init__(self, network: Network, local: str, remote: str) -> None:
        self.network = network
        self.local = local
        self.remote = remote
        # Ids come from the network, not a module global, so two cluster
        # runs in one process number their sessions identically.
        self.session_id = network.next_session_id()
        if not network.reachable(local, remote):
            raise SessionBroken(
                f"cannot establish session {local} -> {remote}: "
                "remote node is down or partitioned away")
        self.remote_epoch = network.epoch_of(remote)
        self.broken = False
        #: messages carried, for at-most-once sequence accounting
        self.sequence = 0
        network.ctx.metrics.counter(local, "sessions.established").inc()

    @property
    def usable(self) -> bool:
        return (not self.broken
                and self.network.reachable(self.local, self.remote)
                and self.network.epoch_of(self.remote) == self.remote_epoch)

    def check(self) -> None:
        """Verify the session; break it permanently if the peer is gone.

        The permanence matters: a peer that crashed and restarted has lost
        all session state, so at-most-once delivery cannot be guaranteed on
        the old session even though the node is reachable again.
        """
        if not self.usable:
            self.broken = True
            self.network.ctx.metrics.counter(
                self.local, "sessions.broken").inc()
            raise SessionBroken(
                f"session {self.local} -> {self.remote} is broken "
                f"(peer crashed or unreachable)")

    def next_sequence(self) -> int:
        self.check()
        self.sequence += 1
        return self.sequence


class SessionTable:
    """Per-node cache of sessions, re-established on demand."""

    def __init__(self, network: Network, local: str) -> None:
        self.network = network
        self.local = local
        self._sessions: dict[str, Session] = {}

    def session_to(self, remote: str) -> Session:
        """The live session to ``remote``, creating or replacing as needed."""
        session = self._sessions.get(remote)
        if session is None or not session.usable:
            session = Session(self.network, self.local, remote)
            self._sessions[remote] = session
        return session

    def break_to(self, remote: str) -> None:
        """Proactively break any session to ``remote`` (failure detected).

        The failure detector calls this the moment it declares a peer dead
        or observes it restarted, instead of letting the next use discover
        the break lazily.
        """
        session = self._sessions.get(remote)
        if session is not None and not session.broken:
            session.broken = True
            self.network.ctx.metrics.counter(
                self.local, "sessions.broken").inc()

