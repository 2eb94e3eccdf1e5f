"""Per-transaction state, as tracked by a node's Transaction Manager.

The phase machine follows the classic two-phase-commit participant states:

``ACTIVE`` -> ``PREPARING`` -> ``PREPARED`` -> ``COMMITTED``
and from any pre-commit state -> ``ABORTED``.

A PREPARED participant may neither commit nor abort unilaterally: it must
learn the outcome from its coordinator (this is two-phase commit's blocking
window, which the paper acknowledges: "nodes participating in a distributed
transaction must restrict access to some data until other nodes recover").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import TransactionError
from repro.kernel.ports import Port
from repro.sim import Event
from repro.txn.ids import TransactionID


class TxnPhase(enum.Enum):
    ACTIVE = "active"
    PREPARING = "preparing"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"

    @property
    def terminal(self) -> bool:
        return self in (TxnPhase.COMMITTED, TxnPhase.ABORTED)


_ALLOWED = {
    TxnPhase.ACTIVE: {TxnPhase.PREPARING, TxnPhase.PREPARED,
                      TxnPhase.COMMITTED, TxnPhase.ABORTED},
    TxnPhase.PREPARING: {TxnPhase.PREPARED, TxnPhase.COMMITTED,
                         TxnPhase.ABORTED},
    TxnPhase.PREPARED: {TxnPhase.COMMITTED, TxnPhase.ABORTED},
    TxnPhase.COMMITTED: set(),
    TxnPhase.ABORTED: set(),
}


@dataclass
class TransactionState:
    """What one node's Transaction Manager knows about one transaction."""

    tid: TransactionID
    phase: TxnPhase = TxnPhase.ACTIVE
    #: local data servers that performed operations for this transaction
    servers: set[str] = field(default_factory=set)
    #: request port of each such server, for the commit protocol's calls;
    #: a server restored from the log is in ``servers`` before it has one
    server_ports: dict[str, Port] = field(default_factory=dict)
    #: True once the Communication Manager reported remote involvement
    has_remote_sites: bool = False
    #: node that shipped this transaction here (empty at the root/birth node)
    parent_node: str = ""
    #: the children a subordinate prepared, as its PREPARED record names
    #: them: the ones its phase two (or abort) goes to
    prepared_children: tuple[str, ...] = ()
    #: children that have not yet acknowledged phase two; a committed
    #: coordinator keeps its state until this empties (presumed abort
    #: demands that an in-doubt child can still learn the outcome)
    pending_acks: set[str] = field(default_factory=set)
    #: exists only while the abort's undo walk runs; a second abort of
    #: the fragment waits on it instead of walking again
    walk: Event | None = None

    def advance(self, phase: TxnPhase) -> None:
        if phase not in _ALLOWED[self.phase]:
            raise TransactionError(
                f"transaction {self.tid}: illegal transition "
                f"{self.phase.value} -> {phase.value}")
        self.phase = phase
