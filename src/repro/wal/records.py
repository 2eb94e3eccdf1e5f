"""Log record types.

Three families of records appear in the common log:

- **recovery records**, written on behalf of data servers: value-logging
  records with old/new values (undo/redo of at most one page), and
  operation-logging records naming the operation and its inverse;
- **transaction-management records**, written by the Transaction Manager
  (prepare/commit/abort); during crash recovery the Recovery Manager passes
  these back to the Transaction Manager (Section 3.2.2);
- **checkpoint records**, listing the pages in volatile storage and the
  status of active transactions (Section 2.1.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.kernel.vm import ObjectID


class RecordKind(enum.Enum):
    VALUE_UPDATE = "value_update"
    OPERATION = "operation"
    TXN_STATUS = "txn_status"
    CHECKPOINT = "checkpoint"
    PAGE_DIRTY = "page_dirty"
    SERVER_PREPARE = "server_prepare"


class TxnStatus(enum.Enum):
    """Transaction states recorded in the log by the Transaction Manager."""

    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"
    #: a subtransaction's chain was folded into its parent's
    MERGED = "merged"
    #: all commit work (including phase-two acknowledgements) is complete;
    #: also marks read-only completion.  Never forced.
    ENDED = "ended"


@dataclass(slots=True)
class LogRecord:
    """Base log record.  ``lsn`` is assigned when appended to the log.

    Records are slotted: a run retains every record until the log is
    truncated, and a ``__dict__`` apiece would be a sixth of the heap a
    DebitCredit window grows.
    """

    tid: object = None
    lsn: int = 0
    #: backward chain: previous record written by the same transaction
    prev_lsn: int = 0
    kind: RecordKind = field(init=False, default=None)  # type: ignore[assignment]


@dataclass(slots=True)
class ValueUpdateRecord(LogRecord):
    """Value logging: the old and new values of one object.

    The undo component (``old_value``) resets the object on abort; the redo
    component (``new_value``) replays the update after a crash.  Value
    logging restricts the object representation to at most one page
    (Section 2.1.3), which the server library enforces.
    """

    server: str = ""
    oid: ObjectID | None = None
    old_value: object = None
    new_value: object = None
    #: nonzero on a compensation record: the LSN of the update whose
    #: effect abort processing undid.  The undo write itself is not
    #: WAL-gated, so without this record a checkpoint taken before the
    #: abort would let recovery's backward scan stop short of the only
    #: evidence that the object was rolled back.  The value pass replays
    #: a compensation's ``new_value`` (the restored value) regardless of
    #: the transaction's outcome.
    compensates_lsn: int = 0

    def __post_init__(self) -> None:
        self.kind = RecordKind.VALUE_UPDATE


@dataclass(slots=True)
class OperationRecord(LogRecord):
    """Operation (transition) logging: names an operation and its inverse.

    Operations are redone or undone, as necessary, during recovery
    processing.  ``sequence_number`` (the record's own LSN once appended)
    is compared against the page's sector-header sequence number to decide
    whether the operation's effect reached non-volatile storage.  A single
    record may cover a multi-page object.
    """

    server: str = ""
    operation: str = ""
    redo_args: tuple = ()
    undo_operation: str = ""
    undo_args: tuple = ()
    oids: tuple[ObjectID, ...] = ()
    #: nonzero on a compensation record (poor man's CLR): the LSN of the
    #: record whose effect this one undid during abort processing.  During
    #: crash recovery, compensated records are excluded from the undo pass
    #: and compensation records are always replayed.
    compensates_lsn: int = 0

    def __post_init__(self) -> None:
        self.kind = RecordKind.OPERATION


@dataclass(slots=True)
class TransactionStatusRecord(LogRecord):
    """Transaction-management record (prepare/commit/abort/merge).

    For a PREPARED record, ``servers`` lists the local data servers that
    joined the transaction and ``coordinator`` names the parent node in the
    commit spanning tree (empty for the root).  A coordinator's COMMITTED
    record also lists the remote ``children`` that voted update so phase
    two can be re-driven after a coordinator crash.  A MERGED record
    documents a subtransaction commit (``merged_into`` is the parent).
    """

    status: TxnStatus = TxnStatus.COMMITTED
    servers: tuple[str, ...] = ()
    coordinator: str = ""
    children: tuple[str, ...] = ()
    merged_into: object = None

    def __post_init__(self) -> None:
        self.kind = RecordKind.TXN_STATUS


@dataclass(slots=True)
class PageDirtyRecord(LogRecord):
    """Written when the kernel reports a recoverable page newly modified.

    "Log records written in response to kernel messages help to identify
    (at recovery time) the pages that were in memory at crash time"
    (Section 3.2.2).
    """

    segment_id: str = ""
    page: int = 0

    def __post_init__(self) -> None:
        self.kind = RecordKind.PAGE_DIRTY


@dataclass(slots=True)
class ServerPrepareRecord(LogRecord):
    """A data server's prepare-time record listing its write set.

    Spooled (as a large message) when the server votes update; recovery
    uses it to re-acquire write locks for in-doubt transactions.
    """

    server: str = ""
    oids: tuple[ObjectID, ...] = ()

    def __post_init__(self) -> None:
        self.kind = RecordKind.SERVER_PREPARE


@dataclass(slots=True)
class CheckpointRecord(LogRecord):
    """Periodic system checkpoint (Section 2.1.3).

    Records the dirty pages in volatile storage with their recovery LSNs
    (where redo must start for each page) and the currently active
    transactions with their states, so that crash recovery need only read
    the log written after the checkpoint -- plus as much earlier log as the
    minimum recovery LSN demands.
    """

    #: {(segment_id, page): earliest LSN whose update may not be on disk}
    dirty_pages: dict[tuple[str, int], int] = field(default_factory=dict)
    #: {tid: latest known status string ("active", "prepared", ...)}
    active_transactions: dict[object, str] = field(default_factory=dict)
    #: servers attached to the log at checkpoint time: {name: segment_id}
    attached_servers: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.kind = RecordKind.CHECKPOINT
