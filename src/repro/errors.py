"""Exception hierarchy for the TABS reproduction.

Every error raised by the library derives from :class:`TabsError` so callers
can catch library failures without catching programming errors.  The leaf
classes mirror the failure modes discussed in the paper: lock time-outs
(Section 2.1.3 -- "TABS ... relies on time-outs"), transaction aborts
(Table 3-2's ``TransactionIsAborted`` exception), node crashes, and
communication failures detected by the Communication Manager.
"""

from __future__ import annotations


class TabsError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(TabsError):
    """The discrete-event simulation was driven incorrectly."""


class ProcessKilled(TabsError):
    """A simulated process was killed (e.g. its node crashed)."""


class KernelError(TabsError):
    """Misuse of the simulated Accent kernel."""


class NodeDown(KernelError):
    """An operation referenced a node that has crashed."""


class InvalidPort(KernelError):
    """A message was sent to a dead or unknown port."""


class PageCorruption(KernelError):
    """A disk page failed its payload-checksum verification on read.

    Raised by :meth:`repro.kernel.disk.Disk.read_page` when the stored
    per-page checksum does not match the page contents -- bit rot, a torn
    write, a lost write, or a misdirected write left the sector
    inconsistent.  Carries the page identity so media repair can target it.
    """

    def __init__(self, segment_id: str, page: int, reason: str = ""):
        super().__init__(segment_id, page, reason)
        self.segment_id = segment_id
        self.page = page
        self.reason = reason

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"page ({self.segment_id!r}, {self.page}) failed checksum"
                f"{': ' + self.reason if self.reason else ''}")


class CommunicationError(TabsError):
    """The Communication Manager detected a permanent failure."""


class SessionBroken(CommunicationError):
    """A session peer crashed or became unreachable."""


class NotPosted(SessionBroken):
    """No attempt of an RPC posted its request: nothing of it reached the
    target, so retrying cannot execute it twice.  ``stale_ref`` says the
    target restarted since the reference was minted."""

    def __init__(self, message: str, stale_ref: bool = False) -> None:
        super().__init__(message)
        self.stale_ref = stale_ref


class LookupFailed(TabsError):
    """The Name Server could not resolve a name anywhere on the network."""


class TransactionError(TabsError):
    """Base class for transaction-management errors."""


class TransactionAborted(TransactionError):
    """The transaction was aborted (Table 3-2's ``TransactionIsAborted``).

    Raised in an application or data-server coroutine when it touches a
    transaction that some other party has aborted, or when its own operation
    caused the abort (e.g. a lock time-out).
    """

    def __init__(self, tid: object, reason: str = ""):
        super().__init__(tid, reason)
        self.tid = tid
        self.reason = reason

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"transaction {self.tid} aborted: {self.reason or 'unknown reason'}"


class LockTimeout(TransactionError):
    """A lock request waited longer than the user-set time-out."""


class InvalidTransaction(TransactionError):
    """An unknown or already-terminated transaction id was supplied."""


class WriteAheadLogError(TabsError):
    """The write-ahead log was driven incorrectly."""


class LogFull(WriteAheadLogError):
    """The non-volatile log ran out of space and reclamation failed."""


class WalCodecError(WriteAheadLogError):
    """A log record could not be encoded or decoded (corrupt/truncated)."""


class LogMediaCorruption(WriteAheadLogError):
    """A durable log record is unreadable on *both* mirrored log disks.

    The duplexed log repairs a single-copy checksum failure from the good
    copy; both copies failing on a record below the durable tail means real
    log loss, which no amount of salvage can hide.
    """

    def __init__(self, lsn: int, reason: str = ""):
        super().__init__(lsn, reason)
        self.lsn = lsn
        self.reason = reason

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"log record lsn={self.lsn} unreadable on both log disks"
                f"{': ' + self.reason if self.reason else ''}")


class RecoveryError(TabsError):
    """Crash recovery encountered an inconsistency."""


class ServerError(TabsError):
    """A data server rejected or failed an operation."""


class QuorumUnavailable(TabsError):
    """Weighted voting could not assemble a read or write quorum."""


class ReplicaUnavailable(TabsError):
    """Available-copies replication could not serve the request.

    Raised when every replica of a key-space is unavailable (down,
    unreachable, or still catching up after recovery), or when a single
    replica refuses a read because it has not yet copied current
    versions from a live peer (the post-recovery read barrier).
    """
