"""Write-ahead logging substrate.

Recovery in TABS is based on write-ahead logging over a three-tiered storage
model (Section 2.1.3): log records are spooled to a *volatile* buffer, and
must be *forced* to non-volatile storage before a transaction commits and
before the volatile representation of an object is copied to non-volatile
storage.  All objects on a node share one common log.

- :mod:`repro.wal.records` -- the record types (value undo/redo, operation,
  transaction management, checkpoint),
- :mod:`repro.wal.codec` -- the binary wire format for records,
- :mod:`repro.wal.store` -- the append-only non-volatile record store,
- :mod:`repro.wal.log` -- the buffered write-ahead log with force semantics.
"""

from repro.wal.codec import decode_record, encode_record, frame_checksum
from repro.wal.log import WriteAheadLog
from repro.wal.records import (
    CheckpointRecord,
    LogRecord,
    OperationRecord,
    PageDirtyRecord,
    RecordKind,
    ServerPrepareRecord,
    TransactionStatusRecord,
    TxnStatus,
    ValueUpdateRecord,
)
from repro.wal.store import LogStore

__all__ = [
    "WriteAheadLog", "LogStore", "LogRecord", "RecordKind",
    "ValueUpdateRecord", "OperationRecord", "TransactionStatusRecord",
    "CheckpointRecord", "PageDirtyRecord", "ServerPrepareRecord", "TxnStatus",
    "encode_record", "decode_record", "frame_checksum",
]
