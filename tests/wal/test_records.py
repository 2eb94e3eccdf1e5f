"""Tests for log record types."""

from repro.kernel.vm import ObjectID
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


def test_value_record_kind_and_fields():
    oid = ObjectID("seg", 0, 4)
    record = ValueUpdateRecord(tid="t1", server="array", oid=oid,
                               old_value=1, new_value=2)
    assert record.kind is RecordKind.VALUE_UPDATE
    assert record.old_value == 1 and record.new_value == 2


def test_operation_record_carries_inverse():
    record = OperationRecord(
        tid="t1", server="queue", operation="enqueue", redo_args=(5,),
        undo_operation="unenqueue", undo_args=(5,),
        oids=(ObjectID("seg", 0, 4), ObjectID("seg", 512, 4)))
    assert record.kind is RecordKind.OPERATION
    assert record.undo_operation == "unenqueue"
    assert len(record.oids) == 2


def test_status_record_defaults():
    record = TransactionStatusRecord(tid="t1", status=TxnStatus.PREPARED,
                                     servers=("a", "b"), coordinator="node2")
    assert record.kind is RecordKind.TXN_STATUS
    assert record.status is TxnStatus.PREPARED
    assert record.servers == ("a", "b")


def test_checkpoint_record_contents():
    record = CheckpointRecord(
        dirty_pages={("seg", 0): 10, ("seg", 3): 12},
        active_transactions={"t1": "active"},
        attached_servers={"array": "seg"})
    assert record.kind is RecordKind.CHECKPOINT
    assert record.dirty_pages[("seg", 3)] == 12
    assert record.active_transactions == {"t1": "active"}


def test_lsn_defaults_to_unassigned():
    assert ValueUpdateRecord().lsn == 0
    assert ValueUpdateRecord().prev_lsn == 0


def test_records_are_slotted():
    """A run retains every record until truncation: no per-record
    ``__dict__``, on the base class or any subclass."""
    for cls in (LogRecord, ValueUpdateRecord, OperationRecord,
                TransactionStatusRecord, PageDirtyRecord,
                ServerPrepareRecord, CheckpointRecord):
        assert not hasattr(cls(), "__dict__"), cls.__name__
