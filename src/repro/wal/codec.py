"""A binary codec for log records.

The simulation keeps records as Python objects, but the paper's log is a
byte-addressed disk structure; this module provides the serialization a
real log device would use, so the record formats have a well-defined wire
shape and the torture suite can round-trip every record type
(``decode(encode(r)) == r``) and prove that truncated or corrupt buffers
are rejected rather than misread.

Format: every record is ``[u32 body-length][u8 kind tag][body]``.  The
body carries the common header (tid, lsn, prev_lsn) followed by the
kind-specific fields, each encoded with a one-byte type tag so decoding
is self-describing.  Integers are length-prefixed big-endian
two's-complement (Python ints are unbounded); containers are count-
prefixed.  All multi-byte scalars are big-endian.

Stable storage adds a checksum: a damaged image on a log disk
(:mod:`repro.wal.store`) is a frame kept beside the CRC-32
(:func:`frame_checksum`) of the frame it should be, so torn or rotted
log sectors are detected rather than misread.  CRC-32 detects every
single-bit error, which the property suite proves exhaustively.
"""

from __future__ import annotations

import struct
import zlib

from repro.errors import WalCodecError
from repro.kernel.vm import ObjectID
from repro.txn.ids import TransactionID
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

_KIND_TAGS = {
    RecordKind.VALUE_UPDATE: 1,
    RecordKind.OPERATION: 2,
    RecordKind.TXN_STATUS: 3,
    RecordKind.CHECKPOINT: 4,
    RecordKind.PAGE_DIRTY: 5,
    RecordKind.SERVER_PREPARE: 6,
}
_KIND_BY_TAG = {tag: kind for kind, tag in _KIND_TAGS.items()}

#: value type tags
_T_NONE, _T_FALSE, _T_TRUE, _T_INT, _T_FLOAT = 0, 1, 2, 3, 4
_T_STR, _T_BYTES, _T_LIST, _T_TUPLE, _T_DICT = 5, 6, 7, 8, 9
_T_TID, _T_OID = 10, 11

#: a container count or byte length: big-endian u32
_U32 = struct.Struct(">I").pack


# -- value encoding ---------------------------------------------------------------


def _encode_into(out: bytearray, value) -> None:
    """Append ``value``'s encoding to ``out``.

    Accumulator style: the encoder appends into one growing buffer
    instead of allocating an intermediate ``bytes`` per nested value and
    joining them.  (The WAL encodes a record only to damage its image,
    at a fault; the test suite round-trips every durable record.)  The
    types a record is made of are told apart by exact ``type()`` first;
    :func:`_encode_other` takes the rest (``bool``, ``float``,
    ``bytes``, ``dict``, and ``int`` or ``str`` subclasses such as an
    enum member).
    """
    kind = type(value)
    if kind is int:
        length = (value.bit_length() + 8) // 8  # room for the sign; >= 1
        out.append(_T_INT)
        out.append(length)
        out += value.to_bytes(length, "big", signed=True)
    elif kind is str:
        data = value.encode()
        out.append(_T_STR)
        out += _U32(len(data))
        out += data
    elif value is None:
        out.append(_T_NONE)
    elif kind is tuple or kind is list:
        out.append(_T_TUPLE if kind is tuple else _T_LIST)
        out += _U32(len(value))
        for item in value:
            _encode_into(out, item)
    elif kind is TransactionID:
        out.append(_T_TID)
        _encode_into(out, value.node)
        _encode_into(out, value.seq)
        _encode_into(out, list(value.path))
    elif kind is ObjectID:
        out.append(_T_OID)
        _encode_into(out, value.segment_id)
        _encode_into(out, value.offset)
        _encode_into(out, value.length)
    else:
        _encode_other(out, value)


def _encode_other(out: bytearray, value) -> None:
    """:func:`_encode_into` for every type it does not match exactly.

    A subclass of a transaction id, an object id, a list or a tuple
    (a named tuple, say) has no wire form: no record holds one, and the
    test suite's round trip of every durable record would report it.
    """
    if value is False:
        out.append(_T_FALSE)
        return
    if value is True:
        out.append(_T_TRUE)
        return
    if isinstance(value, int):
        length = max(1, (value.bit_length() + 8) // 8)  # room for the sign
        out.append(_T_INT)
        out.append(length)
        out += value.to_bytes(length, "big", signed=True)
        return
    if isinstance(value, float):
        out.append(_T_FLOAT)
        out += struct.pack(">d", value)
        return
    if isinstance(value, str):
        data = value.encode()
        out.append(_T_STR)
        out += _U32(len(data))
        out += data
        return
    if isinstance(value, bytes):
        out.append(_T_BYTES)
        out += _U32(len(value))
        out += value
        return
    if isinstance(value, dict):
        out.append(_T_DICT)
        out += _U32(len(value))
        for key, item in value.items():
            _encode_into(out, key)
            _encode_into(out, item)
        return
    raise WalCodecError(f"cannot encode {type(value).__name__}: {value!r}")


def encode_value(value) -> bytes:
    """One value's encoding as standalone bytes (non-WAL callers)."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


class _Reader:
    """A bounds-checked cursor over an encoded buffer."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise WalCodecError(
                f"truncated record: wanted {count} bytes at offset "
                f"{self.pos}, buffer holds {len(self.data)}")
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.data)


def _decode_value(reader: _Reader):
    tag = reader.u8()
    if tag == _T_NONE:
        return None
    if tag == _T_FALSE:
        return False
    if tag == _T_TRUE:
        return True
    if tag == _T_INT:
        return int.from_bytes(reader.take(reader.u8()), "big", signed=True)
    if tag == _T_FLOAT:
        return struct.unpack(">d", reader.take(8))[0]
    if tag == _T_STR:
        return reader.take(reader.u32()).decode()
    if tag == _T_BYTES:
        return reader.take(reader.u32())
    if tag == _T_TID:
        node = _decode_value(reader)
        seq = _decode_value(reader)
        path = _decode_value(reader)
        return TransactionID(node, seq, tuple(path))
    if tag == _T_OID:
        return ObjectID(_decode_value(reader), _decode_value(reader),
                        _decode_value(reader))
    if tag in (_T_LIST, _T_TUPLE):
        items = [_decode_value(reader) for _ in range(reader.u32())]
        return items if tag == _T_LIST else tuple(items)
    if tag == _T_DICT:
        count = reader.u32()
        result = {}
        for _ in range(count):
            key = _decode_value(reader)
            result[key] = _decode_value(reader)
        return result
    raise WalCodecError(f"unknown value tag {tag}")


# -- record field tables ------------------------------------------------------------

# Per kind: the dataclass and its kind-specific fields, in wire order.
# TxnStatus is carried as its value string; tuple fields round-trip through
# the tuple tag, dict keys through the generic value encoding.
_FIELDS = {
    RecordKind.VALUE_UPDATE: (
        ValueUpdateRecord, ("server", "oid", "old_value", "new_value",
                            "compensates_lsn")),
    RecordKind.OPERATION: (
        OperationRecord, ("server", "operation", "redo_args",
                          "undo_operation", "undo_args", "oids",
                          "compensates_lsn")),
    RecordKind.TXN_STATUS: (
        TransactionStatusRecord, ("servers", "coordinator", "children",
                                  "merged_into")),
    RecordKind.CHECKPOINT: (
        CheckpointRecord, ("dirty_pages", "active_transactions",
                           "attached_servers")),
    RecordKind.PAGE_DIRTY: (PageDirtyRecord, ("segment_id", "page")),
    RecordKind.SERVER_PREPARE: (ServerPrepareRecord, ("server", "oids")),
}


def encode_record(record: LogRecord) -> bytes:
    """Serialize one record to its framed wire form."""
    try:
        tag = _KIND_TAGS[record.kind]
    except KeyError:
        raise WalCodecError(
            f"cannot encode record kind {record.kind!r}") from None
    frame = bytearray(5)  # the u32 length, filled in below, and the tag
    frame[4] = tag
    _encode_into(frame, record.tid)
    _encode_into(frame, record.lsn)
    _encode_into(frame, record.prev_lsn)
    if record.kind is RecordKind.TXN_STATUS:
        _encode_into(frame, record.status.value)
    for name in _FIELDS[record.kind][1]:
        _encode_into(frame, getattr(record, name))
    struct.pack_into(">I", frame, 0, len(frame) - 4)
    return bytes(frame)


def decode_record(data: bytes) -> LogRecord:
    """Decode one framed record; rejects truncated or trailing bytes."""
    reader = _Reader(data)
    length = reader.u32()
    if length < 1:
        raise WalCodecError("record frame with empty body")
    if 4 + length > len(data):
        raise WalCodecError(
            f"truncated record: frame says {length} bytes, buffer holds "
            f"{len(data) - 4} after the header")
    kind = _KIND_BY_TAG.get(reader.u8())
    if kind is None:
        raise WalCodecError("unknown record kind tag")
    tid = _decode_value(reader)
    lsn = _decode_value(reader)
    prev_lsn = _decode_value(reader)
    cls, names = _FIELDS[kind]
    fields = {}
    if kind is RecordKind.TXN_STATUS:
        fields["status"] = TxnStatus(_decode_value(reader))
    for name in names:
        fields[name] = _decode_value(reader)
    if not reader.exhausted:
        raise WalCodecError(
            f"{len(data) - reader.pos} trailing bytes after record")
    record = cls(tid=tid, lsn=lsn, prev_lsn=prev_lsn, **fields)
    return record


def frame_checksum(frame: bytes) -> int:
    """CRC-32 over an encoded record frame (detects all single-bit errors)."""
    return zlib.crc32(frame) & 0xFFFF_FFFF
