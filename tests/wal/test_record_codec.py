"""Property tests for the log-record wire codec.

For every record kind: ``decode(encode(r))`` reproduces the record exactly
(and hence ``encode`` is deterministic: re-encoding the decoded record
yields the identical bytes), and every truncation of an encoded record is
rejected with :class:`WalCodecError` rather than misread.
"""

import enum
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WalCodecError
from repro.kernel.vm import ObjectID
from repro.txn.ids import TransactionID
from repro.wal.codec import decode_record, encode_record, encode_value
from repro.wal.records import (
    CheckpointRecord,
    LogRecord,
    OperationRecord,
    PageDirtyRecord,
    ServerPrepareRecord,
    TransactionStatusRecord,
    TxnStatus,
    ValueUpdateRecord,
)


class Pair(NamedTuple):
    left: int
    right: int


# -- strategies ---------------------------------------------------------------------

names = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x24F),
    max_size=12)

tids = st.builds(TransactionID, node=names, seq=st.integers(0, 2**40),
                 path=st.lists(st.integers(0, 50), max_size=3)
                 .map(tuple))

oids = st.builds(ObjectID, segment_id=names,
                 offset=st.integers(0, 2**24), length=st.integers(1, 4096))

#: anything a server may put in a logged value
values = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(-2**70, 2**70), st.floats(allow_nan=False),
              names, st.binary(max_size=32), tids, oids),
    lambda leaf: st.one_of(
        st.lists(leaf, max_size=4),
        st.lists(leaf, max_size=4).map(tuple),
        st.dictionaries(st.one_of(names, st.integers(-100, 100)), leaf,
                        max_size=4)),
    max_leaves=8)

headers = {"tid": st.one_of(st.none(), tids),
           "lsn": st.integers(0, 2**32),
           "prev_lsn": st.integers(0, 2**32)}

value_updates = st.builds(
    ValueUpdateRecord, server=names, oid=st.one_of(st.none(), oids),
    old_value=values, new_value=values, **headers)

operations = st.builds(
    OperationRecord, server=names, operation=names,
    redo_args=st.lists(values, max_size=3).map(tuple),
    undo_operation=names,
    undo_args=st.lists(values, max_size=3).map(tuple),
    oids=st.lists(oids, max_size=3).map(tuple),
    compensates_lsn=st.integers(0, 2**32), **headers)

statuses = st.builds(
    TransactionStatusRecord, status=st.sampled_from(TxnStatus),
    servers=st.lists(names, max_size=3).map(tuple),
    coordinator=names,
    children=st.lists(names, max_size=3).map(tuple),
    merged_into=st.one_of(st.none(), tids), **headers)

checkpoints = st.builds(
    CheckpointRecord,
    dirty_pages=st.dictionaries(
        st.tuples(names, st.integers(0, 5000)), st.integers(1, 2**32),
        max_size=4),
    active_transactions=st.dictionaries(
        tids, st.sampled_from(["active", "prepared", "committed"]),
        max_size=4),
    attached_servers=st.dictionaries(names, names, max_size=4), **headers)

page_dirties = st.builds(PageDirtyRecord, segment_id=names,
                         page=st.integers(0, 5000), **headers)

server_prepares = st.builds(ServerPrepareRecord, server=names,
                            oids=st.lists(oids, max_size=4).map(tuple),
                            **headers)

records = st.one_of(value_updates, operations, statuses, checkpoints,
                    page_dirties, server_prepares)


# -- round trips --------------------------------------------------------------------


@settings(max_examples=200)
@given(records)
def test_roundtrip_identity(record):
    encoded = encode_record(record)
    decoded = decode_record(encoded)
    assert decoded == record
    assert decoded.kind is record.kind
    assert encode_record(decoded) == encoded


@settings(max_examples=100)
@given(records)
def test_every_truncation_is_rejected(record):
    encoded = encode_record(record)
    for cut in range(len(encoded)):
        with pytest.raises(WalCodecError):
            decode_record(encoded[:cut])


@settings(max_examples=100)
@given(records, st.binary(min_size=1, max_size=8))
def test_trailing_garbage_is_rejected(record, garbage):
    with pytest.raises(WalCodecError):
        decode_record(encode_record(record) + garbage)


# -- explicit corner cases -----------------------------------------------------------


def test_unknown_kind_tag_rejected():
    encoded = bytearray(encode_record(PageDirtyRecord(segment_id="s")))
    encoded[4] = 0xEE  # the kind tag follows the 4-byte frame length
    with pytest.raises(WalCodecError):
        decode_record(bytes(encoded))


def test_unknown_value_tag_rejected():
    encoded = bytearray(encode_record(PageDirtyRecord(segment_id="s")))
    encoded[5] = 0xEE  # first value tag (the tid)
    with pytest.raises(WalCodecError):
        decode_record(bytes(encoded))


def test_empty_buffer_rejected():
    with pytest.raises(WalCodecError):
        decode_record(b"")
    with pytest.raises(WalCodecError):  # a frame whose length is zero
        decode_record(b"\0\0\0\0")


def test_unencodable_value_rejected():
    # a named tuple is a tuple subclass: no record holds one
    for value in (object(), Pair(1, 2)):
        with pytest.raises(WalCodecError):
            encode_record(ValueUpdateRecord(old_value=value))


def test_record_of_unknown_kind_rejected():
    with pytest.raises(WalCodecError):
        encode_record(LogRecord())


def test_large_and_negative_ints_roundtrip():
    record = ValueUpdateRecord(old_value=-(2**200), new_value=2**200 + 1)
    assert decode_record(encode_record(record)) == record


# -- pinned frames: the wire shape cannot drift ----------------------------------


class Level(enum.IntEnum):
    HIGH = 3


class Name(str):
    pass


PIN_TID = TransactionID("n0", 7, (1, 2))
PIN_OID = ObjectID("accounts0", 96, 8)

#: one record of each kind and its frame, hex
PINNED_RECORDS = [
    (ValueUpdateRecord(tid=PIN_TID, lsn=12, prev_lsn=9, server="accounts0",
                       oid=PIN_OID, old_value=-5, new_value=2**70),
     "00000051010a05000000026e30030107070000000203010103010203010c0301090500"
     "0000096163636f756e7473300b05000000096163636f756e7473300301600301080301"
     "fb0309400000000000000000030100"),
    (OperationRecord(tid=PIN_TID, lsn=13, prev_lsn=12, server="branch0",
                     operation="add_balance", redo_args=(PIN_OID, 25),
                     undo_operation="add_balance", undo_args=(PIN_OID, -25),
                     oids=(PIN_OID,), compensates_lsn=4),
     "000000a0020a05000000026e30030107070000000203010103010203010d03010c0500"
     "0000076272616e636830050000000b6164645f62616c616e636508000000020b050000"
     "00096163636f756e747330030160030108030119050000000b6164645f62616c616e63"
     "6508000000020b05000000096163636f756e7473300301600301080301e70800000001"
     "0b05000000096163636f756e747330030160030108030104"),
    (TransactionStatusRecord(tid=PIN_TID, lsn=14, prev_lsn=13,
                             status=TxnStatus.PREPARED,
                             servers=("accounts0", "branch0"),
                             coordinator="n1", children=("n2",),
                             merged_into=TransactionID("n0", 7)),
     "0000006c030a05000000026e30030107070000000203010103010203010e03010d0500"
     "0000087072657061726564080000000205000000096163636f756e74733005000000"
     "076272616e63683005000000026e31080000000105000000026e320a05000000026e30"
     "0301070700000000"),
    (CheckpointRecord(lsn=15, dirty_pages={("accounts0", 3): 11},
                      active_transactions={PIN_TID: "prepared"},
                      attached_servers={"accounts0": "seg-accounts0"}),
     "00000073040003010f0301000900000001080000000205000000096163636f756e7473"
     "3003010303010b09000000010a05000000026e30030107070000000203010103010205"
     "000000087072657061726564090000000105000000096163636f756e74733005000000"
     "0d7365672d6163636f756e747330"),
    (PageDirtyRecord(lsn=16, segment_id="accounts0", page=3),
     "00000019050003011003010005000000096163636f756e747330030103"),
    (ServerPrepareRecord(tid=PIN_TID, lsn=17, prev_lsn=14, server="accounts0",
                         oids=(PIN_OID, ObjectID("accounts0", 104, 8))),
     "0000005a060a05000000026e30030107070000000203010103010203011103010e0500"
     "0000096163636f756e74733008000000020b05000000096163636f756e747330030160"
     "0301080b05000000096163636f756e747330030168030108"),
]

#: one value per tag the exact-type path leaves to the fallback, hex
PINNED_VALUES = [
    (True, "02"),
    (Level.HIGH, "030103"),
    (Name("teller"), "050000000674656c6c6572"),
    (-129, "0302ff7f"),
    (2**64 + 1, "0309010000000000000001"),
    ({"rows": [1, (2, "x")], 3: {"k": (None, False)}},
     "09000000020500000004726f777307000000020301010800000002030102050000000"
     "178030103090000000105000000016b08000000020001"),
]


@pytest.mark.parametrize("record, frame", PINNED_RECORDS,
                         ids=[type(r).__name__ for r, _ in PINNED_RECORDS])
def test_each_record_kind_encodes_to_its_pinned_frame(record, frame):
    assert encode_record(record).hex() == frame
    assert decode_record(bytes.fromhex(frame)) == record


@pytest.mark.parametrize("value, encoding", PINNED_VALUES,
                         ids=[type(v).__name__ for v, _ in PINNED_VALUES])
def test_each_value_tag_encodes_to_its_pinned_bytes(value, encoding):
    assert encode_value(value).hex() == encoding
