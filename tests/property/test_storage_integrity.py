"""Property tests for the storage-integrity checksums.

The detection guarantee both repair layers rest on: CRC-32 catches every
single-bit error.  Exhaustively flip each bit of a record's frame, or of
the CRC kept beside it, in the image a log disk holds (the store's
``_MediaEntry``) and the image must read damaged; decay any stored value
of a disk page and the next read must raise :class:`PageCorruption`
rather than serve the corrupt data.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PageCorruption
from repro.kernel.context import SimContext
from repro.kernel.costs import ZERO_COST
from repro.kernel.disk import Disk, checksum_page
from repro.sim import Process
from repro.wal.codec import decode_record, encode_record, frame_checksum
from repro.wal.store import _MediaEntry
from tests.wal.test_record_codec import records, values

#: offset -> value maps as servers lay them out on a page
page_data = st.dictionaries(st.integers(0, 64), values,
                            min_size=1, max_size=4)


# -- log frames ---------------------------------------------------------------------


@settings(max_examples=60)
@given(records)
def test_checksummed_roundtrip(record):
    frame = encode_record(record)
    entry = _MediaEntry(frame, frame_checksum(frame))
    assert entry.ok
    assert decode_record(entry.payload) == record


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(records)
def test_every_single_bit_flip_in_a_log_frame_is_detected(record):
    frame = bytearray(encode_record(record))
    checksum = frame_checksum(frame)
    for index in range(len(frame)):
        for bit in range(8):
            frame[index] ^= 1 << bit
            corrupt = bytes(frame)
            frame[index] ^= 1 << bit
            assert not _MediaEntry(corrupt, checksum).ok
    for bit in range(32):
        assert not _MediaEntry(bytes(frame), checksum ^ 1 << bit).ok


@settings(max_examples=60)
@given(records)
def test_every_truncation_of_a_checksummed_frame_is_detected(record):
    """A torn force keeps a prefix of the frame under the whole frame's
    CRC (``LogStore.append_torn``); no prefix reads intact."""
    frame = encode_record(record)
    checksum = frame_checksum(frame)
    for cut in range(len(frame)):
        assert not _MediaEntry(frame[:cut], checksum).ok


# -- disk pages ---------------------------------------------------------------------


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=page_data, salt=st.integers(1, 2**16))
def test_any_rotted_page_value_is_detected_on_read(data, salt):
    ctx = SimContext(profile=ZERO_COST)
    disk = Disk(ctx)
    ctx.engine.run_until(Process(
        ctx.engine, disk.write_page("seg", 0, data)))
    if not disk.rot_page("seg", 0, salt=salt):
        return  # nothing stored to rot (empty page)
    assert not disk.verify_page("seg", 0)
    with pytest.raises(PageCorruption):
        ctx.engine.run_until(Process(
            ctx.engine, disk.read_page("seg", 0)))


@settings(max_examples=60)
@given(data=page_data, other=values, offset=st.integers(0, 64))
def test_page_checksum_separates_any_value_change(data, other, offset):
    mutated = dict(data)
    mutated[offset] = other
    if mutated == data:
        return
    assert checksum_page("seg", 0, data) != checksum_page("seg", 0, mutated)


@settings(max_examples=60)
@given(data=page_data)
def test_page_checksum_binds_page_identity(data):
    """Misdirected-write detection: the same payload on a different
    sector (or segment) must not verify against the original checksum."""
    base = checksum_page("seg", 0, data)
    assert checksum_page("seg", 1, data) != base
    assert checksum_page("other", 0, data) != base
