"""Tests for the duplexed log store's stable-storage behaviour.

The content path (append/read/truncate ordering, capacity) is covered in
``test_log.py``; here the subject is the *media*: duplex repair on read,
salvage truncation of a torn tail, and the fault-injection surface the
chaos controller drives.
"""

import tracemalloc

import pytest

from repro.errors import LogMediaCorruption
from repro.wal.records import (
    CheckpointRecord,
    PageDirtyRecord,
    ValueUpdateRecord,
)
from repro.wal.store import LogStore


def filled_store(count=4):
    store = LogStore()
    records = [ValueUpdateRecord(tid="t", old_value=0, new_value=i)
               for i in range(count)]
    for i, record in enumerate(records, start=1):
        record.lsn = i
    store.append(records)
    return store


def torn_record(lsn):
    record = ValueUpdateRecord(tid="t", old_value=0, new_value=99)
    record.lsn = lsn
    return record


# -- duplexed read path --------------------------------------------------------


@pytest.mark.parametrize("copy", [0, 1])
def test_single_copy_rot_is_repaired_on_read(copy):
    store = filled_store()
    assert store.rot_media(2, copy=copy)
    assert not store.media_intact()
    assert [r.lsn for r in store.read_forward()] == [1, 2, 3, 4]
    assert store.duplex_repairs == 1
    assert store.media_intact()


def test_both_copy_rot_of_durable_record_raises():
    store = filled_store()
    assert store.rot_media(2, both_copies=True)
    with pytest.raises(LogMediaCorruption):
        store.read_forward()


def test_rot_on_one_disk_never_reaches_its_mirror():
    """The two disks share one image per record while they agree.  Damage
    replaces the damaged disk's image instead of touching the shared one,
    and a repair shares the good image again -- so each is again
    damageable on its own, and two separate hits are real log loss."""
    store = filled_store()
    store.rot_media(2, copy=0)
    store.read_forward()  # repaired: the disks agree again
    store.rot_media(2, copy=1)
    assert [r.lsn for r in store.read_forward()] == [1, 2, 3, 4]
    assert store.duplex_repairs == 2 and store.media_intact()
    store.rot_media(2, copy=0)
    store.rot_media(2, copy=1)
    with pytest.raises(LogMediaCorruption):
        store.read_forward()


@pytest.mark.parametrize("copy", [0, 1])
def test_rot_of_a_relinked_record_is_repaired_and_both_copies_raise(copy):
    """Abort processing relinks ``prev_lsn`` after append, so the image
    rot damages is the record as it stands, not as it was appended."""
    store = filled_store()
    store.record_at(3).prev_lsn = 70_000
    assert store.rot_media(3, copy=copy)
    assert not store.media_intact()
    assert [r.lsn for r in store.read_forward()] == [1, 2, 3, 4]
    assert store.duplex_repairs == 1 and store.media_intact()
    assert store.rot_media(3, both_copies=True)
    with pytest.raises(LogMediaCorruption):
        store.read_forward()


def test_rot_media_without_media_returns_false():
    store = filled_store()
    assert not store.rot_media(99)


def test_repair_is_lazy_and_one_shot():
    store = filled_store()
    store.rot_media(3, copy=1)
    store.read_forward()
    store.record_at(3)
    assert store.duplex_repairs == 1


# -- salvage -------------------------------------------------------------------


def test_salvage_repairs_single_copy_damage_without_truncating():
    store = filled_store()
    store.rot_media(1, copy=0)
    store.rot_media(4, copy=1)
    report = store.salvage()
    assert report.repairs == 2
    assert not report.truncated
    assert store.media_intact()
    assert len(store) == 4


def test_salvage_truncates_at_torn_tail():
    store = filled_store(count=2)
    store.append_torn(torn_record(3))
    # The torn record was never acknowledged: not durable content.
    assert store.last_lsn == 2
    report = store.salvage()
    assert report.truncated_from_lsn == 3
    assert report.dropped_records == 0
    assert store.salvage_truncations == 1
    assert store.media_intact()
    assert [r.lsn for r in store.read_forward()] == [1, 2]


def test_an_append_overwrites_a_torn_frame_at_its_lsn():
    """A torn force left half a frame at LSN 3 on both disks.  An append
    of LSN 3 with no salvage in between overwrites it there: the record
    reads intact, and a later salvage keeps it."""
    store = filled_store(count=2)
    store.append_torn(torn_record(3))
    assert store.last_lsn == 2
    store.append([torn_record(3)])
    assert store.media_intact()
    assert [r.lsn for r in store.read_forward()] == [1, 2, 3]
    assert not store.salvage().truncated
    assert len(store) == 3


def test_salvage_drops_durable_records_past_both_copy_damage():
    """Both-copies loss below the durable tail: the log must still end at
    an intact prefix, so acknowledged records are dropped (the loss then
    surfaces in the recovery audits, not here)."""
    store = filled_store()
    store.rot_media(3, both_copies=True)
    report = store.salvage()
    assert report.truncated_from_lsn == 3
    assert report.dropped_records == 2
    assert [r.lsn for r in store.read_forward()] == [1, 2]


def test_torn_append_never_reaches_observers():
    store = filled_store(count=1)
    seen = []
    store.observers.append(seen.append)
    store.append_torn(torn_record(2))
    assert seen == []
    assert store.last_lsn == 1


def test_rot_undone_by_a_second_rot_needs_no_repair():
    """Rotting the same byte twice restores the frame: the read finds it
    intact, drops the entry and counts no repair."""
    store = filled_store()
    store.rot_media(2, copy=0)
    store.rot_media(2, copy=0)
    assert [r.lsn for r in store.read_forward()] == [1, 2, 3, 4]
    assert store.duplex_repairs == 0
    assert store._damage == ({}, {})


# -- bookkeeping ---------------------------------------------------------------


def test_clean_appends_store_no_media():
    """An intact image is the absence of damage: clean appends leave the
    store and the codec holding nothing per record but its list slot."""
    records = [ValueUpdateRecord(tid="t", old_value=0, new_value=i)
               for i in range(20_000)]
    for lsn, record in enumerate(records, start=1):
        record.lsn = lsn
    store = LogStore()
    tracemalloc.start()
    try:
        for start in range(0, len(records), 16):
            store.append(records[start:start + 16])
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = snapshot.filter_traces([
        tracemalloc.Filter(True, "*/wal/store.py"),
        tracemalloc.Filter(True, "*/wal/codec.py")]).statistics("filename")
    assert sum(stat.size for stat in retained) <= 16 * len(records)


def test_truncation_reclaims_damaged_media():
    store = filled_store()
    store.rot_media(1, both_copies=True)
    store.truncate_before(3)
    # The damage fell below the truncation point: nothing left to repair.
    assert store.media_intact()
    assert [r.lsn for r in store.read_forward(3)] == [3, 4]
    assert store.duplex_repairs == 0


def test_truncation_records_the_first_reclaimed_update():
    store = LogStore()
    store.append([CheckpointRecord(lsn=1), PageDirtyRecord(lsn=2),
                  ValueUpdateRecord(tid="t", lsn=3),
                  CheckpointRecord(lsn=4)])
    store.truncate_before(3)  # a checkpoint and a dirty-page note
    assert not store.updates_reclaimed
    store.truncate_before(4)
    assert store.updates_reclaimed
    store.truncate_before(5)  # stays set
    assert store.updates_reclaimed


def test_media_observer_sees_repair_and_salvage_events():
    events = []
    store = filled_store(count=2)
    store.media_observer = lambda kind, count=1: events.append(kind)
    store.rot_media(2, copy=0)
    store.read_forward()
    store.append_torn(torn_record(3))
    store.salvage()
    assert events == ["wal.duplex_repairs", "wal.salvage_truncations"]
