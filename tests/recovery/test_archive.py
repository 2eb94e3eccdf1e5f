"""Unit tests for the off-line archive."""

import pytest

from repro.kernel.context import SimContext
from repro.kernel.costs import ZERO_COST
from repro.kernel.disk import Disk
from repro.recovery.archive import Archive
from repro.recovery.driver import page_base
from repro.sim import Process
from repro.wal.records import CheckpointRecord, ValueUpdateRecord
from repro.wal.store import LogStore


@pytest.fixture
def disk():
    ctx = SimContext(profile=ZERO_COST)
    disk = Disk(ctx)

    def fill():
        yield from disk.write_page("seg", 0, {0: "a"}, sequence_number=5)
        yield from disk.write_page("seg", 2, {1024: "b"}, sequence_number=9)
        yield from disk.write_page("other", 0, {0: "c"})

    ctx.engine.run_until(Process(ctx.engine, fill()))
    return disk


def reclaimed_store(*records, before):
    """A log that held ``records`` and reclaimed those below ``before``."""
    store = LogStore()
    store.append(list(records))
    store.truncate_before(before)
    return store


def update(lsn):
    return ValueUpdateRecord(tid="t", lsn=lsn, server="s", new_value=lsn)


def test_empty_archive_refuses_restore():
    """No dump and a reclaimed update: no page has an exact base."""
    store = reclaimed_store(update(1), update(2), before=2)
    assert page_base(Archive(), store, "seg", 0) is None


def test_dump_and_restore_roundtrip(disk):
    archive = Archive()
    archive.dump(disk, ["seg"], flushed_lsn=42)
    assert archive.archive_lsn == 42
    assert not archive.empty

    disk.wipe_segment("seg")
    store = reclaimed_store(update(1), update(2), before=2)
    # Sector-header sequence numbers come back too: operation-logging
    # recovery depends on them for the redo decision.
    assert page_base(archive, store, "seg", 0) == ({0: "a"}, 5)
    assert page_base(archive, store, "seg", 2) == ({1024: "b"}, 9)
    # A page first written after the dump rolls forward from empty.
    assert page_base(archive, store, "seg", 1) == ({}, 0)


def test_restore_of_unarchived_segment_rejected(disk):
    """A segment the dump did not copy has an empty base only while the
    log holds every update record."""
    archive = Archive()
    archive.dump(disk, ["seg"], flushed_lsn=1)
    checkpoint_only = reclaimed_store(CheckpointRecord(lsn=1), update(2),
                                      before=2)
    assert page_base(archive, checkpoint_only, "other", 0) == ({}, 0)
    checkpoint_only.truncate_before(3)
    assert page_base(archive, checkpoint_only, "other", 0) is None


def test_dump_snapshots_not_aliases(disk):
    archive = Archive()
    archive.dump(disk, ["seg"], flushed_lsn=1)
    ctx = disk.ctx
    ctx.engine.run_until(Process(
        ctx.engine, disk.write_page("seg", 0, {0: "mutated"})))
    disk.wipe_segment("seg")
    image, _header = archive.page_image("seg", 0)
    assert image == {0: "a"}  # the dump-time image
    image[0] = "repaired"
    assert archive.page_image("seg", 0) == ({0: "a"}, 5)


def test_redump_advances(disk):
    archive = Archive()
    archive.dump(disk, ["seg"], flushed_lsn=10)
    archive.dump(disk, ["seg"], flushed_lsn=20)
    assert archive.archive_lsn == 20
    assert archive.dumps_taken == 2


def test_wipe_returns_page_count(disk):
    assert disk.wipe_segment("seg") == 2
    assert disk.wipe_segment("seg") == 0
    assert disk.peek_page("other", 0) == {0: "c"}  # other segments intact
