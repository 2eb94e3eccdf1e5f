"""Media recovery: archive dumps + log roll-forward after disk loss.

The paper excludes disk failures from its scope but lists media recovery
as needed work; the extension follows its own recipe (Section 2.1.3):
dump non-volatile storage into an off-line archive, and after a media
failure roll each lost page forward over the log from its base -- the
archived image, or an empty page while the log holds every update
(``page_base``).  Media recovery is an ordinary restart: every destroyed
sector fails its checksum, so the recovery scrub rebuilds it.
"""

import pytest

from repro import TabsCluster, TabsConfig, TabsError
from repro.errors import RecoveryError
from repro.servers.int_array import IntegerArrayServer


@pytest.fixture
def cluster():
    cluster = TabsCluster(TabsConfig())
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("array"))
    cluster.start()
    return cluster


def write(cluster, cell, value):
    app = cluster.application("n1")

    def body(tid):
        ref = yield from app.lookup_one("array")
        yield from app.call(ref, "set_cell",
                            {"cell": cell, "value": value}, tid)

    cluster.run_transaction("n1", body)


def read(cluster, cell):
    app = cluster.application("n1")

    def body(tid):
        ref = yield from app.lookup_one("array")
        result = yield from app.call(ref, "get_cell", {"cell": cell}, tid)
        return result["value"]

    return cluster.run_transaction("n1", body)


def dump(cluster):
    return cluster.run_on("n1",
                          cluster.node("n1").archive_dump_generator())


def fail_and_recover(cluster):
    """Lose the segment, then restart: the scrub rebuilds every page."""
    tabs = cluster.node("n1")
    tabs.crash()
    lost = tabs.media_failure(["n1:array"])
    report = cluster.restart_node("n1")
    assert report.pages_scrubbed == lost
    return lost, report


def test_archive_dump_then_disk_loss_restores_everything(cluster):
    for cell in range(1, 6):
        write(cluster, cell, cell * 10)
    dump(cluster)
    lost, _report = fail_and_recover(cluster)
    assert lost > 0  # the disk really lost pages
    assert [read(cluster, cell) for cell in range(1, 6)] == \
        [10, 20, 30, 40, 50]


def test_post_dump_commits_roll_forward_from_the_log(cluster):
    write(cluster, 1, 100)
    dump(cluster)
    write(cluster, 1, 200)   # newer than the archive
    write(cluster, 2, 300)
    fail_and_recover(cluster)
    assert read(cluster, 1) == 200
    assert read(cluster, 2) == 300


def test_media_recovery_without_a_dump_is_refused(cluster):
    """No dump and a clean point that reclaimed the update: nothing can
    rebuild the page, and recovery says so instead of serving 0."""
    write(cluster, 1, 1)
    cluster.crash_node("n1")
    cluster.restart_node("n1")  # the clean point reclaims the update
    assert cluster.node("n1").rm.wal.store.updates_reclaimed
    tabs = cluster.node("n1")
    tabs.crash()
    tabs.media_failure(["n1:array"])
    with pytest.raises(RecoveryError, match="no archive dump"):
        cluster.restart_node("n1")


def test_media_failure_without_a_dump_rolls_the_whole_log_forward(cluster):
    """No dump, but the log holds every update: each lost page is rebuilt
    from an empty base, past the checkpoint that marked it flushed."""
    for cell in range(1, 4):
        write(cluster, cell, cell * 100)
    tabs = cluster.node("n1")
    cluster.run_on("n1", tabs.rm.take_checkpoint({}, flush=True))
    assert not tabs.rm.wal.store.updates_reclaimed
    lost, _report = fail_and_recover(cluster)
    assert lost > 0
    assert [read(cluster, cell) for cell in range(1, 4)] == [100, 200, 300]


def test_disk_failure_requires_the_node_down(cluster):
    with pytest.raises(TabsError, match="crash the node"):
        cluster.node("n1").media_failure(["n1:array"])


def test_reclamation_respects_the_archive(cluster):
    """Records newer than the dump are never truncated: media recovery
    must be able to roll the archive forward through them."""
    tabs = cluster.node("n1")
    write(cluster, 1, 1)
    archive_lsn = dump(cluster)
    for index in range(10):
        write(cluster, 2, index)
    cluster.run_on("n1", tabs.rm.take_checkpoint({}, flush=True))
    tabs.rm.wal.store.truncate_before(tabs.rm.truncation_bound())
    # Everything since the dump is still there.
    assert tabs.rm.wal.store.truncated_before <= archive_lsn + 1


def test_archive_position_survives_ordinary_crashes(cluster):
    write(cluster, 1, 7)
    dump(cluster)
    cluster.crash_node("n1")
    cluster.restart_node("n1")  # ordinary crash recovery
    write(cluster, 2, 8)
    # Now the disk dies; the pre-crash dump still works, rolled forward.
    fail_and_recover(cluster)
    assert read(cluster, 1) == 7
    assert read(cluster, 2) == 8


def test_repeated_dumps_advance_the_archive(cluster):
    write(cluster, 1, 1)
    first = dump(cluster)
    write(cluster, 1, 2)
    second = dump(cluster)
    assert second > first
    fail_and_recover(cluster)
    assert read(cluster, 1) == 2


def test_uncommitted_value_stolen_by_a_dump_never_becomes_durable(cluster):
    """The dump's flush writes an in-flight transaction's value into the
    archive.  Its undo record sits below ``archive_lsn`` and must outlive
    the transaction's own resolution: here recovery undoes the loser, the
    disk drops the write-back, reclamation runs, and the *next* recovery's
    scrub restores the archived page -- which only that record can fix."""
    tabs = cluster.node("n1")
    write(cluster, 1, 100)
    app = cluster.application("n1")

    def left_open():
        tid = yield from app.begin_transaction()
        ref = yield from app.lookup_one("array")
        yield from app.call(ref, "set_cell", {"cell": 1, "value": 92}, tid)

    cluster.run_on("n1", left_open())
    dump(cluster)
    assert tabs.archive.pages["n1:array"][0] == {0: 92}
    first_record = tabs.archive.retain_from_lsn
    assert first_record <= tabs.archive.archive_lsn

    cluster.crash_node("n1")
    tabs.node.disk.arm_lost_write("n1:array", 0)  # swallows the undo
    cluster.restart_node("n1")  # undoes the loser, checkpoints, truncates
    assert tabs.rm.wal.store.truncated_before <= first_record

    cluster.crash_node("n1")
    report = cluster.restart_node("n1")
    assert report.pages_scrubbed == 1  # the archived 92 came back
    assert read(cluster, 1) == 100
