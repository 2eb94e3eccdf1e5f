"""Unit tests for the self-healing RecoverySupervisor.

Two responsibilities under test: (1) a bare ``node.restart()`` -- no
external driver at all -- yields a fully recovered node, because the
supervisor hooks ``on_restart``; (2) a data server tripping
:class:`PageCorruption` gets the page repaired in place (archived base +
log roll-forward) and its read transparently retried, including repeated
faults on the same page and escalation to a full restart when the page's
history is operation-logged.
"""

import itertools

import pytest

from repro.core.cluster import TabsCluster
from repro.errors import NodeDown, PageCorruption, RecoveryError
from repro.servers.int_array import IntegerArrayServer
from repro.servers.op_array import OperationArrayServer
from repro.sim import Process
from tests.property.conftest import fast_config


@pytest.fixture
def cluster():
    cluster = TabsCluster(fast_config())
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("arr"))
    cluster.start()
    return cluster


def set_cell(cluster, cell, value, name="arr"):
    def body(tid):
        app = cluster.application("n1")
        ref = yield from app.lookup_one(name)
        yield from app.call(ref, "set_cell",
                            {"cell": cell, "value": value}, tid)

    cluster.run_transaction("n1", body)


def get_cell(cluster, cell, name="arr"):
    def body(tid):
        app = cluster.application("n1")
        ref = yield from app.lookup_one(name)
        reply = yield from app.call(ref, "get_cell", {"cell": cell}, tid)
        return reply["value"]

    return cluster.run_transaction("n1", body)


def dump_archive(cluster):
    tabs_node = cluster.node("n1")
    return cluster.engine.run_until(Process(
        cluster.engine, tabs_node.archive_dump_generator()))


def data_segment(cluster, name="arr"):
    return cluster.node("n1").servers[name].segment_id


# -- restart-triggered self-healing ---------------------------------------------


def test_bare_restart_self_heals(cluster):
    set_cell(cluster, 1, 77)
    tabs_node = cluster.node("n1")
    supervisor = tabs_node.supervisor
    tabs_node.crash()
    assert not tabs_node.node.alive
    # No driver: just power the kernel node on.  The supervisor must
    # notice and run the full rebuild + crash recovery on its own.
    tabs_node.node.restart()
    cluster.settle()
    assert supervisor.self_recoveries == 1
    assert tabs_node.last_recovery is not None
    assert get_cell(cluster, 1) == 77


def test_every_restart_recovers_again(cluster):
    supervisor = cluster.node("n1").supervisor
    for round_number in range(1, 4):
        set_cell(cluster, 2, round_number)
        cluster.node("n1").crash()
        cluster.node("n1").node.restart()
        cluster.settle()
        assert supervisor.self_recoveries == round_number
        assert get_cell(cluster, 2) == round_number


# -- corruption-triggered live page repair ---------------------------------------


def test_corrupt_page_is_repaired_transparently(cluster):
    set_cell(cluster, 1, 10)
    dump_archive(cluster)
    set_cell(cluster, 1, 25)  # committed after the dump: must roll forward
    cluster.settle()
    tabs_node = cluster.node("n1")
    seg = data_segment(cluster)
    disk = tabs_node.node.disk
    # Evict the clean cached copy so the next read faults from disk, then
    # rot the sector.
    tabs_node.node.vm.clear_volatile()
    assert disk.rot_page(seg, 0, salt=3)
    assert not disk.verify_page(seg, 0)

    assert get_cell(cluster, 1) == 25  # read succeeds, repair invisible

    supervisor = tabs_node.supervisor
    assert supervisor.page_repairs == 1
    assert supervisor.repair_outcomes[(seg, 0)] == "repaired"
    assert disk.verify_page(seg, 0)
    metrics = cluster.metrics
    assert metrics.counter("n1", "media.page_repairs").value == 1
    assert metrics.counter("n1", "disk.corruption_detected").value == 1


def test_repeated_faults_on_same_page_each_repair(cluster):
    set_cell(cluster, 3, 5)
    dump_archive(cluster)
    tabs_node = cluster.node("n1")
    seg = data_segment(cluster)
    disk = tabs_node.node.disk
    for round_number in range(1, 4):
        value = round_number * 11
        set_cell(cluster, 3, value)
        cluster.settle()
        tabs_node.node.vm.clear_volatile()
        assert disk.rot_page(seg, 0, salt=round_number)
        assert get_cell(cluster, 3) == value
        assert tabs_node.supervisor.page_repairs == round_number
    assert cluster.metrics.counter("n1", "media.page_repairs").value == 3


def test_uncommitted_archived_value_not_resurrected(cluster):
    """The dump's flush steals dirty uncommitted pages into the archive;
    a repair from that base must still unwind the losing transaction."""
    set_cell(cluster, 1, 10)

    def update_then_abort(tid):
        app = cluster.application("n1")
        ref = yield from app.lookup_one("arr")
        yield from app.call(ref, "set_cell", {"cell": 1, "value": 999}, tid)
        # The dump happens mid-transaction: the archive captures 999.
        tabs_node = cluster.node("n1")
        yield from tabs_node.archive_dump_generator()
        yield from app.abort_transaction(tid, reason="test")
        return True

    app = cluster.application("n1")

    def run():
        tid = yield from app.begin_transaction()
        result = yield from update_then_abort(tid)
        return result

    cluster.run_on("n1", run())
    cluster.settle()
    tabs_node = cluster.node("n1")
    seg = data_segment(cluster)
    tabs_node.node.vm.clear_volatile()
    assert tabs_node.node.disk.rot_page(seg, 0, salt=9)
    assert get_cell(cluster, 1) == 10  # not the archived dirty 999


def test_operation_logged_page_escalates_to_full_recovery():
    cluster = TabsCluster(fast_config())
    cluster.add_node("n1")
    cluster.add_server("n1", OperationArrayServer.factory("ops"))
    cluster.start()

    def add(tid):
        app = cluster.application("n1")
        ref = yield from app.lookup_one("ops")
        yield from app.call(ref, "add_cell", {"cell": 1, "delta": 4}, tid)

    cluster.run_transaction("n1", add)
    dump_archive(cluster)
    cluster.run_transaction("n1", add)  # operation record after the dump
    cluster.settle()
    tabs_node = cluster.node("n1")
    seg = data_segment(cluster, "ops")
    supervisor = tabs_node.supervisor
    tabs_node.node.vm.clear_volatile()
    assert tabs_node.node.disk.rot_page(seg, 0, salt=5)

    def read(tid):
        app = cluster.application("n1")
        ref = yield from app.lookup_one("ops")
        reply = yield from app.call(ref, "get_cell", {"cell": 1}, tid)
        return reply["value"]

    # The read that trips the corruption fails (single-page value replay
    # cannot rebuild operation-logged history), the supervisor escalates
    # to a controlled crash + self-healing restart, and afterwards the
    # node serves the correct value again.
    try:
        cluster.run_transaction("n1", read)
    except Exception:
        pass
    cluster.settle()
    assert supervisor.repair_escalations == 1
    assert supervisor.self_recoveries >= 1
    assert tabs_node.node.alive
    assert tabs_node.node.disk.verify_page(seg, 0)
    assert cluster.run_transaction("n1", read) == 8


def rot_and_evict(cluster, name="arr", salt=7):
    """Rot page 0 of ``name``'s segment and drop every cached page, so
    the next read faults the rotten page in."""
    cluster.settle()
    tabs_node = cluster.node("n1")
    tabs_node.node.vm.clear_volatile()
    assert tabs_node.node.disk.rot_page(data_segment(cluster, name), 0,
                                        salt=salt)
    return tabs_node.supervisor


def test_two_readers_of_one_corrupt_page_share_one_repair(cluster):
    set_cell(cluster, 1, 10)
    set_cell(cluster, 2, 20)
    dump_archive(cluster)
    supervisor = rot_and_evict(cluster)

    def reader(cell):
        def body(tid):
            app = cluster.application("n1")
            ref = yield from app.lookup_one("arr")
            reply = yield from app.call(ref, "get_cell", {"cell": cell}, tid)
            return reply["value"]
        return cluster.application("n1").run_transaction(body)

    first = cluster.spawn_on("n1", reader(1))
    second = cluster.spawn_on("n1", reader(2))
    cluster.settle()
    assert (first.result(), second.result()) == (10, 20)
    assert supervisor.page_repairs == 1


def test_a_durable_compensation_record_replays_in_a_page_repair(cluster):
    """An abort's compensation record reaches the disk with the next
    commit's force; the repair replays it (the restored value) and keeps
    unwinding beneath it."""
    set_cell(cluster, 1, 10)
    dump_archive(cluster)
    app = cluster.application("n1")

    def update_then_abort():
        tid = yield from app.begin_transaction()
        ref = yield from app.lookup_one("arr")
        yield from app.call(ref, "set_cell", {"cell": 1, "value": 999}, tid)
        yield from app.abort_transaction(tid, reason="test")

    cluster.run_on("n1", update_then_abort())
    set_cell(cluster, 2, 5)  # forces the log past the compensation
    supervisor = rot_and_evict(cluster)
    assert (get_cell(cluster, 1), get_cell(cluster, 2)) == (10, 5)
    assert supervisor.page_repairs == 1


def test_a_repair_passes_over_operation_records_of_other_pages():
    cluster = TabsCluster(fast_config())
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("arr"))
    cluster.add_server("n1", OperationArrayServer.factory("ops"))
    cluster.start()
    set_cell(cluster, 1, 10)
    dump_archive(cluster)

    def add(tid):
        app = cluster.application("n1")
        ref = yield from app.lookup_one("ops")
        yield from app.call(ref, "add_cell", {"cell": 1, "delta": 4}, tid)

    cluster.run_transaction("n1", add)
    set_cell(cluster, 1, 25)
    supervisor = rot_and_evict(cluster)
    assert get_cell(cluster, 1) == 25
    assert supervisor.repair_outcomes[(data_segment(cluster), 0)] == \
        "repaired"


def test_no_archive_and_a_truncated_log_leave_a_page_unrepairable():
    """Without an archived base, a roll-forward must start at LSN 1; once
    reclamation has truncated the log the read fails instead of
    fabricating history."""
    cluster = TabsCluster(fast_config(log_capacity_records=64))
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("arr"))
    cluster.start()
    for value in range(40):
        set_cell(cluster, 1, value)
    assert cluster.node("n1").rm.wal.store.truncated_before > 1
    supervisor = rot_and_evict(cluster)
    with pytest.raises(PageCorruption):
        get_cell(cluster, 1)
    assert supervisor.repair_outcomes[(data_segment(cluster), 0)] == \
        "unrepairable"
    assert cluster.metrics.counter("n1", "media.repair_failures").value == 1


def test_a_restart_wipes_a_corrupt_page_without_an_archive(cluster):
    """With no archive the scrub rebuilds a corrupt page from an empty
    base.  The log starts at LSN 2, but only the start checkpoint was
    reclaimed, so the replay over it restores every committed value."""
    set_cell(cluster, 1, 10)
    set_cell(cluster, 2, 20)
    tabs_node = cluster.node("n1")
    cluster.run_on("n1", tabs_node.node.vm.flush_all())
    rot_and_evict(cluster)
    tabs_node.crash()
    tabs_node.node.restart()
    cluster.settle()
    assert tabs_node.node.disk.verify_page(data_segment(cluster), 0)
    assert (get_cell(cluster, 1), get_cell(cluster, 2)) == (10, 20)


def test_a_restart_refuses_a_corrupt_page_whose_update_was_reclaimed(
        cluster):
    """No archive, and a clean point reclaimed the committed update: the
    scrub has no exact base and recovery fails instead of reading 0.
    The node goes back down rather than sit half up, so a transaction
    sent to it fails at once instead of waiting forever."""
    set_cell(cluster, 1, 100)
    cluster.crash_node("n1")
    cluster.restart_node("n1")  # the clean point reclaims the update
    rot_and_evict(cluster)
    cluster.crash_node("n1")
    with pytest.raises(RecoveryError, match="no archive dump"):
        cluster.restart_node("n1")
    assert not cluster.node("n1").node.alive
    refused_at = cluster.engine.now
    with pytest.raises(NodeDown):
        get_cell(cluster, 1)
    assert cluster.engine.now == refused_at


def test_live_repair_rebuilds_from_empty_while_the_log_holds_every_update(
        cluster):
    """The state a restart rebuilds exactly (only the start checkpoint
    reclaimed) is repaired live the same way, not refused."""
    set_cell(cluster, 1, 10)
    set_cell(cluster, 2, 20)
    tabs_node = cluster.node("n1")
    cluster.run_on("n1", tabs_node.node.vm.flush_all())
    assert tabs_node.rm.wal.store.truncated_before > 1
    supervisor = rot_and_evict(cluster)
    assert (get_cell(cluster, 1), get_cell(cluster, 2)) == (10, 20)
    assert supervisor.repair_outcomes[(data_segment(cluster), 0)] == \
        "repaired"


# -- one repair rule, whichever path meets the page -----------------------------


def outcome(dump: bool, clean_point: bool, live: bool):
    """Rot the page holding cell 1 and read it back along one path --
    live repair or the restart scrub: ``("repaired", value)`` or
    ``("refused", None)``."""
    cluster = TabsCluster(fast_config())
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("arr"))
    cluster.start()
    tabs_node = cluster.node("n1")
    set_cell(cluster, 1, 10)
    if dump:
        dump_archive(cluster)
    set_cell(cluster, 1, 25)
    if clean_point:
        cluster.crash_node("n1")
        cluster.restart_node("n1")
    cluster.run_on("n1", tabs_node.node.vm.flush_all())
    rot_and_evict(cluster, salt=11)
    try:
        if not live:
            cluster.crash_node("n1")
            cluster.restart_node("n1")
        return "repaired", get_cell(cluster, 1)
    except (PageCorruption, RecoveryError):
        return "refused", None


def test_live_repair_and_the_restart_scrub_agree():
    """Both paths take the page's base from ``page_base``: over dump / no
    dump and clean point / none they agree on verdict and value."""
    cases = list(itertools.product((False, True), repeat=2))
    expected = {(dump, clean_point): ("refused", None)
                if clean_point and not dump else ("repaired", 25)
                for dump, clean_point in cases}
    for live in (True, False):
        assert {(dump, clean_point): outcome(dump, clean_point, live)
                for dump, clean_point in cases} == expected
