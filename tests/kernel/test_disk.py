"""Tests for the simulated disk."""

import pytest

from repro.errors import PageCorruption
from repro.kernel.context import SimContext
from repro.kernel.costs import MEASURED_1985, Primitive
from repro.kernel.disk import MAX_SEQUENCE_NUMBER, Disk
from repro.sim import Process


@pytest.fixture
def ctx():
    return SimContext()


def run(ctx, gen):
    return ctx.engine.run_until(Process(ctx.engine, gen))


def test_read_of_unwritten_page_is_empty(ctx):
    disk = Disk(ctx)
    assert run(ctx, disk.read_page("seg", 0)) == {}


def test_write_then_read_roundtrip(ctx):
    disk = Disk(ctx)

    def body():
        yield from disk.write_page("seg", 3, {0: "a", 8: 42})
        data = yield from disk.read_page("seg", 3)
        return data

    assert run(ctx, body()) == {0: "a", 8: 42}


def test_read_returns_copy_not_alias(ctx):
    disk = Disk(ctx)

    def body():
        yield from disk.write_page("seg", 0, {0: 1})
        data = yield from disk.read_page("seg", 0)
        data[0] = 999
        fresh = yield from disk.read_page("seg", 0)
        return fresh

    assert run(ctx, body()) == {0: 1}


def test_random_read_cost(ctx):
    disk = Disk(ctx)
    run(ctx, disk.read_page("seg", 7))
    assert ctx.meter.count(Primitive.RANDOM_PAGED_IO) == 1
    assert ctx.engine.now == MEASURED_1985.time_of(Primitive.RANDOM_PAGED_IO)


def test_sequential_reads_are_cheaper(ctx):
    disk = Disk(ctx)

    def body():
        yield from disk.read_page("seg", 0)  # random (first access)
        yield from disk.read_page("seg", 1)  # sequential
        yield from disk.read_page("seg", 2)  # sequential
        yield from disk.read_page("seg", 9)  # random (skip)

    run(ctx, body())
    assert ctx.meter.count(Primitive.SEQUENTIAL_READ) == 2
    assert ctx.meter.count(Primitive.RANDOM_PAGED_IO) == 2


def test_write_breaks_sequential_run(ctx):
    """Log writes break up sequential access on the single Perq disk."""
    disk = Disk(ctx)

    def body():
        yield from disk.read_page("seg", 0)
        yield from disk.write_page("other", 5, {})
        yield from disk.read_page("seg", 1)  # arm moved: random again

    run(ctx, body())
    assert ctx.meter.count(Primitive.SEQUENTIAL_READ) == 0
    assert ctx.meter.count(Primitive.RANDOM_PAGED_IO) == 3


def test_writes_always_charged_random(ctx):
    disk = Disk(ctx)

    def body():
        yield from disk.write_page("seg", 0, {})
        yield from disk.write_page("seg", 1, {})

    run(ctx, body())
    assert ctx.meter.count(Primitive.RANDOM_PAGED_IO) == 2


def test_sequence_number_header_roundtrip(ctx):
    disk = Disk(ctx)
    run(ctx, disk.write_page("seg", 4, {}, sequence_number=12345))
    assert disk.read_sequence_number("seg", 4) == 12345
    assert disk.read_sequence_number("seg", 5) == 0


def test_sequence_number_wraps_at_39_bits(ctx):
    disk = Disk(ctx)
    run(ctx, disk.write_page("seg", 0, {}, sequence_number=MAX_SEQUENCE_NUMBER + 5))
    assert disk.read_sequence_number("seg", 0) == 4


def test_contents_survive_peek_without_cost(ctx):
    disk = Disk(ctx)
    run(ctx, disk.write_page("seg", 0, {16: "x"}))
    before = ctx.engine.now
    assert disk.peek_page("seg", 0) == {16: "x"}
    assert ctx.engine.now == before


# -- corruption detection and the fault surface ---------------------------------


def test_bit_rot_is_detected_on_read(ctx):
    disk = Disk(ctx, node_name="n1")
    run(ctx, disk.write_page("seg", 0, {0: 1, 4: 2}))
    seen = []
    disk.on_corruption.append(lambda seg, page: seen.append((seg, page)))
    assert disk.rot_page("seg", 0, salt=1)
    assert not disk.verify_page("seg", 0)
    with pytest.raises(PageCorruption):
        run(ctx, disk.read_page("seg", 0))
    assert seen == [("seg", 0)]
    assert disk.corruption_detected == 1
    assert ctx.metrics.counter("n1", "disk.corruption_detected").value == 1


def test_rot_is_deterministic_in_salt(ctx):
    first, second = Disk(ctx), Disk(ctx)
    for disk in (first, second):
        run(ctx, disk.write_page("seg", 0, {0: "a", 4: "b", 8: "c"}))
        disk.rot_page("seg", 0, salt=7)
    assert first.peek_page("seg", 0) == second.peek_page("seg", 0)


def test_rot_of_virgin_sector_is_a_no_op(ctx):
    disk = Disk(ctx)
    assert not disk.rot_page("seg", 9)
    assert disk.verify_page("seg", 9)


def test_clean_rewrite_clears_corruption(ctx):
    disk = Disk(ctx)
    run(ctx, disk.write_page("seg", 0, {0: 1}))
    disk.rot_page("seg", 0)
    run(ctx, disk.write_page("seg", 0, {0: 2}))
    assert disk.verify_page("seg", 0)
    assert run(ctx, disk.read_page("seg", 0)) == {0: 2}


def test_torn_write_keeps_a_prefix_under_the_full_checksum(ctx):
    disk = Disk(ctx)
    run(ctx, disk.write_page("seg", 0, {0: "a", 4: "b", 8: "c", 12: "d"}))
    assert disk.tear_page("seg", 0)
    assert disk.peek_page("seg", 0) == {0: "a", 4: "b"}
    assert not disk.verify_page("seg", 0)


def test_tear_last_write_targets_the_in_flight_sector(ctx):
    disk = Disk(ctx)
    assert disk.tear_last_write() is None  # nothing ever written
    run(ctx, disk.write_page("seg", 1, {0: 1, 4: 2}))
    run(ctx, disk.write_page("seg", 5, {0: 3, 4: 4}))
    assert disk.tear_last_write() == ("seg", 5)
    assert disk.verify_page("seg", 1)
    assert not disk.verify_page("seg", 5)


def test_lost_write_acknowledged_but_detectable(ctx):
    disk = Disk(ctx)
    run(ctx, disk.write_page("seg", 0, {0: "old"}))
    disk.arm_lost_write("seg", 0)
    run(ctx, disk.write_page("seg", 0, {0: "new"}))
    # The drive acknowledged the write; the platter still has the old
    # data, and the freshly written header checksum exposes it.
    assert disk.lost_writes == 1
    assert disk.peek_page("seg", 0) == {0: "old"}
    assert not disk.verify_page("seg", 0)


def test_misdirected_write_corrupts_victim_and_intended_sector(ctx):
    disk = Disk(ctx)
    run(ctx, disk.write_page("seg", 0, {0: "home"}))
    run(ctx, disk.write_page("seg", 3, {0: "victim"}))
    disk.arm_misdirected_write("seg", 0, to_page=3)
    run(ctx, disk.write_page("seg", 0, {0: "stray"}))
    assert disk.misdirected_writes == 1
    # Victim: foreign data under its old checksum.
    assert disk.peek_page("seg", 3) == {0: "stray"}
    assert not disk.verify_page("seg", 3)
    # Intended sector: new checksum over the stale data.
    assert disk.peek_page("seg", 0) == {0: "home"}
    assert not disk.verify_page("seg", 0)


def test_clear_armed_faults_disarms_pending_faults(ctx):
    disk = Disk(ctx)
    disk.arm_lost_write("seg", 0)
    disk.arm_misdirected_write("seg", 1, to_page=2)
    disk.clear_armed_faults()
    run(ctx, disk.write_page("seg", 0, {0: 1}))
    run(ctx, disk.write_page("seg", 1, {0: 2}))
    assert disk.lost_writes == 0 and disk.misdirected_writes == 0
    assert disk.verify_page("seg", 0) and disk.verify_page("seg", 1)


def test_corrupt_pages_lists_only_failing_sectors(ctx):
    disk = Disk(ctx)
    for page in range(3):
        run(ctx, disk.write_page("seg", page, {0: page}))
    run(ctx, disk.write_page("other", 0, {0: 9}))
    disk.rot_page("seg", 1)
    disk.rot_page("seg", 2)
    assert disk.corrupt_pages("seg") == [1, 2]
    assert disk.corrupt_pages("other") == []
    assert disk.page_keys() == [("other", 0), ("seg", 0), ("seg", 1),
                                ("seg", 2)]


def test_restore_segment_installs_trusted_checksums(ctx):
    disk = Disk(ctx)
    run(ctx, disk.write_page("seg", 0, {0: 1}))
    disk.rot_page("seg", 0)
    disk.restore_segment("seg", {0: {0: 42}}, {0: 7})
    assert disk.verify_page("seg", 0)
    assert run(ctx, disk.read_page("seg", 0)) == {0: 42}
    assert disk.read_sequence_number("seg", 0) == 7


def test_wipe_segment_leaves_every_destroyed_sector_failing(ctx):
    """A lost segment is corruption the recovery scrub finds: every
    destroyed sector, rotten or not, fails its checksum until rebuilt."""
    disk = Disk(ctx)
    run(ctx, disk.write_page("seg", 0, {0: 1}))
    run(ctx, disk.write_page("seg", 1, {}))
    run(ctx, disk.write_page("other", 0, {0: 2}))
    disk.rot_page("seg", 0)
    assert disk.wipe_segment("seg") == 2
    assert disk.peek_page("seg", 0) == {}
    assert disk.read_sequence_number("seg", 0) == 0
    assert disk.corrupt_pages("seg") == [0, 1]
    assert disk.corrupt_pages("other") == []
    with pytest.raises(PageCorruption):
        run(ctx, disk.read_page("seg", 1))
    disk.restore_segment("seg", {1: {}}, {1: 0})
    assert disk.corrupt_pages("seg") == [0]
