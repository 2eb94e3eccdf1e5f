"""Tests for virtual memory, recoverable segments, and demand paging."""

import pytest

from repro.errors import KernelError
from repro.kernel.context import SimContext
from repro.kernel.costs import ZERO_COST, Primitive
from repro.kernel.disk import PAGE_SIZE, Disk
from repro.kernel.vm import (
    NullPagerClient,
    ObjectID,
    PagerClient,
    RecoverableSegment,
    VirtualMemory,
)
from repro.sim import Process, Timeout


@pytest.fixture
def ctx():
    return SimContext(profile=ZERO_COST)


def make_vm(ctx, capacity=8, pages=64):
    disk = Disk(ctx)
    vm = VirtualMemory(ctx, disk, capacity_pages=capacity)
    segment = RecoverableSegment("seg", page_count=pages, base_va=0x10000)
    vm.map_segment(segment)
    return vm, segment


def run(ctx, gen):
    return ctx.engine.run_until(Process(ctx.engine, gen))


class TestObjectID:
    def test_single_page_object(self):
        oid = ObjectID("seg", offset=100, length=8)
        assert list(oid.pages()) == [0]
        assert oid.single_page

    def test_object_spanning_page_boundary(self):
        oid = ObjectID("seg", offset=PAGE_SIZE - 4, length=8)
        assert list(oid.pages()) == [0, 1]
        assert not oid.single_page

    def test_multi_page_object(self):
        oid = ObjectID("seg", offset=0, length=3 * PAGE_SIZE)
        assert list(oid.pages()) == [0, 1, 2]

    def test_zero_length_object_occupies_its_page(self):
        assert list(ObjectID("seg", 600, 0).pages()) == [1]


class TestAddressArithmetic:
    def test_va_roundtrip(self, ctx):
        vm, segment = make_vm(ctx)
        oid = ObjectID("seg", offset=516, length=4)
        va = vm.va_for_object_id(oid)
        assert va == segment.base_va + 516
        assert vm.object_id_for_va(va, 4) == oid

    def test_unmapped_va_rejected(self, ctx):
        vm, _ = make_vm(ctx)
        with pytest.raises(KernelError):
            vm.object_id_for_va(1, 4)

    def test_overlapping_segments_rejected(self, ctx):
        vm, segment = make_vm(ctx)
        overlapping = RecoverableSegment("other", page_count=1,
                                         base_va=segment.base_va + 512)
        with pytest.raises(KernelError):
            vm.map_segment(overlapping)

    def test_unmapped_segment_access_rejected(self, ctx):
        vm, _ = make_vm(ctx)
        with pytest.raises(KernelError):
            run(ctx, vm.read_object(ObjectID("ghost", 0, 4)))


class TestPaging:
    def test_read_write_roundtrip(self, ctx):
        vm, _ = make_vm(ctx)
        oid = ObjectID("seg", 40, 4)

        def body():
            yield from vm.write_object(oid, 7)
            value = yield from vm.read_object(oid)
            return value

        assert run(ctx, body()) == 7

    def test_unwritten_object_reads_none(self, ctx):
        vm, _ = make_vm(ctx)
        assert run(ctx, vm.read_object(ObjectID("seg", 0, 4))) is None

    def test_fault_count(self, ctx):
        vm, _ = make_vm(ctx)

        def body():
            yield from vm.read_object(ObjectID("seg", 0, 4))
            yield from vm.read_object(ObjectID("seg", 8, 4))   # same page
            yield from vm.read_object(ObjectID("seg", 600, 4))  # next page

        run(ctx, body())
        assert vm.faults == 2

    def test_eviction_when_cache_full(self, ctx):
        vm, _ = make_vm(ctx, capacity=2)

        def body():
            for page in range(3):
                yield from vm.read_object(ObjectID("seg", page * PAGE_SIZE, 4))

        run(ctx, body())
        assert vm.evictions == 1
        assert len(vm.resident_pages()) == 2

    def test_dirty_eviction_writes_back_to_disk(self, ctx):
        vm, _ = make_vm(ctx, capacity=1)
        oid = ObjectID("seg", 0, 4)

        def body():
            yield from vm.write_object(oid, "durable")
            # Faulting another page evicts page 0, forcing the write-back.
            yield from vm.read_object(ObjectID("seg", PAGE_SIZE, 4))
            value = yield from vm.read_object(oid)
            return value

        assert run(ctx, body()) == "durable"
        assert vm.disk.peek_page("seg", 0) == {0: "durable"}

    def test_clean_eviction_skips_disk_write(self, ctx):
        vm, _ = make_vm(ctx, capacity=1)

        def body():
            yield from vm.read_object(ObjectID("seg", 0, 4))
            yield from vm.read_object(ObjectID("seg", PAGE_SIZE, 4))

        run(ctx, body())
        assert vm.disk.writes == 0

    def test_lru_victim_selection(self, ctx):
        vm, _ = make_vm(ctx, capacity=2)

        def body():
            yield from vm.read_object(ObjectID("seg", 0, 4))          # page 0
            yield from vm.read_object(ObjectID("seg", PAGE_SIZE, 4))  # page 1
            yield from vm.read_object(ObjectID("seg", 0, 4))          # touch 0
            yield from vm.read_object(ObjectID("seg", 2 * PAGE_SIZE, 4))

        run(ctx, body())
        resident = vm.resident_pages()
        assert ("seg", 0) in resident       # recently touched: kept
        assert ("seg", 1) not in resident   # LRU: evicted

    def test_multi_page_object_faults_every_page(self, ctx):
        vm, _ = make_vm(ctx)
        run(ctx, vm.read_object(ObjectID("seg", 0, 3 * PAGE_SIZE)))
        assert vm.faults == 3


class TestPinning:
    def test_pinned_page_never_evicted(self, ctx):
        vm, _ = make_vm(ctx, capacity=2)
        pinned = ObjectID("seg", 0, 4)

        def body():
            yield from vm.pin(pinned)
            yield from vm.read_object(ObjectID("seg", PAGE_SIZE, 4))
            yield from vm.read_object(ObjectID("seg", 2 * PAGE_SIZE, 4))

        run(ctx, body())
        assert ("seg", 0) in vm.resident_pages()
        assert vm.is_pinned(pinned)

    def test_all_pinned_is_an_error(self, ctx):
        vm, _ = make_vm(ctx, capacity=1)

        def body():
            yield from vm.pin(ObjectID("seg", 0, 4))
            yield from vm.read_object(ObjectID("seg", PAGE_SIZE, 4))

        with pytest.raises(KernelError, match="pinned"):
            run(ctx, body())

    def test_unpin_restores_evictability(self, ctx):
        vm, _ = make_vm(ctx, capacity=1)
        oid = ObjectID("seg", 0, 4)

        def body():
            yield from vm.pin(oid)
            vm.unpin(oid)
            yield from vm.read_object(ObjectID("seg", PAGE_SIZE, 4))

        run(ctx, body())
        assert ("seg", 0) not in vm.resident_pages()

    def test_unpin_of_unpinned_rejected(self, ctx):
        vm, _ = make_vm(ctx)
        oid = ObjectID("seg", 0, 4)
        run(ctx, vm.read_object(oid))
        with pytest.raises(KernelError):
            vm.unpin(oid)

    def test_pin_counts_nest(self, ctx):
        vm, _ = make_vm(ctx)
        oid = ObjectID("seg", 0, 4)

        def body():
            yield from vm.pin(oid)
            yield from vm.pin(oid)

        run(ctx, body())
        vm.unpin(oid)
        assert vm.is_pinned(oid)
        vm.unpin(oid)
        assert not vm.is_pinned(oid)

    def test_unpin_all(self, ctx):
        vm, _ = make_vm(ctx)
        oid = ObjectID("seg", 0, 4)
        run(ctx, vm.pin(oid))
        vm.unpin_all()
        assert not vm.is_pinned(oid)


class RecordingPager(PagerClient):
    """Captures the kernel <-> Recovery Manager conversation."""

    def __init__(self):
        self.events = []

    def first_modified(self, segment_id, page):
        self.events.append(("first_modified", segment_id, page))
        return
        yield

    def write_permission(self, segment_id, page, page_lsn):
        self.events.append(("write_permission", segment_id, page, page_lsn))
        return 777
        yield

    def page_written(self, segment_id, page, page_lsn, still_dirty):
        self.events.append(("page_written", segment_id, page, page_lsn,
                            still_dirty))
        return
        yield


class TestWalGate:
    def test_first_modify_notice_once_per_pin_epoch(self, ctx):
        vm, _ = make_vm(ctx)
        vm.pager_client = pager = RecordingPager()
        oid = ObjectID("seg", 0, 4)

        def body():
            yield from vm.pin(oid)
            yield from vm.write_object(oid, 1)
            yield from vm.write_object(oid, 2)  # same epoch: no new notice
            vm.unpin(oid)
            yield from vm.pin(oid)
            yield from vm.write_object(oid, 3)  # new epoch: notice again
            vm.unpin(oid)

        run(ctx, body())
        notices = [e for e in pager.events if e[0] == "first_modified"]
        assert len(notices) == 2

    def test_write_back_asks_permission_and_stamps_sequence_number(self, ctx):
        vm, _ = make_vm(ctx, capacity=1)
        vm.pager_client = pager = RecordingPager()
        oid = ObjectID("seg", 0, 4)

        def body():
            yield from vm.write_object(oid, "x")
            vm.set_page_lsn(oid, 42)
            yield from vm.read_object(ObjectID("seg", PAGE_SIZE, 4))

        run(ctx, body())
        assert ("write_permission", "seg", 0, 42) in pager.events
        assert ("page_written", "seg", 0, 42, False) in pager.events
        assert vm.disk.read_sequence_number("seg", 0) == 777

    def test_flush_all_forces_every_dirty_page(self, ctx):
        vm, _ = make_vm(ctx)
        vm.pager_client = RecordingPager()

        def body():
            yield from vm.write_object(ObjectID("seg", 0, 4), 1)
            yield from vm.write_object(ObjectID("seg", PAGE_SIZE, 4), 2)
            yield from vm.flush_all()

        run(ctx, body())
        assert vm.dirty_pages() == []
        assert vm.disk.peek_page("seg", 0) == {0: 1}
        assert vm.disk.peek_page("seg", 1) == {PAGE_SIZE: 2}


class SlowGrantPager(RecordingPager):
    """A pager that takes ``grant_ms`` to grant a write (then 1 ms for
    every later one) and stamps the page's LSN, as the Recovery Manager
    does."""

    def __init__(self, ctx, grant_ms=5.0):
        super().__init__()
        self.ctx = ctx
        self.grant_ms = grant_ms

    def write_permission(self, segment_id, page, page_lsn):
        self.events.append(("write_permission", segment_id, page, page_lsn))
        delay, self.grant_ms = self.grant_ms, 1.0
        yield Timeout(self.ctx.engine, delay)
        return page_lsn


def store_during_grant(ctx, vm, oid, value, lsn):
    """A data server's store into ``oid``, 1 ms from now: pin, write,
    log at ``lsn``, hold the pin 10 ms, unpin."""
    def body():
        yield Timeout(ctx.engine, 1.0)
        yield from vm.pin(oid)
        yield from vm.write_object(oid, value)
        vm.set_page_lsn(oid, lsn)
        yield Timeout(ctx.engine, 10.0)
        vm.unpin(oid)

    return Process(ctx.engine, body())


class TestWriteBackRacingAStore:
    def test_disk_gets_the_granted_image_and_the_frame_stays_dirty(
            self, ctx):
        vm, _ = make_vm(ctx)
        vm.pager_client = pager = SlowGrantPager(ctx)
        oid = ObjectID("seg", 0, 4)

        def before():
            yield from vm.write_object(oid, "granted")
            vm.set_page_lsn(oid, 42)

        run(ctx, before())
        flush = Process(ctx.engine, vm.flush_all())
        store = store_during_grant(ctx, vm, oid, "later", 50)
        ctx.engine.run()
        assert flush.ok and store.ok
        assert vm.disk.peek_page("seg", 0) == {0: "granted"}
        assert vm.disk.read_sequence_number("seg", 0) == 42
        assert pager.events[-1] == ("page_written", "seg", 0, 42, True)
        assert vm.dirty_pages() == [("seg", 0)]
        assert vm.frame("seg", 0).data == {0: "later"}

    def test_eviction_keeps_a_victim_pinned_during_its_write(self, ctx):
        """Page 0 (dirty, least recently used) is the victim of a fault
        on page 1; while its write waits, a store pins it.  The fault
        evicts clean page 2 instead, and the holder's unpin is good."""
        vm, _ = make_vm(ctx, capacity=2)
        vm.pager_client = SlowGrantPager(ctx)
        page0, page1, page2 = (ObjectID("seg", n * PAGE_SIZE, 4)
                               for n in range(3))

        def before():
            yield from vm.write_object(page0, "old")
            vm.set_page_lsn(page0, 42)
            yield from vm.read_object(page2)

        run(ctx, before())
        fault = Process(ctx.engine, vm.read_object(page1))
        store = store_during_grant(ctx, vm, page0, "new", 50)
        ctx.engine.run()
        assert fault.ok and store.ok
        assert sorted(vm.resident_pages()) == [("seg", 0), ("seg", 1)]
        assert vm.dirty_pages() == [("seg", 0)]
        assert vm.frame("seg", 0).data == {0: "new"}
        assert vm.disk.peek_page("seg", 0) == {0: "old"}
        assert vm.evictions == 1

    def test_a_frames_write_backs_land_in_the_order_they_start(self, ctx):
        """A flush takes page 0's image and waits 20 ms for its grant.  A
        store lands, and then a fault evicts page 0, whose own write-back
        would be granted at once.  It waits for the flush's write instead,
        so the older image never lands over the newer one."""
        vm, _ = make_vm(ctx, capacity=2)
        vm.pager_client = SlowGrantPager(ctx, grant_ms=20.0)
        page0, page1, page2 = (ObjectID("seg", n * PAGE_SIZE, 4)
                               for n in range(3))

        def before():
            yield from vm.write_object(page0, "old")
            vm.set_page_lsn(page0, 42)
            yield from vm.read_object(page2)

        def store_then_fault():
            yield Timeout(ctx.engine, 1.0)
            yield from vm.pin(page0)
            yield from vm.write_object(page0, "new")
            vm.set_page_lsn(page0, 50)
            vm.unpin(page0)
            yield from vm.read_object(page2)  # page 0 is now LRU
            yield from vm.read_object(page1)

        run(ctx, before())
        flush = Process(ctx.engine, vm.flush_all())
        run(ctx, store_then_fault())
        ctx.engine.run()
        assert flush.ok
        assert vm.frame("seg", 0) is None
        assert vm.disk.peek_page("seg", 0) == {0: "new"}
        assert vm.disk.read_sequence_number("seg", 0) == 50
        assert run(ctx, vm.read_object(page0)) == "new"


class SlowNoticePager(NullPagerClient):
    """A pager whose first-modified notice takes a millisecond."""

    def __init__(self, ctx):
        self.ctx = ctx

    def first_modified(self, segment_id, page):
        yield Timeout(self.ctx.engine, 1.0)


class TestAddToObject:
    def test_adds_and_returns_the_sum(self, ctx):
        vm, _ = make_vm(ctx)
        oid = ObjectID("seg", 8, 4)

        def body():
            first = yield from vm.add_to_object(oid, 5)  # empty cell is 0
            second = yield from vm.add_to_object(oid, -2)
            value = yield from vm.read_object(oid)
            return first, second, value

        assert run(ctx, body()) == (5, 3, 3)
        assert vm.dirty_pages() == [("seg", 0)]

    def test_no_wait_between_the_read_and_the_store(self, ctx):
        """Two coroutines add to one cold cell at the same instant, and
        the store's own waits (page fault, first-modified notice) fall
        between them.  Read-then-write loses one of the two; the add
        does its waiting first and keeps both."""
        vm, _ = make_vm(ctx)
        vm.pager_client = SlowNoticePager(ctx)
        added, rewritten = ObjectID("seg", 0, 4), ObjectID("seg", PAGE_SIZE, 4)

        def add():
            yield from vm.add_to_object(added, 1)

        def read_then_write():
            value = yield from vm.read_object(rewritten)
            yield from vm.write_object(rewritten, (value or 0) + 1)

        for body in (add, add, read_then_write, read_then_write):
            Process(ctx.engine, body())
        ctx.engine.run()
        assert vm.frame("seg", 0).data == {0: 2}
        assert vm.frame("seg", 1).data == {PAGE_SIZE: 1}


class TestCrash:
    def test_clear_volatile_loses_unflushed_writes(self, ctx):
        vm, _ = make_vm(ctx)
        oid = ObjectID("seg", 0, 4)
        run(ctx, vm.write_object(oid, "lost"))
        vm.clear_volatile()
        assert vm.resident_pages() == []
        assert vm.disk.peek_page("seg", 0) == {}

    def test_flushed_writes_survive_clear(self, ctx):
        vm, _ = make_vm(ctx)
        oid = ObjectID("seg", 0, 4)

        def body():
            yield from vm.write_object(oid, "kept")
            yield from vm.flush_all()

        run(ctx, body())
        vm.clear_volatile()
        assert run(ctx, vm.read_object(oid)) == "kept"


def test_paging_costs_charged(ctx_factory=None):
    ctx = SimContext()  # real Table 5-1 costs
    vm, _ = make_vm(ctx)
    ctx.engine.run_until(Process(
        ctx.engine, vm.read_object(ObjectID("seg", 0, 4))))
    assert ctx.meter.count(Primitive.RANDOM_PAGED_IO) == 1


def test_zero_capacity_rejected():
    ctx = SimContext(profile=ZERO_COST)
    with pytest.raises(KernelError):
        VirtualMemory(ctx, Disk(ctx), capacity_pages=0)


def test_null_pager_client_allows_everything():
    ctx = SimContext(profile=ZERO_COST)
    vm, _ = make_vm(ctx, capacity=1)
    assert isinstance(vm.pager_client, NullPagerClient)

    def body():
        yield from vm.write_object(ObjectID("seg", 0, 4), 1)
        yield from vm.read_object(ObjectID("seg", PAGE_SIZE, 4))

    ctx.engine.run_until(Process(ctx.engine, body()))
    assert vm.disk.read_sequence_number("seg", 0) == 0
