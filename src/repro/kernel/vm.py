"""Virtual memory with recoverable segments and demand paging.

The failure-atomic and/or permanent data of a TABS data server lives in disk
files called *recoverable segments* that are mapped into the server's
virtual address space; the kernel's paging system updates the segment
directly instead of paging storage (Section 3.2.1).

To support write-ahead logging, the kernel exchanges three message types
with the Recovery Manager:

1. a notice that a page backed by a recoverable segment has been modified,
2. a request to copy a modified page back to its segment -- the kernel may
   not write until the Recovery Manager confirms that all log records for
   the page are on non-volatile storage (and supplies the sequence number
   to stamp into the sector header),
3. a notice that the page was copied successfully, naming the LSN the
   copy is current through and whether the frame took a store meanwhile.

A write-back writes the image it was granted: the page's contents and
``page_lsn`` are copied when the write-back starts (the frame is unpinned
then, so every store in the copy is logged at or below that LSN), and a
store that lands while the permission or the disk write is awaited keeps
the frame dirty.

The conversation is abstracted as :class:`PagerClient`; the Recovery
Manager installs a real implementation, and :class:`NullPagerClient` keeps
the kernel usable in isolation (unit tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import KernelError, PageCorruption
from repro.kernel.context import SimContext
from repro.kernel.disk import PAGE_SIZE, Disk
from repro.sim import Event


@dataclass(frozen=True, order=True)
class ObjectID:
    """A logical object: (recoverable segment, byte offset, length).

    The server library converts between ObjectIDs and virtual addresses
    (Table 3-1's address-arithmetic routines).  An object's value is stored
    at its start offset; its length determines which pages it covers.
    """

    segment_id: str
    offset: int
    length: int

    def pages(self) -> range:
        """The page numbers this object's representation covers."""
        first = self.offset // PAGE_SIZE
        last = (self.offset + max(self.length, 1) - 1) // PAGE_SIZE
        return range(first, last + 1)

    @property
    def single_page(self) -> bool:
        """True if the representation fits in one page.

        Value logging requires this ("the undo and redo portions of a log
        record contain the old and new values of at most one page"); only
        operation logging covers multi-page objects in one record.
        """
        return len(self.pages()) == 1


@dataclass(frozen=True)
class RecoverableSegment:
    """A disk file mapped into virtual memory (one per data server)."""

    segment_id: str
    page_count: int
    base_va: int

    @property
    def size(self) -> int:
        return self.page_count * PAGE_SIZE

    def va_of(self, offset: int) -> int:
        return self.base_va + offset

    def offset_of(self, va: int) -> int:
        offset = va - self.base_va
        if not 0 <= offset < self.size:
            raise KernelError(
                f"virtual address {va} outside segment {self.segment_id!r}")
        return offset


class PagerClient:
    """The kernel side of the kernel <-> Recovery Manager WAL conversation."""

    def first_modified(self, segment_id: str, page: int) -> Iterator:
        """Message 1: a recoverable page was modified under a new pin epoch."""
        raise NotImplementedError

    def write_permission(self, segment_id: str, page: int,
                         page_lsn: int) -> Iterator:
        """Message 2: ask to write the page back; returns the sequence
        number to stamp into the sector header (generator)."""
        raise NotImplementedError

    def page_written(self, segment_id: str, page: int, page_lsn: int,
                     still_dirty: bool) -> Iterator:
        """Message 3: the page's image as of ``page_lsn`` reached its
        recoverable segment; ``still_dirty`` if a store landed since."""
        raise NotImplementedError


class NullPagerClient(PagerClient):
    """No Recovery Manager attached: writes are allowed unconditionally."""

    def first_modified(self, segment_id: str, page: int) -> Iterator:
        return
        yield  # pragma: no cover - makes this a generator

    def write_permission(self, segment_id: str, page: int,
                         page_lsn: int) -> Iterator:
        return 0
        yield  # pragma: no cover

    def page_written(self, segment_id: str, page: int, page_lsn: int,
                     still_dirty: bool) -> Iterator:
        return
        yield  # pragma: no cover


@dataclass
class Frame:
    """A resident page."""

    segment_id: str
    page: int
    data: dict[int, object]
    dirty: bool = False
    pin_count: int = 0
    #: highest log sequence number of records describing this page's updates
    page_lsn: int = 0
    #: whether the "first modified" notice was sent this pin epoch
    modify_notified: bool = False
    #: stores made so far; a write-back compares it to tell whether a
    #: store landed while it waited
    stores: int = 0
    #: a write-back of this frame is in flight
    writing: bool = False
    #: made by the first caller to wait for that write-back; succeeds
    #: when it ends
    written: Event | None = None

    @property
    def key(self) -> tuple[str, int]:
        return (self.segment_id, self.page)


class VirtualMemory:
    """Per-node page cache over recoverable segments.

    ``capacity_pages`` bounds physical memory; faulting a page in when the
    cache is full evicts the least recently used unpinned page, writing it
    back through the WAL gate first if it is dirty.  All contents are
    volatile: :meth:`clear_volatile` models a crash.
    """

    def __init__(self, ctx: SimContext, disk: Disk,
                 capacity_pages: int = 1500) -> None:
        if capacity_pages < 1:
            raise KernelError("page cache needs at least one frame")
        self.ctx = ctx
        self.disk = disk
        self.capacity_pages = capacity_pages
        self.pager_client: PagerClient = NullPagerClient()
        #: media-repair hook: ``generator(segment_id, page) -> bool``.  The
        #: facility's RecoverySupervisor installs one; a page fault whose
        #: disk read trips :class:`PageCorruption` runs it and retries the
        #: read once when it reports the page repaired.  None (bare kernel)
        #: lets the corruption propagate.
        self.media_repairer = None
        self._segments: dict[str, RecoverableSegment] = {}
        self._frames: dict[tuple[str, int], Frame] = {}
        self._lru: dict[tuple[str, int], None] = {}  # insertion-ordered set
        self.faults = 0
        self.evictions = 0

    # -- segment mapping ----------------------------------------------------

    def map_segment(self, segment: RecoverableSegment) -> None:
        """Map a recoverable segment into this address space."""
        for existing in self._segments.values():
            overlap = (segment.base_va < existing.base_va + existing.size and
                       existing.base_va < segment.base_va + segment.size)
            if overlap and existing.segment_id != segment.segment_id:
                raise KernelError(
                    f"segment {segment.segment_id!r} overlaps "
                    f"{existing.segment_id!r} in the address space")
        self._segments[segment.segment_id] = segment

    def segment(self, segment_id: str) -> RecoverableSegment:
        try:
            return self._segments[segment_id]
        except KeyError:
            raise KernelError(f"segment {segment_id!r} is not mapped") from None

    def object_id_for_va(self, va: int, length: int) -> ObjectID:
        """Address arithmetic: which object does a virtual address name?"""
        for segment in self._segments.values():
            if segment.base_va <= va < segment.base_va + segment.size:
                return ObjectID(segment.segment_id, segment.offset_of(va),
                                length)
        raise KernelError(f"virtual address {va} is not mapped")

    def va_for_object_id(self, oid: ObjectID) -> int:
        return self.segment(oid.segment_id).va_of(oid.offset)

    # -- paging ------------------------------------------------------------

    def _touch_lru(self, key: tuple[str, int]) -> None:
        self._lru.pop(key, None)
        self._lru[key] = None

    def ensure_resident(self, segment_id: str, page: int) -> Iterator:
        """Fault the page in if needed; returns its :class:`Frame`."""
        self.segment(segment_id)  # validates the mapping
        key = (segment_id, page)
        frame = self._frames.get(key)
        if frame is None:
            self.faults += 1
            while len(self._frames) >= self.capacity_pages:
                yield from self._evict_one()
            try:
                data = yield from self.disk.read_page(segment_id, page)
            except PageCorruption:
                # Graceful degradation: let the media repairer rebuild the
                # page (its base + log roll-forward), then retry the
                # read once.  A second failure -- or no repairer -- means
                # the corruption propagates to the faulting operation.
                if self.media_repairer is None:
                    raise
                repaired = yield from self.media_repairer(segment_id, page)
                if not repaired:
                    raise
                data = yield from self.disk.read_page(segment_id, page)
            # Re-check after the I/O wait: another coroutine may have
            # faulted the same page in concurrently, and replacing its
            # frame would discard its pins and dirty data.
            frame = self._frames.get(key)
            if frame is None:
                frame = Frame(segment_id, page, data)
                self._frames[key] = frame
        self._touch_lru(key)
        return frame

    def _evict_one(self) -> Iterator:
        """Drop the least recently used unpinned frame, writing it back
        first if it is dirty.  A victim pinned, stored into or evicted by
        another fault during the write-back stays; the caller picks
        again."""
        victim_key = next(
            (key for key in self._lru if self._frames[key].pin_count == 0),
            None)
        if victim_key is None:
            raise KernelError(
                "every page frame is pinned; cannot fault a page in "
                "(data server violated the pin discipline)")
        frame = self._frames[victim_key]
        if frame.dirty:
            yield from self._write_back(frame)
            if (self._frames.get(victim_key) is not frame or frame.dirty
                    or frame.pin_count):
                return
        del self._frames[victim_key]
        del self._lru[victim_key]
        self.evictions += 1

    def _write_back(self, frame: Frame) -> Iterator:
        """Push a dirty page to its segment through the WAL gate.

        The image and its ``page_lsn`` are taken now, while the frame is
        unpinned; a store made during the waits below is not in them and
        leaves the frame dirty.  One write-back of a frame runs at a
        time, so its images reach the disk in the order they were taken:
        a caller that finds one in flight waits for it, then writes only
        if the frame is still resident, dirty and unpinned.
        """
        while frame.writing:
            if frame.written is None:
                frame.written = Event(self.ctx.engine, "written")
            yield frame.written
        if (self._frames.get(frame.key) is not frame or not frame.dirty
                or frame.pin_count):
            return
        frame.writing = True
        try:
            image, page_lsn, stores = dict(frame.data), frame.page_lsn, \
                frame.stores
            sequence_number = yield from self.pager_client.write_permission(
                frame.segment_id, frame.page, page_lsn)
            yield from self.disk.write_page(
                frame.segment_id, frame.page, image, sequence_number)
            frame.dirty = frame.stores != stores
            yield from self.pager_client.page_written(
                frame.segment_id, frame.page, page_lsn, frame.dirty)
        finally:
            frame.writing = False
            written, frame.written = frame.written, None
            if written is not None:
                written.succeed()

    # -- object access -------------------------------------------------------

    def read_object(self, oid: ObjectID) -> Iterator:
        """Read an object's value (faulting in every covered page)."""
        first_frame = None
        for page in oid.pages():
            frame = yield from self.ensure_resident(oid.segment_id, page)
            if first_frame is None:
                first_frame = frame
        assert first_frame is not None
        return first_frame.data.get(oid.offset)

    def _frames_to_modify(self, oid: ObjectID) -> Iterator:
        """Fault in every covered page, mark it dirty and send the
        Recovery Manager the first-modified notice for pages not yet
        reported this pin epoch; returns the frame holding the value.

        Every wait of a store happens in here, so what the caller does
        with the frame next is atomic with respect to other coroutines.
        The frames are marked dirty and their stores counted after the
        last wait, so a write-back that ends during one cannot clean them.
        """
        frames = []
        for page in oid.pages():
            frame = yield from self.ensure_resident(oid.segment_id, page)
            frames.append(frame)
        for frame in frames:
            if not frame.modify_notified:
                frame.modify_notified = True
                yield from self.pager_client.first_modified(
                    frame.segment_id, frame.page)
        for frame in frames:
            frame.dirty = True
            frame.stores += 1
        return frames[0]

    def write_object(self, oid: ObjectID, value: object) -> Iterator:
        """Overwrite an object's value in the page cache."""
        frame = yield from self._frames_to_modify(oid)
        frame.data[oid.offset] = value

    def add_to_object(self, oid: ObjectID, delta: int) -> Iterator:
        """Add ``delta`` to an integer object; returns the new value.

        The read, the add and the store happen with no wait between
        them.  ``read_object`` followed by ``write_object`` does not
        promise that -- either may fault a page in -- and under a
        commuting lock mode (several transactions updating one object at
        once) a wait between the two loses an update.
        """
        frame = yield from self._frames_to_modify(oid)
        value = int(frame.data.get(oid.offset) or 0) + delta
        frame.data[oid.offset] = value
        return value

    # -- pin control (Table 3-1 paging-control semantics) ---------------------

    def pin(self, oid: ObjectID) -> Iterator:
        """Prevent the object's pages from being written back."""
        for page in oid.pages():
            frame = yield from self.ensure_resident(oid.segment_id, page)
            frame.pin_count += 1

    def unpin(self, oid: ObjectID) -> None:
        """Release a pin; resets the first-modified notice epoch."""
        for page in oid.pages():
            frame = self._frames.get((oid.segment_id, page))
            if frame is None or frame.pin_count == 0:
                raise KernelError(f"unpin of unpinned page {oid}")
            frame.pin_count -= 1
            if frame.pin_count == 0:
                frame.modify_notified = False

    def unpin_all(self) -> None:
        """Drop every pin (Table 3-1's ``UnPinAllObjects``)."""
        for frame in self._frames.values():
            frame.pin_count = 0
            frame.modify_notified = False

    def is_pinned(self, oid: ObjectID) -> bool:
        return any(
            (frame := self._frames.get((oid.segment_id, page))) is not None
            and frame.pin_count > 0
            for page in oid.pages())

    def set_page_lsn(self, oid: ObjectID, lsn: int) -> None:
        """Record that log record ``lsn`` describes updates to these pages."""
        for page in oid.pages():
            frame = self._frames.get((oid.segment_id, page))
            if frame is not None:
                frame.page_lsn = max(frame.page_lsn, lsn)

    # -- checkpoint / crash support -------------------------------------------

    def dirty_pages(self) -> list[tuple[str, int]]:
        """Keys of all dirty resident pages (checkpoint records these)."""
        return [frame.key for frame in self._frames.values() if frame.dirty]

    def resident_pages(self) -> list[tuple[str, int]]:
        return list(self._frames)

    def flush_all(self) -> Iterator:
        """Force every dirty *unpinned* page to non-volatile storage.

        Pinned pages hold modifications whose log records are not yet
        spooled; writing them would break the write-ahead invariant, so
        checkpoints and log reclamation leave them alone.
        """
        for key in list(self._frames):
            frame = self._frames.get(key)
            if frame is not None and frame.dirty and frame.pin_count == 0:
                yield from self._write_back(frame)

    def clear_volatile(self) -> None:
        """Crash: all frames (including dirty data) vanish."""
        self._frames.clear()
        self._lru.clear()

    def frame(self, segment_id: str, page: int) -> Frame | None:
        """Inspect a resident frame without cost (tests/diagnostics)."""
        return self._frames.get((segment_id, page))
