"""The simulated Perq disk, with a corruption-capable fault surface.

Pages are 512 bytes (Section 5.1).  Each sector has header space in which
the kernel atomically writes a sequence number alongside the page data --
the mechanism TABS added to Accent for the operation-logging recovery
algorithm (Section 3.2.1; the real counter was 39 bits wide).

Latency model (Table 5-1): random reads and writes cost the same combined
``RANDOM_PAGED_IO`` time; reads of consecutively increasing page numbers in
one segment cost the cheaper ``SEQUENTIAL_READ``.  Sequential *writes* never
occur on the paper's single-disk Perqs because log writes break up seek
locality, so all writes are charged at the random rate.

Disk contents are non-volatile: they survive :meth:`Node.crash`.  The paper
deferred disk failures ("we do not consider disk failures in this work");
this reproduction models them.  Beside the sequence number, every sector
header stores a CRC-32 *payload checksum* over the page contents, written
atomically with the data and verified on every read -- a mismatch raises
:class:`~repro.errors.PageCorruption` instead of serving corrupt data.
The fault surface covers the classic storage pathologies:

- **bit rot** (:meth:`rot_page`) -- a stored value decays in place;
- **torn writes** (:meth:`tear_page`, :meth:`tear_last_write`) -- power
  fails mid-sector, leaving a partial page under a full-image checksum;
- **lost writes** (:meth:`arm_lost_write`) -- the drive acknowledges a
  write whose data never reaches the platter (the separately-written
  header metadata does, so the stale data no longer matches);
- **misdirected writes** (:meth:`arm_misdirected_write`) -- the data lands
  on the wrong sector; both the victim (foreign data under its old
  checksum) and the intended page (new checksum over stale data) become
  detectable.

Verification results are cached per page (``_verified``): the normal read
path pays no checksum recomputation, and every fault injector invalidates
the cache for the pages it touches, so detection is exact and the
simulation stays deterministic.  Repair lives above the kernel: see
:mod:`repro.recovery.driver` (single-page media repair) and
:data:`docs/STORAGE_INTEGRITY.md`.
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterator

from repro.errors import PageCorruption
from repro.kernel.context import SimContext
from repro.kernel.costs import Primitive

#: Bytes per page/sector (Section 5.1: "Pages are 512 bytes").
PAGE_SIZE = 512

#: The sequence-number header is 39 bits wide in TABS.
SEQUENCE_NUMBER_BITS = 39
MAX_SEQUENCE_NUMBER = (1 << SEQUENCE_NUMBER_BITS) - 1

PageKey = tuple[str, int]

#: the checksum a destroyed sector reads back: no CRC-32 matches it
DESTROYED = -1


def checksum_page(segment_id: str, page: int,
                  data: dict[int, object]) -> int:
    """CRC-32 over a canonical encoding of one page's contents.

    The page's identity (segment, page number) is folded in, so a
    misdirected write -- the right bytes on the wrong sector -- fails
    verification even if the foreign image is internally consistent.
    Values are canonicalized through the WAL codec's self-describing
    value encoding (imported lazily; the codec depends on the kernel).
    """
    from repro.errors import WalCodecError
    from repro.wal.codec import encode_value

    parts = [segment_id.encode(), page.to_bytes(8, "big", signed=True)]
    for offset in sorted(data):
        parts.append(offset.to_bytes(8, "big", signed=True))
        value = data[offset]
        try:
            parts.append(encode_value(value))
        except WalCodecError:
            # Deterministic fallback for exotic values; still catches any
            # fault that changes the value's type or the page's shape.
            parts.append(f"<unencodable:{type(value).__name__}>".encode())
    return zlib.crc32(b"\x00".join(parts)) & 0xFFFF_FFFF


class Disk:
    """Non-volatile page storage with sequence numbers and checksums."""

    def __init__(self, ctx: SimContext, name: str = "disk",
                 node_name: str = "") -> None:
        self.ctx = ctx
        self.name = name
        #: which node's metrics corruption detections land on
        self.node_name = node_name
        #: page contents: (segment_id, page_number) -> {offset: value}
        self._pages: dict[PageKey, dict[int, object]] = {}
        #: sector-header sequence numbers
        self._headers: dict[PageKey, int] = {}
        #: sector-header payload checksums, written atomically with the data
        self._checksums: dict[PageKey, int] = {}
        #: pages whose checksum is known to match (cache; fault injectors
        #: invalidate entries so detection stays exact and O(1) when clean)
        self._verified: set[PageKey] = set()
        #: last page read per segment, for sequential-read detection
        self._last_read: dict[str, int] = {}
        self.reads = 0
        self.writes = 0
        #: checksum mismatches surfaced by :meth:`read_page`
        self.corruption_detected = 0
        self.lost_writes = 0
        self.misdirected_writes = 0
        #: the most recent write target (the sector a power failure tears)
        self.last_write_key: PageKey | None = None
        #: armed faults, consumed by the next matching :meth:`write_page`
        self._armed_lost: set[PageKey] = set()
        self._armed_misdirect: dict[PageKey, int] = {}
        #: called (segment_id, page) on every detection; the facility's
        #: RecoverySupervisor hooks media repair here, the chaos controller
        #: hooks its event trace.  Callbacks must not raise.
        self.on_corruption: list[Callable[[str, int], None]] = []
        #: fault injection: every I/O takes ``latency_factor`` times its
        #: nominal time (a failing drive retrying sectors, a saturated
        #: controller).  Only the excess is uncharged latency, so the cost
        #: meter still reflects the paper's primitive accounting.
        self.latency_factor = 1.0

    def _io_latency(self, primitive: Primitive) -> Iterator[float]:
        yield self.ctx.charge(primitive)
        if self.latency_factor > 1.0:
            yield (self.ctx.profile.time_of(primitive)
                   * (self.latency_factor - 1.0))

    # -- verification -----------------------------------------------------------

    def _verify(self, key: PageKey) -> bool:
        if key in self._verified:
            return True
        stored = self._checksums.get(key)
        data = self._pages.get(key, {})
        if stored is None:
            # Never written through the checksummed path: consistent only
            # while genuinely empty (e.g. a misdirected write landing on a
            # virgin sector leaves data without metadata).
            ok = not data
        else:
            ok = checksum_page(key[0], key[1], data) == stored
        if ok:
            self._verified.add(key)
        return ok

    def verify_page(self, segment_id: str, page: int) -> bool:
        """Checksum-verify one page without cost (scrubs, audits)."""
        return self._verify((segment_id, page))

    def corrupt_pages(self, segment_id: str) -> list[int]:
        """Every page of the segment failing verification (sorted)."""
        pages = {page for seg, page in self._pages if seg == segment_id}
        pages.update(page for seg, page in self._checksums
                     if seg == segment_id)
        return sorted(page for page in pages
                      if not self._verify((segment_id, page)))

    def page_keys(self) -> list[PageKey]:
        """Every sector carrying data or metadata (sorted; audits)."""
        return sorted(set(self._pages) | set(self._checksums))

    def read_page(self, segment_id: str, page: int) -> Iterator[float]:
        """Read one page (generator; yields the I/O latency).

        Verifies the sector's payload checksum: a mismatch counts a
        detection, notifies ``on_corruption`` observers, and raises
        :class:`PageCorruption` -- corrupt data is never served.  Returns
        a *copy* of the stored page dictionary so in-memory frames never
        alias the non-volatile image.
        """
        sequential = self._last_read.get(segment_id) == page - 1
        self._last_read[segment_id] = page
        primitive = (Primitive.SEQUENTIAL_READ if sequential
                     else Primitive.RANDOM_PAGED_IO)
        yield from self._io_latency(primitive)
        self.reads += 1
        key = (segment_id, page)
        if not self._verify(key):
            self.corruption_detected += 1
            self.ctx.metrics.counter(self.node_name or self.name,
                                     "disk.corruption_detected").inc()
            for callback in list(self.on_corruption):
                callback(segment_id, page)
            raise PageCorruption(segment_id, page,
                                 "payload checksum mismatch on read")
        return dict(self._pages.get(key, {}))

    def write_page(self, segment_id: str, page: int,
                   data: dict[int, object],
                   sequence_number: int | None = None) -> Iterator[float]:
        """Write one page and, atomically, its header metadata.

        The sector header -- sequence number and payload checksum -- is
        written in the same atomic operation as the data.  Armed faults
        (:meth:`arm_lost_write`, :meth:`arm_misdirected_write`) are
        consumed here: the drive acknowledges the write, the header
        metadata lands, but the data does not go where it should.
        """
        yield from self._io_latency(Primitive.RANDOM_PAGED_IO)
        key = (segment_id, page)
        checksum = checksum_page(segment_id, page, data)
        if key in self._armed_lost:
            # Lost write: the acknowledged data never reaches the platter;
            # the separately-addressed header metadata does.
            self._armed_lost.discard(key)
            self.lost_writes += 1
            self._checksums[key] = checksum
            self._verified.discard(key)
        elif key in self._armed_misdirect:
            # Misdirected write: data lands on the wrong sector.  The
            # victim keeps its old metadata (foreign data detectable);
            # the intended sector gets new metadata over stale data.
            victim = (segment_id, self._armed_misdirect.pop(key))
            self.misdirected_writes += 1
            self._pages[victim] = dict(data)
            self._verified.discard(victim)
            self._checksums[key] = checksum
            self._verified.discard(key)
        else:
            self._pages[key] = dict(data)
            self._checksums[key] = checksum
            self._verified.add(key)
        if sequence_number is not None:
            self._headers[key] = sequence_number & MAX_SEQUENCE_NUMBER
        self.writes += 1
        self.last_write_key = key
        # A write moves the arm; the next read of any page is non-sequential
        # unless it happens to follow this page.
        self._last_read = {segment_id: page}

    def read_sequence_number(self, segment_id: str, page: int) -> int:
        """The sector-header sequence number (0 if never written).

        Used by the Recovery Manager during operation-logging crash recovery
        to decide whether a logged operation's effect reached the disk.
        Reading only the header is folded into recovery's page read costs,
        so no separate primitive is charged.
        """
        return self._headers.get((segment_id, page), 0)

    def peek_page(self, segment_id: str, page: int) -> dict[int, object]:
        """Inspect the non-volatile image without cost (tests/diagnostics)."""
        return dict(self._pages.get((segment_id, page), {}))

    # -- data-fault injection ---------------------------------------------------

    def rot_page(self, segment_id: str, page: int, salt: int = 1) -> bool:
        """Bit rot: one stored value of the page decays in place.

        Deterministic in ``salt``; returns False for a sector that holds
        neither data nor metadata (nothing to rot).
        """
        key = (segment_id, page)
        data = self._pages.get(key)
        if data:
            offsets = sorted(data)
            offset = offsets[salt % len(offsets)]
            data[offset] = ("<bit-rot>", salt)
        elif key in self._checksums:
            self._checksums[key] ^= 0x5A5A_5A5A
        else:
            return False
        self._verified.discard(key)
        return True

    def tear_page(self, segment_id: str, page: int) -> bool:
        """Torn write: only a prefix of the sector's data survived.

        Models power failing mid-write: the header metadata (checksum of
        the *full* image) was committed, the data transfer was not.  The
        surviving prefix is the first half of the page's cells.
        """
        key = (segment_id, page)
        data = self._pages.get(key)
        if data:
            offsets = sorted(data)
            kept = offsets[:len(offsets) // 2]
            self._pages[key] = {offset: data[offset] for offset in kept}
        elif key in self._checksums:
            self._checksums[key] ^= 0x0F0F_0F0F
        else:
            return False
        self._verified.discard(key)
        return True

    def tear_last_write(self) -> PageKey | None:
        """Tear the most recently written sector (the in-flight write a
        power failure catches).  Returns the torn key, or None."""
        if self.last_write_key is None:
            return None
        segment_id, page = self.last_write_key
        if self.tear_page(segment_id, page):
            return (segment_id, page)
        return None

    def arm_lost_write(self, segment_id: str, page: int) -> None:
        """The next write to this page is silently dropped (data only)."""
        self._armed_lost.add((segment_id, page))

    def arm_misdirected_write(self, segment_id: str, page: int,
                              to_page: int) -> None:
        """The next write to ``page`` lands on ``to_page`` instead."""
        self._armed_misdirect[(segment_id, page)] = to_page

    def clear_armed_faults(self) -> None:
        """Disarm pending lost/misdirected writes (chaos repair)."""
        self._armed_lost.clear()
        self._armed_misdirect.clear()

    # -- media failure / archive support ---------------------------------------

    def pages_of_segment(self, segment_id: str) -> dict[int, dict]:
        """Snapshot every written page of a segment (for archive dumps)."""
        return {page: dict(data)
                for (seg, page), data in self._pages.items()
                if seg == segment_id}

    def headers_of_segment(self, segment_id: str) -> dict[int, int]:
        return {page: header
                for (seg, page), header in self._headers.items()
                if seg == segment_id}

    def wipe_segment(self, segment_id: str) -> int:
        """Media failure: the segment's pages (and headers) are destroyed.

        Every destroyed sector is left failing its checksum, so the next
        recovery's scrub rebuilds it like any corrupt page.  Returns the
        number of pages lost.  The paper excludes disk failure from its
        scope; this hook supports the media-recovery extension its
        Conclusions ask for.
        """
        lost = [key for key in self._pages if key[0] == segment_id]
        for key in lost:
            del self._pages[key]
        for key in [key for key in self._headers if key[0] == segment_id]:
            del self._headers[key]
        for key in lost + [key for key in self._checksums
                           if key[0] == segment_id]:
            self._checksums[key] = DESTROYED
            self._verified.discard(key)
        self._last_read.pop(segment_id, None)
        return len(lost)

    def restore_segment(self, segment_id: str, pages: dict[int, dict],
                        headers: dict[int, int]) -> None:
        """Install trusted page images (the recovery scrub's rebuilt
        bases, :func:`repro.recovery.driver.page_base`).

        Restored sectors get freshly computed checksums: the base is
        trusted, and a restore overwrites whatever corruption was on the
        sector before.
        """
        for page, data in pages.items():
            key = (segment_id, page)
            self._pages[key] = dict(data)
            self._checksums[key] = checksum_page(segment_id, page, data)
            self._verified.add(key)
        for page, header in headers.items():
            self._headers[(segment_id, page)] = header
