"""The non-volatile, *duplexed* log store.

An append-only sequence of records with bounded capacity.  On the paper's
Perqs the log lived on the single (non-stable) disk; following Gray's
stable-storage recipe we duplex it: every record is encoded to its wire
frame (:mod:`repro.wal.codec`), checked by a CRC-32, on **two** mirrored
log disks.  A read that finds one copy failing its CRC repairs it
from the good copy; a record unreadable on *both* copies is real log
damage, survivable only at the unwritten tail (a torn force during power
failure), where :meth:`salvage` truncates the log to its last intact
prefix.

The in-memory record list remains the canonical *content*: records are
mutated after append (abort processing and recovery relink ``prev_lsn``
chains), so the duplexed media bytes are an integrity witness for the
durability path, never decoded back into live objects outside salvage.

A log disk therefore stores only its **damage**.  An intact image is the
frame its durable record encodes to -- a second copy of what the record
list already holds -- so an LSN absent from a disk's table reads intact
there.  Fault injection creates the image it damages (:meth:`rot_media`
encodes the record as it stands, :meth:`append_torn` half a frame), and
repair, salvage and truncation walk the damaged LSNs only.

Capacity is bounded (in records) so that log reclamation (Section 3.2.2)
has something to do: when the log is close to full, the Recovery Manager
runs a reclamation algorithm that may force pages to disk so old records
can be truncated.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter

from repro.errors import LogFull, LogMediaCorruption, WriteAheadLogError
from repro.wal.codec import encode_record, frame_checksum
from repro.wal.records import LogRecord

_lsn = attrgetter("lsn")


class _MediaEntry:
    """A damaged record image on one log disk: frame bytes + stored CRC.

    Entries are never mutated (rot stores a new one), so the two disks
    may share a torn frame.  Rotting the same byte twice restores the
    frame, so whether an entry reads intact is the checksum's call.
    """

    __slots__ = ("payload", "checksum")

    def __init__(self, payload: bytes, checksum: int) -> None:
        self.payload = payload
        self.checksum = checksum

    @property
    def ok(self) -> bool:
        return frame_checksum(self.payload) == self.checksum


@dataclass
class SalvageReport:
    """What a salvage scan found and did."""

    #: single-copy failures repaired from the mirror
    repairs: int = 0
    #: first LSN unreadable on both copies (None: whole log intact)
    truncated_from_lsn: int | None = None
    #: durable records dropped by the tail truncation
    dropped_records: int = 0

    @property
    def truncated(self) -> bool:
        return self.truncated_from_lsn is not None


class LogStore:
    """Append-only non-volatile record storage, duplexed, with truncation."""

    def __init__(self, capacity_records: int = 100_000) -> None:
        if capacity_records < 1:
            raise WriteAheadLogError("log store needs capacity >= 1")
        self.capacity_records = capacity_records
        self._records: list[LogRecord] = []
        #: the two mirrored log disks, damage only: lsn -> damaged image,
        #: per copy.  A durable LSN absent from a copy reads intact there;
        #: a torn (never durable) LSN is damaged on both
        self._damage: tuple[dict[int, _MediaEntry], dict[int, _MediaEntry]] \
            = ({}, {})
        #: LSNs below this have been reclaimed
        self.truncated_before = 1
        #: lifetime single-copy repairs (duplexed read path + salvage)
        self.duplex_repairs = 0
        #: lifetime salvage tail truncations
        self.salvage_truncations = 0
        #: called with each record at the instant it becomes durable;
        #: used by auditing harnesses that must see records even after
        #: truncation reclaims them (e.g. :mod:`repro.recovery.audit`)
        self.observers: list = []
        #: called with a metrics key ("wal.duplex_repairs",
        #: "wal.salvage_truncations") on each media event; the Recovery
        #: Manager binds this to the node's metrics registry
        self.media_observer = None

    def __len__(self) -> int:
        return len(self._records)

    @property
    def free_records(self) -> int:
        return self.capacity_records - len(self._records)

    @property
    def last_lsn(self) -> int:
        return self._records[-1].lsn if self._records else 0

    # -- media plumbing ---------------------------------------------------------

    def _media_event(self, kind: str, count: int = 1) -> None:
        if self.media_observer is not None:
            self.media_observer(kind, count)

    def _durable(self, lsn: int) -> LogRecord | None:
        index = bisect_left(self._records, lsn, key=_lsn)
        if index < len(self._records) and self._records[index].lsn == lsn:
            return self._records[index]
        return None

    def _damaged_lsns(self) -> list[int]:
        return sorted(self._damage[0].keys() | self._damage[1].keys())

    def _intact(self, lsn: int) -> list[bool]:
        """Per disk: does ``lsn``'s image there pass its checksum?"""
        return [(entry := copy.get(lsn)) is None or entry.ok
                for copy in self._damage]

    def _restore(self, lsn: int, intact: list[bool]) -> bool:
        """``lsn`` reads intact on at least one disk: rewrite a failing
        copy from its mirror, leaving no damage stored.  True iff a copy
        was repaired."""
        for copy in self._damage:
            copy.pop(lsn, None)
        if all(intact):
            return False
        self.duplex_repairs += 1
        self._media_event("wal.duplex_repairs")
        return True

    def _repair_damage(self) -> None:
        """Duplexed read path: repair single-copy damage from the mirror,
        escalate when both copies of a durable record are bad.

        Torn frames beyond the durable tail (never acknowledged) stay for
        :meth:`salvage`; they are not an error to read past.
        """
        for lsn in self._damaged_lsns():
            intact = self._intact(lsn)
            if any(intact):
                self._restore(lsn, intact)
            elif self._durable(lsn) is not None:
                raise LogMediaCorruption(
                    lsn, "both log-disk copies failed their checksums; "
                         "run salvage (crash recovery) to truncate the "
                         "tail or accept log loss")

    # -- writing ----------------------------------------------------------------

    def append(self, records: list[LogRecord]) -> None:
        """Durably append ``records`` (already holding their LSNs).

        Every record is encoded to its frame, which both log disks then
        hold intact -- implicitly, as the absence of damage.
        """
        if len(self._records) + len(records) > self.capacity_records:
            raise LogFull(
                f"log store full ({len(self._records)}/{self.capacity_records} "
                "records); reclamation failed to make room")
        for record in records:
            if record.lsn <= self.last_lsn:
                raise WriteAheadLogError(
                    f"append out of order: lsn {record.lsn} after {self.last_lsn}")
            self._records.append(record)
            encode_record(record)
            for copy in self._damage:
                copy.pop(record.lsn, None)  # overwrites a torn frame there
            for observer in self.observers:
                observer(record)

    def append_torn(self, record: LogRecord) -> None:
        """A force caught by power failure: the record's frame reaches both
        log disks half-written, under the full frame's checksum.

        The record does **not** become durable -- it joins neither the
        record list nor the observer stream (it was never acknowledged to
        anyone).  The next salvage scan finds the torn frames unreadable
        on both copies and truncates the tail there, exactly as a real
        log device recovers from a torn force.
        """
        frame = encode_record(record)
        torn = _MediaEntry(frame[:max(1, len(frame) // 2)],
                           frame_checksum(frame))
        for copy in self._damage:
            copy[record.lsn] = torn

    def rot_media(self, lsn: int, copy: int = 0,
                  both_copies: bool = False) -> bool:
        """Bit rot on the log disk(s): flip a byte of the stored frame.

        An intact image is first made real: the durable record is encoded
        as it stands, under that frame's CRC.  Returns False when no
        media exists for the LSN.  Rotting a single copy is survivable
        (duplex repair); rotting both copies of a durable record is real
        log loss -- chaos plans only do that to the unacknowledged tail.
        """
        targets = range(2) if both_copies else (copy,)
        hit = False
        for index in targets:
            entry = self._damage[index].get(lsn)
            if entry is None:
                record = self._durable(lsn)
                if record is None:
                    continue
                frame = encode_record(record)
                entry = _MediaEntry(frame, frame_checksum(frame))
            payload = bytearray(entry.payload)
            payload[len(payload) // 2] ^= 0xFF
            self._damage[index][lsn] = _MediaEntry(bytes(payload),
                                                   entry.checksum)
            hit = True
        return hit

    # -- salvage ----------------------------------------------------------------

    def salvage(self) -> SalvageReport:
        """Scan the duplexed media; repair single-copy damage, truncate the
        tail at the first record unreadable on both copies.

        Run at the start of crash recovery, before any record is trusted.
        Torn tail frames (never acknowledged) are dropped silently; a
        both-copies failure *below* the durable tail drops acknowledged
        records -- the truncation is still taken (the log must end at an
        intact prefix) and the loss surfaces in the recovery audits.
        """
        report = SalvageReport()
        for lsn in self._damaged_lsns():
            intact = self._intact(lsn)
            if not any(intact):
                report.truncated_from_lsn = lsn
                break
            report.repairs += self._restore(lsn, intact)
        if report.truncated:
            keep = [r for r in self._records
                    if r.lsn < report.truncated_from_lsn]
            report.dropped_records = len(self._records) - len(keep)
            self._records = keep
            self.salvage_truncations += 1
            self._media_event("wal.salvage_truncations")
        # Below the cut every damaged image was restored; past it the
        # media is gone with the records.
        for copy in self._damage:
            copy.clear()
        return report

    def media_intact(self) -> bool:
        """True iff every record's media verifies on both copies (audits)."""
        return all(entry.ok for copy in self._damage
                   for lsn, entry in copy.items()
                   if self._durable(lsn) is not None)

    # -- reading (durable prefix only) ------------------------------------------

    def read_forward(self, from_lsn: int = 1) -> list[LogRecord]:
        """All durable records with ``lsn >= from_lsn``, oldest first."""
        if from_lsn < self.truncated_before:
            raise WriteAheadLogError(
                f"lsn {from_lsn} was reclaimed (log starts at "
                f"{self.truncated_before})")
        self._repair_damage()
        return [r for r in self._records if r.lsn >= from_lsn]

    def record_at(self, lsn: int) -> LogRecord:
        self._repair_damage()
        record = self._durable(lsn)
        if record is None:
            raise WriteAheadLogError(f"no durable record with lsn {lsn}")
        return record

    def truncate_before(self, lsn: int) -> int:
        """Reclaim records with ``lsn`` strictly below the given point.

        Returns the number of records reclaimed.
        """
        keep = [r for r in self._records if r.lsn >= lsn]
        reclaimed = len(self._records) - len(keep)
        self._records = keep
        for copy in self._damage:
            for old in [old for old in copy if old < lsn]:
                del copy[old]
        self.truncated_before = max(self.truncated_before, lsn)
        return reclaimed
