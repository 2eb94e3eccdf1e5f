"""The non-volatile, *duplexed* log store.

An append-only sequence of records with bounded capacity.  On the paper's
Perqs the log lived on the single (non-stable) disk; following Gray's
stable-storage recipe we duplex it: every record is encoded to its
checksummed wire frame (:mod:`repro.wal.codec`) and written to **two**
mirrored log disks.  A read that finds one copy failing its CRC repairs it
from the good copy; a record unreadable on *both* copies is real log
damage, survivable only at the unwritten tail (a torn force during power
failure), where :meth:`salvage` truncates the log to its last intact
prefix.

The in-memory record list remains the canonical *content*: records are
mutated after append (abort processing and recovery relink ``prev_lsn``
chains), so the duplexed media bytes are an integrity witness for the
durability path, never decoded back into live objects outside salvage.

Capacity is bounded (in records) so that log reclamation (Section 3.2.2)
has something to do: when the log is close to full, the Recovery Manager
runs a reclamation algorithm that may force pages to disk so old records
can be truncated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LogFull, LogMediaCorruption, WriteAheadLogError
from repro.wal.codec import encode_record, frame_checksum
from repro.wal.records import LogRecord


class _MediaEntry:
    """One record's image on a log disk: frame bytes + stored CRC.

    ``verified`` caches the CRC check so the hot path (every log read)
    costs a flag test.  While the two disks agree -- always, until a
    fault is injected -- both mirror dicts hold the *same* entry (a run
    retains two images per record; a second object apiece would be the
    largest single item in the heap a window grows).  Damage therefore
    never mutates an entry, it replaces the damaged copy's with a new
    one, and a repair points that copy back at the good one.
    """

    __slots__ = ("payload", "checksum", "verified")

    def __init__(self, payload: bytes, checksum: int,
                 verified: bool) -> None:
        self.payload = payload
        self.checksum = checksum
        self.verified = verified

    @property
    def ok(self) -> bool:
        if not self.verified:
            self.verified = frame_checksum(self.payload) == self.checksum
        return self.verified


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
        #: the two mirrored log disks: lsn -> _MediaEntry, per copy
        self._media: tuple[dict[int, _MediaEntry], dict[int, _MediaEntry]] \
            = ({}, {})
        #: LSNs whose media may be damaged (fault injection adds; reads
        #: and salvage drain) -- keeps the clean path O(1)
        self._suspect: set[int] = set()
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

    def _write_media(self, record: LogRecord) -> None:
        frame = encode_record(record)
        checksum = frame_checksum(frame)
        entry = _MediaEntry(frame, checksum, verified=True)
        for copy in self._media:
            copy[record.lsn] = entry

    def _repair_suspects(self) -> None:
        """Duplexed read path: re-verify flagged LSNs, repair from the
        mirror, escalate when both copies of a durable record are bad.

        Torn frames beyond the durable tail (never acknowledged) stay
        flagged for :meth:`salvage`; they are not an error to read past.
        """
        if not self._suspect:
            return
        durable = {record.lsn for record in self._records}
        remaining: set[int] = set()
        for lsn in sorted(self._suspect):
            entries = [copy.get(lsn) for copy in self._media]
            states = [entry.ok if entry is not None else False
                      for entry in entries]
            if all(states):
                continue
            if not any(states):
                if lsn in durable:
                    raise LogMediaCorruption(
                        lsn, "both log-disk copies failed their checksums; "
                             "run salvage (crash recovery) to truncate the "
                             "tail or accept log loss")
                remaining.add(lsn)  # torn tail: salvage truncates it
                continue
            self._repair_from_mirror(lsn, entries, states)
        self._suspect = remaining

    def _repair_from_mirror(self, lsn: int, entries: list,
                            states: list[bool]) -> None:
        """One disk's image of ``lsn`` is bad: point it back at the good
        disk's (the two share one entry again)."""
        self._media[states.index(False)][lsn] = entries[states.index(True)]
        self.duplex_repairs += 1
        self._media_event("wal.duplex_repairs")

    # -- writing ----------------------------------------------------------------

    def append(self, records: list[LogRecord]) -> None:
        """Durably append ``records`` (already holding their LSNs).

        Every record's checksummed frame is written to both log disks.
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
            self._write_media(record)
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
        checksum = frame_checksum(frame)
        torn = _MediaEntry(frame[:max(1, len(frame) // 2)], checksum,
                           verified=False)
        for copy in self._media:
            copy[record.lsn] = torn
        self._suspect.add(record.lsn)

    def rot_media(self, lsn: int, copy: int = 0,
                  both_copies: bool = False) -> bool:
        """Bit rot on the log disk(s): flip a byte of the stored frame.

        Returns False when no media exists for the LSN.  Rotting a single
        copy is survivable (duplex repair); rotting both copies of a
        durable record is real log loss -- chaos plans only do that to
        the unacknowledged tail.
        """
        targets = range(2) if both_copies else (copy,)
        hit = False
        for index in targets:
            entry = self._media[index].get(lsn)
            if entry is None:
                continue
            payload = bytearray(entry.payload)
            payload[len(payload) // 2] ^= 0xFF
            # A new entry for this disk only: the mirror may share the
            # old one, and rot on one disk must not reach the other.
            self._media[index][lsn] = _MediaEntry(
                bytes(payload), entry.checksum, verified=False)
            hit = True
        if hit:
            self._suspect.add(lsn)
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
        all_lsns = sorted(set(self._media[0]) | set(self._media[1]))
        cut = None
        for lsn in all_lsns:
            entries = [copy.get(lsn) for copy in self._media]
            states = [entry.ok if entry is not None else False
                      for entry in entries]
            if all(states):
                continue
            if any(states):
                self._repair_from_mirror(lsn, entries, states)
                report.repairs += 1
                continue
            cut = lsn
            break
        if cut is not None:
            keep = [r for r in self._records if r.lsn < cut]
            report.truncated_from_lsn = cut
            report.dropped_records = len(self._records) - len(keep)
            self._records = keep
            for copy in self._media:
                for lsn in [lsn for lsn in copy if lsn >= cut]:
                    del copy[lsn]
            self.salvage_truncations += 1
            self._media_event("wal.salvage_truncations")
        self._suspect.clear()
        return report

    def media_intact(self) -> bool:
        """True iff every record's media verifies on both copies (audits)."""
        return all(
            (entry := copy.get(record.lsn)) is not None and entry.ok
            for record in self._records
            for copy in self._media)

    # -- reading (durable prefix only) ------------------------------------------

    def read_forward(self, from_lsn: int = 1) -> list[LogRecord]:
        """All durable records with ``lsn >= from_lsn``, oldest first."""
        if from_lsn < self.truncated_before:
            raise WriteAheadLogError(
                f"lsn {from_lsn} was reclaimed (log starts at "
                f"{self.truncated_before})")
        self._repair_suspects()
        return [r for r in self._records if r.lsn >= from_lsn]

    def read_backward(self, from_lsn: int | None = None) -> list[LogRecord]:
        """Durable records from ``from_lsn`` (default: the end) backwards."""
        self._repair_suspects()
        records = self._records if from_lsn is None else [
            r for r in self._records if r.lsn <= from_lsn]
        return list(reversed(records))

    def record_at(self, lsn: int) -> LogRecord:
        self._repair_suspects()
        for record in self._records:
            if record.lsn == lsn:
                return record
        raise WriteAheadLogError(f"no durable record with lsn {lsn}")

    def truncate_before(self, lsn: int) -> int:
        """Reclaim records with ``lsn`` strictly below the given point.

        Returns the number of records reclaimed.
        """
        keep = [r for r in self._records if r.lsn >= lsn]
        reclaimed = len(self._records) - len(keep)
        self._records = keep
        for copy in self._media:
            for old in [old for old in copy if old < lsn]:
                del copy[old]
        self._suspect = {s for s in self._suspect if s >= lsn}
        self.truncated_before = max(self.truncated_before, lsn)
        return reclaimed
