"""Model-based equivalence: the lean duplexed log store against two full
mirror images per record.

``LogStore`` keeps only damaged images; an LSN absent from a disk's
table reads intact.  The reference model below is the straightforward
design it replaces: every append writes the record's frame and CRC to
both disks, rot flips a byte of the image written at append time, and
repair and salvage scan every image.  Hypothesis drives both through
the same random appends, torn forces, rot (either copy or both, durable
and torn LSNs), ``prev_lsn`` relinks, reads, salvage, truncation and
audits, and requires the same results, exceptions, repair counts,
salvage reports and observer events.

The example budget comes from the active Hypothesis profile; CI's
storage soak runs ``--hypothesis-profile=soak`` (``conftest.py``).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import LogFull, LogMediaCorruption, WriteAheadLogError
from repro.wal.codec import encode_record, frame_checksum
from repro.wal.records import ValueUpdateRecord
from repro.wal.store import LogStore, SalvageReport

CAPACITY = 12


class MirrorLogStore:
    """Two images per record, written at append, scanned in full."""

    def __init__(self, capacity_records: int) -> None:
        self.capacity_records = capacity_records
        self.records = []
        #: per disk: lsn -> [payload, checksum]
        self.media = ({}, {})
        self.suspect = set()
        self.truncated_before = 1
        self.duplex_repairs = 0
        self.salvage_truncations = 0
        self.observers = []
        self.media_observer = None

    @property
    def last_lsn(self):
        return self.records[-1].lsn if self.records else 0

    @staticmethod
    def ok(image):
        return image is not None and frame_checksum(image[0]) == image[1]

    def _event(self, kind):
        if self.media_observer is not None:
            self.media_observer(kind, 1)

    def _repair(self, lsn, images, states):
        self.media[states.index(False)][lsn] = list(images[states.index(True)])
        self.duplex_repairs += 1
        self._event("wal.duplex_repairs")

    def _repair_suspects(self):
        durable = {record.lsn for record in self.records}
        remaining = set()
        for lsn in sorted(self.suspect):
            images = [disk.get(lsn) for disk in self.media]
            states = [self.ok(image) for image in images]
            if all(states):
                continue
            if not any(states):
                if lsn in durable:
                    raise LogMediaCorruption(lsn, "both copies")
                remaining.add(lsn)
                continue
            self._repair(lsn, images, states)
        self.suspect = remaining

    def append(self, records):
        if len(self.records) + len(records) > self.capacity_records:
            raise LogFull("full")
        for record in records:
            if record.lsn <= self.last_lsn:
                raise WriteAheadLogError("out of order")
            self.records.append(record)
            frame = encode_record(record)
            for disk in self.media:
                disk[record.lsn] = [frame, frame_checksum(frame)]
            for observer in self.observers:
                observer(record)

    def append_torn(self, record):
        frame = encode_record(record)
        for disk in self.media:
            disk[record.lsn] = [frame[:max(1, len(frame) // 2)],
                                frame_checksum(frame)]
        self.suspect.add(record.lsn)

    def rot_media(self, lsn, copy=0, both_copies=False):
        hit = False
        for index in (range(2) if both_copies else (copy,)):
            image = self.media[index].get(lsn)
            if image is None:
                continue
            payload = bytearray(image[0])
            payload[len(payload) // 2] ^= 0xFF
            self.media[index][lsn] = [bytes(payload), image[1]]
            hit = True
        if hit:
            self.suspect.add(lsn)
        return hit

    def salvage(self):
        report = SalvageReport()
        cut = None
        for lsn in sorted(set(self.media[0]) | set(self.media[1])):
            images = [disk.get(lsn) for disk in self.media]
            states = [self.ok(image) for image in images]
            if all(states):
                continue
            if any(states):
                self._repair(lsn, images, states)
                report.repairs += 1
                continue
            cut = lsn
            break
        if cut is not None:
            keep = [r for r in self.records if r.lsn < cut]
            report.truncated_from_lsn = cut
            report.dropped_records = len(self.records) - len(keep)
            self.records = keep
            for disk in self.media:
                for lsn in [lsn for lsn in disk if lsn >= cut]:
                    del disk[lsn]
            self.salvage_truncations += 1
            self._event("wal.salvage_truncations")
        self.suspect.clear()
        return report

    def media_intact(self):
        return all(self.ok(disk.get(record.lsn))
                   for record in self.records for disk in self.media)

    def read_forward(self, from_lsn=1):
        if from_lsn < self.truncated_before:
            raise WriteAheadLogError("reclaimed")
        self._repair_suspects()
        return [r for r in self.records if r.lsn >= from_lsn]

    def record_at(self, lsn):
        self._repair_suspects()
        for record in self.records:
            if record.lsn == lsn:
                return record
        raise WriteAheadLogError(f"no durable record with lsn {lsn}")

    def truncate_before(self, lsn):
        keep = [r for r in self.records if r.lsn >= lsn]
        reclaimed = len(self.records) - len(keep)
        self.records = keep
        for disk in self.media:
            for old in [old for old in disk if old < lsn]:
                del disk[old]
        self.suspect = {s for s in self.suspect if s >= lsn}
        self.truncated_before = max(self.truncated_before, lsn)
        return reclaimed


def outcome(call):
    """A call's result, or the exception it raised as (type, lsn)."""
    try:
        return "ok", call()
    except (LogFull, WriteAheadLogError) as error:
        return type(error).__name__, getattr(error, "lsn", None)


def lsns(records):
    return [record.lsn for record in records]


class LogStoreModel(RuleBasedStateMachine):

    def __init__(self):
        super().__init__()
        self.stores = (LogStore(CAPACITY), MirrorLogStore(CAPACITY))
        self.seen = ([], [])
        self.events = ([], [])
        for store, seen, events in zip(self.stores, self.seen, self.events):
            store.observers.append(lambda record, seen=seen:
                                   seen.append(record.lsn))
            store.media_observer = (lambda kind, count=1, events=events:
                                    events.append((kind, count)))
        self.value = 0

    def both(self, call):
        lean, mirror = (outcome(lambda store=store: call(store))
                        for store in self.stores)
        assert lean == mirror

    def record(self, lsn):
        # Sizes vary so the rotted byte moves around the frame.
        self.value = self.value * 7 + 13
        record = ValueUpdateRecord(tid="t", old_value=0,
                                   new_value=self.value % 10**9)
        record.lsn = lsn
        return record

    def fresh_lsn(self, gap):
        return self.stores[0].last_lsn + gap

    @rule(count=st.integers(1, 3), gap=st.integers(1, 2))
    def append(self, count, gap):
        first = self.fresh_lsn(gap)
        records = [self.record(first + i) for i in range(count)]
        # One set of objects: a relink reaches both stores, as it
        # reaches the one record list a node keeps.
        self.both(lambda store: store.append(list(records)))

    @rule(gap=st.integers(1, 3))
    def append_torn(self, gap):
        record = self.record(self.fresh_lsn(gap))
        self.both(lambda store: store.append_torn(record))

    @rule(offset=st.integers(-2, 3), copy=st.sampled_from([0, 1, None]))
    def rot_media(self, offset, copy):
        """``offset`` counts back from the tail (torn LSNs lie past it)."""
        lsn = self.stores[0].last_lsn - offset
        self.both(lambda store: store.rot_media(
            lsn, copy=copy or 0, both_copies=copy is None))

    @precondition(lambda self: len(self.stores[0]) > 0)
    @rule(data=st.data(), prev=st.integers(0, 10**6))
    def relink(self, data, prev):
        records = self.stores[0]._records
        index = data.draw(st.integers(0, len(records) - 1))
        records[index].prev_lsn = prev

    @rule(back=st.integers(0, 4))
    def read_forward(self, back):
        lsn = max(1, self.stores[0].last_lsn - back)
        self.both(lambda store: lsns(store.read_forward(lsn)))

    @rule(back=st.integers(0, 4))
    def record_at(self, back):
        lsn = self.stores[0].last_lsn - back
        self.both(lambda store: store.record_at(lsn).lsn)

    @rule()
    def salvage(self):
        self.both(lambda store: store.salvage())

    @rule(back=st.integers(0, 6))
    def truncate_before(self, back):
        lsn = max(1, self.stores[0].last_lsn - back)
        self.both(lambda store: store.truncate_before(lsn))

    @rule()
    def media_intact(self):
        self.both(lambda store: store.media_intact())

    @invariant()
    def same_counters_and_streams(self):
        lean, mirror = self.stores
        assert lsns(lean._records) == lsns(mirror.records)
        assert (lean.duplex_repairs, lean.salvage_truncations,
                lean.truncated_before) == (mirror.duplex_repairs,
                                           mirror.salvage_truncations,
                                           mirror.truncated_before)
        assert self.seen[0] == self.seen[1]
        assert self.events[0] == self.events[1]


TestLogStoreModel = LogStoreModel.TestCase
TestLogStoreModel.settings = settings(deadline=None)
