"""Tests for the log store and the buffered write-ahead log."""

import pytest

from repro.errors import LogFull, WriteAheadLogError
from repro.kernel.context import SimContext
from repro.kernel.costs import MEASURED_1985, Primitive
from repro.sim import Process
from repro.wal.log import WriteAheadLog
from repro.wal.records import TransactionStatusRecord, TxnStatus, ValueUpdateRecord
from repro.wal.store import LogStore


@pytest.fixture
def ctx():
    return SimContext()


def run(ctx, gen):
    return ctx.engine.run_until(Process(ctx.engine, gen))


def make_record(tid="t", old=0, new=1):
    return ValueUpdateRecord(tid=tid, old_value=old, new_value=new)


class TestLogStore:
    def test_append_and_read_forward(self):
        store = LogStore()
        records = [make_record() for _ in range(3)]
        for i, record in enumerate(records, start=1):
            record.lsn = i
        store.append(records)
        assert [r.lsn for r in store.read_forward()] == [1, 2, 3]
        assert [r.lsn for r in store.read_forward(2)] == [2, 3]

    def test_out_of_order_append_rejected(self):
        store = LogStore()
        first, second = make_record(), make_record()
        first.lsn, second.lsn = 5, 5
        store.append([first])
        with pytest.raises(WriteAheadLogError):
            store.append([second])

    def test_capacity_below_one_rejected(self, ctx):
        with pytest.raises(WriteAheadLogError):
            LogStore(capacity_records=0)
        with pytest.raises(WriteAheadLogError):
            WriteAheadLog(ctx, buffer_capacity=0)

    def test_capacity_enforced(self):
        store = LogStore(capacity_records=2)
        records = [make_record() for _ in range(3)]
        for i, record in enumerate(records, start=1):
            record.lsn = i
        with pytest.raises(LogFull):
            store.append(records)

    def test_truncate_reclaims_and_blocks_reclaimed_reads(self):
        store = LogStore()
        records = [make_record() for _ in range(5)]
        for i, record in enumerate(records, start=1):
            record.lsn = i
        store.append(records)
        assert store.truncate_before(4) == 3
        assert [r.lsn for r in store.read_forward(4)] == [4, 5]
        with pytest.raises(WriteAheadLogError):
            store.read_forward(1)

    def test_record_at(self):
        store = LogStore()
        record = make_record()
        record.lsn = 1
        store.append([record])
        assert store.record_at(1) is record
        with pytest.raises(WriteAheadLogError):
            store.record_at(9)


class TestWriteAheadLog:
    def test_append_assigns_monotonic_lsns(self, ctx):
        log = WriteAheadLog(ctx)
        assert log.append(make_record()) == 1
        assert log.append(make_record()) == 2
        assert log.last_lsn == 2
        assert log.flushed_lsn == 0

    def test_append_is_free(self, ctx):
        log = WriteAheadLog(ctx)
        log.append(make_record())
        assert ctx.engine.now == 0.0
        assert not ctx.meter.counts

    def test_force_makes_records_durable_and_charges_one_stable_write(self, ctx):
        log = WriteAheadLog(ctx)
        log.append(make_record())
        log.append(make_record())
        run(ctx, log.force())
        assert log.flushed_lsn == 2
        assert log.last_lsn == log.flushed_lsn
        assert ctx.meter.count(Primitive.STABLE_STORAGE_WRITE) == 1
        assert ctx.engine.now == MEASURED_1985.time_of(
            Primitive.STABLE_STORAGE_WRITE)

    def test_partial_force(self, ctx):
        log = WriteAheadLog(ctx)
        for _ in range(3):
            log.append(make_record())
        run(ctx, log.force(up_to_lsn=2))
        assert log.flushed_lsn == 2
        assert log.last_lsn - log.flushed_lsn == 1

    def test_force_of_already_durable_prefix_is_free(self, ctx):
        log = WriteAheadLog(ctx)
        log.append(make_record())
        run(ctx, log.force())
        before = ctx.engine.now
        run(ctx, log.force(up_to_lsn=1))
        assert ctx.engine.now == before
        assert log.forces == 1

    def test_crash_loses_buffer_keeps_durable_prefix(self, ctx):
        log = WriteAheadLog(ctx)
        log.append(make_record(tid="durable"))
        run(ctx, log.force())
        log.append(make_record(tid="volatile"))
        log.crash()
        survivors = [r.tid for r in log.read_forward()]
        assert survivors == ["durable"]

    def test_restart_continues_lsn_sequence(self, ctx):
        log = WriteAheadLog(ctx)
        log.append(make_record())
        log.append(make_record())
        run(ctx, log.force())
        log.append(make_record())  # lsn 3, lost in the crash
        log.crash()
        fresh = WriteAheadLog(ctx, store=log.store)
        # The new log must not reuse LSN 3's slot ambiguously: next LSN
        # continues from the durable prefix.
        assert fresh.append(make_record()) == 3
        run(ctx, fresh.force())
        assert fresh.flushed_lsn == 3

    def test_lsns_continue_past_a_log_reclaimed_to_empty(self, ctx):
        """Recovery's clean point can truncate every record.  Pages on
        disk still carry the old LSNs as sequence numbers, and operation
        recovery redoes a record iff its LSN is the newer: starting over
        from 1 would make every new record look already applied."""
        log = WriteAheadLog(ctx)
        for _ in range(5):
            log.append(make_record())
        run(ctx, log.force())
        log.store.truncate_before(6)
        assert len(log.store) == 0
        log.crash()
        fresh = WriteAheadLog(ctx, store=log.store)
        assert fresh.append(make_record()) == 6
        # The empty store reports nothing durable, yet forcing a
        # reclaimed LSN is free: no buffered record lies at or below it.
        before = ctx.engine.now
        run(ctx, fresh.force(up_to_lsn=3))
        assert (ctx.engine.now, fresh.forces) == (before, 0)

    def test_buffer_full_hook_fires(self, ctx):
        log = WriteAheadLog(ctx, buffer_capacity=2)
        fired = []
        log.on_buffer_full = lambda: fired.append(True)
        log.append(make_record())
        assert not fired
        log.append(make_record())
        assert fired

    def test_mixed_record_kinds_interleave(self, ctx):
        log = WriteAheadLog(ctx)
        log.append(make_record(tid="t1"))
        log.append(TransactionStatusRecord(tid="t1",
                                           status=TxnStatus.COMMITTED))
        run(ctx, log.force())
        kinds = [type(r).__name__ for r in log.read_forward()]
        assert kinds == ["ValueUpdateRecord", "TransactionStatusRecord"]

    def test_backward_chain_via_prev_lsn(self, ctx):
        """Abort processing follows the per-transaction backward chain."""
        log = WriteAheadLog(ctx)
        last = 0
        for value in range(3):
            record = make_record(tid="t1", old=value, new=value + 1)
            record.prev_lsn = last
            last = log.append(record)
        run(ctx, log.force())
        chain = []
        lsn = last
        while lsn:
            record = log.store.record_at(lsn)
            chain.append(record.new_value)
            lsn = record.prev_lsn
        assert chain == [3, 2, 1]
