"""Unit tests for the group-commit log-force pipeline."""

import pytest

from repro.core.config import CommitConfig
from repro.kernel.context import SimContext
from repro.kernel.costs import MEASURED_1985, Primitive
from repro.sim import Process, Timeout
from repro.wal.log import WriteAheadLog
from repro.wal.pipeline import GroupCommitPipeline
from repro.wal.records import ValueUpdateRecord

STABLE_WRITE_MS = MEASURED_1985.time_of(Primitive.STABLE_STORAGE_WRITE)


@pytest.fixture
def ctx():
    return SimContext()


def run(ctx, gen):
    return ctx.engine.run_until(Process(ctx.engine, gen))


def make_record(tid="t"):
    return ValueUpdateRecord(tid=tid, old_value=0, new_value=1)


def grouped_log(ctx, window_ms=2.0, node_name=""):
    commit = CommitConfig(pipeline="grouped", force_window_ms=window_ms)
    return WriteAheadLog(ctx, node_name=node_name, commit=commit)


class TestPipelineSelection:
    def test_default_is_paper(self, ctx):
        log = WriteAheadLog(ctx, commit=CommitConfig())
        assert log.group_pipeline is None

    def test_none_config_is_paper(self, ctx):
        assert WriteAheadLog(ctx).group_pipeline is None

    def test_grouped_config_installs_group_pipeline(self, ctx):
        log = grouped_log(ctx, window_ms=3.5)
        pipeline = log.group_pipeline
        assert isinstance(pipeline, GroupCommitPipeline)
        assert pipeline.window_ms == 3.5


class TestGroupCommit:
    def test_concurrent_forces_coalesce_into_one_stable_write(self, ctx):
        log = grouped_log(ctx, window_ms=2.0)
        lsns = [log.append(make_record()) for _ in range(4)]
        processes = [Process(ctx.engine, log.force(lsn)) for lsn in lsns]
        for process in processes:
            ctx.engine.run_until(process)
        assert ctx.meter.count(Primitive.STABLE_STORAGE_WRITE) == 1
        assert log.forces == 1
        assert log.flushed_lsn == lsns[-1]
        assert log.group_pipeline.batches == 1
        assert log.group_pipeline.coalesced == 4

    def test_window_delays_a_lone_force(self, ctx):
        log = grouped_log(ctx, window_ms=2.0)
        log.append(make_record())
        run(ctx, log.force())
        assert ctx.engine.now == pytest.approx(2.0 + STABLE_WRITE_MS)

    def test_forces_after_first_batch_keep_working(self, ctx):
        log = grouped_log(ctx)
        log.append(make_record())
        run(ctx, log.force())
        second = log.append(make_record())
        run(ctx, log.force(second))
        assert log.forces == 2
        assert log.flushed_lsn == second

    def test_group_force_hook_sees_batch(self, ctx):
        log = grouped_log(ctx, node_name="n9")
        seen = []
        log.group_pipeline.on_group_force.append(
            lambda node, size, lsn: seen.append((node, size, lsn)))
        lsns = [log.append(make_record()) for _ in range(2)]
        processes = [Process(ctx.engine, log.force(lsn)) for lsn in lsns]
        for process in processes:
            ctx.engine.run_until(process)
        assert seen == [("n9", 2, lsns[-1])]

    def test_crash_inside_window_forces_nothing(self, ctx):
        log = grouped_log(ctx, window_ms=5.0)
        log.append(make_record())
        Process(ctx.engine, log.force())
        # Crash before the window expires: the request is queued but no
        # stable write has begun.
        ctx.engine.schedule(1.0, log.crash)
        ctx.engine.drain(1_000.0)
        assert ctx.meter.count(Primitive.STABLE_STORAGE_WRITE) == 0
        assert log.flushed_lsn == 0
        assert len(log.store) == 0

    def test_crash_hook_aborts_flush_before_stable_write(self, ctx):
        """A hook that crashes the node (the chaos trigger) must prevent
        the batch's stable write entirely."""
        log = grouped_log(ctx, window_ms=1.0)
        log.group_pipeline.on_group_force.append(
            lambda node, size, lsn: log.crash())
        log.append(make_record())
        Process(ctx.engine, log.force())
        ctx.engine.drain(1_000.0)
        assert ctx.meter.count(Primitive.STABLE_STORAGE_WRITE) == 0
        assert len(log.store) == 0

    def test_log_usable_after_crash(self, ctx):
        log = grouped_log(ctx, window_ms=2.0)
        log.append(make_record())
        Process(ctx.engine, log.force())
        ctx.engine.schedule(1.0, log.crash)
        ctx.engine.drain(1_000.0)
        lsn = log.append(make_record())
        run(ctx, log.force(lsn))
        assert log.flushed_lsn == lsn
        assert len(log.store) == 1


class TestSerialLogDevice:
    def test_serial_device_queues_concurrent_forces(self, ctx):
        commit = CommitConfig(serial_log_device=True)
        log = WriteAheadLog(ctx, commit=commit)

        def forcer():
            lsn = log.append(make_record())
            yield from log.force(lsn)

        first = Process(ctx.engine, forcer())
        second = Process(ctx.engine, forcer())
        ctx.engine.run_until(first)
        ctx.engine.run_until(second)
        # FIFO over one device: the second write waits for the first.
        assert ctx.engine.now == pytest.approx(2 * STABLE_WRITE_MS)

    def test_default_device_lets_forces_overlap(self, ctx):
        log = WriteAheadLog(ctx)

        def forcer():
            lsn = log.append(make_record())
            yield from log.force(lsn)

        first = Process(ctx.engine, forcer())
        second = Process(ctx.engine, forcer())
        ctx.engine.run_until(first)
        ctx.engine.run_until(second)
        # The paper's accounting charges each process independently.
        assert ctx.engine.now == pytest.approx(STABLE_WRITE_MS)


class TestCommitConfigValidation:
    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ValueError):
            CommitConfig(pipeline="turbo")

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            CommitConfig(force_window_ms=-1.0)

    def test_grouped_factory(self):
        commit = CommitConfig.grouped(force_window_ms=9.0)
        assert commit.pipeline == "grouped"
        assert commit.force_window_ms == 9.0
        assert commit.serial_log_device
