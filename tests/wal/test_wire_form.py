"""The session-wide round trip (:mod:`tests.wire_form`) is on, covers
the paper benchmarks, and catches a record without a wire form."""

from repro.core.config import TabsConfig
from repro.kernel.vm import ObjectID
from repro.perf.benchmarks import BENCHMARKS, run_benchmark
from repro.wal.records import ServerPrepareRecord, ValueUpdateRecord
from repro.wal.store import LogStore
from tests import wire_form


def test_every_paper_benchmark_record_round_trips():
    """All fourteen Table 5-4 benchmarks, one measured iteration each:
    every record they make durable goes through the round trip (the
    fixture fails the test on a record that does not survive it)."""
    for spec in BENCHMARKS:
        before = wire_form.checked[0]
        run_benchmark(spec, TabsConfig(seed=7), iterations=1, warmup=0)
        if spec.is_update:
            assert wire_form.checked[0] > before, spec.key


def test_a_store_starts_with_the_round_trip_observer():
    store = LogStore()
    seen = []
    store.observers.append(seen.append)
    assert store.observers[0] is wire_form.round_trip
    store.append([ValueUpdateRecord(tid="t", lsn=1, old_value=0,
                                    new_value=1)])
    assert len(seen) == 1


def test_a_record_without_a_wire_form_is_reported():
    """A set has no wire form, and a record the decoder gives back
    unequal (a NaN) is no round trip either."""
    store = LogStore()
    store.append([
        ServerPrepareRecord(tid="t", lsn=1, server="s",
                            oids={ObjectID("seg", 0, 4)}),
        ValueUpdateRecord(tid="t", lsn=2, old_value=0,
                          new_value=float("nan"))])
    failed = wire_form.take_failures()
    assert len(failed) == 2
    assert "has no wire form" in failed[0]
    assert "decodes as" in failed[1]
