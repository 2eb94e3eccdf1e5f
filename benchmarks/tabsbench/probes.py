"""Probes: host-clock timing of direct calls into a layer's public
functions (source B), plus the host calibration loop.

The probes run once per traced run, outside every window; each reports
the median of a few repeats, in the unit its metric names.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

from repro.kernel.vm import ObjectID
from repro.sim import Engine, Process, Timeout
from repro.txn.ids import TransactionID
from repro.wal.codec import decode_record, encode_record
from repro.wal.records import (
    TransactionStatusRecord,
    TxnStatus,
    ValueUpdateRecord,
)

REPEATS = 5
CALIBRATION_LOOPS = 20_000
#: the calibration loop's speed (iterations/s) on this sandbox in a quiet
#: moment; wall figures are quoted for a host running at exactly this speed
REFERENCE_OPS_PER_S = 2_600_000.0


def _echo():
    value = 0
    while True:
        value = yield value


def host_speed() -> float:
    """Iterations per second of a fixed pure-Python loop, right now (one
    ~8 ms reading).

    The sandbox's speed drifts by +-15 % over seconds and the simulator
    slows with it, so the window is timed in slices with one of these
    between each.  The loop does what the simulator's hot path does --
    heap pushes and pops, dict updates, a generator resume -- but
    allocates nothing the cyclic collector tracks, so its speed does not
    depend on how large the simulation's heap has grown.
    """
    heap: list[float] = []
    table: dict[int, int] = {}
    echo = _echo()
    next(echo)
    started = time.perf_counter()
    for index in range(CALIBRATION_LOOPS):
        heapq.heappush(heap, float(index * 7919 % 1000))
        table[index & 1023] = index
        echo.send(index)
        if index & 1:
            table.get(int(heapq.heappop(heap)))
    return CALIBRATION_LOOPS / (time.perf_counter() - started)


def _noop() -> None:
    pass


def sched_pop_ns(pending: int, operations: int = 50_000) -> float:
    """ns per ``schedule`` + ``step`` while the queue holds ``pending``
    timers (the classic hold model: every pop is followed by a push at a
    fresh random delay).  Delays are spread over one simulated second per
    thousand pending timers, as the workloads' timers are."""
    rng = random.Random(1985)
    horizon_ms = max(1000.0, float(pending))
    samples = []
    for _ in range(REPEATS):
        engine = Engine()
        for _ in range(pending):
            engine.schedule(rng.uniform(0.0, horizon_ms), _noop)
        delays = [rng.uniform(0.0, horizon_ms) for _ in range(operations)]
        started = time.perf_counter()
        for delay in delays:
            engine.step()
            engine.schedule(delay, _noop)
        samples.append((time.perf_counter() - started) / operations * 1e9)
    return statistics.median(samples)


def process_switch_ns(switches: int = 50_000) -> float:
    """ns per Process suspend/resume through a 1 sim-ms Timeout."""
    samples = []
    for _ in range(REPEATS):
        engine = Engine()

        def spinner():
            for _ in range(switches):
                yield Timeout(engine, 1.0)

        Process(engine, spinner(), name="spinner")
        started = time.perf_counter()
        engine.run()
        samples.append((time.perf_counter() - started) / switches * 1e9)
    return statistics.median(samples)


def codec_sample(count: int = 1000) -> list:
    """A fixed, seeded record sample shaped like a DebitCredit log: four
    value updates then a status record per transaction."""
    rng = random.Random(1985)
    records = []
    while len(records) < count:
        tid = TransactionID(f"bank{rng.randrange(4)}", len(records) + 1)
        for server in ("accounts", "tellers", "branch", "history"):
            records.append(ValueUpdateRecord(
                tid=tid, server=f"{server}{rng.randrange(8)}",
                oid=ObjectID(f"bank0:{server}", 4 * rng.randrange(1 << 18), 4),
                old_value=rng.randrange(1 << 30),
                new_value=rng.randrange(1 << 30)))
        records.append(TransactionStatusRecord(
            tid=tid, status=TxnStatus.COMMITTED,
            servers=("accounts", "tellers", "branch", "history"),
            coordinator=tid.node, children=()))
    return records[:count]


def codec_us_per_record() -> tuple[float, float]:
    """(encode, decode) microseconds per record over the fixed sample;
    the decoded records must equal the originals."""
    records = codec_sample()
    encode_samples, decode_samples = [], []
    for _ in range(REPEATS):
        started = time.perf_counter()
        frames = [encode_record(record) for record in records]
        encoded = time.perf_counter()
        decoded = [decode_record(frame) for frame in frames]
        finished = time.perf_counter()
        if decoded != records:
            raise AssertionError("WAL codec round trip changed a record")
        encode_samples.append((encoded - started) / len(records) * 1e6)
        decode_samples.append((finished - encoded) / len(records) * 1e6)
    return statistics.median(encode_samples), \
        statistics.median(decode_samples)


def probe_metrics() -> dict[str, float]:
    encode_us, decode_us = codec_us_per_record()
    return {
        "sim.sched_pop_ns_d1e3": sched_pop_ns(1_000),
        "sim.sched_pop_ns_d1e5": sched_pop_ns(100_000),
        "sim.process_switch_ns": process_switch_ns(),
        "wal.encode_us_per_record": encode_us,
        "wal.decode_us_per_record": decode_us,
    }
