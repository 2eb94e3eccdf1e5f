"""Closed- and open-loop load drivers with due-instant stamping.

The package owns its drivers (rather than reusing
``DebitCreditWorkload.schedule_traffic``, whose mean gap is 0.65 x
``spacing_ms`` and which records no due or finish instants) so that the
offered rate is explicit, open-loop latency runs from the instant a
transaction was *due*, and every transaction leaves per-phase timers
behind.

Outcome taxonomy, one per attempted transaction:

``committed``  the commit reply said yes
``aborted``    the system refused or rolled it back and said so
``failed``     it never began (no transaction id, so no effects)
``skipped``    open loop only: its home node was down at the due instant
``unknown``    the client died or the abort itself failed; may have
               committed either way
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.sim import Timeout


@dataclass
class TxnRecord:
    """One attempted transaction, as its client saw it (simulated ms)."""

    index: int
    kind: str
    #: begin instant (closed loop) or due instant (open loop)
    start_ms: float
    #: workload-specific description of what it does (a ``TxnSpec``, a
    #: cell/value pair); the audits read it back
    spec: object = None
    outcome: str = "unknown"
    finish_ms: float | None = None
    tid: object = None
    error: str = ""
    begin_ms: float = 0.0
    commit_ms: float = 0.0
    #: duration of every lookup_one() / call() the body made
    lookups_ms: list[float] = field(default_factory=list)
    calls_ms: list[float] = field(default_factory=list)
    #: replicated write_all() calls the body made
    write_alls: int = 0

    @property
    def latency_ms(self) -> float:
        return self.finish_ms - self.start_ms


class TimedApp:
    """An application library whose public calls leave timers in a
    :class:`TxnRecord` -- the harness's view of the txn, nameserver and
    rpc layers, taken from outside on the simulated clock."""

    def __init__(self, app, record: TxnRecord | None = None) -> None:
        self._app = app
        self._engine = app.ctx.engine
        self.ctx = app.ctx
        self.record = record

    def begin_transaction(self):
        started = self._engine.now
        tid = yield from self._app.begin_transaction()
        self.record.begin_ms = self._engine.now - started
        self.record.tid = tid
        return tid

    def end_transaction(self, tid, extra: dict | None = None):
        started = self._engine.now
        committed = yield from self._app.end_transaction(tid, extra=extra)
        self.record.commit_ms = self._engine.now - started
        return committed

    def abort_transaction(self, tid, reason: str = ""):
        yield from self._app.abort_transaction(tid, reason=reason)

    def lookup_one(self, name: str, node_name: str = ""):
        started = self._engine.now
        try:
            ref = yield from self._app.lookup_one(name, node_name=node_name)
        finally:
            self.record.lookups_ms.append(self._engine.now - started)
        return ref

    def call(self, ref, op: str, body: dict | None = None, tid=None,
             timeout_ms: float | None = None):
        started = self._engine.now
        try:
            result = yield from self._app.call(ref, op, body, tid,
                                               timeout_ms=timeout_ms)
        finally:
            self.record.calls_ms.append(self._engine.now - started)
        return result


#: every client spends a seeded 0..50 sim-ms of application work inside
#: each transaction, after it begins and before its first call.  Without
#: it an uncontended transaction takes the same simulated time whatever
#: the seed (disjoint_c8's clients never wait for one another; neither
#: does the median read-only inquiry, nor an unqueued replicated
#: transaction), so a latency percentile would sit on one constant; with
#: it latency is a continuous, seed-dependent quantity and closed-loop
#: clients stay out of lockstep.  It shows up as ``app`` self time in the
#: span tree.
THINK_SIM_MS = 50.0


def run_transaction(app, record: TxnRecord, body_fn: Callable,
                    think_ms: float):
    """Begin, think, run ``body_fn(app, tid)``, commit; classify the
    outcome (generator).  ``app`` is a :class:`TimedApp` or a
    ``ReplicatedApp`` routed through one."""
    engine = app.ctx.engine
    try:
        tid = yield from app.begin_transaction()
        yield Timeout(engine, think_ms)
        yield from body_fn(app, tid)
        committed = yield from app.end_transaction(tid)
        record.outcome = "committed" if committed else "aborted"
    except Exception as error:  # noqa: BLE001 - faults surface anywhere
        record.error = repr(error)
        if record.tid is None:
            record.outcome = "failed"
        else:
            try:
                yield from app.abort_transaction(record.tid,
                                                 reason=record.error)
                record.outcome = "aborted"
            except Exception:  # noqa: BLE001 - node or TM may be gone
                record.outcome = "unknown"
    record.finish_ms = engine.now


class ClosedLoop:
    """``clients`` processes, each sending its next transaction only after
    the previous one completed, beginning none at or after ``stop_at_ms``.

    ``make_txn(client, rng, record)`` returns ``(app, body_fn)`` for the
    client's next transaction and fills ``record.kind``/``record.spec``.
    Each client draws from its own RNG, derived from the run's seed, and
    starts after a seeded stagger.
    """

    def __init__(self, cluster, clients: int, home_node: Callable[[int], str],
                 make_txn: Callable, seed: int, stop_at_ms: float,
                 stagger_ms: float = 250.0) -> None:
        self.engine = cluster.engine
        self.records: list[TxnRecord] = []
        self._make_txn = make_txn
        self._stop_at = stop_at_ms
        for client in range(clients):
            rng = random.Random((seed * 1_000_003) ^ (client * 7919))
            cluster.spawn_on(
                home_node(client),
                self._client(client, rng, rng.uniform(0.0, stagger_ms)),
                name=f"client{client}")

    def _client(self, client: int, rng: random.Random, stagger_ms: float):
        yield Timeout(self.engine, stagger_ms)
        while self.engine.now < self._stop_at:
            record = TxnRecord(len(self.records), "", self.engine.now)
            self.records.append(record)
            app, body_fn = self._make_txn(client, rng, record)
            yield from run_transaction(app, record, body_fn,
                                       rng.uniform(0.0, THINK_SIM_MS))


class OpenLoop:
    """Arrivals on a schedule, whatever the system's state.

    One arrival per ``1/rate`` slot at a uniformly drawn position inside
    it, all drawn up front from the seed: the offered count over any
    whole number of slots is exact.  ``make_txn(rng, record)`` returns
    ``(home_node, app_fn, body_fn)``; the engine itself fires each arrival
    at its due instant -- spawning ``body_fn`` over ``app_fn(record)`` on
    the home node, or marking the record ``skipped`` if that node is down
    -- so generator lateness on the simulated clock is zero by
    construction.
    """

    def __init__(self, cluster, rate_per_sim_s: float, start_ms: float,
                 end_ms: float, make_txn: Callable, seed: int) -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.records: list[TxnRecord] = []
        rng = random.Random(seed)
        slot_ms = 1000.0 / rate_per_sim_s
        for index in range(int(round((end_ms - start_ms) / slot_ms))):
            due = start_ms + (index + rng.random()) * slot_ms
            record = TxnRecord(index, "", due)
            self.records.append(record)
            self.engine.schedule(due - self.engine.now, self._arrive,
                                 args=(record, *make_txn(rng, record),
                                       rng.uniform(0.0, THINK_SIM_MS)))

    def _arrive(self, record: TxnRecord, home: str, app_fn: Callable,
                body_fn: Callable, think_ms: float) -> None:
        node = self.cluster.node(home).node
        if not node.alive:
            record.outcome = "skipped"
            record.finish_ms = self.engine.now
            return
        node.spawn(run_transaction(app_fn(record), record, body_fn,
                                   think_ms),
                   name=f"txn{record.index}", defused=True)
