"""The one client harness every seeded workload runs on.

TABS writes locking, logging and commit once, in a shared facility, so
each data server stays small; :class:`SeededWorkload` does the same for
the *clients*.  It owns what does not depend on what a transaction is:
the record/stats types, the open pre-drawn arrival schedule (one seeded
RNG, jittered instants), spawn-or-``skipped``, the single begin -> body
-> end attempt with its best-effort abort, ``run`` / ``finale`` /
:meth:`~SeededWorkload.play`, and the ordered standard audit list
(``docs/CHAOS.md`` documents the list and the outcomes once).  A
subclass supplies how a transaction is drawn, where its client runs,
its body, its ``("txn", ...)`` trace tuple and its own audits; the base
never asks which subclass it serves.

Outcomes, each from its cause: ``skipped`` -- client node down at the
arrival instant, never spawned; ``failed`` -- ``begin_transaction``
raised, so no effects; ``committed`` / ``aborted`` -- what
``end_transaction`` returned, or the body raised and the abort went
through; ``unknown`` -- the abort could not be delivered, or the client
died with its node mid-flight: the fault may have hit either side of
the commit point, so the audits accept either fate, never both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from repro.recovery.audit import (
    AuditReport,
    AuditViolation,
    audit_abort_order,
    audit_atomicity,
    audit_client_commits,
    audit_committed_values,
    audit_drainage,
    audit_storage_integrity,
    watch_terminal_statuses,
)
from repro.replication.audit import audit_replica_convergence


@dataclass
class TxnRecord:
    """One scheduled transaction's fate, as the client saw it.
    Subclasses add positional fields saying *what* it was; the fate
    fields are keyword-only so they stay last."""

    index: int
    outcome: str = field(default="unknown", kw_only=True)
    tid: object = field(default=None, kw_only=True)
    error: str = field(default="", kw_only=True)


@dataclass
class WorkloadStats:
    records: list = field(default_factory=list)

    def outcomes(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return counts

    def committed(self) -> list:
        return [r for r in self.records if r.outcome == "committed"]

    def unknown(self) -> list:
        return [r for r in self.records if r.outcome == "unknown"]


class SeededWorkload:
    """Seeded open-loop traffic plus the standard post-run audits.

    ``controller`` (a :class:`~repro.chaos.controller.ChaosController`)
    is optional: fault-free runs audit the same invariants without one,
    ending with :meth:`crash_and_recover_all` instead of :meth:`finale`.
    """

    #: spawned client processes are named ``{PROCESS_PREFIX}-{index}``
    PROCESS_PREFIX = "txn"

    def __init__(self, cluster, controller=None, seed: int = 0) -> None:
        self.cluster = cluster
        self.controller = controller
        self.rng = random.Random(seed)
        self.stats = WorkloadStats()
        #: set once every node has been crashed and recovered, which
        #: rebuilds and flushes the disk image -- the point after which
        #: the disk-versus-log audits are meaningful
        self._disk_checkable = False
        #: durable terminal statuses, immune to log truncation
        #: (checkpoints may reclaim COMMITTED records the audits still
        #: need to see); the controller's when one is attached
        self.status_history = (controller.status_history
                               if controller is not None
                               else watch_terminal_statuses(cluster))

    @property
    def engine(self):
        return self.cluster.engine

    # -- what a subclass supplies --------------------------------------------

    def client_node(self, record) -> str:
        """Name of the node the transaction's client process runs on."""
        raise NotImplementedError

    def open_app(self, record):
        """The application library the attempt drives."""
        return self.cluster.application(self.client_node(record))

    def body(self, app, record, tid):
        """The operations between begin and end (returns a generator)."""
        raise NotImplementedError

    def trace_fields(self, record) -> tuple:
        """Everything after ``"txn"`` in the controller trace tuple."""
        raise NotImplementedError

    def workload_audits(self) -> list[AuditViolation]:
        """The workload's own invariants (conservation, queue, ...)."""
        return []

    # -- traffic -------------------------------------------------------------

    def _schedule(self, records: Iterable, first_at_ms: float,
                  spacing_ms: float) -> None:
        """Schedule each record's arrival at seeded, jittered instants.

        ``records`` is consumed lazily: a generator drawing from
        ``self.rng`` interleaves with the jitter draws (record, gap,
        record, gap), so the whole run is a pure function of the seed.
        """
        at_ms = first_at_ms
        for record in records:
            self.stats.records.append(record)
            self.engine.schedule(at_ms, lambda r=record: self._spawn(r))
            at_ms += self.rng.uniform(0.3, 1.0) * spacing_ms

    def _spawn(self, record) -> None:
        node = self.cluster.node(self.client_node(record)).node
        if not node.alive:
            record.outcome = "skipped"
            self._trace(record)
            return
        node.spawn(self._attempt(record),
                   name=f"{self.PROCESS_PREFIX}-{record.index}",
                   defused=True)

    def _trace(self, record) -> None:
        if self.controller is not None:
            self.controller.record("txn", *self.trace_fields(record))

    def _attempt(self, record):
        app = self.open_app(record)
        try:
            tid = yield from app.begin_transaction()
            record.tid = tid
            yield from self.body(app, record, tid)
            committed = yield from app.end_transaction(tid)
            record.outcome = "committed" if committed else "aborted"
        except Exception as error:  # noqa: BLE001 - faults hit anywhere
            record.error = repr(error)
            # Before end_transaction returns, the outcome is unknowable
            # from the client's seat: the crash may have hit either side
            # of the commit point.
            record.outcome = "unknown"
            yield from self._try_abort(app, record)
        self._trace(record)

    def _try_abort(self, app, record):
        """Best-effort abort so the coordinator need not time the txn out."""
        if record.tid is None:
            record.outcome = "failed"  # never began: definitely no effects
            return
        try:
            yield from app.abort_transaction(record.tid, reason=record.error)
            record.outcome = "aborted"
        except Exception:  # noqa: BLE001 - node/TM may be gone
            pass

    # -- driving -------------------------------------------------------------

    def run(self, until_ms: float) -> None:
        """Advance the simulation ``until_ms`` past the current instant."""
        self.engine.run(until=self.engine.now + until_ms)

    def _live_nodes(self) -> list:
        """Every node still in service (a retired node's shards migrated
        away, so its disk legitimately froze at the old state)."""
        return [tabs_node for tabs_node in self.cluster.nodes.values()
                if not tabs_node.retired]

    def crash_and_recover_all(self) -> None:
        """Controller-free finale: power-cycle every live node, twice
        (:meth:`finale` says why twice)."""
        for _ in range(2):
            names = sorted(tabs_node.name for tabs_node in self._live_nodes())
            for name in names:
                self.cluster.crash_node(name)
            for name in names:
                self.cluster.restart_node(name)
            self.cluster.settle()
        self._disk_checkable = True

    def finale(self, quiesce_ms: float = 900_000.0) -> bool:
        """Repair everything and force the cluster to a checkable state.

        1. Heal partitions/link faults, restart downed nodes, quiesce --
           in-doubt transactions resolve once their coordinators answer.
        2. Crash *every* node and recover it, twice.  The first round
           turns any straggling resolution into durable log state; the
           second round's recovery rebuilds the disk image from those
           logs and flushes it, making the disk audit meaningful.  (It
           also exercises recovery idempotency.)
        3. Flush every node once more.  What commits *after* the last
           recovery -- a replica's catch-up applying its peer's newer
           versions -- is in the log and in memory only, and the disk
           audit is a strict log-versus-disk comparison.

        Returns True iff the simulation reached full quiescence.
        """
        if self.controller is None:
            raise ValueError(
                "finale() repairs through a chaos controller and this "
                "workload has none; a controller-free run ends with "
                "crash_and_recover_all()")
        self.controller.repair_all()
        quiet = self.controller.quiesce(max_ms=quiesce_ms)
        for _ in range(2):
            for tabs_node in self._live_nodes():
                tabs_node.crash()
            self.controller.repair_all()
            quiet = self.controller.quiesce(max_ms=quiesce_ms) and quiet
        for tabs_node in self._live_nodes():
            if tabs_node.node.alive:  # a node still down has no frames
                tabs_node.node.spawn(tabs_node.node.vm.flush_all(),
                                     name="finale-flush")
        quiet = self.controller.quiesce(max_ms=quiesce_ms) and quiet
        self._disk_checkable = True
        return quiet

    def play(self, run_ms: float = 0.0) -> tuple[bool, AuditReport]:
        """``run -> finale -> check_invariants`` in one call; returns
        ``(quiet, report)``.  With ``run_ms`` of zero the traffic plays
        out inside the finale's quiescence instead."""
        if run_ms:
            self.run(run_ms)
        quiet = self.finale()
        return quiet, self.check_invariants(quiet=quiet)

    # -- invariants ----------------------------------------------------------

    def check_invariants(self, quiet: bool = True) -> AuditReport:
        """Run the standard audit list, in order; the combined report.

        Order matters: the disk-image audits run before the workload's
        own, whose transactions (a queue drain, say) commit writes that
        legitimately live in volatile memory until the next flush.
        """
        history = self.status_history
        report = audit_atomicity(self.cluster, history=history)
        for tabs_node in self.cluster.nodes.values():
            report.extend(audit_abort_order(tabs_node))
        if not quiet:
            report.violations.append(AuditViolation(
                "no-quiescence",
                detail="simulation still busy after repair deadline"))
        report.extend(audit_client_commits(
            self.cluster,
            [r.tid for r in self.stats.committed() if r.tid is not None],
            history=history))
        if self._disk_checkable:
            for tabs_node in self._live_nodes():
                report.extend(audit_committed_values(tabs_node))
                report.extend(audit_storage_integrity(tabs_node))
            # every replica of every key-space agrees on every value
            # (vacuous without a placement map)
            report.extend(audit_replica_convergence(self.cluster))
        report.extend(self.workload_audits())
        self.cluster.settle()
        report.extend(audit_drainage(self.cluster))
        return report
