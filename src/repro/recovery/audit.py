"""Post-fault audits over the durable logs of a cluster.

The chaos harness (:mod:`repro.chaos`) tortures a cluster with crashes,
partitions, and datagram faults, then asks this module whether the
transaction guarantees survived.  All audits read only *durable* state --
the non-volatile :class:`~repro.wal.store.LogStore` and the disk image --
so they are meaningful even for nodes that crashed moments earlier.

Audits provided:

- :func:`audit_atomicity` -- no transaction may be recorded COMMITTED on
  one node and ABORTED on another (or both on the same node).
- :func:`audit_abort_order` -- no update record of a transaction follows
  its ABORTED record (an abort's undo walk saw every record it had to).
- :func:`audit_client_commits` -- every commit reported to an application
  must be backed by a durable COMMITTED record somewhere (no
  committed-then-lost transactions).
- :func:`audit_committed_values` -- after quiescence + recovery, the disk
  image of every value-logged object must equal the value decided by its
  newest winning log record (no committed-then-lost writes).
- :func:`audit_drainage` -- after quiescence, no lock is still held, no
  lock waiter is queued, and no service port holds unprocessed messages.
- :func:`audit_storage_integrity` -- every disk sector passes its payload
  checksum and every log record's duplexed media verifies on both copies
  (injected corruption was detected and repaired, never left latent).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.recovery.analysis import analyze
from repro.txn.ids import TransactionID
from repro.wal.records import (
    LogRecord,
    OperationRecord,
    TransactionStatusRecord,
    TxnStatus,
    ValueUpdateRecord,
)


@dataclass
class AuditViolation:
    """One broken invariant, with enough context to debug it."""

    kind: str
    node: str = ""
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f" on {self.node}" if self.node else ""
        return f"[{self.kind}]{where} {self.detail}"


@dataclass
class AuditReport:
    """The combined result of the audits run against one cluster."""

    violations: list[AuditViolation] = field(default_factory=list)
    #: terminal statuses per transaction per node (diagnostic)
    outcomes: dict[TransactionID, dict[str, set[str]]] = field(
        default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def extend(self, violations: list[AuditViolation]) -> None:
        self.violations.extend(violations)


def durable_records(tabs_node) -> list[LogRecord]:
    """The node's surviving log records (crash-safe read)."""
    store = tabs_node.log_store
    return store.read_forward(store.truncated_before)


def _note_terminal(statuses: dict, record: LogRecord) -> None:
    """File ``record`` under its tid if it is a COMMITTED/ABORTED status."""
    if (isinstance(record, TransactionStatusRecord)
            and record.status in (TxnStatus.COMMITTED, TxnStatus.ABORTED)):
        statuses.setdefault(record.tid, set()).add(record.status.value)


def terminal_statuses(records: list[LogRecord]) -> dict[TransactionID,
                                                        set[str]]:
    """Every COMMITTED/ABORTED status logged, keyed by exact tid."""
    statuses: dict[TransactionID, set[str]] = {}
    for record in records:
        _note_terminal(statuses, record)
    return statuses


def watch_terminal_statuses(cluster) -> dict[str, dict]:
    """Accumulate every terminal status ever durably logged, per node.

    Returns the live ``{node: {tid: {status}}}`` history the audits take:
    log observers keep filling it, so it is immune to log truncation
    (a checkpoint may reclaim COMMITTED records the audits still need).
    Nodes that join the running cluster later (online reconfiguration)
    are watched from the moment they appear.
    """
    history: dict[str, dict] = {}

    def watch(tabs_node) -> None:
        statuses = history[tabs_node.name] = {}
        tabs_node.log_store.observers.append(
            lambda record: _note_terminal(statuses, record))

    for tabs_node in cluster.nodes.values():
        watch(tabs_node)
    cluster.node_join_hooks.append(watch)
    return history


# -- atomicity across nodes -----------------------------------------------------


def audit_atomicity(cluster, history: dict | None = None) -> AuditReport:
    """No transaction may be COMMITTED at one node and ABORTED at another.

    Statuses are compared per *exact* identifier: a subtransaction that
    aborted while its top-level parent committed is legitimate, but the
    same identifier carrying both outcomes -- anywhere -- means two-phase
    commit broke.

    ``history`` (``{node: {tid: {status}}}``, as accumulated by the chaos
    controller's log observers) extends the scan past log truncation:
    without it, a status record reclaimed by a checkpoint is invisible.
    """
    report = AuditReport()
    for name, tabs_node in cluster.nodes.items():
        for tid, statuses in terminal_statuses(
                durable_records(tabs_node)).items():
            merged = report.outcomes.setdefault(tid, {})
            merged.setdefault(name, set()).update(statuses)
    for name, per_tid in (history or {}).items():
        for tid, statuses in per_tid.items():
            merged = report.outcomes.setdefault(tid, {})
            merged.setdefault(name, set()).update(statuses)
    for tid, per_node in report.outcomes.items():
        seen = set().union(*per_node.values())
        if "committed" in seen and "aborted" in seen:
            where = {node: sorted(statuses)
                     for node, statuses in sorted(per_node.items())}
            report.violations.append(AuditViolation(
                "atomicity", detail=f"{tid} has split outcomes: {where}"))
    return report


def audit_abort_order(tabs_node) -> list[AuditViolation]:
    """No update record of a transaction follows its ABORTED record.

    The undo walk covers the backward chain as it stands when the walk
    begins, and the ABORTED record ends it; an update logged after that
    is an effect the abort never undid.  Read over the surviving log.
    """
    aborted: set[TransactionID] = set()
    violations = []
    for record in durable_records(tabs_node):
        if isinstance(record, TransactionStatusRecord):
            if record.status is TxnStatus.ABORTED:
                aborted.add(record.tid)
        elif (isinstance(record, (ValueUpdateRecord, OperationRecord))
                and record.tid in aborted):
            violations.append(AuditViolation(
                "update-after-abort", node=tabs_node.name,
                detail=f"lsn {record.lsn} follows {record.tid}'s ABORTED"))
    return violations


def audit_client_commits(cluster,
                         committed_tids: list[TransactionID],
                         history: dict | None = None
                         ) -> list[AuditViolation]:
    """Each commit reported to an application needs a durable record.

    The coordinator forces its COMMITTED record before replying, so a
    client-visible commit that was never durably recorded anywhere is a
    lost transaction.  ``history`` (see :func:`audit_atomicity`) covers
    records a later checkpoint legitimately truncated.
    """
    durable_committed: set[TransactionID] = set()
    for tabs_node in cluster.nodes.values():
        for tid, statuses in terminal_statuses(
                durable_records(tabs_node)).items():
            if "committed" in statuses:
                durable_committed.add(tid.toplevel)
    for per_tid in (history or {}).values():
        for tid, statuses in per_tid.items():
            if "committed" in statuses:
                durable_committed.add(tid.toplevel)
    return [
        AuditViolation("lost-commit",
                       detail=f"{tid} was reported committed to the "
                              "application but no node holds a durable "
                              "COMMITTED record")
        for tid in committed_tids
        if tid.toplevel not in durable_committed]


# -- committed values versus the disk image -------------------------------------


def expected_durable_values(records: list[LogRecord]) -> dict:
    """The value each value-logged object must hold after recovery.

    Mirrors the value pass's backward latest-wins scan: the newest record
    of a *winner* (committed) transaction decides with its redo value; an
    object last touched only by losers/aborters unwinds to the oldest
    loser's undo value.  Objects touched by a still-PREPARED transaction
    or by operation-logged records are skipped -- their durable state is
    not decided by value records alone.
    """
    plan = analyze(records)
    undecided_oids = set()
    expected: dict = {}
    state: dict = {}
    for record in reversed(records):
        if isinstance(record, OperationRecord):
            undecided_oids.update(record.oids)
            continue
        if not isinstance(record, ValueUpdateRecord) or record.oid is None:
            continue
        oid = record.oid
        if state.get(oid) == "winner":
            continue
        if record.compensates_lsn:
            # An abort's compensation restored this value; mirror the
            # value pass: apply it and keep unwinding beneath it.
            expected[oid] = record.new_value
            state[oid] = "loser"
            continue
        outcome = plan.resolve(record.tid)
        if outcome.name == "PREPARED":
            undecided_oids.add(oid)
            state[oid] = "winner"  # stop scanning; value is in doubt
            continue
        if outcome.winner:
            expected[oid] = record.new_value
            state[oid] = "winner"
        else:
            expected[oid] = record.old_value
            state[oid] = "loser"
    for oid in undecided_oids:
        expected.pop(oid, None)
    return expected


def audit_committed_values(tabs_node) -> list[AuditViolation]:
    """Compare the disk image against the log's committed values.

    Only meaningful after quiescence *and* a final recovery pass (crash
    recovery ends by flushing every recovered page), because a healthy
    running node legitimately holds newer state in volatile memory than
    on disk.
    """
    records = durable_records(tabs_node)
    disk = tabs_node.node.disk
    violations = []
    for oid, value in expected_durable_values(records).items():
        page = oid.offset // _page_size()
        durable = disk.peek_page(oid.segment_id, page).get(oid.offset)
        # A None expectation (object never initialised) matches a missing
        # durable cell.
        if durable != value:
            violations.append(AuditViolation(
                "lost-write", node=tabs_node.name,
                detail=f"{oid} holds {durable!r} on disk but the log's "
                       f"newest committed value is {value!r}"))
    return violations


def _page_size() -> int:
    from repro.kernel.disk import PAGE_SIZE
    return PAGE_SIZE


# -- storage integrity ------------------------------------------------------------


def audit_storage_integrity(tabs_node) -> list[AuditViolation]:
    """Every durable byte must verify after repair + quiescence.

    Two sweeps: (1) every disk sector holding data or metadata passes its
    payload checksum -- injected bit rot, torn writes, and lost writes
    were all detected and scrubbed or repaired, none left latent to bite
    a later reader; (2) the duplexed log media verifies on both copies
    for every durable record -- single-copy rot was repaired from the
    mirror, the torn tail was salvaged away.
    """
    violations = []
    disk = tabs_node.node.disk
    for segment_id, page in disk.page_keys():
        if not disk.verify_page(segment_id, page):
            violations.append(AuditViolation(
                "latent-corruption", node=tabs_node.name,
                detail=f"sector {segment_id}:{page} fails its checksum "
                       "after repair and quiescence"))
    if not tabs_node.log_store.media_intact():
        violations.append(AuditViolation(
            "log-media-corruption", node=tabs_node.name,
            detail="a durable log record's media fails verification on "
                   "at least one duplex copy"))
    return violations


# -- drainage --------------------------------------------------------------------


def audit_drainage(cluster) -> list[AuditViolation]:
    """After quiescence no locks, waiters, or queued service messages.

    A held lock after every transaction finished means a release was lost;
    a queued message on a service port means a request loop died with work
    outstanding.
    """
    violations = []
    for name, tabs_node in cluster.nodes.items():
        if not tabs_node.node.alive:
            continue
        for server_name, server in tabs_node.servers.items():
            locks = server.library.locks
            for key, entry in locks._locks.items():
                if entry.holders:
                    violations.append(AuditViolation(
                        "lock-leak", node=name,
                        detail=f"server {server_name!r} still holds "
                               f"{sorted(map(str, entry.holders))} on {key}"))
                if entry.queue:
                    violations.append(AuditViolation(
                        "lock-waiter-leak", node=name,
                        detail=f"server {server_name!r} has "
                               f"{len(entry.queue)} waiters on {key}"))
        for service, port in tabs_node.node.services.items():
            if port.queued:
                violations.append(AuditViolation(
                    "port-backlog", node=name,
                    detail=f"service {service!r} has {port.queued} "
                           "unprocessed messages"))
    return violations
