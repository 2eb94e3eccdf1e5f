"""Node crash-recovery orchestration.

After a crash, the facility restarts the node's TABS processes, the data
servers re-map their segments and re-attach, and then this driver runs:

0. **Log salvage**: the duplexed log verifies both media copies, repairs
   single-copy damage, and truncates the tail at the first record
   unreadable on both copies (a torn force) -- before any record is
   trusted.  Then a **media scrub** checks every attached page's payload
   checksum and rebuilds each corrupt page from its :func:`page_base`, so
   replay reads clean bases.  A lost segment is such a scrub: its
   destroyed sectors all fail their checksums.
1. **Analysis** over the durable log.
2. **Value pass** (backward) restoring value-logged objects.
3. **Operation passes** (redo history, undo losers) for operation-logged
   objects -- both algorithms co-exist over the common log.
4. **In-doubt restoration**: re-acquire the update locks of prepared
   transactions in the modes they were held in, rebuild their undo
   chains in the Recovery Manager, and hand them to the Transaction
   Manager for coordinator resolution.
   Coordinator-side committed-but-unacknowledged transactions get their
   phase two re-driven.
5. **Clean point**: flush every recovered page, checkpoint, truncate.

:func:`repair_page` is the *live* half of media recovery: single-page
repair (the same :func:`page_base` + log roll-forward) for a running node
that trips :class:`~repro.errors.PageCorruption`, driven by the
:class:`~repro.recovery.supervisor.RecoverySupervisor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RecoveryError
from repro.locking.modes import WRITE
from repro.recovery.analysis import RecoveryPlan, analyze
from repro.recovery.manager import RecoveryManager
from repro.recovery.operation_recovery import run_operation_passes
from repro.recovery.value_recovery import (
    DECIDED,
    restored_value,
    run_value_pass,
)
from repro.txn.ids import TransactionID
from repro.txn.manager import TransactionManager
from repro.wal.records import (
    OperationRecord,
    ServerPrepareRecord,
    ValueUpdateRecord,
)


@dataclass
class RecoveryReport:
    """What crash recovery did, for logging and tests."""

    values_restored: int = 0
    operations_redone: int = 0
    operations_undone: int = 0
    prepared_restored: list[TransactionID] = field(default_factory=list)
    phase_two_redriven: list[TransactionID] = field(default_factory=list)
    log_records_scanned: int = 0
    #: single-copy log-media failures repaired from the mirror
    log_duplex_repairs: int = 0
    #: durable records dropped by the salvage tail truncation
    log_records_salvaged: int = 0
    #: corrupt data pages rebuilt from their base by the media scrub
    pages_scrubbed: int = 0


def _prepared_root(plan: RecoveryPlan, tid: TransactionID):
    """The prepared transaction a record's tid resolves into, or None."""
    current = tid
    seen = set()
    while current is not None and current not in seen:
        seen.add(current)
        if current in plan.prepared:
            return current
        current = plan.merges.get(current)
    return None


def in_doubt_footprint(plan: RecoveryPlan, records: list,
                       server_libraries: dict):
    """What each prepared family must get back: its update locks and its
    undo chain.

    Returns ``(held, chains)``: ``held[tid][server]`` maps every object
    the family updated at ``server`` to the mode it was locked in, and
    ``chains[tid]`` lists the family's update records oldest first, so a
    later abort can still undo.  A value record overwrote its object
    under WRITE; an operation record covered its objects in the mode the
    server registered for the operation -- commuting increments of one
    object by two in-doubt families were held together and are re-locked
    together.  Anything listed only in a server's prepare record, or
    updated under two different modes, is held in WRITE.

    An abort a crash cut short left compensations in the log.  A value
    compensation stays in the chain (the value pass re-applied the
    prepared write over it, so its original is undone again); an
    operation compensation and the record it compensates leave it, since
    redo re-applied both and the pair nets to nothing.  Their locks stay.
    """
    held: dict[TransactionID, dict[str, dict]] = {}
    chains: dict[TransactionID, list[int]] = {}
    undone: set[int] = set()
    for record in records:
        if not isinstance(record, (ServerPrepareRecord, ValueUpdateRecord,
                                   OperationRecord)):
            continue
        root = _prepared_root(plan, record.tid)
        if root is None:
            continue
        modes = held.setdefault(root, {}).setdefault(record.server, {})
        if isinstance(record, ServerPrepareRecord):
            # A server's update records precede its prepare record.
            for oid in record.oids:
                modes.setdefault(oid, WRITE)
            continue
        chains.setdefault(root, []).append(record.lsn)
        if isinstance(record, ValueUpdateRecord):
            oids, mode = [record.oid], WRITE
        else:
            if record.compensates_lsn:
                undone.update((record.lsn, record.compensates_lsn))
            library = server_libraries.get(record.server)
            oids = record.oids
            mode = (WRITE if library is None
                    else library.operation_lock_mode(record.operation))
        for oid in oids:
            if oid:
                modes[oid] = mode if modes.get(oid, mode) == mode else WRITE
    return held, {root: [lsn for lsn in chain if lsn not in undone]
                  for root, chain in chains.items()}


def page_base(archive, store, segment_id: str, page: int):
    """The image a corrupt page is rebuilt from, as ``(data, header)``,
    or None when no base is exact -- the one repair rule, shared by the
    restart scrub, live repair and a lost segment.

    An archive dump covering the segment gives its archived image.
    Without one, an empty base is exact while the log still holds every
    update record the node ever appended; once reclamation has dropped
    one, an empty base plus a partial roll-forward would fabricate
    history.  Either base is rolled forward over the whole retained log,
    not just past ``archive_lsn``: the dump's flush may steal uncommitted
    values into the archive, and their undo records sit below
    ``archive_lsn`` (``Archive.retain_from_lsn`` keeps them until the
    next dump).
    """
    if archive.covers(segment_id):
        return archive.page_image(segment_id, page)
    if store.updates_reclaimed:
        return None
    return {}, 0


def scrub_media(node, archive, store, segment_ids: list[str]) -> list[tuple]:
    """Rebuild every corrupt page of the named segments from its
    :func:`page_base` (cost-free: the scrub's page reads are folded into
    recovery's replay I/O).  Replay then rolls each base forward.

    Raises :class:`RecoveryError` for a page with no exact base.  Returns
    the ``(segment_id, page)`` keys scrubbed.
    """
    scrubbed = []
    for segment_id in segment_ids:
        for page in node.disk.corrupt_pages(segment_id):
            base = page_base(archive, store, segment_id, page)
            if base is None:
                raise RecoveryError(
                    f"page {page} of {segment_id!r} is corrupt, no archive "
                    "dump covers it and the log has reclaimed updates")
            data, header = base
            node.disk.restore_segment(segment_id, {page: data},
                                      {page: header})
            scrubbed.append((segment_id, page))
    return scrubbed


def recover_node(rm: RecoveryManager, tm: TransactionManager,
                 server_libraries: dict, archive, segment_ids: list[str]):
    """Run full crash recovery for one node (generator).

    ``server_libraries`` maps server name to its
    :class:`~repro.server.library.DataServerLibrary` (already attached).
    ``archive`` and ``segment_ids`` drive the storage-integrity front end:
    log salvage plus a page-checksum scrub (:func:`scrub_media`) before
    replay trusts the disk image.
    Returns a :class:`RecoveryReport`.
    """
    node = rm.node
    ctx = node.ctx
    report = RecoveryReport()
    with ctx.span("recovery.replay", node.name, "RECOVERY",
                  epoch=node.epoch) as span:

        # -- storage integrity: salvage the log, scrub the data pages -------------
        store = rm.wal.store
        salvage = store.salvage()
        report.log_duplex_repairs = salvage.repairs
        report.log_records_salvaged = salvage.dropped_records
        scrubbed = scrub_media(node, archive, store, segment_ids)
        report.pages_scrubbed = len(scrubbed)
        for _ in scrubbed:
            ctx.metrics.counter(node.name, "disk.corruption_detected").inc()
            ctx.metrics.counter(node.name, "media.page_repairs").inc()
        # A scrubbed base rolls forward over the whole retained log
        # (``page_base``), not from the checkpoint bound.
        bound = store.truncated_before if scrubbed else None

        records = rm.wal.read_forward(store.truncated_before)
        plan = analyze(records)
        report.log_records_scanned = len(records)

        # -- restore object state ------------------------------------------------
        decided = yield from run_value_pass(node.vm, plan, bound=bound)
        report.values_restored = len(decided)
        appliers = {name: library.recovery_applier
                    for name, library in server_libraries.items()}
        redone, undone = yield from run_operation_passes(
            node.vm, node.disk, plan, appliers, rm.wal.append)
        report.operations_redone = redone
        report.operations_undone = undone

        # -- in-doubt transactions -------------------------------------------------
        held, chains = in_doubt_footprint(plan, records, server_libraries)
        for tid, status_record in plan.prepared.items():
            # Rebuild the Recovery Manager's backward chain (prev_lsn relink).
            lsns = chains.get(tid, [])
            previous = 0
            for lsn in lsns:
                chained = rm.wal.record_at(lsn)
                chained.prev_lsn = previous
                chained.tid = tid  # the family resolves into this root
                previous = lsn
            if previous:
                rm._chains[tid] = previous
                rm._first_lsn[tid] = lsns[0]
            # Re-acquire its locks so the in-doubt data stays restricted
            # (two-phase commit's blocking window).  A restart rebuilds
            # every server the node has ever run, so each server the
            # record names has a library.
            server_ports = {}
            for server in status_record.servers:
                library = server_libraries[server]
                library.relock_prepared(tid,
                                        held.get(tid, {}).get(server, {}))
                server_ports[server] = library.port
            tm.restore_prepared(tid, status_record.coordinator,
                                status_record.servers, server_ports,
                                children=status_record.children)
            report.prepared_restored.append(tid)

        for tid, status_record in plan.committed_unacked.items():
            # Keep the commit record until the children have all answered.
            rm._first_lsn[tid] = status_record.lsn
            tm.restore_committed_unacked(tid, status_record.children)
            report.phase_two_redriven.append(tid)

        # -- clean point --------------------------------------------------------------
        yield from node.vm.flush_all()
        yield from rm.take_checkpoint(tm.active_transactions())
        store.truncate_before(rm.truncation_bound())
        ctx.metrics.counter(node.name, "recovery.replays").inc()
        ctx.metrics.histogram(node.name, "recovery.records_scanned").observe(
            report.log_records_scanned)
        span.set(
            records_scanned=report.log_records_scanned,
            values_restored=report.values_restored,
            operations_redone=report.operations_redone,
            operations_undone=report.operations_undone,
            prepared_restored=len(report.prepared_restored),
            phase_two_redriven=len(report.phase_two_redriven),
            log_duplex_repairs=report.log_duplex_repairs,
            log_records_salvaged=report.log_records_salvaged,
            pages_scrubbed=report.pages_scrubbed)
    return report


# -- single-page media repair (live) --------------------------------------------


def repair_page(rm: RecoveryManager, archive, disk, segment_id: str,
                page: int):
    """Repair one corrupt page on a *running* node (generator).

    Rolls the page's :func:`page_base` forward over the retained log,
    mirroring the value pass's latest-wins semantics page-locally; the
    repaired image (with a fresh checksum) is written back through one
    charged page write.  Returns:

    - ``"repaired"`` -- the page verifies again;
    - ``"escalate"`` -- an operation-logged record touches the page in the
      roll-forward window; single-page value replay cannot reconstruct it,
      so the caller must fall back to full node recovery (whose scrub +
      three-pass algorithm handles operation logging);
    - ``"unrepairable"`` -- the page has no exact base (:func:`page_base`).
    """
    store = rm.wal.store
    base = page_base(archive, store, segment_id, page)
    if base is None:
        return "unrepairable"
    image, header = base
    records = store.read_forward(store.truncated_before)
    plan = analyze(records)

    decided: dict = {}
    # Backward latest-wins over the roll-forward window, page-locally:
    # the value pass's decision (``restored_value``).
    for record in reversed(records):
        if isinstance(record, OperationRecord):
            if any(oid is not None and oid.segment_id == segment_id
                   and page in oid.pages() for oid in record.oids):
                return "escalate"
            continue
        if (not isinstance(record, ValueUpdateRecord)
                or record.oid is None
                or record.oid.segment_id != segment_id
                or page not in record.oid.pages()):
            continue
        header = max(header, record.lsn)
        value = restored_value(record, plan, decided)
        if value is not DECIDED:
            image[record.oid.offset] = value
    yield from disk.write_page(segment_id, page, image,
                               sequence_number=header)
    return "repaired"
