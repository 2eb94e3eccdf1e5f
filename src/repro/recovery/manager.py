"""The Recovery Manager process, its client stubs, and the pager client.

Local request port (``recovery_manager`` service):

=======================  =====================================================
``rm.attach``            a data server registers (name, segment, port); reply
``rm.spool``             a value/operation log record from a data server
                         (large message); reply carries the assigned LSN
``rm.prepare_record``    a data server's prepare-time write-set record
                         (large message, fire-and-forget)
``rm.first_modified``    kernel: a recoverable page was newly modified
``rm.write_permission``  kernel: may this page go to disk?  forces the log
                         through the page's LSN, replies with the sequence
                         number to stamp
``rm.page_written``      kernel: the page's image as of an LSN reached its
                         segment, and whether the frame is still dirty
``rm.append_status``     Transaction Manager status record, forced; reply
                         when it is durable
``rm.txn_done``          unforced completion record (read-only commit /
                         coordinator end record)
``rm.merge_chain``       subtransaction commit: fold child chain into parent
``rm.abort``             undo a transaction's effects via its backward
                         chain; reply when every server applied its undos
``rm.checkpoint``        write a checkpoint record; reply
=======================  =====================================================

:class:`RecoveryManagerClient` wraps these exchanges for the Transaction
Manager and the server library, so message counts land exactly where the
paper's Tables 5-2/5-3 put them.  :class:`RmPagerClient` is the kernel side
of the three-message write-ahead-log conversation of Section 3.2.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.kernel.context import SimContext
from repro.kernel.messages import Message, MessageKind
from repro.kernel.node import Node
from repro.kernel.ports import Port
from repro.kernel.service import Service, handlers_of, request, respond
from repro.kernel.vm import PagerClient
from repro.recovery.operation_recovery import compensation_for
from repro.txn.ids import TransactionID
from repro.wal.log import WriteAheadLog
from repro.wal.records import (
    LogRecord,
    OperationRecord,
    PageDirtyRecord,
    ServerPrepareRecord,
    TransactionStatusRecord,
    TxnStatus,
    ValueUpdateRecord,
)
from repro.wal.store import LogStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import CommitConfig

SERVICE = "recovery_manager"


@dataclass
class ServerAttachment:
    name: str
    segment_id: str
    port: Port


class RecoveryManager:
    """One per node; owns the node's common write-ahead log."""

    def __init__(self, node: Node, store: LogStore | None = None,
                 commit: "CommitConfig | None" = None) -> None:
        self.node = node
        self.ctx = node.ctx
        self.wal = WriteAheadLog(node.ctx, store=store,
                                 node_name=node.name, commit=commit)
        self.wal.on_buffer_full = self._on_buffer_full
        # Log-media events (duplex repairs, salvage truncations) land on
        # this node's metrics; rebinding on every rebuild keeps the
        # surviving store pointed at the current node identity.
        self.wal.store.media_observer = self._media_event
        self.port = node.create_port("rm")
        node.register_service(SERVICE, self.port)
        #: per-transaction backward chain head (newest record's LSN)
        self._chains: dict[TransactionID, int] = {}
        self._first_lsn: dict[TransactionID, int] = {}
        #: dirty recoverable pages and their recovery LSNs
        self._page_rec_lsn: dict[tuple[str, int], int] = {}
        self._servers: dict[str, ServerAttachment] = {}
        #: oldest record the off-line archive still needs
        #: (``Archive.retain_from_lsn``); nothing from it on is reclaimed.
        #: None until the first archive dump.
        self.media_retention_lsn: int | None = None
        self.checkpoints_taken = 0
        self.reclamations = 0
        #: a log-reclamation process is running (one at a time)
        self._reclaiming = False
        Service(node, self.port, "rm", handlers_of(self),
                "recovery-manager")

    # -- plumbing ---------------------------------------------------------------

    def _media_event(self, kind: str, count: int = 1) -> None:
        self.ctx.metrics.counter(self.node.name, kind).inc(count)

    def _append_chained(self, record: LogRecord) -> int:
        """Append with the per-transaction backward chain maintained."""
        tid = record.tid
        if tid is not None:
            record.prev_lsn = self._chains.get(tid, 0)
        lsn = self.wal.append(record)
        if tid is not None:
            self._chains[tid] = lsn
            self._first_lsn.setdefault(tid, lsn)
        return lsn

    # -- attachment ---------------------------------------------------------------

    def _handle_attach(self, message: Message) -> None:
        body = message.body
        self._servers[body["server"]] = ServerAttachment(
            body["server"], body["segment_id"], body["port"])
        respond(message, {"ok": True})

    # -- spooling -------------------------------------------------------------------

    def _handle_spool(self, message: Message):
        record: LogRecord = message.body["record"]
        with self.ctx.span("rm.spool", self.node.name, "RM", tid=record.tid,
                           record=type(record).__name__) as span:
            # Spooling runs on the shared CPU while the data server waits
            # for the ack, so it is squarely on the transaction's critical
            # path (10 ms per record in the Section 5.2 accounting).
            yield self.ctx.cpu("RM", self.ctx.cpu_costs.rm_spool_record)
            lsn = self._append_chained(record)
            # the data server library spools value and operation records
            for oid in (record.oids if isinstance(record, OperationRecord)
                        else (record.oid,)):
                for page in oid.pages():
                    self._page_rec_lsn.setdefault((oid.segment_id, page),
                                                  lsn)
            respond(message, {"lsn": lsn})
            span.set(lsn=lsn)
        self._maybe_reclaim()

    def _handle_prepare_record(self, message: Message) -> None:
        self._append_chained(message.body["record"])

    # -- kernel conversation (write-ahead-log gating) ----------------------------------

    def _handle_first_modified(self, message: Message) -> None:
        key = (message.body["segment_id"], message.body["page"])
        lsn = self.wal.append(PageDirtyRecord(
            segment_id=key[0], page=key[1]))
        self._page_rec_lsn.setdefault(key, lsn)

    def _handle_write_permission(self, message: Message):
        page_lsn = message.body["page_lsn"]
        yield from self.wal.force(up_to_lsn=page_lsn)
        respond(message, {"sequence_number": page_lsn})
        self._maybe_reclaim()

    def _handle_page_written(self, message: Message) -> None:
        body = message.body
        key = (body["segment_id"], body["page"])
        if body["still_dirty"]:
            # The segment holds every update through ``page_lsn``; a store
            # made during the write-back is logged after it.
            self._page_rec_lsn[key] = body["page_lsn"] + 1
        else:
            self._page_rec_lsn.pop(key, None)

    # -- transaction management records ----------------------------------------------

    def _handle_append_status(self, message: Message):
        body = message.body
        record = TransactionStatusRecord(
            tid=body["tid"], status=TxnStatus(body["status"]),
            servers=tuple(body.get("servers", ())),
            coordinator=body.get("coordinator", ""),
            children=tuple(body.get("children", ())))
        self._append_chained(record)
        with self.ctx.span("rm.force_status", self.node.name, "RM",
                           tid=body["tid"], status=body["status"]):
            # Commit-record processing: the 8 ms extra overlaps the
            # stable write (the paper itself notes this
            # double-counting), while the 5 ms per-transaction
            # bookkeeping is recorded alongside.
            self.ctx.meter.record_cpu(
                "RM", self.ctx.cpu_costs.rm_commit_write_extra)
            self.ctx.meter.record_cpu("RM",
                                      self.ctx.cpu_costs.rm_read_txn)
            yield from self.wal.force()
        respond(message, {"ok": True})
        self._maybe_reclaim()
        # A commit with remote children stays pinned until its end record:
        # a child that missed phase two learns the outcome by asking, and
        # after a crash the commit record is all that remembers it.
        if record.status is TxnStatus.ABORTED or (
                record.status is TxnStatus.COMMITTED and not record.children):
            self._retire(body["tid"])

    def _handle_txn_done(self, message: Message) -> None:
        # One-way message: the CPU is recorded here, while the serialization
        # delay it imposes on the shared CPU is modelled at the Transaction
        # Manager's reply point (single-CPU Perq approximation).
        self.ctx.meter.record_cpu("RM", self.ctx.cpu_costs.rm_read_txn)
        tid = message.body["tid"]
        self._append_chained(TransactionStatusRecord(
            tid=tid, status=TxnStatus.ENDED))
        self._retire(tid)

    def _handle_merge_chain(self, message: Message) -> None:
        child: TransactionID = message.body["child"]
        parent: TransactionID = message.body["parent"]
        self._append_chained(TransactionStatusRecord(
            tid=child, status=TxnStatus.MERGED, merged_into=parent))
        # Splice the child's chain onto the parent's: the parent's next
        # record will point at the child's newest, whose oldest points back
        # into the parent's existing chain.  The child's chain holds the
        # records of the subtransactions merged into it too.
        child_head = self._chains.pop(child, 0)
        if child_head:
            parent_head = self._chains.get(parent, 0)
            oldest = child_head
            while self.wal.record_at(oldest).prev_lsn:
                oldest = self.wal.record_at(oldest).prev_lsn
            self.wal.record_at(oldest).prev_lsn = parent_head
            self._chains[parent] = child_head
            self._first_lsn.setdefault(
                parent, self._first_lsn.get(child, child_head))
        self._first_lsn.pop(child, None)
        respond(message, {"ok": True})

    def _retire(self, tid: TransactionID) -> None:
        self._chains.pop(tid, None)
        self._first_lsn.pop(tid, None)

    # -- abort processing ---------------------------------------------------------------

    def _handle_abort(self, message: Message):
        tid: TransactionID = message.body["tid"]
        lsn = self._chains.get(tid, 0)
        while lsn:
            record = self.wal.record_at(lsn)
            yield from self._instruct_undo(record, tid)
            lsn = record.prev_lsn
        self._append_chained(TransactionStatusRecord(
            tid=tid, status=TxnStatus.ABORTED))
        self._retire(tid)
        respond(message, {"ok": True})

    def _instruct_undo(self, record: LogRecord, tid: TransactionID):
        """Send one undo instruction to the owning server and await its ack.

        The walk runs newest-to-oldest, so each step restores its own
        record's old value and the object ends at the oldest (committed)
        one.  The compensation goes on the chain of ``tid``, the
        transaction the walk aborts: a record a merged subtransaction
        wrote is compensated under the family member that owns it now.
        """
        if (not isinstance(record, (ValueUpdateRecord, OperationRecord))
                or record.compensates_lsn):
            # status and page-dirty records carry no effects, and a
            # compensation record is never itself undone
            return
        attachment = self._servers.get(record.server)
        if attachment is None:
            return  # pragma: no cover - server withdrew; nothing to undo
        if isinstance(record, OperationRecord):
            yield from self._undo_operation(record, attachment.port, tid)
            return
        yield from request(self.node, attachment.port, "ds.undo_value",
                           {"oid": record.oid, "value": record.old_value},
                           reply="rm-undo-reply")
        # The undo write bypasses the write-ahead gate, so log the
        # compensation: without it, a checkpoint taken before this
        # abort lets recovery's backward scan stop at the checkpoint
        # bound and resurrect the flushed pre-abort value from disk.
        clr = ValueUpdateRecord(
            tid=tid, server=record.server, oid=record.oid,
            old_value=record.new_value, new_value=record.old_value,
            compensates_lsn=record.lsn)
        self._append_chained(clr)
        # Pin the page's recovery LSN back to the original update:
        # until the undone page reaches non-volatile storage, log
        # reclamation must keep every record (update, compensation,
        # ABORTED) a post-crash unwind could need.
        if record.oid:
            for page in record.oid.pages():
                key = (record.oid.segment_id, page)
                if self._page_rec_lsn.get(key, record.lsn + 1) \
                        > record.lsn:
                    self._page_rec_lsn[key] = record.lsn

    def _undo_operation(self, record: OperationRecord, port: Port,
                        tid: TransactionID):
        """Have the server invert ``record``, then log the compensation
        so recovery never undoes this twice, and stamp the pages with it:
        they carry the inverse now, so a page that reached its segment
        under the original record's LSN would have the compensation
        redone on top of it.

        The pages stay pinned from before the inverse is stored until
        they carry the stamp, so no write-back takes an image holding the
        inverse under an older sequence number.
        """
        for oid in record.oids:
            yield from self.node.vm.pin(oid)
        try:
            yield from request(
                self.node, port, "ds.undo_operation",
                {"operation": record.undo_operation,
                 "args": record.undo_args}, reply="rm-undo-reply")
            clr_lsn = self._append_chained(compensation_for(record, tid))
            for oid in record.oids:
                self.node.vm.set_page_lsn(oid, clr_lsn)
                for page in oid.pages():
                    self._page_rec_lsn.setdefault(
                        (oid.segment_id, page), clr_lsn)
        finally:
            for oid in record.oids:
                self.node.vm.unpin(oid)

    # -- checkpoints and reclamation -------------------------------------------------------

    def _handle_checkpoint(self, message: Message):
        yield from self.take_checkpoint(
            message.body.get("active_transactions", {}))
        respond(message, {"ok": True})

    def take_checkpoint(self, active_transactions: dict,
                        flush: bool = False):
        """Write and force a checkpoint record (generator).

        With ``flush``, dirty recoverable pages are forced to their
        segments first ("Some systems also force certain pages to
        non-volatile storage", Section 2.1.3) -- this shortens the log
        prefix recovery must read, at the price of the page writes.
        """
        from repro.wal.records import CheckpointRecord

        if flush:
            yield from self.node.vm.flush_all()
        # Intersect with the pages the kernel still holds dirty: the
        # page-written notices travel as messages and may not have been
        # processed yet, and a clean page must not pin the log.
        dirty_now = set(self.node.vm.dirty_pages())
        record = CheckpointRecord(
            dirty_pages={key: lsn for key, lsn in self._page_rec_lsn.items()
                         if key in dirty_now},
            active_transactions={tid: phase for tid, phase
                                 in active_transactions.items()},
            attached_servers={name: att.segment_id
                              for name, att in self._servers.items()})
        self.wal.append(record)
        yield from self.wal.force()
        self.checkpoints_taken += 1
        return record

    def truncation_bound(self) -> int:
        """The LSN below which no record can matter for crash recovery.

        When an archive dump exists, the records it needs are also
        retained: media recovery rolls the archive forward through them.
        """
        dirty_now = set(self.node.vm.dirty_pages())
        bounds = [self.undo_horizon()]
        bounds.extend(lsn for key, lsn in self._page_rec_lsn.items()
                      if key in dirty_now)
        if self.media_retention_lsn is not None:
            bounds.append(self.media_retention_lsn)
        return min(bounds)

    def undo_horizon(self) -> int:
        """The oldest record that may still have to be undone: the first
        record of every transaction in flight, else the next one to reach
        the log."""
        return min([self.wal.flushed_lsn + 1, *self._first_lsn.values()])

    def _on_buffer_full(self) -> None:
        self.node.spawn(self._drain_buffer(), name="rm:drain", defused=True)

    def _drain_buffer(self):
        yield from self.wal.force()
        self._maybe_reclaim()

    def _maybe_reclaim(self) -> None:
        store = self.wal.store
        if store.free_records * 2 > store.capacity_records:
            return
        if self._reclaiming:
            return
        self._reclaiming = True
        self.node.spawn(self._reclaim(), name="rm:reclaim", defused=True)

    def _reclaim(self):
        """Log reclamation (Section 3.2.2): force dirty pages back to their
        segments so their recovery LSNs stop pinning old log, checkpoint,
        and truncate.  It starts at half capacity, so the pages' writes
        and the checkpoint fit while transactions keep appending.

        The checkpoint names every transaction the log still holds records
        for: the flush may have stolen their uncommitted pages, and
        recovery's backward scan must reach their records to undo them.
        """
        try:
            self.reclamations += 1
            yield from self.node.vm.flush_all()
            yield from self.take_checkpoint(
                dict.fromkeys(self._first_lsn, "active"))
            self.wal.store.truncate_before(self.truncation_bound())
        finally:
            self._reclaiming = False

    # -- crash support ------------------------------------------------------------------

    def crash(self) -> None:
        """Volatile state gone; the durable store survives in the caller."""
        self.wal.crash()


def _in_kernel(ctx: SimContext,
               kind: MessageKind = MessageKind.SMALL) -> MessageKind:
    """``kind``, or ``UNCHARGED`` once the Recovery and Transaction
    Managers are merged into the kernel (Section 5.3's improved
    architecture): their conversations with each other and the pager
    then cost nothing, and a prepare record rides on its server's vote."""
    return MessageKind.UNCHARGED if ctx.merged_architecture else kind


class RmPagerClient(PagerClient):
    """The kernel's three-message WAL conversation, over real messages."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self.ctx = node.ctx

    def _rm_port(self) -> Port:
        return self.node.service(SERVICE)

    def first_modified(self, segment_id: str, page: int):
        self._rm_port().send(Message(
            op="rm.first_modified",
            body={"segment_id": segment_id, "page": page},
            kind=_in_kernel(self.ctx)))
        return
        yield  # pragma: no cover

    def write_permission(self, segment_id: str, page: int, page_lsn: int):
        body = yield from request(
            self.node, self._rm_port(), "rm.write_permission",
            {"segment_id": segment_id, "page": page, "page_lsn": page_lsn},
            reply="pager-reply", kind=_in_kernel(self.ctx))
        return body["sequence_number"]

    def page_written(self, segment_id: str, page: int, page_lsn: int,
                     still_dirty: bool):
        self._rm_port().send(Message(
            op="rm.page_written",
            body={"segment_id": segment_id, "page": page,
                  "page_lsn": page_lsn, "still_dirty": still_dirty},
            kind=_in_kernel(self.ctx)))
        return
        yield  # pragma: no cover


class RecoveryManagerClient:
    """Message-level stubs for the Transaction Manager and server library.

    Each request/reply stub returns the kit's generator for the caller to
    ``yield from``.
    """

    def __init__(self, node: Node) -> None:
        self.node = node
        self.ctx = node.ctx

    def _port(self) -> Port:
        return self.node.service(SERVICE)

    def spool(self, record: LogRecord):
        """Send one recovery record; returns its LSN (generator).

        Old-value/new-value pairs average ~1100 bytes in the paper's
        measurements, so spools are always charged as large messages.
        """
        body = yield from request(self.node, self._port(), "rm.spool",
                                  {"record": record}, reply="spool-reply",
                                  kind=MessageKind.LARGE)
        return body["lsn"]

    def send_prepare_record(self, tid: TransactionID, server: str,
                            oids: tuple) -> None:
        # In the improved architecture, "one prepare message sent from a
        # data server to the modified kernel performs the function of two
        # messages": the write set piggybacks on the vote, so this separate
        # large message is not charged.
        self._port().send(Message(
            op="rm.prepare_record",
            body={"record": ServerPrepareRecord(tid=tid, server=server,
                                                oids=tuple(oids))},
            kind=_in_kernel(self.ctx, MessageKind.LARGE)))

    def _tm_request(self, op: str, body: dict, reply: str):
        return request(self.node, self._port(), op, body, reply=reply,
                       kind=_in_kernel(self.ctx))

    def append_status_via_message(self, tid: TransactionID, status: str,
                                  servers: tuple = (), children: tuple = (),
                                  coordinator: str = ""):
        """Append a forced status record; done when it is durable."""
        return self._tm_request("rm.append_status", {
            "tid": tid, "status": status, "servers": servers,
            "children": children, "coordinator": coordinator},
            "status-reply")

    def note_txn_done(self, tid: TransactionID) -> None:
        self._port().send(Message(op="rm.txn_done", body={"tid": tid},
                                  kind=_in_kernel(self.ctx)))

    def merge_chain_via_message(self, child: TransactionID,
                                parent: TransactionID):
        return self._tm_request("rm.merge_chain",
                                {"child": child, "parent": parent},
                                "merge-reply")

    def abort_via_message(self, tid: TransactionID):
        return self._tm_request("rm.abort", {"tid": tid}, "abort-reply")

    def attach(self, server: str, segment_id: str, port: Port):
        return request(self.node, self._port(), "rm.attach",
                       {"server": server, "segment_id": segment_id,
                        "port": port}, reply="attach-reply")
