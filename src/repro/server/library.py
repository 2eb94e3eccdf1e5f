"""The complete TABS server library (Table 3-1).

Mapping from the paper's routine names to methods here:

===================================  =========================================
Table 3-1 routine                    method
===================================  =========================================
``InitServer``                       :meth:`DataServerLibrary.__init__`
``ReadPermanentData``                :meth:`read_permanent_data`
``RecoverServer``                    :meth:`recover_server`
``AcceptRequests``                   :meth:`accept_requests`
``CreateObjectID``                   :meth:`create_object_id`
``ConvertObjectIDtoVirtualAddress``  :meth:`convert_object_id_to_va`
``LockObject``                       :meth:`lock_object`
``ConditionallyLockObject``          :meth:`conditionally_lock_object`
``IsObjectLocked``                   :meth:`is_object_locked`
``PinObject`` / ``UnPinObject`` /    :meth:`pin_object` /
``UnPinAllObjects``                  :meth:`unpin_object` / :meth:`unpin_all`
``PinAndBuffer``                     :meth:`pin_and_buffer`
``LogAndUnPin``                      :meth:`log_and_unpin`
``LockAndMark``                      :meth:`lock_and_mark`
``PinAndBufferMarkedObjects``        :meth:`pin_and_buffer_marked_objects`
``LogAndUnPinMarkedObjects``         :meth:`log_and_unpin_marked_objects`
``ExecuteTransaction``               :meth:`execute_transaction`
===================================  =========================================

Beyond Table 3-1, the library implements the extensions the paper's
Conclusions call for: operation logging (:meth:`log_operation`,
:meth:`register_recovery_operation`) and type-specific locking (pass any
:class:`~repro.locking.modes.CompatibilityMatrix` as the protocol).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.errors import InvalidTransaction, ServerError, TransactionAborted
from repro.kernel.messages import Message
from repro.kernel.node import Node
from repro.kernel.service import Service, request, respond, respond_error
from repro.kernel.vm import ObjectID, RecoverableSegment
from repro.locking.manager import LockManager
from repro.locking.modes import (
    READ,
    READ_WRITE_PROTOCOL,
    WRITE,
    CompatibilityMatrix,
    LockMode,
)
from repro.recovery.manager import RecoveryManagerClient
from repro.txn.ids import NULL_TID, TransactionID
from repro.txn.manager import SERVICE as TM_SERVICE
from repro.wal.records import OperationRecord, ValueUpdateRecord


@dataclass
class TxnLocal:
    """A data server's per-transaction state."""

    tid: TransactionID
    joined: bool = False
    #: PinAndBuffer'ed old values awaiting LogAndUnPin
    buffers: dict[ObjectID, object] = field(default_factory=dict)
    #: LockAndMark's "to be modified" queue
    marked: list[tuple[ObjectID, LockMode]] = field(default_factory=list)
    #: every object this transaction has logged an update for
    write_set: set[ObjectID] = field(default_factory=set)
    #: first buffered old value per object: the value that was committed
    #: when this transaction first touched it, kept until the transaction
    #: ends (``buffers`` is drained at LogAndUnPin, this is not)
    pre_images: dict[ObjectID, object] = field(default_factory=dict)
    wrote: bool = False
    #: voted "update" in phase one; its writes may commit at any moment
    prepared: bool = False


class DataServerLibrary:
    """Runtime for one data server process (``InitServer``)."""

    def __init__(self, node: Node, server_id: str,
                 protocol: CompatibilityMatrix = READ_WRITE_PROTOCOL,
                 lock_timeout_ms: float | None = None) -> None:
        self.node = node
        self.ctx = node.ctx
        self.server_id = server_id
        self.port = node.create_port(f"ds:{server_id}")
        self.locks = LockManager(node.ctx, protocol=protocol,
                                 node_name=node.name)
        if lock_timeout_ms is not None:
            self.locks.default_timeout_ms = lock_timeout_ms
        self.rm = RecoveryManagerClient(node)
        self.segment: RecoverableSegment | None = None
        self._txns: dict[TransactionID, TxnLocal] = {}
        self._dispatch: Callable | None = None
        self._recovery_ops: dict[str, Callable] = {}
        self._operation_modes: dict[str, LockMode] = {}
        self.requests_served = 0

    # -- startup (Table 3-1 "Startup" group) --------------------------------------

    def read_permanent_data(self, segment_id: str, page_count: int,
                            base_va: int):
        """Map the server's recoverable segment into virtual memory.

        Generator returning ``(virtual_address, size_bytes)``.
        """
        self.segment = RecoverableSegment(segment_id, page_count, base_va)
        self.node.vm.map_segment(self.segment)
        return (self.segment.base_va, self.segment.size)
        yield  # pragma: no cover - mapping itself is free

    def recover_server(self):
        """Attach to the Recovery Manager for logging and recovery.

        Generator.  Node-level log replay is driven by the facility (all
        servers share the common log); this registers the server's port so
        the Recovery Manager can send it undo/redo instructions, and its
        segment so checkpoints record the attachment.
        """
        if self.segment is None:
            raise ServerError("call read_permanent_data before recover_server")
        yield from self.rm.attach(self.server_id, self.segment.segment_id,
                                  self.port)

    def accept_requests(self, dispatch: Callable) -> None:
        """Start serving.  ``dispatch(op, body, tid)`` is a generator
        returning the response body for user-defined operations."""
        self._dispatch = dispatch
        # Each request is a separate coroutine invocation; switches
        # happen only when the operation waits.
        Service(self.node, self.port, self.server_id,
                lambda op: self._serve, f"ds:{self.server_id}")

    def fail(self) -> None:
        """Kill this data server process without taking the node down.

        Its port dies, which stops its request loop, and its volatile
        state (lock table, per-transaction records) vanishes; the
        recoverable segment and the common log are untouched.  Recovery of
        the single server is driven by :meth:`TabsNode.recover_server`.
        """
        self.port.destroy()
        self.crash_volatile_state()

    def _serve(self, message: Message):
        tid = message.tid
        with self.ctx.span(
                f"ds:{message.op}", self.node.name, "DS",
                tid=tid if tid is not None else message.body.get("tid"),
                server=self.server_id):
            if message.op.startswith("ds."):
                yield from self._serve_system(message)
                return
            try:
                result = yield from self._operation(
                    tid, self._serve_operation(tid, message))
                self.requests_served += 1
                respond(message, result or {})
            except Exception as error:  # noqa: BLE001 - marshalled to caller
                self._release_pins_after_failure(tid)
                respond_error(message, error)

    def _serve_operation(self, tid: TransactionID | None, message: Message):
        if tid is not None:
            yield from self._ensure_joined(tid)
        assert self._dispatch is not None, "accept_requests not called"
        return (yield from self._dispatch(message.op, message.body, tid))

    def _operation(self, tid: TransactionID | None, body):
        """Run ``body`` as one operation of ``tid`` on this node
        (generator): refused once the transaction's abort has begun here
        or this server has voted for it, counted as running until it
        ends, so the abort waits for it."""
        if tid in self.node.aborted:
            raise TransactionAborted(tid,
                                     "aborted before this operation arrived")
        local = self._txns.get(tid)
        if local is not None and local.prepared:
            raise TransactionAborted(tid,
                                     "voted before this operation arrived")
        self.node.count_operation(tid, 1)
        try:
            return (yield from body)
        finally:
            self.node.count_operation(tid, -1)

    def _release_pins_after_failure(self, tid: TransactionID | None) -> None:
        """A failed operation must not leave buffered pins behind."""
        local = self._txns.get(tid) if tid is not None else None
        if local is None:
            return
        for oid in list(local.buffers):
            self.node.vm.unpin(oid)
            del local.buffers[oid]

    def _local(self, tid: TransactionID) -> TxnLocal:
        local = self._txns.get(tid)
        if local is None:
            local = self._txns[tid] = TxnLocal(tid)
        return local

    def _ensure_joined(self, tid: TransactionID):
        """First operation on behalf of a transaction: tell the local
        Transaction Manager, so it knows whom to inform at termination."""
        local = self._local(tid)
        if local.joined:
            return
        try:
            yield from request(
                self.node, self.node.service(TM_SERVICE), "tm.join",
                {"tid": tid, "server": self.server_id, "port": self.port},
                reply="join-reply")
        except (TransactionAborted, InvalidTransaction):
            # The family, or this member of it, ended first: nothing here
            # will ever end it.
            self._txns.pop(tid, None)
            raise
        local.joined = True

    # -- address arithmetic ----------------------------------------------------------

    def create_object_id(self, virtual_address: int, length: int) -> ObjectID:
        return self.node.vm.object_id_for_va(virtual_address, length)

    def convert_object_id_to_va(self, oid: ObjectID) -> int:
        return self.node.vm.va_for_object_id(oid)

    # -- locking ------------------------------------------------------------------------

    def lock_object(self, tid: TransactionID, oid: Hashable,
                    mode: LockMode = WRITE,
                    timeout_ms: float | None = None,
                    priority: bool = False):
        """``LockObject``: waits if unavailable; LockTimeout breaks deadlock.

        A request queued for the lock is not a running operation: an
        abort does not wait for it, and ``ds.abort`` fails it.  One
        granted after its transaction's abort began stops here.
        """
        self.node.count_operation(tid, -1)
        try:
            yield from self.locks.lock(tid, oid, mode, timeout_ms=timeout_ms,
                                       priority=priority)
        finally:
            self.node.count_operation(tid, 1)
        if tid in self.node.aborted:
            raise TransactionAborted(
                tid, "aborted while this operation was in flight")

    def conditionally_lock_object(self, tid: TransactionID, oid: Hashable,
                                  mode: LockMode = WRITE) -> bool:
        return self.locks.try_lock(tid, oid, mode)

    def is_object_locked(self, oid: Hashable) -> bool:
        return self.locks.is_locked(oid)

    # -- paging control -----------------------------------------------------------------

    def pin_object(self, oid: ObjectID):
        yield from self.node.vm.pin(oid)

    def unpin_object(self, oid: ObjectID) -> None:
        self.node.vm.unpin(oid)

    # -- object access ---------------------------------------------------------------------

    def read_object(self, oid: ObjectID):
        """Read an object's current value (generator; pages fault in)."""
        value = yield from self.node.vm.read_object(oid)
        return value

    def read_committed(self, oid: ObjectID):
        """The last *committed* value of ``oid``, without waiting for
        locks (generator).  Returns ``(ok, value)``.

        Three cases:

        - no exclusive holder: the current value is committed;
        - an *active* (unprepared) writer holds the object: its first
          buffered pre-image is the committed value -- returned without
          queueing behind the writer;
        - a *prepared* writer holds it (or an in-doubt relock with no
          pre-image): the outcome is undecided, so the committed value
          cannot be named without waiting -- ``(False, None)``; the
          caller falls back to an ordinary locked read.

        Used by replica catch-up snapshots: a snapshot queued behind a
        convoyed hot cell would hold the recovering copy's read barrier
        up for the convoy's lifetime, and the versioned merge tolerates
        a read that is merely *slightly* stale (any writer whose fan-out
        includes the recovering copy updates it directly; one whose
        fan-out missed it fails footprint validation at commit).
        """
        value = yield from self.node.vm.read_object(oid)
        # Scan for the writer *after* the read: a writer that sneaked in
        # during the page fault is caught here and its pre-image wins.
        holder = self.locks.exclusive_holder(oid, READ)
        if holder is None:
            return True, value
        local = self._txns.get(holder)
        if local is not None and not local.prepared \
                and oid in local.pre_images:
            return True, local.pre_images[oid]
        return False, None

    def write_object(self, oid: ObjectID, value: object):
        """Assign to a pinned object (the ``obj.ptr := value`` of the
        paper's SetCell listing).  Pinning first is mandatory: it is what
        keeps the un-logged new value off the disk."""
        self._require_pinned(oid)
        yield from self.node.vm.write_object(oid, value)

    def add_to_object(self, oid: ObjectID, delta: int):
        """``obj.ptr := obj.ptr + delta`` on a pinned integer object, with
        no wait between the read and the store; returns the new value.

        The forward half of a commuting operation (lock in a mode that is
        compatible with itself, add, :meth:`log_operation` the add and its
        inverse): other holders of the lock may add between any two of
        this coroutine's waits, so there must be none inside the add.
        """
        self._require_pinned(oid)
        value = yield from self.node.vm.add_to_object(oid, delta)
        return value

    def _require_pinned(self, oid: ObjectID) -> None:
        if not self.node.vm.is_pinned(oid):
            raise ServerError(
                f"{self.server_id}: write to unpinned object {oid} "
                "(pin it first)")

    # -- value logging (pin/buffer/log cycle) --------------------------------------------------

    def pin_and_buffer(self, tid: TransactionID, oid: ObjectID):
        """Pin the object and buffer its old value before modification."""
        if not oid.single_page:
            raise ServerError(
                "value logging covers at most one page per object; use "
                "operation logging for multi-page objects")
        yield from self.node.vm.pin(oid)
        old_value = yield from self.node.vm.read_object(oid)
        local = self._local(tid)
        local.buffers[oid] = old_value
        local.pre_images.setdefault(oid, old_value)

    def log_and_unpin(self, tid: TransactionID, oid: ObjectID):
        """Send the old/new value pair to the Recovery Manager; unpin."""
        local = self._local(tid)
        if oid not in local.buffers:
            raise ServerError(f"log_and_unpin without pin_and_buffer: {oid}")
        yield self.ctx.cpu("DS", self.ctx.cpu_costs.ds_log_format)
        new_value = yield from self.node.vm.read_object(oid)
        record = ValueUpdateRecord(
            tid=tid, server=self.server_id, oid=oid,
            old_value=local.buffers.pop(oid), new_value=new_value)
        lsn = yield from self.rm.spool(record)
        self.node.vm.set_page_lsn(oid, lsn)
        self.node.vm.unpin(oid)
        local.write_set.add(oid)
        local.wrote = True

    # -- marked-object batch (LockAndMark family) -------------------------------------------------

    def lock_and_mark(self, tid: TransactionID, oid: ObjectID,
                      mode: LockMode = WRITE,
                      timeout_ms: float | None = None):
        """Lock now, remember for a later batched pin/log cycle.

        The checkpoint protocol requires that servers not wait (e.g. for a
        lock) while objects are pinned; acquiring every lock before any pin
        is the discipline these routines enable (Section 3.1.1).
        """
        yield from self.lock_object(tid, oid, mode, timeout_ms=timeout_ms)
        self._local(tid).marked.append((oid, mode))

    def pin_and_buffer_marked_objects(self, tid: TransactionID):
        local = self._local(tid)
        for oid, _mode in local.marked:
            if oid not in local.buffers:
                yield from self.pin_and_buffer(tid, oid)

    def log_and_unpin_marked_objects(self, tid: TransactionID):
        local = self._local(tid)
        for oid, _mode in local.marked:
            if oid in local.buffers:
                yield from self.log_and_unpin(tid, oid)
        local.marked.clear()

    # -- operation logging (the paper's future-work extension) --------------------------------------

    def register_recovery_operation(self, name: str, applier: Callable,
                                    lock_mode: LockMode = WRITE) -> None:
        """Register the undo/redo code for a logged operation name.

        ``applier(args)`` must be a generator applying the operation's
        effect directly (no locking, no logging) -- it runs during abort
        processing and crash recovery.  An abort's undo runs while other
        holders of a commuting lock are live, so an applier for such an
        operation must not wait between reading and storing
        (:meth:`VirtualMemory.add_to_object`).

        ``lock_mode`` is the mode the forward operation holds its objects
        in; recovery re-locks an in-doubt transaction's objects in it.
        """
        self._recovery_ops[name] = applier
        self._operation_modes[name] = lock_mode

    def operation_lock_mode(self, operation: str) -> LockMode:
        """The mode objects covered by ``operation``'s records are held
        in (WRITE for a name never registered)."""
        return self._operation_modes.get(operation, WRITE)

    def recovery_applier(self, operation: str, args: tuple):
        """Dispatch one recovery instruction (used by the recovery driver)."""
        try:
            applier = self._recovery_ops[operation]
        except KeyError:
            raise ServerError(
                f"{self.server_id}: no recovery operation {operation!r} "
                "registered") from None
        yield from applier(args)

    def log_operation(self, tid: TransactionID, operation: str,
                      redo_args: tuple, undo_operation: str,
                      undo_args: tuple, oids: tuple[ObjectID, ...]):
        """Spool an operation (transition) record covering ``oids``.

        One record may cover a multi-page object -- the advantage the paper
        cites for operation logging.  The caller must hold the affected
        pages pinned and unpin after this returns.
        """
        for name in (operation, undo_operation):
            if name not in self._recovery_ops:
                raise ServerError(
                    f"operation {name!r} has no registered recovery "
                    "applier; register_recovery_operation first")
        record = OperationRecord(
            tid=tid, server=self.server_id, operation=operation,
            redo_args=tuple(redo_args), undo_operation=undo_operation,
            undo_args=tuple(undo_args), oids=tuple(oids))
        lsn = yield from self.rm.spool(record)
        for oid in oids:
            self.node.vm.set_page_lsn(oid, lsn)
        local = self._local(tid)
        local.write_set.update(oids)
        local.wrote = True

    # -- ExecuteTransaction ---------------------------------------------------------------------------

    def execute_transaction(self, procedure: Callable):
        """Run ``procedure(tid)`` inside a brand-new top-level transaction.

        Generator returning the procedure's result.  Used by servers that
        need transactions of their own while serving a client transaction
        (the I/O server's permanent-but-not-failure-atomic output).
        """
        tid = (yield from self._tm_request("tm.begin",
                                           {"parent": NULL_TID}))["tid"]
        # The procedure will operate on this server's own data without an
        # incoming request to trigger the first-operation notice, so join
        # the Transaction Manager explicitly -- otherwise commit would never
        # reach this server and its locks would never be released.
        yield from self._ensure_joined(tid)
        try:
            result = yield from self._operation(tid, procedure(tid))
        except Exception:
            yield from self._tm_request("tm.abort", {"tid": tid})
            raise
        yield from self._tm_request("tm.end", {"tid": tid})
        return result

    def _tm_request(self, op: str, body: dict):
        return request(self.node, self.node.service(TM_SERVICE), op, body,
                       reply=f"ds-tm:{op}")

    # -- two-phase-commit participation (automated by the library) ----------------------------------------

    def _serve_system(self, message: Message):
        handler = {
            "ds.prepare": self._sys_prepare,
            "ds.commit": self._sys_commit,
            "ds.abort": self._sys_abort,
            "ds.undo_value": self._sys_undo_value,
            "ds.undo_operation": self._sys_undo_operation,
            "ds.subtxn_commit": self._sys_subtxn_commit,
        }.get(message.op)
        if handler is None:
            respond_error(message, ServerError(f"unknown system op "
                                               f"{message.op!r}"))
            return
        # A system op that never waits is a plain method.
        yield from handler(message) or ()

    def _sys_prepare(self, message: Message):
        tid: TransactionID = message.body["tid"]
        yield self.ctx.cpu("DS", self.ctx.cpu_costs.ds_txn_overhead)
        local = self._txns.get(tid)
        if local is None:
            respond(message, {"vote": "read_only"})
            return
        if local.buffers:
            respond_error(message, ServerError(
                f"{self.server_id}: transaction {tid} reached prepare with "
                "objects still pinned/buffered"))
            return
        if local.wrote:
            # Prepare record (large message): the write set, so recovery can
            # re-acquire locks for this in-doubt transaction.
            local.prepared = True
            self.rm.send_prepare_record(tid, self.server_id,
                                        tuple(sorted(local.write_set)))
            respond(message, {"vote": "update"})
        else:
            # Read-only optimization: release locks and drop out now.
            self.locks.release_all(tid)
            del self._txns[tid]
            respond(message, {"vote": "read_only"})

    def _sys_commit(self, message: Message):
        tid: TransactionID = message.body["tid"]
        local = self._txns.pop(tid, None)
        if local is not None and local.wrote:
            yield self.ctx.cpu("DS", self.ctx.cpu_costs.ds_commit_write_extra)
        self.locks.release_all(tid)
        respond(message, {"ok": True})

    def _sys_abort(self, message: Message):
        tid: TransactionID = message.body["tid"]
        local = self._txns.pop(tid, None)
        if local is not None and local.buffers:
            # An operation is still mid write cycle (pinned, possibly
            # written, not yet logged).  Its value never reached the log,
            # so the Recovery Manager's undo could not restore it: scrub
            # it back *before* the locks go, or a reader granted after
            # the release would see it.  Restore the first committed
            # pre-image, not this cycle's buffer -- if an earlier cycle
            # of the same transaction logged a write of this object,
            # the buffer holds the transaction's own (undone) value and
            # restoring it would overwrite the RM undo walk's work.
            for oid in list(local.buffers):
                buffered = local.buffers.pop(oid)
                yield from self.node.vm.write_object(
                    oid, local.pre_images.get(oid, buffered))
                self.node.vm.unpin(oid)
        self.locks.release_all(tid)
        respond(message, {"ok": True})

    def _sys_undo_value(self, message: Message):
        """Recovery Manager instruction: reset an object to its old value."""
        oid: ObjectID = message.body["oid"]
        yield from self.node.vm.write_object(oid, message.body["value"])
        respond(message, {"ok": True})

    def _sys_undo_operation(self, message: Message):
        """Recovery Manager instruction: invoke a logged undo operation."""
        yield from self.recovery_applier(message.body["operation"],
                                         message.body["args"])
        respond(message, {"ok": True})

    def _sys_subtxn_commit(self, message: Message) -> None:
        """A subtransaction committed: its parent inherits everything."""
        child: TransactionID = message.body["child"]
        parent: TransactionID = message.body["parent"]
        self.locks.transfer(child, parent)
        child_local = self._txns.pop(child, None)
        if child_local is not None:
            parent_local = self._local(parent)
            parent_local.write_set.update(child_local.write_set)
            parent_local.wrote = parent_local.wrote or child_local.wrote
            parent_local.buffers.update(child_local.buffers)
            parent_local.marked.extend(child_local.marked)
            for oid, value in child_local.pre_images.items():
                parent_local.pre_images.setdefault(oid, value)
        respond(message, {"ok": True})

    # -- recovery support ------------------------------------------------------------------------------------

    def relock_prepared(self, tid: TransactionID,
                        held: dict[ObjectID, LockMode]) -> None:
        """After a crash, re-acquire an in-doubt transaction's update
        locks, each in the mode it was held in (``held``: object ->
        mode), so its data stays restricted until the coordinator
        resolves it.  Two in-doubt transactions that both incremented
        one object held it together before the crash and do again."""
        local = self._local(tid)
        local.joined = True
        local.wrote = True
        local.prepared = True
        local.write_set.update(held)
        for oid in sorted(held):
            granted = self.locks.try_lock(tid, oid, held[oid])
            assert granted, "recovery re-locking found a conflicting holder"

    def crash_volatile_state(self) -> None:
        """Testing hook: model the server's share of a node crash."""
        self.locks.clear()
        self._txns.clear()


# Re-exported for data-server implementations that need only the names.
__all__ = ["DataServerLibrary", "TxnLocal", "READ", "WRITE"]
