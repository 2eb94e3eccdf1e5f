"""The reconfiguration registry: durable migration state on one node.

A migration must survive the crash of the node driving it.  The
:class:`ReconfigRegistryServer` is an ordinary recoverable data server
(two one-word cells) on the *originator* node, written exclusively
through WAL-logged transactions:

- the **commit sequence** cell holds the sequence number of the last
  migration whose shrink epoch was durably decided;
- the **intent** cell holds the in-flight migration's full record --
  key-space, source, destination, the pre-migration replica tuple, the
  post-migration replica tuple, and its sequence number -- or nothing.

The protocol writes intent *before* touching placement and bumps the
commit sequence as the migration's commit action, so after any crash the
originator's log answers the only question that matters: did this
migration commit?  ``seq >= intent.seq`` means roll forward (re-install
the new map); anything else means roll back (re-install the old map).
Presumed abort covers the edges for free -- an intent transaction cut
down mid-write simply never happened.

Single-copy by design, like a Transaction Manager's own log: the
registry is the originator's migration journal, not a replicated
database.  If the originator is down, no new migration can start and
the last one resolves when it recovers -- the same blocking contract
2PC gives a coordinator's participants.
"""

from __future__ import annotations

from repro.app.library import call_in_transaction
from repro.locking.modes import READ, WRITE
from repro.servers.base import BaseDataServer
from repro.txn.ids import TransactionID

#: well-known server name, registered on the originator node
REGISTRY_SERVER = "reconfig_registry"

#: cells are one word, like the workload servers'
WORD_SIZE = 4

_SEQ_CELL = 1
_INTENT_CELL = 2


def registry_call(app, node_name: str, op: str, body: dict):
    """One WAL-logged transaction against ``node_name``'s registry
    (generator).  A refused commit raises
    :class:`~repro.errors.TransactionAborted` -- durable migration state
    must never be assumed written.  Shared by the migration coordinator
    and the crash-resume path."""
    return call_in_transaction(app, REGISTRY_SERVER, node_name, op, body)


def pack_intent(keyspace: str, source: str, dest: str,
                old_replicas: tuple[str, ...],
                new_replicas: tuple[str, ...], seq: int) -> tuple:
    return ("migrate", keyspace, source, dest,
            tuple(old_replicas), tuple(new_replicas), int(seq))


def unpack_intent(raw) -> dict | None:
    """The intent cell's record as a dict, or None when no migration is
    in flight (unwritten cell or the cleared-intent sentinel 0)."""
    if not raw or not isinstance(raw, tuple):
        return None
    _tag, keyspace, source, dest, old_replicas, new_replicas, seq = raw
    return {"keyspace": keyspace, "source": source, "dest": dest,
            "old_replicas": tuple(old_replicas),
            "new_replicas": tuple(new_replicas), "seq": int(seq)}


class ReconfigRegistryServer(BaseDataServer):
    """Two recoverable cells: commit sequence and migration intent."""

    TYPE_NAME = "reconfig_registry"
    SEGMENT_PAGES = 1

    def _cell_oid(self, cell: int):
        va = self.base_va + (cell - 1) * WORD_SIZE
        return self.library.create_object_id(va, WORD_SIZE)

    def _write_cell(self, cell: int, value, tid: TransactionID):
        oid = self._cell_oid(cell)
        lib = self.library
        yield from lib.lock_object(tid, oid, WRITE)
        yield from lib.pin_and_buffer(tid, oid)
        yield from lib.write_object(oid, value)
        yield from lib.log_and_unpin(tid, oid)

    def op_reconfig_state(self, body: dict, tid: TransactionID):
        """Read both cells (the resume path's first question)."""
        lib = self.library
        values = []
        for cell in (_SEQ_CELL, _INTENT_CELL):
            oid = self._cell_oid(cell)
            yield from lib.lock_object(tid, oid, READ)
            values.append((yield from lib.read_object(oid)))
        seq_raw, intent_raw = values
        return {"seq": int(seq_raw) if seq_raw else 0,
                "intent": intent_raw if intent_raw else 0}

    def op_reconfig_set_intent(self, body: dict, tid: TransactionID):
        """Durably record (or clear, with 0) the migration intent."""
        yield from self._write_cell(_INTENT_CELL, body["intent"], tid)
        return {"ok": True}

    def op_reconfig_commit(self, body: dict, tid: TransactionID):
        """Bump the commit sequence -- the migration's commit action."""
        yield from self._write_cell(_SEQ_CELL, int(body["seq"]), tid)
        return {"ok": True}
