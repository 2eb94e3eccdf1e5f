"""The replica side: versioned cells, read barrier, catch-up operations.

Replicated data servers store *versioned cells*: a plain tuple
``("v", version, value)``.  A write has one version: the simulated
instant at which the copy where same-cell writers serialise held the
cell's write lock, carried in the absolute write every other copy
stores, so all copies of one write hold the same cell.  Versions are
codec-safe (the WAL logs them unchanged) and monotonic per cell -- the
writer holds the cell's write lock from the stamp to commit, so a later
write always carries a later instant.  That monotonicity is what makes
catch-up a safe *merge*: a recovering replica applies a peer's cell only
if the peer's version is newer, so merging from a peer that is itself
stale (or mid-catch-up) can never regress a cell, and a cell the replica
already holds at the peer's version needs no apply at all.

:class:`ReplicatedServerMixin` layers three things over a
:class:`~repro.servers.base.BaseDataServer` subclass:

- the post-recovery *read barrier*: while ``catchup_pending`` is set the
  ops named in ``GATED_OPS`` -- everything that reads a cell, the
  read-modify-write ops included -- are refused with
  :class:`~repro.errors.ReplicaUnavailable`, so clients fail over to a
  current copy.  Absolute writes are *not* gated (a recovering copy must
  observe new writes or it would recover forever behind), and neither
  are the ``repl_*`` catch-up ops (two pending replicas may merge from
  each other after a total shard outage).
- ``repl_cells`` / ``repl_read_batch``: enumerate and copy the last
  committed value of each written cell (without queueing behind active
  writers), used by a peer's catch-up snapshot transaction.
- ``repl_versions``: the destination's committed versions of a chunk,
  read the same lock-free way, so catch-up applies only stale cells.
- ``repl_apply_batch``: the versioned conditional merge, applied by the
  recovering node's local transaction under ordinary write locks and
  value logging (an aborted catch-up rolls back like any transaction).
"""

from __future__ import annotations

from repro.errors import ReplicaUnavailable
from repro.kernel.disk import PAGE_SIZE
from repro.locking.modes import READ, WRITE
from repro.txn.ids import TransactionID

#: versioned-cell tag; cells are ("v", version, value) tuples
CELL_TAG = "v"


def pack_cell(version: float, value: object) -> tuple:
    """A versioned cell as stored in the segment (and the WAL)."""
    return (CELL_TAG, float(version), value)


def unpack_cell(raw: object) -> tuple[float, object]:
    """``(version, value)`` of a stored cell.

    Unversioned contents (None, or cells written before replication was
    enabled) report version ``-1.0`` so any versioned write wins.
    """
    if (isinstance(raw, tuple) and len(raw) == 3 and raw[0] == CELL_TAG):
        return float(raw[1]), raw[2]
    return -1.0, raw


class ReplicatedServerMixin:
    """Mix into a data server (before the base class) to make it a replica."""

    #: user ops refused while this copy is catching up: they read
    GATED_OPS: tuple[str, ...] = ()
    #: cell width in segment bytes (offset granularity)
    CELL_SIZE = 4

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: read barrier: set on restart, cleared when catch-up completes
        self.catchup_pending = False

    def dispatch(self, op: str, body: dict, tid: TransactionID | None):
        if self.catchup_pending and op in self.GATED_OPS:
            oid = self.serialising_oid(op, body)
            if oid is not None and tid is not None:
                # Serialization must survive the barrier.  Same-row
                # writers all lock the row at the first *up* copy in
                # placement order -- and this copy is up, merely
                # unreadable.  Take the write lock before refusing the
                # value; otherwise a contender arriving while the
                # barrier is raised would serialize at the next copy
                # while one arriving after it clears serializes here,
                # and their write fan-outs deadlock copy-against-copy.
                yield from self.library.lock_object(tid, oid, WRITE)
            raise ReplicaUnavailable(
                f"{self.name} on {self.node.name}: copy is catching up "
                f"and cannot serve {op!r}")
        result = yield from super().dispatch(op, body, tid)
        return result

    def serialising_oid(self, op: str, body: dict):
        """The cell a read-modify-write ``op`` would write-lock, or None.

        Subclasses map the ops that serialise same-cell writers here so
        the read barrier can keep the lock-site order consistent while
        refusing the op.
        """
        return None

    # -- catch-up support -----------------------------------------------------------

    def _offset_oid(self, offset: int):
        return self.library.create_object_id(self.base_va + offset,
                                             self.CELL_SIZE)

    def written_offsets(self) -> list[int]:
        """Every segment offset holding a value, durable or resident.

        The union of the non-volatile image and the resident page frames
        (which may hold committed values not yet written back), sorted
        so lock acquisition has a deterministic intra-server order.
        """
        offsets: set[int] = set()
        for data in self.node.disk.pages_of_segment(self.segment_id).values():
            offsets.update(offset for offset, value in data.items()
                           if value is not None)
        for segment_id, page in self.node.vm.resident_pages():
            if segment_id != self.segment_id:
                continue
            frame = self.node.vm.frame(segment_id, page)
            for offset, value in frame.data.items():
                if value is None:
                    offsets.discard(offset)
                else:
                    offsets.add(offset)
        return sorted(offsets)

    def op_repl_cells(self, body: dict, tid: TransactionID):
        """Enumerate written cells (no locks: a hint for the snapshot)."""
        return {"offsets": self.written_offsets()}
        yield  # pragma: no cover - generator protocol

    def op_repl_read_batch(self, body: dict, tid: TransactionID):
        """Read one chunk of cells for a peer's catch-up snapshot.

        Each cell is read via
        :meth:`~repro.server.library.DataServerLibrary.read_committed`,
        which never queues behind an active writer (the writer's first
        pre-image *is* the committed value).  The versioned merge does
        not need a serializable snapshot: a cell that moves on after
        the read carries a newer version and the stale copy loses the
        conditional apply, and a writer whose fan-out missed the
        recovering copy fails footprint validation at commit.  Only a
        *prepared* (in-doubt) holder forces a locked read -- bounded by
        ``lock_timeout_ms`` from the request so the chunk fails fast
        and retries rather than parking behind the in-doubt resolution.
        """
        timeout_ms = body.get("lock_timeout_ms")
        cells: dict[int, object] = {}
        for offset in sorted(body["offsets"]):
            oid = self._offset_oid(offset)
            ok, value = yield from self.library.read_committed(oid)
            if not ok:
                yield from self.library.lock_object(tid, oid, READ,
                                                    timeout_ms=timeout_ms)
                value = yield from self.library.read_object(oid)
                self.library.locks.release(tid, oid)
            cells[offset] = value
        return {"cells": cells}

    def op_repl_versions(self, body: dict, tid: TransactionID):
        """This copy's committed version of each of ``offsets``, so a
        catch-up chunk can leave out the cells it already holds.

        Read like the snapshot, through ``read_committed``, without a
        lock.  An offset whose holder is *prepared* is left out of the
        answer, and the caller applies that cell as if it had not asked.
        Committed versions never decrease, so a cell reported at the
        snapshot's version or newer would fail the apply's own version
        test at any later instant.
        """
        versions: dict[int, float] = {}
        for offset in sorted(body["offsets"]):
            ok, value = yield from self.library.read_committed(
                self._offset_oid(offset))
            if ok:
                versions[offset] = unpack_cell(value)[0]
        return {"versions": versions}

    def op_repl_apply_batch(self, body: dict, tid: TransactionID):
        """Merge a peer snapshot: write each cell iff the peer's version
        is newer than ours (under ordinary write locks + value logging).

        The merge's write locks queue at the head of each cell's wait
        queue (``priority``): a catch-up apply holds a cell for one
        read-compare-write, and waiting a full convoy's turn per hot
        cell would keep the read barrier up for the convoy's lifetime
        (catch-up sends one cell per apply transaction for the same
        reason -- never holding one cell while waiting on another).
        The version test stays here, under the write lock, whatever the
        caller filtered on its ``repl_versions`` answer.
        """
        applied = 0
        pages: set[int] = set()
        for offset in sorted(body["cells"]):
            peer_raw = body["cells"][offset]
            oid = self._offset_oid(offset)
            yield from self.library.lock_object(tid, oid, WRITE,
                                                priority=True)
            local_raw = yield from self.library.read_object(oid)
            peer_version, _ = unpack_cell(peer_raw)
            local_version, _ = unpack_cell(local_raw)
            if peer_version <= local_version:
                continue
            yield from self.library.pin_and_buffer(tid, oid)
            yield from self.library.write_object(oid, peer_raw)
            yield from self.library.log_and_unpin(tid, oid)
            applied += 1
            pages.add(offset // PAGE_SIZE)
        return {"applied": applied, "pages": len(pages)}
