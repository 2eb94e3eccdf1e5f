"""Replica catch-up: merge current versions from live peers.

A recovering replica's segment is durably consistent after log replay,
but *stale*: every write that committed on its peers while it was down
is missing.  Until it has merged current versions it refuses reads (the
``catchup_pending`` barrier in
:class:`~repro.replication.server.ReplicatedServerMixin`).

The merge runs as a *stream of small transaction pairs* per peer, never
one big one:

1. a *listing* transaction asks the peer which cells it has written
   (``repl_cells`` -- a catalogue read, no data locks);
2. for each chunk of at most :data:`CATCHUP_CHUNK_CELLS` offsets, a
   *snapshot* transaction on the peer copies the raw (versioned)
   values cell by cell under short read locks (each released as soon
   as the value is copied), followed by an *apply* transaction on the
   recovering node only, which write-locks the local cells and
   overwrites each iff the peer's version is newer
   (``repl_apply_batch``).

Chunking matters for liveness, not just politeness: a snapshot that
read-locked the whole key-space in one transaction would collide with
every concurrent writer of any cell -- including the hot branch row --
and convoy the entire workload behind lock timeouts for the duration
of the merge.  A cell's snapshot read waits only for that cell's
current holder, and never makes a writer wait behind the rest of the
chunk.

Splitting them costs atomicity -- the apply may run long after the
snapshot -- but versioned cells make that safe: a cell that moved on
between snapshot and apply has a newer local version and the stale
snapshot value is skipped, and the commit-time write barrier
(:func:`~repro.replication.view.validate_footprint` rule 2) aborts any
transaction whose write fanned out while this copy was still catching
up.  What the split *buys* is liveness: a single distributed
transaction spanning both nodes could deadlock against the mirror-image
catch-up when two replicas recover from a total shard outage (each
holding write locks at home while awaiting read locks at the other),
and a crash mid-2PC would leave the snapshot's locks in doubt on the
surviving peer.

The merge visits *all* peers, so after a total outage the union of
surviving versions wins even if each survivor holds a different suffix.
A peer that stays unreachable past the retry budget is skipped
(``replication.catchup_skipped_peer``); if no peer could be merged at
all the replica serves from its own recovered state
(``replication.catchup_selfserve``) -- with every copy freshly
recovered there is no fresher site to defer to.
"""

from __future__ import annotations

from repro.app.library import ApplicationLibrary
from repro.errors import (
    CommunicationError,
    LockTimeout,
    LookupFailed,
    ReplicaUnavailable,
    TransactionAborted,
)
from repro.kernel.disk import PAGE_SIZE
from repro.sim import Timeout

#: cells per snapshot/apply transaction pair: small enough that a chunk
#: only ever waits on a handful of concurrent writers
CATCHUP_CHUNK_CELLS = 32

#: failures a merge chunk retries: the peer dying or unreachable
#: mid-call, a lock timed out behind a hot-cell convoy, a catch-up
#: transaction aborted (RuntimeError is the helpers' own
#: commit-refused signal).  Anything else is a code defect and
#: propagates -- silently skipping the peer and dropping the read
#: barrier would degrade a bug into serving stale data.
_RETRYABLE_ERRORS = (CommunicationError, LookupFailed, LockTimeout,
                     ReplicaUnavailable, TransactionAborted, RuntimeError)


def catchup_server(runtime, server):
    """Catch one recovering replicated server up from its peers
    (generator; spawned on the recovering node)."""
    tabs_node = runtime.tabs_node
    ctx = tabs_node.ctx
    placement = runtime.placement
    local = tabs_node.name
    peers = [node for node in placement.replicas(server.name)
             if node != local]
    started = ctx.now
    with ctx.span("replica.catchup", local, "REPL",
                  server=server.name) as span:
        app = ApplicationLibrary(tabs_node.node, tabs_node.network)
        merged_peers = 0
        applied_pages = 0
        for peer in sorted(peers):
            pages = yield from _merge_from_peer(runtime, app, server, peer)
            if pages is None:
                ctx.metrics.counter(local,
                                    "replication.catchup_skipped_peer").inc()
            else:
                merged_peers += 1
                applied_pages += pages
        if merged_peers == 0:
            # No fresher copy reachable: serve from the recovered local
            # state.  A known window -- if a fresher peer was merely
            # unreachable, reads here may be stale until it returns and the
            # next recovery merges it.  The convergence audit bounds it.
            ctx.metrics.counter(local, "replication.catchup_selfserve").inc()
        server.catchup_pending = False
        # How long this shard's read barrier stayed up -- the per-shard
        # degraded-service window the availability bench cares about.
        ctx.metrics.histogram(local, "replica.catchup_wait_ms").observe(
            ctx.now - started)
        if applied_pages:
            ctx.metrics.counter(local,
                                "replica.catchup_pages").inc(applied_pages)
        span.set(pages=applied_pages, peers=merged_peers)


def _merge_from_peer(runtime, app, server, peer):
    """Snapshot ``peer`` and apply locally; returns pages applied, or
    None if the peer stayed unmergeable past the retry budget.

    Progress survives failures: a chunk that dies (a lock time-out
    behind a hot-row convoy, the peer crashing mid-merge) is retried
    from *that chunk*, not from the top, and every completed chunk
    resets the attempt counter.  The budget therefore bounds
    consecutive failures on one chunk rather than the whole merge --
    restarting a large key-space from scratch under live write traffic
    could otherwise thrash forever and pin the read barrier up.
    """
    ctx = runtime.tabs_node.ctx
    config = runtime.config
    attempt = 0
    offsets: list[int] | None = None
    start = 0
    pages = 0
    while True:
        if attempt:
            if attempt >= config.catchup_max_retries:
                return None
            yield Timeout(ctx.engine,
                          ctx.random.uniform(0.5, 1.0)
                          * config.catchup_retry_ms * attempt)
        if not runtime.view.available(peer):
            attempt += 1
            continue
        try:
            if offsets is None:
                offsets = yield from _list_peer(app, server.name, peer,
                                                config)
            while start < len(offsets):
                chunk = offsets[start:start + CATCHUP_CHUNK_CELLS]
                cells = yield from _snapshot_peer(app, server.name, peer,
                                                  chunk, config)
                pages += yield from _apply_local(app, server, cells, config)
                start += CATCHUP_CHUNK_CELLS
                attempt = 0  # forward progress refreshes the budget
        except _RETRYABLE_ERRORS:
            attempt += 1
            continue
        return pages


def _list_peer(app, server_name, peer, config):
    """The catalogue read: which cells has the peer written?"""
    tid = yield from app.begin_transaction()
    try:
        ref = yield from app.lookup_one(server_name, node_name=peer)
        listing = yield from app.call(
            ref, "repl_cells", {}, tid,
            timeout_ms=config.catchup_call_timeout_ms)
    except Exception:
        yield from app.abort_transaction(tid, reason="catchup listing")
        raise
    committed = yield from app.end_transaction(tid)
    if not committed:
        raise RuntimeError(f"catchup listing of {server_name!r} on "
                           f"{peer!r} aborted")
    return listing["offsets"]


def _snapshot_peer(app, server_name, peer, offsets, config):
    """Copy one chunk of the peer's written cells.

    Both bounds are deliberately tight: the snapshot's cell locks time
    out at ``catchup_lock_timeout_ms`` (fail fast behind a convoyed hot
    cell, retry in a gap) and the call itself at
    ``catchup_call_timeout_ms`` (a peer dying mid-snapshot must not
    leave the barrier up while a 30 s RPC time-out runs down).
    """
    tid = yield from app.begin_transaction()
    try:
        ref = yield from app.lookup_one(server_name, node_name=peer)
        reply = yield from app.call(
            ref, "repl_read_batch",
            {"offsets": offsets,
             "lock_timeout_ms": config.catchup_lock_timeout_ms}, tid,
            timeout_ms=config.catchup_call_timeout_ms)
    except Exception:
        yield from app.abort_transaction(tid, reason="catchup snapshot")
        raise
    committed = yield from app.end_transaction(tid)
    if not committed:
        raise RuntimeError(f"catchup snapshot of {server_name!r} on "
                           f"{peer!r} aborted")
    return reply["cells"]


def _apply_local(app, server, cells, config):
    """Transaction 2: versioned conditional merge into the local copy.

    One cell per transaction, with a priority (head-of-queue) write
    lock: the apply never holds one cell while waiting on another, and
    waits only for a hot cell's *current* holder rather than the whole
    convoy behind it.  A cell that fails retries with the chunk; cells
    already merged re-apply as no-ops (the version check).
    """
    pages: set[int] = set()
    for offset in sorted(cells):
        if cells[offset] is None:
            continue
        tid = yield from app.begin_transaction()
        try:
            ref = yield from app.lookup_one(server.name,
                                            node_name=server.node.name)
            reply = yield from app.call(
                ref, "repl_apply_batch",
                {"cells": {offset: cells[offset]}, "priority": True}, tid)
        except Exception:
            yield from app.abort_transaction(tid, reason="catchup apply")
            raise
        committed = yield from app.end_transaction(tid)
        if not committed:
            raise RuntimeError(f"catchup apply into {server.name!r} aborted")
        if reply["applied"]:
            pages.add(offset // PAGE_SIZE)
    return len(pages)
