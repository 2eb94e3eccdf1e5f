"""Replica catch-up: merge current versions from live peers.

A recovering replica's segment is durably consistent after log replay,
but *stale*: every write that committed on its peers while it was down
is missing.  Until it has merged current versions it refuses reads (the
``catchup_pending`` barrier in
:class:`~repro.replication.server.ReplicatedServerMixin`).

The merge is one :func:`copy_shard` per peer -- the same loop a shard
migration runs once from its source (:mod:`repro.reconfig.migration`) --
a *stream of small transactions*, never one big one:

1. a *listing* transaction asks the source which cells it has written
   (``repl_cells`` -- a catalogue read, no data locks);
2. for each chunk of at most :data:`CHUNK_CELLS` offsets, a *snapshot*
   transaction on the source copies the raw (versioned) values cell by
   cell without queueing behind active writers (``repl_read_batch``);
3. a *version read* on the destination, just as lock-free, answers
   which version of each of those cells it has committed
   (``repl_versions``);
4. one *apply* transaction per cell whose snapshot version is strictly
   newer, on the destination only, which write-locks the cell and
   overwrites it iff the source's version is still newer
   (``repl_apply_batch``).

A write has one version at every copy it reaches
(:mod:`repro.replication.server`), so a copy that missed nothing holds
every cell at its peer's version and its catch-up opens no apply
transaction at all: only what is stale is copied.

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
snapshot value is skipped (a destination's committed versions never
decrease, so neither can a cell the version read left out need the
snapshot's value later), and the commit-time write barrier
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

The loop's bounds are the constants below, not configuration: no
workload, benchmark or example ever ran with other values.
"""

from __future__ import annotations

from functools import partial

from repro.app.library import ApplicationLibrary, call_in_transaction
from repro.errors import (
    CommunicationError,
    LockTimeout,
    LookupFailed,
    ReplicaUnavailable,
    TransactionAborted,
)
from repro.kernel.disk import PAGE_SIZE
from repro.replication.server import unpack_cell

#: cells per snapshot/apply chunk: small enough that a chunk only ever
#: waits on a handful of concurrent writers
CHUNK_CELLS = 32

#: base back-off before retrying a failed chunk, scaled by the number of
#: consecutive failures and jittered to [0.5, 1.0) of that
RETRY_MS = 400.0

#: lock wait bound for the snapshot's cell locks.  Much shorter than the
#: workload's lock time-out: a chunk that hits a convoyed hot cell
#: should fail fast and retry in a gap, not park behind the convoy while
#: the read barrier stays up.
LOCK_TIMEOUT_MS = 1_500.0

#: RPC bound for the calls to the source (and the destination's version
#: read and probe).
#: The default RPC time-out (30 s) outlives a whole fail-over window; a
#: peer that dies mid-snapshot must fail the chunk quickly so the loop
#: can notice it is gone and move on.
CALL_TIMEOUT_MS = 6_000.0

#: consecutive failures of one chunk before catch-up skips that peer
CATCHUP_MAX_RETRIES = 8

#: failures a chunk retries: the peer dying or unreachable mid-call, a
#: lock timed out behind a hot-cell convoy, a maintenance transaction
#: aborted or refused at commit.  Anything else is a code defect and
#: propagates -- silently skipping the peer and dropping the read
#: barrier would degrade a bug into serving stale data.
RETRYABLE_ERRORS = (CommunicationError, LookupFailed, LockTimeout,
                    ReplicaUnavailable, TransactionAborted)


class CopyExhausted(Exception):
    """One chunk of a shard copy failed its whole retry budget."""


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
            try:
                applied_pages += yield from copy_shard(
                    app, server.name, peer, local,
                    ready=partial(runtime.view.available, peer),
                    max_retries=CATCHUP_MAX_RETRIES)
                merged_peers += 1
            except CopyExhausted:
                ctx.metrics.counter(local,
                                    "replication.catchup_skipped_peer").inc()
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


def copy_shard(app, keyspace: str, source: str, dest: str, ready,
               max_retries: int, passes: int = 1, probe: bool = False,
               on_chunk=None):
    """Copy ``keyspace``'s written cells from the copy on node ``source``
    into the copy on node ``dest`` (generator; returns pages applied).

    Progress survives failures: a chunk that dies (a lock time-out
    behind a hot-row convoy, the source crashing mid-copy, ``ready()``
    saying a party is not there) is retried from *that chunk*, not from
    the listing, and every completed chunk resets the attempt counter
    and is reported to ``on_chunk(chunks so far)``.  The budget
    therefore bounds consecutive failures on one chunk rather than the
    whole copy -- restarting a large key-space from scratch under live
    write traffic could otherwise thrash forever and pin the read
    barrier up.  Past it: :class:`CopyExhausted`.

    Each further pass of ``passes`` re-lists the source and re-copies;
    a cell the destination already holds costs no apply transaction,
    only its share of the chunk's version read.  With
    ``probe`` every pass ends with a listing round trip to ``dest``,
    under the same budget: an empty key-space copies zero chunks, so
    nothing else would notice a remote destination that died.
    """
    ctx = app.ctx
    attempt = 0
    offsets: list[int] | None = None
    start = 0
    chunks = 0
    pages = 0
    while True:
        if attempt:
            if attempt >= max_retries:
                raise CopyExhausted(
                    f"copy of {keyspace!r} from {source!r} to {dest!r} "
                    f"failed {attempt} times in a row")
            yield ctx.random.uniform(0.5, 1.0) * RETRY_MS * attempt
        if not ready():
            attempt += 1
            continue
        try:
            if offsets is None:
                listing = yield from call_in_transaction(
                    app, keyspace, source, "repl_cells", {},
                    timeout_ms=CALL_TIMEOUT_MS)
                offsets = listing["offsets"]
            while start < len(offsets):
                chunk = offsets[start:start + CHUNK_CELLS]
                snapshot = yield from call_in_transaction(
                    app, keyspace, source, "repl_read_batch",
                    {"offsets": chunk, "lock_timeout_ms": LOCK_TIMEOUT_MS},
                    timeout_ms=CALL_TIMEOUT_MS)
                held = yield from call_in_transaction(
                    app, keyspace, dest, "repl_versions",
                    {"offsets": chunk}, timeout_ms=CALL_TIMEOUT_MS)
                pages += yield from _apply_cells(
                    app, keyspace, dest,
                    _stale(snapshot["cells"], held["versions"]))
                start += CHUNK_CELLS
                attempt = 0  # forward progress refreshes the budget
                chunks += 1
                if on_chunk is not None:
                    on_chunk(chunks)
            if probe:
                yield from call_in_transaction(
                    app, keyspace, dest, "repl_cells", {},
                    timeout_ms=CALL_TIMEOUT_MS)
        except RETRYABLE_ERRORS:
            attempt += 1
            continue
        passes -= 1
        if passes <= 0:
            return pages
        offsets = None
        start = 0


def _stale(cells: dict, versions: dict) -> dict:
    """The snapshot ``cells`` newer than the version the destination
    reported for them; a cell it left out counts as stale."""
    return {offset: raw for offset, raw in cells.items()
            if raw is not None and (offset not in versions
                                    or unpack_cell(raw)[0] > versions[offset])}


def _apply_cells(app, keyspace: str, dest: str, cells: dict):
    """Versioned conditional merge of a chunk's stale cells into
    ``dest``'s copy (generator; returns distinct pages changed).

    One cell per transaction, and ``repl_apply_batch`` always takes its
    write lock with priority (at the head of the cell's queue): the
    apply never holds one cell while waiting on another, and waits only
    for a hot cell's *current* holder rather than the whole convoy
    behind it.  A cell that fails retries with the chunk, whose
    fresh version read leaves out the cells already merged.
    """
    pages: set[int] = set()
    for offset in sorted(cells):
        reply = yield from call_in_transaction(
            app, keyspace, dest, "repl_apply_batch",
            {"cells": {offset: cells[offset]}})
        if reply["applied"]:
            pages.add(offset // PAGE_SIZE)
    return len(pages)
