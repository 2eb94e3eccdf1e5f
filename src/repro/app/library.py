"""The transaction management library (Table 3-2).

=====================  =======================================================
Table 3-2 routine      method
=====================  =======================================================
``BeginTransaction``   :meth:`ApplicationLibrary.begin_transaction`
``EndTransaction``     :meth:`end_transaction`
``AbortTransaction``   :meth:`abort_transaction`
``TransactionIsAborted``  the :class:`repro.errors.TransactionAborted`
                       exception, re-raised out of any call that touches an
                       aborted transaction
=====================  =======================================================

The library also flips the cost meter between the pre-commit and commit
phases when ``measured`` is set, which is how the benchmark harness
regenerates the paper's Table 5-2 / Table 5-3 split.
"""

from __future__ import annotations

from typing import Callable

from repro.comm.network import Network
from repro.errors import LockTimeout, TransactionAborted
from repro.kernel.costs import Phase
from repro.kernel.node import Node
from repro.kernel.service import request
from repro.nameserver.library import NameServerLibrary
from repro.rpc import stubs
from repro.rpc.stubs import ServiceRef
from repro.txn.ids import NULL_TID, TransactionID
from repro.txn.manager import SERVICE as TM_SERVICE


class ApplicationLibrary:
    """Transaction control and operation invocation for one application."""

    def __init__(self, node: Node, network: Network,
                 measured: bool = False) -> None:
        self.node = node
        self.ctx = node.ctx
        self.network = network
        self.names = NameServerLibrary(node)
        #: when True, begin/end flip the cost meter's phase markers
        self.measured = measured
        #: the reason the Transaction Manager gave for the last
        #: EndTransaction it refused through this library
        self.refusal = ""

    # -- Table 3-2 --------------------------------------------------------------

    def begin_transaction(self, parent: TransactionID = NULL_TID):
        """Start a transaction; a null parent makes it top-level (generator).

        Returns the new :class:`TransactionID`.
        """
        if self.measured:
            self.ctx.meter.phase = Phase.PRE_COMMIT
        yield self.ctx.cpu("APP", self.ctx.cpu_costs.app_txn_overhead)
        body = yield from self._tm_request("tm.begin", {"parent": parent})
        tid = body["tid"]
        if self.ctx.tracer is not None and parent.is_null:
            # The transaction family's root span: every span this family
            # opens anywhere in the cluster descends from it.
            self.ctx.tracer.begin_root(tid, self.node.name)
        return tid

    def end_transaction(self, tid: TransactionID, extra: dict | None = None):
        """Attempt to commit (generator).  Returns True iff committed.

        ``extra`` merges additional fields into the ``tm.end`` request
        body -- the replication router ships the transaction's replica
        footprint this way for commit-time validation.
        """
        if self.measured:
            self.ctx.meter.phase = Phase.COMMIT
        request = {"tid": tid}
        if extra:
            request.update(extra)
        try:
            body = yield from self._tm_request("tm.end", request)
        finally:
            if self.measured:
                self.ctx.meter.phase = Phase.PRE_COMMIT
        committed = body["committed"]
        if not committed:
            self.refusal = body["reason"]
        if self.ctx.tracer is not None and tid.is_toplevel:
            self.ctx.tracer.end(self.ctx.tracer.family_root(tid),
                                committed=committed)
        return committed

    def abort_transaction(self, tid: TransactionID, reason: str = ""):
        """Force the transaction to abort (generator)."""
        yield from self._tm_request("tm.abort", {"tid": tid,
                                                 "reason": reason})
        if self.ctx.tracer is not None and tid.is_toplevel:
            self.ctx.tracer.end(self.ctx.tracer.family_root(tid),
                                committed=False, aborted=True)

    def _tm_request(self, op: str, body: dict):
        return request(self.node, self.node.service(TM_SERVICE), op, body,
                       reply=f"app:{op}")

    # -- operations on objects ---------------------------------------------------

    def call(self, ref: ServiceRef, op: str, body: dict | None = None,
             tid: TransactionID | None = None,
             timeout_ms: float | None = None):
        """Invoke an operation on a data server within ``tid`` (generator).

        ``timeout_ms`` overrides the RPC layer's default response bound
        for remote targets (background maintenance like replica catch-up
        uses a short bound so a peer dying mid-call fails the step fast).
        """
        if timeout_ms is None:
            result = yield from stubs.call(self.network, self.node, ref, op,
                                           body, tid)
        else:
            result = yield from stubs.call(self.network, self.node, ref, op,
                                           body, tid, timeout_ms=timeout_ms)
        return result

    def lookup_one(self, name: str, node_name: str = ""):
        """Bind to a server (generator returning one ServiceRef).

        The *node* keeps what this resolves (``Node.bindings``), not the
        application object: a new library per transaction still binds
        once.  See :meth:`NameServerLibrary.lookup_one`.
        """
        ref = yield from self.names.lookup_one(name, node_name=node_name)
        return ref

    # -- conveniences -----------------------------------------------------------------

    def run_transaction(self, body_fn: Callable, retries: int = 0,
                        backoff_ms: float = 200.0):
        """Begin, run ``body_fn(tid)`` (a generator), and commit
        (generator): the module's :func:`run_transaction` over this
        library."""
        return run_transaction(self, body_fn, retries, backoff_ms)


def run_transaction(app, body_fn: Callable, retries: int = 0,
                    backoff_ms: float = 200.0,
                    retryable: tuple = (TransactionAborted, LockTimeout)):
    """The transaction bracket, written once (generator): begin on
    ``app``, run ``body_fn(tid)`` (a generator), commit, return the
    body's result.

    Aborts on exception and re-raises; a refused commit raises
    :class:`~repro.errors.TransactionAborted` with the reason the
    Transaction Manager gave (``app.refusal``, where ``app`` keeps it).
    A replicated transaction's write-behind copy that failed is such a
    refusal, not an exception out of ``end_transaction``; that still
    sits inside the handler because, should it raise, the transaction
    must be aborted, not left holding its locks until a time-out.  With
    ``retries`` > 0, a transaction that aborts with one of
    ``retryable`` (a deadlock time-out, say) is retried after a
    randomized backoff -- without the jitter, deterministic contenders
    would re-create the same deadlock forever.
    """
    attempt = 0
    while True:
        tid = yield from app.begin_transaction()
        try:
            result = yield from body_fn(tid)
            committed = yield from app.end_transaction(tid)
        except Exception as error:
            yield from app.abort_transaction(tid, reason=repr(error))
            if isinstance(error, retryable) and attempt < retries:
                attempt += 1
                yield app.ctx.random.uniform(0.0, backoff_ms * attempt)
                continue
            raise
        if committed:
            return result
        if attempt >= retries:
            # (a stand-in for the library need not keep a reason)
            raise TransactionAborted(
                tid, getattr(app, "refusal", "") or "commit failed")
        attempt += 1


def call_in_transaction(app, name: str, node_name: str, op: str,
                        body: dict, timeout_ms: float | None = None):
    """One operation on ``node_name``'s server ``name`` as a transaction
    of its own (generator returning the reply) -- the shape of every
    maintenance transaction: replica catch-up, shard copy, the
    reconfiguration registry.  Its root ``txn`` span says so
    (``kind="maintenance"``), so a trace can tell the workload's commits
    and log forces from the housekeeping's."""
    def one_call(tid):
        tracer = app.ctx.tracer
        if tracer is not None:
            tracer.annotate(tracer.family_root(tid), kind="maintenance")
        ref = yield from app.lookup_one(name, node_name=node_name)
        reply = yield from app.call(ref, op, body, tid,
                                    timeout_ms=timeout_ms)
        return reply

    return run_transaction(app, one_call)
