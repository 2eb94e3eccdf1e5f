"""The RPC runtime.

A call is one primitive in the paper's cost model: a local call is charged
one ``Data Server Call`` (26.1 ms measured -- "high due to an inefficient
implementation of coroutines"), an inter-node call one ``Inter-Node Data
Server Call`` (89 ms) plus Communication Manager CPU at both ends.  The
request and response messages inside the call are *not* charged separately
(``MessageKind.UNCHARGED``); their cost is what the composite primitive
measures.

Inter-node calls ride sessions: the local Communication Manager's session
to the target carries the request, and both Communication Managers scan
the transaction identifier to maintain the commit spanning tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm.network import Network
from repro.errors import LookupFailed, NotPosted, SessionBroken
from repro.kernel.costs import Primitive
from repro.kernel.messages import MessageKind
from repro.kernel.node import Node
from repro.kernel.ports import Port
from repro.kernel.service import answer, post, unmarshal
from repro.txn.ids import TransactionID

#: How long a caller waits for a remote server's response before declaring
#: the session broken.  Local calls do not time out (a stuck local call is
#: unwound by lock time-outs instead).
DEFAULT_RPC_TIMEOUT_MS = 30_000.0

#: Retry policy for failures that happen *before* the request is posted
#: (at-most-once: a request that may have reached the server is never
#: retried).  Backoff is capped exponential with deterministic jitter
#: drawn from the cluster's seeded RNG.
DEFAULT_CALL_RETRIES = 3
RETRY_BACKOFF_BASE_MS = 50.0
RETRY_BACKOFF_CAP_MS = 2_000.0


@dataclass(frozen=True)
class ServiceRef:
    """A <port, logical object identifier> pair naming one object.

    These are what Name Server lookups return (Table 3-3); the node name
    lets the RPC layer choose local versus inter-node transport.
    """

    node_name: str
    port: Port
    object_id: object = None
    #: epoch of the serving node when the reference was minted.  A restart
    #: invalidates every copy of it: the port is dead, so the client node's
    #: binding (``Node.bindings``) misses and ``lookup_one`` asks again; a
    #: caller still holding the old copy is sent through ``_re_resolve``.
    epoch: int = field(default=0, compare=False)
    #: registered name the reference resolved from; with ``node_name`` it
    #: is the key ``_re_resolve`` binds the replacement under.
    name: str = field(default="", compare=False)


def call(network: Network, client: Node, ref: ServiceRef, op: str,
         body: dict | None = None, tid: TransactionID | None = None,
         timeout_ms: float = DEFAULT_RPC_TIMEOUT_MS,
         retries: int = DEFAULT_CALL_RETRIES):
    """Invoke ``op`` on the object named by ``ref`` (generator).

    Returns the response body (a dict).  Raises :class:`SessionBroken` when
    a remote target is unreachable or fails to respond, and re-raises any
    exception the server marshalled into its response.

    Failures that occur *before* the request is posted -- session
    establishment, a stale reference after a peer restart, unreachability
    found when posting -- are retried up to ``retries`` times with capped
    exponential backoff and deterministic jitter; a stale reference is
    re-resolved through the Name Server between attempts.  When they run
    out, the last attempt's :class:`NotPosted` is raised: nothing of the
    call reached the target.  A timeout after the post is never retried:
    the request may have executed, and the session's at-most-once
    guarantee must hold.
    """
    ctx = client.ctx
    attempt = 0
    with ctx.span(f"rpc:{op}", client.name, "RPC", tid=tid,
                  target=ref.node_name,
                  local=ref.node_name == client.name) as span:
        span.set(attempts=1)
        while True:
            try:
                result = yield from _call_once(network, client, ref, op, body,
                                               tid, timeout_ms)
                return result
            except NotPosted as failure:
                attempt += 1
                span.set(attempts=attempt + 1)
                if attempt > retries:
                    raise
                ctx.meter.bump("rpc_retries")
                ctx.metrics.counter(client.name, "rpc.retries").inc()
                backoff = min(RETRY_BACKOFF_CAP_MS,
                              RETRY_BACKOFF_BASE_MS * (2 ** (attempt - 1)))
                # Deterministic jitter: the seeded RNG spreads retriers
                # without breaking trace reproducibility.
                backoff *= 0.5 + ctx.random.random()
                yield backoff
                if failure.stale_ref:
                    ref = yield from _re_resolve(client, ref)


def _re_resolve(client: Node, ref: ServiceRef):
    """A fresh reference for ``ref.name`` after a peer restart (generator).

    The caller keeps ``ref``, a copy minted before the restart; the client
    node keeps the replacement, bound under ``(ref.name, ref.node_name)``.
    So the first stale caller on a node asks the Name Server, and every
    later one -- and the node's next ``lookup_one`` -- is answered from
    ``Node.bindings``: one re-resolve per restarted peer, not one per call.

    Returns ``ref`` itself when it carries no name or no node holds the
    name; the caller then retries with the old reference and surfaces
    the error when attempts run out.
    """
    if not ref.name:
        return ref
    # Local import: the nameserver library itself depends on ServiceRef.
    from repro.nameserver.library import NameServerLibrary
    try:
        return (yield from NameServerLibrary(client).lookup_one(
            ref.name, node_name=ref.node_name))
    except LookupFailed:
        return ref


def _call_once(network: Network, client: Node, ref: ServiceRef, op: str,
               body: dict | None, tid: TransactionID | None,
               timeout_ms: float):
    ctx = client.ctx
    local = ref.node_name == client.name
    if local:
        total_ms = ctx.charge(Primitive.DATA_SERVER_CALL)
    else:
        cm_local = network.manager(client.name)
        try:
            cm_local.sessions.session_to(ref.node_name).next_sequence()
        except SessionBroken as error:
            raise NotPosted(str(error)) from None
        if network.epoch_of(ref.node_name) != ref.epoch:
            raise NotPosted(
                f"server reference on {ref.node_name!r} is stale: the node "
                "restarted; look the name up again", stale_ref=True)
        total_ms = ctx.charge(Primitive.INTER_NODE_DATA_SERVER_CALL)

    yield total_ms / 2  # request transport + dispatch
    if not local:
        if not network.reachable(client.name, ref.node_name):
            raise NotPosted(
                f"node {ref.node_name!r} became unreachable mid-call "
                "(crashed or partitioned away)")
        # Posted: both Communication Managers scan the tid (spanning tree)
        # and burn CPU shepherding the session messages.  That CPU is
        # *inside* the measured 89 ms inter-node-call primitive -- the
        # paper notes that communication time is counted in both the
        # primitive sum and the TABS process time -- so it is recorded
        # without extending latency.
        cm_local.record_outbound(tid, ref.node_name)
        ctx.meter.record_cpu("CM", ctx.cpu_costs.cm_session_msg)
        network.manager(ref.node_name).record_inbound(tid, client.name)
        ctx.meter.record_cpu("CM", ctx.cpu_costs.cm_session_msg)
    reply_port = post(client, ref.port, op, dict(body or {}),
                      reply=f"rpc-reply:{op}", kind=MessageKind.UNCHARGED,
                      tid=tid)
    try:
        response = yield from answer(reply_port,
                                     None if local else timeout_ms)
    finally:
        # Deallocate whatever the outcome: a dead reply port silently
        # drops any stale late reply.
        reply_port.destroy()
    if response is None:
        raise SessionBroken(
            f"no response from {ref.node_name!r} for {op!r} within "
            f"{timeout_ms} ms (node crashed?)")
    yield total_ms / 2  # response transport
    return unmarshal(response)
