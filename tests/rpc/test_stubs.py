"""Unit tests for the RPC runtime (local and inter-node calls)."""

import gc

import pytest

from repro.comm.manager import CommunicationManager
from repro.comm.network import Network
from repro.errors import ServerError, SessionBroken
from repro.kernel.context import SimContext
from repro.kernel.costs import MEASURED_1985, Primitive, ZERO_CPU
from repro.kernel.node import Node
from repro.kernel.ports import Port
from repro.kernel.service import respond, respond_error
from repro.rpc.stubs import ServiceRef, call
from repro.sim import Process
from repro.txn.ids import TransactionID
from tests.comm.test_network import spanning_info


@pytest.fixture
def world():
    ctx = SimContext(cpu_costs=ZERO_CPU)
    network = Network(ctx)
    nodes = {}
    for name in ("a", "b"):
        node = Node(ctx, name)
        CommunicationManager(node, network)
        nodes[name] = node
    return ctx, network, nodes


def echo_server(node, name="svc"):
    """A server loop that echoes its request body."""
    port = node.create_port(name)

    def loop():
        while True:
            message = yield port.receive()
            if message.body.get("explode"):
                respond_error(message, ServerError("boom"))
            else:
                respond(message, {"echo": message.body.get("x")})

    node.spawn(loop(), name=name, defused=True)
    return port


def run(ctx, gen):
    return ctx.engine.run_until(Process(ctx.engine, gen))


def test_local_call_roundtrip_and_cost(world):
    ctx, network, nodes = world
    port = echo_server(nodes["a"])
    ref = ServiceRef("a", port, epoch=0)
    body = run(ctx, call(network, nodes["a"], ref, "op", {"x": 42}))
    assert body["echo"] == 42
    assert ctx.meter.count(Primitive.DATA_SERVER_CALL) == 1
    assert ctx.engine.now == MEASURED_1985.time_of(
        Primitive.DATA_SERVER_CALL)


def test_remote_call_roundtrip_and_cost(world):
    ctx, network, nodes = world
    port = echo_server(nodes["b"])
    ref = ServiceRef("b", port, epoch=0)
    body = run(ctx, call(network, nodes["a"], ref, "op", {"x": "hi"}))
    assert body["echo"] == "hi"
    assert ctx.meter.count(Primitive.INTER_NODE_DATA_SERVER_CALL) == 1
    assert ctx.meter.count(Primitive.DATA_SERVER_CALL) == 0


def test_remote_call_records_spanning_tree(world):
    ctx, network, nodes = world
    port = echo_server(nodes["b"])
    ref = ServiceRef("b", port, epoch=0)
    tid = TransactionID("a", 1)
    run(ctx, call(network, nodes["a"], ref, "op", {}, tid=tid))
    assert spanning_info(network.manager("a"), tid)["children"] == ["b"]
    assert spanning_info(network.manager("b"), tid)["parent"] == "a"


def test_server_exception_marshalled_back(world):
    ctx, network, nodes = world
    port = echo_server(nodes["a"])
    ref = ServiceRef("a", port, epoch=0)
    with pytest.raises(ServerError, match="boom"):
        run(ctx, call(network, nodes["a"], ref, "op", {"explode": True}))


def test_remote_call_to_down_node_fails_fast(world):
    ctx, network, nodes = world
    port = echo_server(nodes["b"])
    ref = ServiceRef("b", port, epoch=0)
    nodes["b"].crash()
    with pytest.raises(SessionBroken):
        run(ctx, call(network, nodes["a"], ref, "op", {}))


def test_remote_call_times_out_when_server_never_replies(world):
    ctx, network, nodes = world
    silent = nodes["b"].create_port("silent")
    ref = ServiceRef("b", silent, epoch=0)
    with pytest.raises(SessionBroken, match="no response"):
        run(ctx, call(network, nodes["a"], ref, "op", {},
                      timeout_ms=500.0))
    assert ctx.engine.now >= 500.0


def test_stale_epoch_reference_rejected(world):
    ctx, network, nodes = world
    port = echo_server(nodes["b"])
    ref = ServiceRef("b", port, epoch=0)
    nodes["b"].crash()
    nodes["b"].restart()
    CommunicationManager(nodes["b"], network)
    with pytest.raises(SessionBroken, match="stale"):
        run(ctx, call(network, nodes["a"], ref, "op", {}))


def test_node_crash_mid_call_detected(world):
    ctx, network, nodes = world
    port = echo_server(nodes["b"])
    ref = ServiceRef("b", port, epoch=0)

    def crash_soon():
        from repro.sim import Timeout
        yield Timeout(ctx.engine, 10.0)  # inside the 44.5 ms request leg
        nodes["b"].crash()

    Process(ctx.engine, crash_soon()).defused = True
    with pytest.raises(SessionBroken):
        run(ctx, call(network, nodes["a"], ref, "op", {}))


def test_response_body_is_copied_not_aliased(world):
    ctx, network, nodes = world
    port = nodes["a"].create_port("svc")
    shared = {"x": 1}

    def loop():
        while True:
            message = yield port.receive()
            respond(message, shared)

    nodes["a"].spawn(loop(), defused=True)
    ref = ServiceRef("a", port, epoch=0)
    body = run(ctx, call(network, nodes["a"], ref, "op", {}))
    body["x"] = 999
    assert shared["x"] == 1


# -- retry, backoff, and reference re-resolution ----------------------------

def test_transient_unreachability_is_retried_until_it_heals(world):
    """Session establishment fails while partitioned; the capped backoff
    outlives the partition and the call succeeds on a later attempt."""
    ctx, network, nodes = world
    port = echo_server(nodes["b"])
    ref = ServiceRef("b", port, epoch=0)
    network.partition([["a"], ["b"]])
    ctx.engine.schedule(60.0, network.heal)
    body = run(ctx, call(network, nodes["a"], ref, "op", {"x": 9}))
    assert body["echo"] == 9
    assert ctx.meter.counter("rpc_retries") >= 1


def test_retries_exhausted_surface_the_original_error(world):
    ctx, network, nodes = world
    port = echo_server(nodes["b"])
    ref = ServiceRef("b", port, epoch=0)
    network.partition([["a"], ["b"]])
    with pytest.raises(SessionBroken):
        run(ctx, call(network, nodes["a"], ref, "op", {}))
    from repro.rpc.stubs import DEFAULT_CALL_RETRIES
    assert ctx.meter.counter("rpc_retries") == DEFAULT_CALL_RETRIES
    assert ctx.engine.now > 0.0  # the backoffs actually waited


def test_backoff_schedule_is_deterministic(world):
    """Same seed, same failure pattern => identical retry instants."""
    def fail_forever(seed):
        ctx = SimContext(cpu_costs=ZERO_CPU, seed=seed)
        network = Network(ctx)
        nodes = {}
        for name in ("a", "b"):
            node = Node(ctx, name)
            CommunicationManager(node, network)
            nodes[name] = node
        port = nodes["b"].create_port("svc")
        ref = ServiceRef("b", port, epoch=0)
        network.partition([["a"], ["b"]])
        with pytest.raises(SessionBroken):
            run(ctx, call(network, nodes["a"], ref, "op", {}))
        return ctx.engine.now

    assert fail_forever(seed=7) == fail_forever(seed=7)
    assert fail_forever(seed=7) != fail_forever(seed=8)


def test_post_dispatch_timeout_is_never_retried(world):
    """At-most-once: once the request may have reached the server, a
    timeout must surface instead of re-sending."""
    ctx, network, nodes = world
    silent = nodes["b"].create_port("silent")
    ref = ServiceRef("b", silent, epoch=0)
    with pytest.raises(SessionBroken, match="no response"):
        run(ctx, call(network, nodes["a"], ref, "op", {},
                      timeout_ms=400.0))
    assert ctx.meter.counter("rpc_retries") == 0


def test_timed_out_calls_leave_no_reply_port_behind(world):
    """Repeated timed-out calls must leave no per-call state on the
    caller: once each call has returned, its reply port is garbage."""
    ctx, network, nodes = world
    silent = nodes["b"].create_port("silent")
    ref = ServiceRef("b", silent, epoch=0)
    for _ in range(20):
        with pytest.raises(SessionBroken):
            run(ctx, call(network, nodes["a"], ref, "op", {},
                          timeout_ms=200.0))
    silent.destroy()  # each unanswered request holds its reply_to
    gc.collect()
    assert [port for port in gc.get_objects()
            if isinstance(port, Port) and port.node is nodes["a"]
            and port.name.startswith("rpc-reply:")] == []


def test_stale_reference_re_resolved_after_server_restart():
    """A reference minted before the serving node restarted is stale; the
    retry loop re-resolves it through the Name Server by its registered
    name and the call succeeds against the new incarnation."""
    from repro import TabsCluster, TabsConfig
    from repro.servers.int_array import IntegerArrayServer

    cluster = TabsCluster(TabsConfig())
    cluster.add_node("n0")
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("arr"))
    cluster.start()
    app = cluster.application("n0")

    def before(tid):
        ref = yield from app.lookup_one("arr")
        yield from app.call(ref, "set_cell", {"cell": 1, "value": 7}, tid)
        return ref

    stale_ref = cluster.run_transaction("n0", before)
    cluster.crash_node("n1")
    cluster.restart_node("n1")

    def after(tid):
        result = yield from app.call(stale_ref, "get_cell", {"cell": 1},
                                     tid)
        return result["value"]

    assert cluster.run_transaction("n0", after) == 7
    assert cluster.meter.counter("rpc_retries") >= 1


def test_re_resolved_reference_becomes_the_nodes_binding():
    """One re-resolve per restarted peer, not one per call: the caller
    keeps its pre-restart copy, the client node keeps the replacement,
    and both a second stale caller and the next ``lookup_one`` are
    answered from it without asking the Name Server."""
    from repro import TabsCluster, TabsConfig
    from repro.servers.int_array import IntegerArrayServer

    cluster = TabsCluster(TabsConfig())
    cluster.add_node("n0")
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("arr"))
    cluster.start()
    app = cluster.application("n0")
    name_server = cluster.node("n0").ns
    lookups = cluster.metrics.counter("n0", "ns.lookups")

    def bind(tid):
        ref = yield from app.lookup_one("arr", node_name="n1")
        return ref

    stale_ref = cluster.run_transaction("n0", bind)
    cluster.crash_node("n1")
    cluster.restart_node("n1")
    asked, broadcast = lookups.value, name_server.broadcasts

    def through_the_stale_copy(tid):
        result = yield from app.call(stale_ref, "get_cell", {"cell": 1}, tid)
        return result["value"]

    for _ in range(2):
        assert cluster.run_transaction("n0", through_the_stale_copy) == 0
    assert cluster.meter.counter("rpc_retries") == 2   # each caller retried
    assert lookups.value == asked + 1                  # only the first asked
    assert name_server.broadcasts == broadcast + 1

    fresh_ref = cluster.run_transaction("n0", bind)
    assert fresh_ref.epoch == stale_ref.epoch + 1 and fresh_ref.port.alive
    assert lookups.value == asked + 1
    assert name_server.broadcasts == broadcast + 1
