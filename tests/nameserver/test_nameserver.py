"""Tests for the Name Server and its library (Table 3-3)."""

import pytest

from repro.comm.manager import CommunicationManager
from repro.comm.network import Network
from repro.errors import LookupFailed
from repro.kernel.context import SimContext
from repro.kernel.costs import ZERO_COST, ZERO_CPU
from repro.kernel.node import Node
from repro.nameserver.library import NameServerLibrary
from repro.nameserver.server import NameServer


def build(ctx):
    """Three nodes, each with a Communication Manager and a Name Server."""
    network = Network(ctx)
    nodes, servers = {}, {}
    for name in ("a", "b", "c"):
        nodes[name] = Node(ctx, name)
        CommunicationManager(nodes[name], network)
        servers[name] = NameServer(nodes[name], network)
    return ctx, network, nodes, servers


@pytest.fixture
def world():
    return build(SimContext(profile=ZERO_COST, cpu_costs=ZERO_CPU))[:3]


def run(ctx, gen):
    from repro.sim import Process
    return ctx.engine.run_until(Process(ctx.engine, gen))


def test_register_and_local_lookup(world):
    ctx, _, nodes = world
    library = NameServerLibrary(nodes["a"])
    port = nodes["a"].create_port("svc")

    def body():
        yield from library.register("printer", "io", port, object_id=5)
        refs = yield from library.lookup("printer")
        return refs

    refs = run(ctx, body())
    assert len(refs) == 1
    assert refs[0].port is port
    assert refs[0].object_id == 5
    assert refs[0].node_name == "a"


def test_lookup_unknown_name_fails_after_broadcast(world):
    ctx, _, nodes = world
    library = NameServerLibrary(nodes["a"])

    def body():
        yield from library.lookup("ghost", max_wait_ms=100.0)

    with pytest.raises(LookupFailed):
        run(ctx, body())


def test_broadcast_resolves_remote_name(world):
    ctx, _, nodes = world
    remote_library = NameServerLibrary(nodes["b"])
    port = nodes["b"].create_port("svc")
    run(ctx, remote_library.register("mailbox", "queue", port))

    local_library = NameServerLibrary(nodes["a"])
    ref = run(ctx, local_library.lookup_one("mailbox"))
    assert ref.node_name == "b"
    assert ref.port is port


def test_lookup_gathers_multiple_replicas(world):
    """Independent data servers can together implement replicated objects:
    one name maps to several <port, object id> pairs across nodes."""
    ctx, _, nodes = world
    for name in ("a", "b", "c"):
        library = NameServerLibrary(nodes[name])
        port = nodes[name].create_port("rep")
        run(ctx, library.register("replicated", "directory_rep", port))

    library = NameServerLibrary(nodes["a"])
    refs = run(ctx, library.lookup("replicated", desired=3,
                                   max_wait_ms=500.0))
    assert sorted(ref.node_name for ref in refs) == ["a", "b", "c"]


def test_node_filter(world):
    ctx, _, nodes = world
    for name in ("a", "b"):
        library = NameServerLibrary(nodes[name])
        run(ctx, library.register("dup", "t", nodes[name].create_port()))
    library = NameServerLibrary(nodes["a"])
    refs = run(ctx, library.lookup("dup", node_name="a"))
    assert [r.node_name for r in refs] == ["a"]


def test_node_filter_waits_for_the_named_node_to_answer(world):
    """Three holders; the one asked for answers last.  The other copies'
    answers must not complete the lookup -- filtered afterwards they
    would leave nothing and the lookup would fail."""
    ctx, network, nodes = world
    for name in ("a", "b", "c"):
        library = NameServerLibrary(nodes[name])
        run(ctx, library.register("shard", "t", nodes[name].create_port()))
    network.set_link_fault("c", "a", reorder=1.0, reorder_delay_ms=50.0,
                           both_ways=False)
    library = NameServerLibrary(nodes["a"])
    refs = run(ctx, library.lookup("shard", node_name="c",
                                   max_wait_ms=500.0))
    assert [ref.node_name for ref in refs] == ["c"]
    assert ctx.now >= 50.0


def test_deregister_withdraws_mapping(world):
    ctx, _, nodes = world
    library = NameServerLibrary(nodes["a"])
    port = nodes["a"].create_port("svc")
    run(ctx, library.register("temp", "t", port))
    run(ctx, library.deregister("temp", port))
    with pytest.raises(LookupFailed):
        run(ctx, library.lookup("temp", max_wait_ms=50.0))


def test_down_node_does_not_answer_broadcast(world):
    ctx, _, nodes = world
    remote_library = NameServerLibrary(nodes["b"])
    run(ctx, remote_library.register("svc-on-b", "t",
                                     nodes["b"].create_port()))
    nodes["b"].crash()
    library = NameServerLibrary(nodes["a"])
    with pytest.raises(LookupFailed):
        run(ctx, library.lookup("svc-on-b", max_wait_ms=100.0))


def test_reference_epoch_stamps_current_incarnation(world):
    ctx, _, nodes = world
    nodes["c"].crash()
    nodes["c"].restart()
    CommunicationManager(nodes["c"], world[1])
    NameServer(nodes["c"], world[1])
    library = NameServerLibrary(nodes["c"])
    run(ctx, library.register("svc", "t", nodes["c"].create_port()))
    ref = run(ctx, library.lookup_one("svc"))
    assert ref.epoch == 1


# -- bindings: lookup_one keeps what it resolved -------------------------------


@pytest.fixture
def costed():
    """The same three nodes at the paper's 1985 message times, with the
    Name Servers to hand, so a lookup that is really made shows on the
    clock and in the broadcast count."""
    return build(SimContext())


def rebuild(node, network):
    """What the facility does for a restarted node's system processes."""
    node.restart()
    CommunicationManager(node, network)
    return NameServer(node, network)


def counter(ctx, node, name):
    return ctx.metrics.counter(node, name).value


def test_second_lookup_one_is_answered_from_the_binding(costed):
    ctx, network, nodes, servers = costed
    port = nodes["b"].create_port("svc")
    run(ctx, NameServerLibrary(nodes["b"]).register("mailbox", "queue", port))
    datagrams = []
    network.add_trace_hook(lambda *event: datagrams.append(event))
    seen = {}

    def body():
        # A new library each time, as a per-transaction application makes:
        # the binding belongs to the node.
        started = ctx.now
        first = yield from NameServerLibrary(nodes["a"]).lookup_one("mailbox")
        seen["first_ms"] = ctx.now - started
        seen["now"] = ctx.now
        seen["sent"] = len(datagrams)
        seen["scheduled"] = ctx.engine.events_scheduled
        again = yield from NameServerLibrary(nodes["a"]).lookup_one("mailbox")
        seen["scheduled_after"] = ctx.engine.events_scheduled
        return first, again

    first, again = run(ctx, body())
    assert again is first and first.port is port
    assert seen["first_ms"] > 0 and seen["sent"] > 0
    assert ctx.now == seen["now"]                  # no simulated time
    assert len(datagrams) == seen["sent"]          # nothing on the wire
    assert seen["scheduled_after"] == seen["scheduled"]   # nor locally
    assert servers["a"].broadcasts == 1
    assert counter(ctx, "a", "ns.lookups") == 1
    assert counter(ctx, "a", "ns.bind_hits") == 1
    assert counter(ctx, "a", "ns.broadcasts") == 1


def test_lookup_asks_every_time(costed):
    ctx, _, nodes, servers = costed
    run(ctx, NameServerLibrary(nodes["b"]).register(
        "mailbox", "queue", nodes["b"].create_port()))
    library = NameServerLibrary(nodes["a"])
    run(ctx, library.lookup_one("mailbox"))
    before = ctx.now
    run(ctx, library.lookup("mailbox"))
    run(ctx, library.lookup("mailbox"))
    assert ctx.now > before
    assert servers["a"].broadcasts == 3
    assert counter(ctx, "a", "ns.lookups") == 3
    assert counter(ctx, "a", "ns.bind_hits") == 0


def test_binding_dropped_when_the_port_is_destroyed(costed):
    ctx, _, nodes, servers = costed
    remote = NameServerLibrary(nodes["b"])
    old_port = nodes["b"].create_port("svc")
    run(ctx, remote.register("mailbox", "queue", old_port))
    library = NameServerLibrary(nodes["a"])
    run(ctx, library.lookup_one("mailbox"))
    old_port.destroy()   # the server process failed; a new one registers
    new_port = nodes["b"].create_port("svc")
    run(ctx, remote.register("mailbox", "queue", new_port))
    assert run(ctx, library.lookup_one("mailbox")).port is new_port
    assert servers["a"].broadcasts == 2
    assert run(ctx, library.lookup_one("mailbox")).port is new_port
    assert servers["a"].broadcasts == 2


def test_binding_dropped_when_the_serving_node_restarts(costed):
    ctx, network, nodes, servers = costed
    run(ctx, NameServerLibrary(nodes["b"]).register(
        "mailbox", "queue", nodes["b"].create_port()))
    library = NameServerLibrary(nodes["a"])
    stale = run(ctx, library.lookup_one("mailbox"))
    nodes["b"].crash()
    with pytest.raises(LookupFailed):   # dead port: miss, broadcast, nobody
        run(ctx, library.lookup_one("mailbox", max_wait_ms=100.0))
    rebuild(nodes["b"], network)
    run(ctx, NameServerLibrary(nodes["b"]).register(
        "mailbox", "queue", nodes["b"].create_port()))
    fresh = run(ctx, library.lookup_one("mailbox"))
    assert (stale.epoch, fresh.epoch) == (0, 1)
    assert fresh.port.alive and not stale.port.alive
    assert servers["a"].broadcasts == 3
    assert run(ctx, library.lookup_one("mailbox")) is fresh
    assert servers["a"].broadcasts == 3


def test_bindings_are_volatile(costed):
    ctx, network, nodes, _ = costed
    run(ctx, NameServerLibrary(nodes["b"]).register(
        "mailbox", "queue", nodes["b"].create_port()))
    first = run(ctx, NameServerLibrary(nodes["a"]).lookup_one("mailbox"))
    assert nodes["a"].bindings == {("mailbox", ""): first}
    nodes["a"].crash()
    assert nodes["a"].bindings == {}
    server = rebuild(nodes["a"], network)
    again = run(ctx, NameServerLibrary(nodes["a"]).lookup_one("mailbox"))
    assert again == first
    assert server.broadcasts == 1   # the new incarnation had to ask b


def test_deregister_drops_the_local_binding(costed):
    ctx, _, nodes, _ = costed
    library = NameServerLibrary(nodes["a"])
    port = nodes["a"].create_port("svc")
    run(ctx, library.register("temp", "t", port))
    run(ctx, library.register("kept", "t", port))
    run(ctx, library.lookup_one("temp"))
    run(ctx, library.lookup_one("temp", node_name="a"))
    run(ctx, library.lookup_one("kept"))
    run(ctx, library.deregister("temp", port))
    assert list(nodes["a"].bindings) == [("kept", "")]
    with pytest.raises(LookupFailed):   # the port is still alive
        run(ctx, library.lookup_one("temp", max_wait_ms=50.0))


def test_node_filters_bind_separately(costed):
    ctx, _, nodes, servers = costed
    for name in ("a", "b"):
        run(ctx, NameServerLibrary(nodes[name]).register(
            "dup", "t", nodes[name].create_port()))
    library = NameServerLibrary(nodes["c"])
    on_a = run(ctx, library.lookup_one("dup", node_name="a"))
    on_b = run(ctx, library.lookup_one("dup", node_name="b"))
    assert (on_a.node_name, on_b.node_name) == ("a", "b")
    assert servers["c"].broadcasts == 2
    assert run(ctx, library.lookup_one("dup", node_name="a")) is on_a
    assert run(ctx, library.lookup_one("dup", node_name="b")) is on_b
    assert servers["c"].broadcasts == 2


def test_failed_lookup_binds_nothing(costed):
    ctx, _, nodes, servers = costed
    library = NameServerLibrary(nodes["a"])
    for _ in range(2):
        with pytest.raises(LookupFailed):
            run(ctx, library.lookup_one("ghost", max_wait_ms=100.0))
    assert nodes["a"].bindings == {}
    assert servers["a"].broadcasts == 2   # the second one asked again
