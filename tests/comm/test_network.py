"""Tests for the network fabric, sessions, and Communication Manager."""

import pytest

from repro.comm.manager import CommunicationManager
from repro.comm.network import Network
from repro.comm.sessions import Session, SessionTable
from repro.errors import CommunicationError, SessionBroken, TransactionAborted
from repro.kernel.context import SimContext
from repro.kernel.costs import ZERO_COST, Primitive, ZERO_CPU
from repro.kernel.messages import Message
from repro.kernel.node import Node
from repro.kernel.service import request
from repro.txn.ids import TransactionID


@pytest.fixture
def ctx():
    return SimContext(profile=ZERO_COST, cpu_costs=ZERO_CPU)


def make_pair(ctx, loss=0.0):
    network = Network(ctx, datagram_loss_rate=loss)
    nodes, managers = {}, {}
    for name in ("a", "b"):
        node = Node(ctx, name)
        manager = CommunicationManager(node, network)
        nodes[name], managers[name] = node, manager
    return network, nodes, managers


def spanning_info(manager, tid):
    """What ``manager`` answers the Transaction Manager's
    ``cm.spanning_info`` query for ``tid``: ``{"parent", "children"}``."""
    node = manager.node
    return node.ctx.engine.run_until(node.spawn(request(
        node, manager.port, "cm.spanning_info", {"tid": tid},
        reply="spanning-info")))


class TestNetwork:
    def test_registry(self, ctx):
        network, nodes, managers = make_pair(ctx)
        assert network.node("a") is nodes["a"]
        assert network.manager("b") is managers["b"]
        assert sorted(network.node_names()) == ["a", "b"]
        with pytest.raises(CommunicationError):
            network.node("ghost")

    def test_liveness_tracks_crash(self, ctx):
        network, nodes, _ = make_pair(ctx)
        assert network.is_up("a")
        nodes["a"].crash()
        assert not network.is_up("a")

    def test_bad_loss_rate_rejected(self, ctx):
        with pytest.raises(CommunicationError):
            Network(ctx, datagram_loss_rate=1.5)

    def test_datagram_to_down_node_counts_undeliverable_not_lost(self, ctx):
        """A datagram that reaches a crashed node is *undeliverable*: the
        wire worked, the endpoint did not.  It must not pollute the
        injected-loss statistics."""
        network, nodes, _ = make_pair(ctx)
        nodes["b"].crash()
        network.deliver_datagram("b", Message(op="x"), latency_ms=1.0)
        ctx.engine.run()
        assert network.datagrams_undeliverable == 1
        assert network.datagrams_lost == 0

    def test_crash_in_flight_counts_undeliverable(self, ctx):
        """The target goes down while the datagram is on the wire."""
        network, nodes, _ = make_pair(ctx)
        network.deliver_datagram("b", Message(op="x"), latency_ms=5.0)
        ctx.engine.schedule(1.0, nodes["b"].crash)
        ctx.engine.run()
        assert network.datagrams_undeliverable == 1
        assert network.datagrams_lost == 0

    def test_datagram_loss_injection(self, ctx):
        network, _, managers = make_pair(ctx)
        network.datagram_loss_rate = 1.0  # always lose
        network.datagram_loss_rate = 0.999999
        for _ in range(20):
            network.deliver_datagram("b", Message(op="x"), latency_ms=0.0)
        ctx.engine.run()
        assert network.datagrams_lost == 20
        assert network.datagrams_undeliverable == 0


class TestPartitions:
    def make_triple(self, ctx):
        network = Network(ctx)
        nodes, managers = {}, {}
        for name in ("a", "b", "c"):
            node = Node(ctx, name)
            managers[name] = CommunicationManager(node, network)
            nodes[name] = node
        return network, nodes, managers

    def test_partition_blocks_cross_group_datagrams(self, ctx):
        network, _, _ = self.make_triple(ctx)
        network.partition([["a"], ["b", "c"]])
        network.deliver_datagram("b", Message(op="x", sender_node="a"), 1.0)
        network.deliver_datagram("c", Message(op="x", sender_node="b"), 1.0)
        ctx.engine.run()
        assert network.datagrams_blocked == 1  # a->b blocked, b->c fine

    def test_unlisted_nodes_get_singleton_groups(self, ctx):
        network, _, _ = self.make_triple(ctx)
        network.partition([["a", "b"]])  # c isolated implicitly
        assert network.reachable("a", "b")
        assert not network.reachable("a", "c")
        assert not network.reachable("c", "b")

    def test_heal_restores_reachability(self, ctx):
        network, _, _ = self.make_triple(ctx)
        network.partition([["a"], ["b"]])
        assert not network.reachable("a", "b")
        network.heal()
        assert network.reachable("a", "b")
        network.deliver_datagram("b", Message(op="x", sender_node="a"), 1.0)
        ctx.engine.run()
        assert network.datagrams_blocked == 0

    def test_node_in_two_groups_rejected(self, ctx):
        network, _, _ = self.make_triple(ctx)
        with pytest.raises(CommunicationError):
            network.partition([["a", "b"], ["b", "c"]])

    def test_session_breaks_across_partition(self, ctx):
        network, _, _ = self.make_triple(ctx)
        session = Session(network, "a", "b")
        network.partition([["a"], ["b"]])
        with pytest.raises(SessionBroken):
            session.check()
        # The break is permanent: at-most-once state cannot be trusted.
        network.heal()
        assert session.broken


class TestLinkFaults:
    def test_link_loss_window(self, ctx):
        network, _, _ = make_pair(ctx)
        network.set_link_fault("a", "b", loss=1.0, until=10.0)
        for _ in range(5):
            network.deliver_datagram("b", Message(op="x", sender_node="a"),
                                     1.0)
        ctx.engine.run()
        assert network.datagrams_lost == 5
        # Window over: the fault expires lazily at the next send.
        ctx.engine.schedule(20.0, lambda: None)
        ctx.engine.run()
        network.deliver_datagram("b", Message(op="x", sender_node="a"), 1.0)
        ctx.engine.run()
        assert network.datagrams_lost == 5

    def test_link_duplication_delivers_twice(self, ctx):
        network, nodes, _ = make_pair(ctx)
        target_port = nodes["b"].create_port("svc")
        nodes["b"].register_service("transaction_manager", target_port)
        network.set_link_fault("a", "b", duplicate=1.0)
        network.deliver_datagram(
            "b", Message(op="tm.x", body={}, sender_node="a"), 1.0)
        ctx.engine.run()
        assert network.datagrams_duplicated == 1
        assert len(target_port._queue) + target_port.dropped >= 0  # delivered
        # Both copies were handed to the manager (spawned inbound procs).
        assert network.datagrams_sent == 1

    def test_link_reordering_delays_datagram(self, ctx):
        """A reordered datagram arrives after one sent later."""
        network, nodes, _ = make_pair(ctx)
        arrivals = []
        network.add_trace_hook(
            lambda t, ev, src, dst, op: arrivals.append((t, ev, op))
            if ev == "recv" else None)
        network.set_link_fault("a", "b", reorder=1.0, reorder_delay_ms=40.0)
        network.deliver_datagram("b", Message(op="first", sender_node="a"),
                                 1.0)
        network.clear_link_fault("a", "b")
        network.deliver_datagram("b", Message(op="second", sender_node="a"),
                                 1.0)
        ctx.engine.run()
        assert network.datagrams_reordered == 1
        assert [op for _, _, op in arrivals] == ["second", "first"]

    def test_bad_link_rate_rejected(self, ctx):
        network, _, _ = make_pair(ctx)
        with pytest.raises(CommunicationError):
            network.set_link_fault("a", "b", loss=1.5)


class TestSessions:
    def test_session_to_down_node_fails(self, ctx):
        network, nodes, _ = make_pair(ctx)
        nodes["b"].crash()
        with pytest.raises(SessionBroken):
            Session(network, "a", "b")

    def test_session_breaks_on_peer_crash(self, ctx):
        network, nodes, _ = make_pair(ctx)
        session = Session(network, "a", "b")
        assert session.usable
        nodes["b"].crash()
        with pytest.raises(SessionBroken):
            session.check()
        assert session.broken

    def test_session_stays_broken_after_peer_restart(self, ctx):
        """At-most-once needs the peer's session state, which a restart
        destroyed: the old session is permanently dead."""
        network, nodes, _ = make_pair(ctx)
        session = Session(network, "a", "b")
        nodes["b"].crash()
        nodes["b"].restart()
        assert network.is_up("b")
        with pytest.raises(SessionBroken):
            session.check()

    def test_session_table_reestablishes(self, ctx):
        network, nodes, _ = make_pair(ctx)
        table = SessionTable(network, "a")
        first = table.session_to("b")
        nodes["b"].crash()
        nodes["b"].restart()
        second = table.session_to("b")
        assert second is not first
        assert second.usable

    def test_sequence_numbers_advance(self, ctx):
        network, _, _ = make_pair(ctx)
        session = Session(network, "a", "b")
        assert session.next_sequence() == 1
        assert session.next_sequence() == 2


class TestSpanningTree:
    def tid(self, node="a"):
        return TransactionID(node, 1)

    def test_outbound_recording(self, ctx):
        _, _, managers = make_pair(ctx)
        tid = self.tid()
        managers["a"].record_outbound(tid, "b")
        assert spanning_info(managers["a"], tid) == {"parent": "",
                                                     "children": ["b"]}

    def test_inbound_sets_parent_once(self, ctx):
        _, _, managers = make_pair(ctx)
        tid = self.tid("a")
        managers["b"].record_inbound(tid, "a")
        managers["b"].record_inbound(tid, "a")
        assert spanning_info(managers["b"], tid)["parent"] == "a"

    def test_birth_node_never_gets_a_parent(self, ctx):
        """A callback to the transaction's birth node must not make the
        caller its parent (the birth node is the root)."""
        _, _, managers = make_pair(ctx)
        tid = self.tid("a")
        managers["a"].record_outbound(tid, "b")
        managers["a"].record_inbound(tid, "b")  # b calls back into a
        assert spanning_info(managers["a"], tid)["parent"] == ""

    def test_subtransactions_share_the_family_tree(self, ctx):
        _, _, managers = make_pair(ctx)
        parent = self.tid("a")
        child = parent.child(1)
        managers["a"].record_outbound(parent, "b")
        managers["a"].record_outbound(child, "b")
        assert spanning_info(managers["a"], parent)["children"] == ["b"]

    def test_child_epoch_recorded_for_crash_detection(self, ctx):
        """The child's epoch is kept when the family first reaches it, so
        later calls to the same incarnation pass."""
        network, nodes, managers = make_pair(ctx)
        tid = self.tid()
        managers["a"].record_outbound(tid, "b")
        managers["a"].record_outbound(tid.child(1), "b")
        assert spanning_info(managers["a"], tid)["children"] == ["b"]

    def test_a_family_reaches_a_child_in_one_incarnation(self, ctx):
        """Section 3.2.4's crash detection: the family's work at "b" died
        with the incarnation it first reached, so no call of it goes to
        the next one; another family may."""
        network, nodes, managers = make_pair(ctx)
        tid = self.tid()
        managers["a"].record_outbound(tid, "b")
        nodes["b"].crash()
        nodes["b"].restart()
        with pytest.raises(TransactionAborted, match="b restarted"):
            managers["a"].record_outbound(tid.child(1), "b")
        assert spanning_info(managers["a"], tid)["children"] == ["b"]
        managers["a"].record_outbound(TransactionID("a", 2), "b")

    def test_no_call_leaves_for_a_family_marked_aborted_here(self, ctx):
        """The mark covers the marked transaction and its descendants,
        not its parent or siblings."""
        _, nodes, managers = make_pair(ctx)
        parent = self.tid()
        nodes["a"].aborted[parent.child(1)] = "aborted"
        for tid in (parent.child(1), parent.child(1).child(2)):
            with pytest.raises(TransactionAborted, match="aborted on a"):
                managers["a"].record_outbound(tid, "b")
        assert spanning_info(managers["a"], parent)["children"] == []
        managers["a"].record_outbound(parent, "b")
        managers["a"].record_outbound(parent.child(2), "b")

    def test_datagram_roundtrip_via_managers(self, ctx):
        """cm.send_datagram delivers to the remote node's named service."""
        network, nodes, managers = make_pair(ctx)
        target_port = nodes["b"].create_port("svc")
        nodes["b"].register_service("transaction_manager", target_port)
        payload = Message(op="tm.hello", body={"x": 1})
        managers["a"].port.send(Message(
            op="cm.send_datagram", body={"target": "b",
                                         "payload": payload}))
        message = ctx.engine.run_until(target_port.receive())
        assert message.op == "tm.hello"
        assert message.sender_node == "a"
        assert ctx.meter.count(Primitive.DATAGRAM) == 1
