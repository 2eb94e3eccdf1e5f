"""SessionTable semantics: epoch pinning, permanent breaks, on-demand
re-establishment, and per-network session numbering."""

import pytest

from repro.comm.manager import CommunicationManager
from repro.comm.network import Network
from repro.comm.sessions import Session, SessionTable
from repro.errors import SessionBroken
from repro.kernel.context import SimContext
from repro.kernel.costs import ZERO_COST, ZERO_CPU
from repro.kernel.node import Node


@pytest.fixture
def ctx():
    return SimContext(profile=ZERO_COST, cpu_costs=ZERO_CPU)


def make_world(ctx, names=("a", "b", "c")):
    network = Network(ctx)
    nodes = {}
    for name in names:
        node = Node(ctx, name)
        CommunicationManager(node, network)
        nodes[name] = node
    return network, nodes


class TestEpochPinning:
    def test_session_pins_the_remote_epoch(self, ctx):
        network, _ = make_world(ctx)
        session = Session(network, "a", "b")
        assert session.remote_epoch == 0

    def test_restart_breaks_the_session_permanently(self, ctx):
        """A restarted peer lost its at-most-once state: the old session is
        dead forever, even though the node is reachable again."""
        network, nodes = make_world(ctx)
        table = SessionTable(network, "a")
        session = table.session_to("b")
        nodes["b"].crash()
        nodes["b"].restart()
        assert not session.usable
        with pytest.raises(SessionBroken):
            session.check()
        assert session.broken
        # ... and stays broken even after further epochs settle
        with pytest.raises(SessionBroken):
            session.next_sequence()


class TestReestablishment:
    def test_table_replaces_a_dead_session_on_demand(self, ctx):
        network, nodes = make_world(ctx)
        table = SessionTable(network, "a")
        first = table.session_to("b")
        nodes["b"].crash()
        nodes["b"].restart()
        second = table.session_to("b")
        assert second is not first
        assert second.usable
        assert second.remote_epoch == 1
        assert second.session_id != first.session_id

    def test_table_reestablishes_after_partition_heals(self, ctx):
        network, _ = make_world(ctx)
        table = SessionTable(network, "a")
        first = table.session_to("b")
        network.partition([["a"], ["b", "c"]])
        with pytest.raises(SessionBroken):
            first.check()
        network.heal()
        second = table.session_to("b")
        assert second is not first and second.usable

    def test_break_to_is_proactive(self, ctx):
        """The failure detector breaks sessions the moment it declares a
        peer dead, instead of waiting for the next use to discover it."""
        network, _ = make_world(ctx)
        table = SessionTable(network, "a")
        first = table.session_to("b")
        table.break_to("b")
        assert first.broken
        assert table.session_to("b") is not first

    def test_break_to_unknown_peer_is_a_no_op(self, ctx):
        network, _ = make_world(ctx)
        SessionTable(network, "a").break_to("b")  # nothing cached: fine


class TestActivePeers:
    def test_active_peers_track_crash_and_heal(self, ctx):
        network, nodes = make_world(ctx)
        table = SessionTable(network, "a")
        to_b, to_c = table.session_to("b"), table.session_to("c")
        assert to_b.usable and to_c.usable
        nodes["b"].crash()
        assert not to_b.usable and to_c.usable
        nodes["b"].restart()
        # the old session does not resurrect ...
        assert not to_b.usable
        # ... but asking again re-establishes
        assert table.session_to("b").usable


class TestSessionNumbering:
    def test_ids_advance_within_one_network(self, ctx):
        network, _ = make_world(ctx)
        first = Session(network, "a", "b")
        second = Session(network, "a", "c")
        assert second.session_id == first.session_id + 1

    def test_ids_are_per_network_not_per_process(self, ctx):
        """Regression: session ids used to come from a module-global
        counter, so a second cluster in the same process numbered its
        sessions differently -- breaking cross-run determinism."""
        network_one, _ = make_world(ctx)
        first = Session(network_one, "a", "b")
        network_two, _ = make_world(ctx)
        again = Session(network_two, "a", "b")
        assert again.session_id == first.session_id == 1
