"""The steady fabric against the explicit protocol (docs/SIMULATOR.md
"A healthy fabric sends no heartbeats").

:class:`ExplicitHeartbeats` is the reference: every probe is its own
daemon entry and the fabric never goes steady, so every tick probes.
Random clusters of two to five nodes live through crashes (a restart at
the same instant or a few milliseconds later, near tick instants),
partitions and heals on tick instants, joins and retirements -- some
armed long before they happen, some moments before, some by a process
whose wake-up runs inline -- under both cost profiles.  Every detector
notification and every call a detector makes on its Communication
Manager must come at the same instant in the same order, a drain that
gives up must leave the clock at the same instant, and every live
detector must end with the same beliefs.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.comm.failures import FailureDetector, Heartbeats
from repro.comm.manager import CommunicationManager
from repro.comm.network import Network
from repro.kernel.context import SimContext
from repro.kernel.costs import MEASURED_1985, ZERO_COST, ZERO_CPU
from repro.kernel.node import Node
from repro.sim import Process, Timeout

INTERVAL = 250.0
RUN_MS = 6_000.0
CM_CALLS = ("peer_failed", "peer_restarted", "peer_recovered")


class ExplicitHeartbeats(Heartbeats):
    """The explicit protocol: one queue entry per probe, never steady."""

    def send(self, kind, source, epoch, target, latency_ms):
        network = self.network
        if network.separated(source, target):
            return
        probe = (kind, source, epoch, target, network.incarnation(target))
        self.engine.schedule(latency_ms, self.arrive, daemon=True,
                             args=([probe],))

    def try_steady(self):
        pass


class World:
    """Bare nodes, each with a Communication Manager and a detector."""

    def __init__(self, profile, size: int, explicit: bool) -> None:
        self.ctx = SimContext(profile=profile, cpu_costs=ZERO_CPU)
        self.engine = self.ctx.engine
        self.network = Network(self.ctx)
        if explicit:
            self.network.heartbeats = ExplicitHeartbeats(self.network)
        #: (time, node, event or CM call, peer), in the order they happen
        self.log: list[tuple] = []
        self.nodes: dict[str, Node] = {}
        self.retired: set[str] = set()
        self.joins = 0
        for index in range(size):
            self.join(f"n{index}")

    def boot(self, node: Node) -> None:
        """A fresh Communication Manager and detector, as a rebuild makes."""
        manager = CommunicationManager(node, self.network)
        for call in CM_CALLS:
            self._record_calls(manager, call)
        manager.failure_detector = FailureDetector(
            manager, probe_interval_ms=INTERVAL,
            observers=[lambda time, local, event, peer:
                       self.log.append((time, local, event, peer))])

    def _record_calls(self, manager, call: str) -> None:
        original = getattr(manager, call)

        def recorded(peer):
            self.log.append((self.ctx.now, manager.node.name, call, peer))
            original(peer)

        setattr(manager, call, recorded)

    def join(self, name: str) -> None:
        node = self.nodes[name] = Node(self.ctx, name)
        self.boot(node)

    # -- faults: each does nothing unless it makes sense right now --------

    def up(self) -> list[str]:
        return [name for name, node in self.nodes.items()
                if node.alive and name not in self.retired]

    def crash(self, index: int, restart_after: float | None,
              rebuild_later: bool) -> None:
        down = self.up()
        if not down:
            return
        node = self.nodes[down[index % len(down)]]
        node.crash()
        if restart_after is not None:
            self.engine.schedule(restart_after, self.restart,
                                 args=(node, rebuild_later))

    def restart(self, node: Node, rebuild_later: bool) -> None:
        if node.name in self.retired or node.alive:
            return
        node.restart()
        if rebuild_later:  # the old manager stays registered meanwhile
            self.engine.schedule(0.0, self.rebuild, args=(node, node.epoch))
        else:
            self.boot(node)

    def rebuild(self, node: Node, epoch: int) -> None:
        if node.alive and node.epoch == epoch:
            self.boot(node)

    def partition(self, cut: int) -> None:
        names = [name for name in self.nodes if name not in self.retired]
        left = [name for position, name in enumerate(names)
                if cut >> position & 1]
        right = [name for name in names if name not in left]
        self.network.partition([left, right])

    def heal(self) -> None:
        self.network.heal()

    def join_one(self) -> None:
        self.joins += 1
        self.join(f"j{self.joins}")

    def retire(self, index: int) -> None:
        names = [name for name in self.nodes if name not in self.retired]
        if len(names) <= 2:
            return
        name = names[index % len(names)]
        self.nodes[name].crash()
        self.retired.add(name)
        self.network.deregister(name)

    # -- arming -----------------------------------------------------------

    def arm(self, at: float, lead: float | None, action, args) -> None:
        """Run ``action(*args)`` at ``at``: queued at the start (lead
        None), queued ``lead`` ms before it, or (lead < 0) by a process
        that sleeps until then."""
        engine = self.engine
        if lead is None:
            engine.schedule(at, action, args=args)
        elif lead < 0:
            def sleeper():
                yield Timeout(engine, at)
                action(*args)
            Process(engine, sleeper())
        else:
            lead = min(lead, at)
            engine.schedule(at - lead, lambda: engine.schedule(
                lead, action, args=args))

    def beliefs(self) -> dict:
        self.network.heartbeats.break_steady()  # brings last_heard up
        beliefs = {}
        for name in self.up():
            detector = self.network.manager(name).failure_detector
            beliefs[name] = {
                peer: (health.last_heard, health.epoch, health.suspected)
                for peer, health in detector.peers.items()}
        return beliefs


#: instants near tick instants (the first ticks are at 250 ms), on a grid
#: the floats hit exactly
NEAR_TICK = st.builds(lambda tick, offset: tick * INTERVAL + offset * 6.25,
                      st.integers(1, int(RUN_MS / INTERVAL) - 2),
                      st.integers(-4, 4))
ON_TICK = st.builds(lambda tick: tick * INTERVAL,
                    st.integers(1, int(RUN_MS / INTERVAL) - 2))
LEAD = st.sampled_from([None, -1.0, 0.0, 6.25, 12.5, 250.0, 600.0])
FAULT = st.one_of(
    st.tuples(st.just("crash"), NEAR_TICK, LEAD, st.integers(0, 7),
              st.sampled_from([None, 0.0, 6.25, 12.5, 25.0, 250.0, 900.0]),
              st.booleans()),
    st.tuples(st.just("partition"), ON_TICK, LEAD, st.integers(1, 30),
              st.sampled_from([250.0, 500.0, 1250.0, 1500.0, 1750.0])),
    st.tuples(st.just("join"), NEAR_TICK, LEAD),
    st.tuples(st.just("retire"), NEAR_TICK, LEAD, st.integers(0, 7)),
)


def play(profile, size, faults, explicit):
    world = World(profile, size, explicit)
    for fault in faults:
        kind, at, lead = fault[:3]
        if kind == "crash":
            world.arm(at, lead, world.crash, fault[3:])
        elif kind == "partition":
            world.arm(at, lead, world.partition, (fault[3],))
            world.arm(at + fault[4], lead, world.heal, ())
        elif kind == "join":
            world.arm(at, lead, world.join_one, ())
        else:
            world.arm(at, lead, world.retire, (fault[3],))
    # Real work pending past the deadline: the drain gives up there, with
    # the clock at the last entry due by then.
    world.engine.schedule(RUN_MS + 1_000.0, lambda: None)
    assert not world.engine.drain(RUN_MS + 20.0)
    return world


@settings(max_examples=60, deadline=None)
@given(profile=st.sampled_from([MEASURED_1985, ZERO_COST]),
       size=st.integers(2, 5),
       faults=st.lists(FAULT, max_size=6))
# A crash ends a steady fabric with a ping run still in flight, and a
# second crash armed after that ping left lands at the same instant as it
# (the run must keep its reserved key, ahead of the second crash).
@example(profile=MEASURED_1985, size=3,
         faults=[("crash", 1012.5, None, 0, None, False),
                 ("crash", 1012.5, 6.25, 1, None, False)])
# A crash just after a tick: its pings must be lost, not folded.
@example(profile=MEASURED_1985, size=2,
         faults=[("crash", 1006.25, None, 1, None, False)])
# A partition at a tick instant ends a steady fabric; it lasts exactly
# the suspicion timeout.
@example(profile=MEASURED_1985, size=2,
         faults=[("partition", 1000.0, None, 1, 1500.0)])
# After the heal a joined node's tick comes first at the tick instant:
# the fabric must not go steady while another detector's view is stale.
@example(profile=MEASURED_1985, size=2,
         faults=[("join", 500.0, None), ("partition", 250.0, None, 1, 1750.0)])
def test_the_steady_fabric_keeps_the_explicit_protocol(profile, size,
                                                        faults):
    steady = play(profile, size, faults, explicit=False)
    explicit = play(profile, size, faults, explicit=True)
    assert steady.log == explicit.log
    assert steady.engine.now == explicit.engine.now
    assert steady.beliefs() == explicit.beliefs()


def test_a_healthy_fabric_goes_steady_and_stays_exact():
    """The property above is not vacuous: a quiet cluster is steady, and
    its drain stops where the explicit run's last probe landed."""
    world = play(MEASURED_1985, 4, [], explicit=False)
    assert world.network.heartbeats.steady
    explicit = play(MEASURED_1985, 4, [], explicit=True)
    assert world.log == explicit.log == []
    assert world.engine.now == explicit.engine.now == RUN_MS + 12.5
    assert world.beliefs() == explicit.beliefs()
