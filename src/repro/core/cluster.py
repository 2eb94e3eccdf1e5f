"""A cluster of TABS nodes over one simulated network.

The cluster owns the :class:`~repro.kernel.context.SimContext` (engine +
cost model + instrumentation) and provides the synchronous driving surface
used by tests, examples, and benchmarks: build nodes, add servers, start
everything, then run application generators to completion.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.app.library import ApplicationLibrary
from repro.comm.network import Network
from repro.core.config import TabsConfig
from repro.core.facility import TabsNode
from repro.errors import TabsError
from repro.kernel.context import SimContext
from repro.sim import Engine, Process


def bring_up_server(server):
    """Bring one freshly added data server of a live node up (generator):
    map + recover its (empty) segment, register its name, serve."""
    yield from server.setup()
    yield from server.on_recovered()
    server.start()


class TabsCluster:
    """Builds and drives a set of TABS nodes."""

    def __init__(self, config: TabsConfig | None = None) -> None:
        self.config = config or TabsConfig()
        self.ctx = SimContext(engine=Engine(),
                              profile=self.config.profile,
                              cpu_costs=self.config.cpu_costs,
                              seed=self.config.seed)
        self.ctx.merged_architecture = self.config.merged_architecture
        self.network = Network(self.ctx,
                               datagram_loss_rate=self.config
                               .datagram_loss_rate)
        self.nodes: dict[str, TabsNode] = {}
        #: key-space sharding, set by the workload builder when
        #: ``config.replication.enabled`` (see :meth:`set_placement`)
        self.placement = None
        #: placement epoch of the current map; bumped by online
        #: reconfiguration (see :mod:`repro.reconfig`), 0 forever when off
        self.placement_epoch = 0
        #: the cluster's :class:`~repro.reconfig.manager.ReconfigManager`,
        #: registered by its constructor; None when reconfiguration is off
        self.reconfig = None
        #: called as hook(tabs_node) whenever a node is added -- lets the
        #: chaos controller and workload wire their observers onto nodes
        #: that join *after* they were constructed
        self.node_join_hooks: list[Callable] = []
        self._started = False

    @property
    def engine(self):
        return self.ctx.engine

    @property
    def meter(self):
        return self.ctx.meter

    @property
    def metrics(self):
        return self.ctx.metrics

    def enable_tracing(self):
        """Attach a :class:`~repro.obs.Tracer` to the cluster.

        Idempotent; returns the tracer.  Tracing is passive -- it charges
        no primitives, schedules no events, and draws no randomness -- so
        an instrumented run replays the untraced event sequence exactly.
        """
        if self.ctx.tracer is None:
            from repro.obs import Tracer

            tracer = Tracer(self.ctx.engine)
            self.ctx.tracer = tracer
            self.network.add_trace_hook(tracer.network_event)
            for tabs_node in self.nodes.values():
                tabs_node.fd_observers.append(tracer.detector_event)
            self.node_join_hooks.append(
                lambda tabs_node:
                tabs_node.fd_observers.append(tracer.detector_event))
        return self.ctx.tracer

    def enable_profiling(self):
        """Attach a :class:`~repro.obs.SimProfiler` to the cluster.

        Idempotent; returns the profiler.  The profiler reads the wall
        clock but never feeds a reading back into simulated state --
        no primitive charges, no scheduled events, no RNG draws -- so a
        profiled run replays the unprofiled event sequence byte for byte.
        """
        if self.ctx.profiler is None:
            from repro.obs import SimProfiler

            profiler = SimProfiler(self.ctx)
            profiler.network = self.network
            self.ctx.profiler = profiler
            self.ctx.engine.profiler = profiler
        return self.ctx.profiler

    # -- topology ------------------------------------------------------------------

    def add_node(self, name: str) -> TabsNode:
        """Create a node.  Before :meth:`start` this is pure construction;
        on a *running* cluster it is a live join -- the node boots, its
        servers recover (there are none yet), peers' failure detectors
        discover it, and it becomes eligible for shard placement."""
        if name in self.nodes:
            raise TabsError(f"node {name!r} already exists")
        tabs_node = TabsNode(self.ctx, self.network, name, self.config)
        self.nodes[name] = tabs_node
        if self.placement is not None and tabs_node.replication is not None:
            tabs_node.replication.placement = self.placement
            tabs_node.replication.epoch = self.placement_epoch
        for hook in self.node_join_hooks:
            hook(tabs_node)
        if self._started:
            # Spawned, not run to completion: a live join may be issued
            # from inside the running simulation (a scheduled
            # reconfiguration step), where re-entering the engine is
            # illegal.  Driver-context callers settle() afterwards.
            tabs_node.node.spawn(tabs_node.setup_generator(),
                                 name="join:setup", defused=True)
        return tabs_node

    def set_placement(self, placement) -> None:
        """Install the key-space :class:`~repro.replication.placement
        .PlacementMap` on the cluster and every node's replication
        runtime (workload builders call this before ``start``)."""
        self.placement = placement
        for tabs_node in self.nodes.values():
            if tabs_node.replication is not None:
                tabs_node.replication.placement = placement

    def node(self, name: str) -> TabsNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise TabsError(f"no node named {name!r}") from None

    def add_server(self, node_name: str, factory: Callable) -> None:
        self.node(node_name).add_server(factory)

    def add_server_live(self, node_name: str, factory: Callable):
        """Add a data server to a node of a *running* cluster and bring it
        up (map, recover its fresh segment, register, serve).  Returns
        the live server.  Used by shard migration to materialize the
        destination copy's server before the catch-up style copy."""
        if not self._started:
            raise TabsError("add_server_live needs a started cluster "
                            "(use add_server before start())")
        tabs_node = self.node(node_name)
        before = set(tabs_node.servers)
        tabs_node.add_server(factory)
        (name,) = set(tabs_node.servers) - before
        server = tabs_node.servers[name]
        self.run_on(node_name, bring_up_server(server))
        return server

    def build_workload(self):
        """Build the nodes and servers of ``config.workload``.

        Lays the DebitCredit schema (scaled by
        :class:`~repro.core.config.WorkloadConfig`) over this cluster --
        one node per branch, each hosting its branch/teller/account/
        history servers -- starts every node, and returns the topology
        object the load generators and audits navigate by.
        """
        from repro.workloads.debitcredit import build_debitcredit

        return build_debitcredit(self)

    def start(self) -> None:
        """Bring every node's servers up (runs the simulation)."""
        for tabs_node in self.nodes.values():
            self.run_on(tabs_node.name, tabs_node.setup_generator())
        self._started = True

    # -- failure control -----------------------------------------------------------------

    def crash_node(self, name: str) -> None:
        self.node(name).crash()

    def partition(self, *groups) -> None:
        """Split the network into the given node groups (see
        :meth:`repro.comm.network.Network.partition`)."""
        self.network.partition(groups)

    def heal_partition(self) -> None:
        self.network.heal()

    def restart_node(self, name: str):
        """Restart a crashed node and run its crash recovery.

        Returns the :class:`~repro.recovery.driver.RecoveryReport`.
        """
        tabs_node = self.node(name)
        return self.run_on(name, tabs_node.restart_generator())

    # -- driving the simulation -------------------------------------------------------------

    def run_on(self, node_name: str, generator: Generator):
        """Run a generator as a process on a node, to completion."""
        process = Process(self.ctx.engine, generator,
                          name=f"{node_name}:driver")
        return self.ctx.engine.run_until(process)

    def spawn_on(self, node_name: str, generator: Generator,
                 name: str = "app") -> Process:
        """Start a generator as a background process on a node."""
        return self.node(node_name).node.spawn(generator, name=name,
                                               defused=True)

    def settle(self, extra_ms: float = 0.0) -> None:
        """Drain all pending simulation work (e.g. lazy phase two)."""
        if extra_ms:
            self.ctx.engine.run(until=self.ctx.engine.now + extra_ms)
        self.ctx.engine.run()

    # -- applications ------------------------------------------------------------------------

    def application(self, node_name: str,
                    measured: bool = False) -> ApplicationLibrary:
        return ApplicationLibrary(self.node(node_name).node, self.network,
                                  measured=measured)

    def run_transaction(self, node_name: str, body_fn: Callable,
                        measured: bool = False, retries: int = 0):
        """Begin/run/commit ``body_fn(tid)`` on a node; returns its result."""
        app = self.application(node_name, measured=measured)
        return self.run_on(node_name, app.run_transaction(body_fn,
                                                          retries=retries))
