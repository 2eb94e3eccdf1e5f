"""The chaos controller: installs a fault plan onto a live cluster.

The controller schedules every timed action on the cluster's engine, arms
log-triggered crashes on the log stores' durable-record observers, restarts
crashed nodes (full crash recovery) where the plan says so, and records
everything it does -- plus, optionally, every network event -- into a
deterministic event trace.
Re-running the same ``(seed, plan)`` against the same cluster construction
reproduces the trace bit for bit, which the determinism regression suite
asserts.
"""

from __future__ import annotations

import random

from repro.chaos.plan import (
    BitRotAt,
    CrashAt,
    CrashOnGroupForce,
    CrashWhenLogged,
    DiskSlowdown,
    FaultPlan,
    HealAt,
    LinkFaultWindow,
    LogSectorRotAt,
    LostWriteAt,
    MigrationFault,
    PartitionAt,
    RestartAt,
    TornWriteAt,
)
from repro.errors import TabsError
from repro.recovery.audit import watch_terminal_statuses
from repro.sim import Process
from repro.wal.records import TransactionStatusRecord


class ChaosController:
    """Drives one :class:`FaultPlan` against one :class:`TabsCluster`."""

    def __init__(self, cluster, plan: FaultPlan, seed: int = 0,
                 trace_network: bool = False) -> None:
        self.cluster = cluster
        self.plan = plan
        self.rng = random.Random(seed)
        #: deterministic event trace: (time_ms, kind, *details)
        self.trace: list[tuple] = []
        #: every terminal status ever durably logged, per node -- immune to
        #: log truncation, for the post-run audits: {node: {tid: {status}}}
        self.status_history = watch_terminal_statuses(cluster)
        self._installed = False
        #: armed log triggers not yet fired: hook -> its action
        self._log_triggers: dict = {}
        if trace_network:
            cluster.network.add_trace_hook(self._network_event)
        for name, tabs_node in cluster.nodes.items():
            self._wire_node(name, tabs_node)
        # Nodes that join the running cluster later (online
        # reconfiguration) get the same wiring the moment they appear.
        cluster.node_join_hooks.append(
            lambda tabs_node: self._wire_node(tabs_node.name, tabs_node))

    def _wire_node(self, name: str, tabs_node) -> None:
        tabs_node.node.on_crash.append(self._node_crashed)
        tabs_node.node.on_restart.append(self._node_restarted)
        # The observer list survives rebuilds, so detections keep
        # landing in the trace across crash/recovery cycles.
        tabs_node.fd_observers.append(self._detector_event)
        # The disk survives restarts too: one registration is enough
        # for every checksum detection the node ever trips.
        tabs_node.node.disk.on_corruption.append(
            lambda segment_id, page, node=name:
            self.record("corruption", node, segment_id, page))
        # So does the log store, whose observers see each record the
        # instant it turns durable.
        tabs_node.log_store.observers.append(
            lambda record, node=name: self._logged(node, record))

    # -- trace -------------------------------------------------------------------

    def record(self, kind: str, *details) -> None:
        self.trace.append((self.engine.now, kind, *details))

    def _network_event(self, time_ms: float, event: str, source: str,
                       target: str, op: str) -> None:
        self.trace.append((time_ms, "net", event, source, target, op))

    def _node_crashed(self, node) -> None:
        self.trace.append((self.engine.now, "crash", node.name))

    def _node_restarted(self, node) -> None:
        self.trace.append((self.engine.now, "restart", node.name,
                           node.epoch))

    def _detector_event(self, time_ms: float, local: str, event: str,
                        peer: str) -> None:
        self.trace.append((time_ms, "fd", local, event, peer))

    @property
    def engine(self):
        return self.cluster.engine

    @property
    def network(self):
        return self.cluster.network

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Schedule every plan action.  Call once, before driving the run."""
        if self._installed:
            raise TabsError("fault plan already installed")
        self._installed = True
        for action in self.plan:
            self._install_action(action)

    def _install_action(self, action) -> None:
        if isinstance(action, CrashAt):
            self.engine.schedule(action.at_ms,
                                 lambda a=action: self._crash(
                                     a.node, a.restart_after_ms))
        elif isinstance(action, RestartAt):
            self.engine.schedule(action.at_ms,
                                 lambda a=action: self._spawn_restart(a.node))
        elif isinstance(action, PartitionAt):
            self.engine.schedule(action.at_ms,
                                 lambda a=action: self._partition(a))
            if action.heal_after_ms is not None:
                self.engine.schedule(action.at_ms + action.heal_after_ms,
                                     self._heal)
        elif isinstance(action, HealAt):
            self.engine.schedule(action.at_ms, self._heal)
        elif isinstance(action, LinkFaultWindow):
            self.engine.schedule(action.start_ms,
                                 lambda a=action: self._link_fault(a))
            self.engine.schedule(action.end_ms,
                                 lambda a=action: self._link_heal(a))
        elif isinstance(action, DiskSlowdown):
            self.engine.schedule(action.start_ms,
                                 lambda a=action: self._disk(a, a.factor))
            self.engine.schedule(action.end_ms,
                                 lambda a=action: self._disk(a, 1.0))
        elif isinstance(action, TornWriteAt):
            self.engine.schedule(action.at_ms,
                                 lambda a=action: self._torn_write(a))
        elif isinstance(action, BitRotAt):
            self.engine.schedule(action.at_ms,
                                 lambda a=action: self._bit_rot(a))
        elif isinstance(action, LostWriteAt):
            self.engine.schedule(action.at_ms,
                                 lambda a=action: self._lost_write(a))
        elif isinstance(action, LogSectorRotAt):
            self.engine.schedule(action.at_ms,
                                 lambda a=action: self._log_rot(a))
        elif isinstance(action, CrashWhenLogged):
            self._arm_log_trigger(action)
        elif isinstance(action, CrashOnGroupForce):
            self._arm_group_force_crash(action)
        elif isinstance(action, MigrationFault):
            self._arm_migration_fault(action)
        else:  # pragma: no cover - exhaustive over FaultAction
            raise TabsError(f"unknown fault action {action!r}")

    # -- timed actions -------------------------------------------------------------

    def _crash(self, name: str, restart_after_ms: float | None) -> None:
        tabs_node = self.cluster.node(name)
        if not tabs_node.node.alive:
            return  # already down; the pending restart will revive it
        tabs_node.crash()
        if restart_after_ms is not None:
            self.engine.schedule(restart_after_ms,
                                 lambda: self._spawn_restart(name))

    def _spawn_restart(self, name: str) -> Process | None:
        """Power the node on; its RecoverySupervisor drives the recovery.

        Thin wrapper by design: the controller no longer runs recovery
        itself, it just flips the power switch and hands back the
        supervisor's self-healing process.
        """
        tabs_node = self.cluster.node(name)
        if tabs_node.node.alive or tabs_node.retired:
            return None
        tabs_node.node.restart()
        return tabs_node.supervisor.recovery_process

    def _partition(self, action: PartitionAt) -> None:
        self.network.partition(action.groups)
        self.record("partition",
                    "|".join(",".join(group) for group in action.groups))

    def _heal(self) -> None:
        if self.network.partitioned:
            self.network.heal()
            self.record("heal")

    def _link_fault(self, action: LinkFaultWindow) -> None:
        # Plan times are relative to install(); rebase the expiry instant.
        until = self.engine.now + (action.end_ms - action.start_ms)
        self.network.set_link_fault(
            action.source, action.target, loss=action.loss,
            duplicate=action.duplicate, reorder=action.reorder,
            reorder_delay_ms=action.reorder_delay_ms,
            until=until, both_ways=action.both_ways)
        self.record("link-fault", action.source, action.target,
                    action.loss, action.duplicate, action.reorder)

    def _link_heal(self, action: LinkFaultWindow) -> None:
        self.network.clear_link_fault(action.source, action.target,
                                      both_ways=action.both_ways)
        self.record("link-heal", action.source, action.target)

    def _node_disk(self, name: str):
        """The one sanctioned path to a node's disk for fault injection.

        The disk object is durable (it survives crash/restart cycles), so
        handlers, corruption installers, and :meth:`repair_all` all reach
        it through here rather than each spelling out the attribute chain.
        """
        return self.cluster.node(name).node.disk

    def _disk(self, action: DiskSlowdown, factor: float) -> None:
        self._node_disk(action.node).latency_factor = factor
        self.record("disk-latency", action.node, factor)

    # -- storage corruption ----------------------------------------------------------

    def _pick_page(self, disk, segment_id: str, page: int | None):
        """Resolve a corruption target: explicit, or a deterministic draw
        from the controller's seeded RNG over the written sectors."""
        if page is not None and segment_id:
            return (segment_id, page)
        keys = [key for key in disk.page_keys()
                if not segment_id or key[0] == segment_id]
        if not keys:
            return None
        return keys[self.rng.randrange(len(keys))]

    def _torn_write(self, action: TornWriteAt) -> None:
        """Power failure mid-write: tear the in-flight data sector and the
        oldest buffered log record, then crash the node."""
        tabs_node = self.cluster.node(action.node)
        if not tabs_node.node.alive:
            return
        torn_key = self._node_disk(action.node).tear_last_write()
        torn_lsn = tabs_node.rm.wal.tear_inflight_force()
        self.record("torn-write", action.node,
                    f"{torn_key[0]}:{torn_key[1]}" if torn_key else "-",
                    torn_lsn if torn_lsn is not None else -1)
        self._crash(action.node, action.restart_after_ms)

    def _bit_rot(self, action: BitRotAt) -> None:
        disk = self._node_disk(action.node)
        target = self._pick_page(disk, action.segment_id, action.page)
        if target is None or not disk.rot_page(*target, salt=action.salt):
            self.record("bit-rot-skipped", action.node)
            return
        self.record("bit-rot", action.node, target[0], target[1])

    def _lost_write(self, action: LostWriteAt) -> None:
        disk = self._node_disk(action.node)
        target = self._pick_page(disk, action.segment_id, action.page)
        if target is None:
            self.record("lost-write-skipped", action.node)
            return
        disk.arm_lost_write(*target)
        self.record("lost-write-armed", action.node, target[0], target[1])

    def _log_rot(self, action: LogSectorRotAt) -> None:
        store = self.cluster.node(action.node).log_store
        lsn = action.lsn
        if lsn is None:
            durable = [record.lsn for record in
                       store.read_forward(store.truncated_before)]
            if not durable:
                self.record("log-rot-skipped", action.node)
                return
            lsn = durable[self.rng.randrange(len(durable))]
        if store.rot_media(lsn, copy=action.copy,
                           both_copies=action.both_copies):
            self.record("log-rot", action.node, lsn, action.copy,
                        action.both_copies)
        else:
            self.record("log-rot-skipped", action.node)

    # -- triggered crashes ----------------------------------------------------------

    def _arm_group_force_crash(self, action: CrashOnGroupForce) -> None:
        """Crash inside the group-commit force window, via the pipeline's
        ``on_group_force`` hook (fires before the stable-storage write).

        One-shot: the hook disarms itself after the crash; the rebuilt
        pipeline after recovery carries no hooks.  Armed against the
        pipeline instance that exists at install time -- if the node runs
        the paper pipeline the action records a skip and does nothing.
        """
        pipeline = self.cluster.node(action.node).rm.wal.group_pipeline
        if pipeline is None:
            self.record("group-force-watch-skipped", action.node)
            return
        state = {"count": 0, "done": False}

        def hook(node_name: str, batch_size: int, target_lsn: int) -> None:
            if state["done"] or batch_size < action.min_batch:
                return
            state["count"] += 1
            if state["count"] < action.nth:
                return
            state["done"] = True
            self.record("group-force-crash", action.node, batch_size,
                        target_lsn)
            self._crash(action.node, action.restart_after_ms)

        pipeline.on_group_force.append(hook)

    def _arm_migration_fault(self, action: MigrationFault) -> None:
        """Fault a migration participant at a phase boundary, via the
        reconfiguration manager's phase hooks.

        One-shot: the hook disarms itself after firing.  The fault is
        *scheduled* at delay zero rather than applied inside the hook --
        the hook runs synchronously inside the coordinator's own
        process, and the crash must land at its next yield (a message
        boundary), not mid-callback.  Armed against the manager that
        exists at install time; with reconfiguration off the action
        records a skip and does nothing.
        """
        manager = self.cluster.reconfig
        if manager is None:
            self.record("migration-watch-skipped", action.phase,
                        action.role)
            return
        armed_at = self.engine.now
        state = {"count": 0, "done": False}

        def hook(phase: str, info: dict) -> None:
            if state["done"] or phase != action.phase:
                return
            if self.engine.now - armed_at < action.arm_after_ms:
                return
            node = info.get(action.role)
            if node is None:  # pragma: no cover - roles always present
                return
            state["count"] += 1
            if state["count"] < action.nth:
                return
            state["done"] = True
            self.record("migration-fault", action.phase, action.role,
                        node, action.kind)
            if action.kind == "crash":
                self.engine.schedule(
                    0.0, lambda: self._crash(node,
                                             action.restart_after_ms))
            else:
                others = tuple(name for name, tabs_node
                               in self.cluster.nodes.items()
                               if name != node and not tabs_node.retired)
                self.engine.schedule(
                    0.0, lambda: self._partition(
                        PartitionAt(self.engine.now, ((node,), others))))
                if action.heal_after_ms is not None:
                    self.engine.schedule(action.heal_after_ms, self._heal)

        manager.phase_hooks.append(hook)

    def _arm_log_trigger(self, action: CrashWhenLogged) -> None:
        """Crash ``action.crash_node`` the instant the durable logs reach
        the action's protocol point, via the log stores' observers.

        Only records that turn durable after install count: ``points``
        holds each family's durable ``(node, status)`` points from then
        on, and the trigger fires when a family holds every ``seen`` point
        and no ``not_seen`` one.  One-shot.  The observer runs inside the
        forcing process's append, so the crash is *scheduled* at delay
        zero -- the same instant, after the forcing entry -- for the
        reason :meth:`_arm_migration_fault` gives.
        """
        seen, not_seen = set(action.seen), set(action.not_seen)
        points: dict = {}  # family -> {(node, status)}
        first: dict = {}  # family -> first tid logged at seen[0]

        def hook(node_name: str, record: TransactionStatusRecord) -> None:
            point = (node_name, record.status.value)
            if point not in seen and point not in not_seen:
                return
            family = record.tid.toplevel
            reached = points.setdefault(family, set())
            reached.add(point)
            if point == action.seen[0]:
                first.setdefault(family, record.tid)
            if reached & not_seen or not seen <= reached:
                return
            del self._log_triggers[hook]
            self.record("trigger", action.crash_node, str(first[family]),
                        ";".join(f"{n}:{s}" for n, s in action.seen))
            self.engine.schedule(0.0, lambda: self._crash(
                action.crash_node, action.restart_after_ms))

        self._log_triggers[hook] = action

    def _logged(self, node_name: str, record) -> None:
        """Log-store observer: offer a durable status record to every
        armed log trigger."""
        if (self._log_triggers
                and isinstance(record, TransactionStatusRecord)
                and record.tid is not None):
            for hook in tuple(self._log_triggers):
                hook(node_name, record)

    # -- repair / quiescence ----------------------------------------------------------

    def repair_all(self) -> list[Process]:
        """Heal the network, clear faults, and restart every downed node.

        Returns the restart processes (already scheduled); run the engine
        to drive the recoveries to completion.
        """
        self._heal()
        self.network.clear_all_link_faults()
        for action in self._log_triggers.values():
            self.record("watch-disarmed", action.crash_node)
        self._log_triggers.clear()
        restarts = []
        for name, tabs_node in self.cluster.nodes.items():
            if tabs_node.retired:
                continue  # powered off for good; repair must not revive it
            disk = self._node_disk(name)
            disk.latency_factor = 1.0
            disk.clear_armed_faults()
            if not tabs_node.node.alive:
                process = self._spawn_restart(name)
                if process is not None:
                    restarts.append(process)
        return restarts

    def quiesce(self, max_ms: float = 600_000.0) -> bool:
        """Run the engine until the event queue drains (bounded).

        Returns True when the simulation went fully quiet.  A False return
        means some process is still spinning (e.g. an in-doubt transaction
        whose coordinator never came back) -- itself a finding for the
        torture suite's assertions.
        """
        return self.engine.drain(max_ms)
