"""The five workloads: cluster, traffic, fault/migration schedule, audits.

:func:`build` lays one workload over a fresh cluster and schedules
*everything* the run will do -- warm-up traffic, window traffic, crashes,
migrations -- without advancing the clock past cluster start-up.  The
caller then runs the engine to the warm-up boundary, to the window end,
and through the drain, reading counters at each stop.  Nothing here
reads the wall clock.

Seeds feed the transaction specs, the client streams and the arrival
jitter; fault and migration instants are fixed fractions of the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.cluster import TabsCluster
from repro.core.config import (
    CommitConfig,
    ReconfigConfig,
    ReplicationConfig,
    TabsConfig,
    WorkloadConfig,
)
from repro.reconfig import ReconfigManager
from repro.replication.audit import audit_replica_convergence
from repro.replication.router import ReplicatedApp
from repro.servers.int_array import IntegerArrayServer
from repro.sim import Timeout
from repro.workloads.debitcredit import (
    DebitCreditRecord,
    DebitCreditWorkload,
    debitcredit_txn,
    draw_spec,
    replicated_debitcredit_txn,
)

from .drivers import ClosedLoop, OpenLoop, TimedApp, TxnRecord
from .spec import OPEN_LOOP_RATE_PER_SIM_S, WARMUP_SIM_S

#: DebitCredit over four bank nodes, two hot branches each
DC_SCHEMA = WorkloadConfig(branches=8, branches_per_node=2,
                           accounts_per_branch=1_000, locality=0.85)
DC_CLIENTS = 16
INQUIRY_SHARE = 0.8
#: the rf=2 pair: one branch per node, every key-space on two of them
RF2_SCHEMA = WorkloadConfig(branches=4, accounts_per_branch=200,
                            locality=0.85)
CRASH_EVERY_SIM_MS = 40_000.0
RESTART_AFTER_SIM_MS = 6_000.0
#: (fraction of the window, branch whose account shard moves): two shards
#: go onto the joined node, then both come back off it
MIGRATION_PLAN = ((0.2, 0), (0.4, 1), (0.6, 0), (0.8, 1))
MIGRATION_POLL_SIM_MS = 250.0
JOINED_NODE = "bank4"


@dataclass
class Scenario:
    """One built workload, ready to run."""

    cluster: TabsCluster
    #: every attempted transaction, warm-up included
    records: list[TxnRecord]
    window_start_ms: float
    window_end_ms: float
    #: violations found after the drain (empty = correct)
    audit: Callable[[], list[str]]
    #: simulated instants at which a node was crashed
    crash_times_ms: list[float] = field(default_factory=list)
    reconfig: ReconfigManager | None = None
    #: (simulated ms, observing node, event, peer), appended by the
    #: ``fd_observers`` the measuring code attaches
    fd_events: list[tuple] = field(default_factory=list)
    #: the traced pass's tracer/profiler/log observers, else None
    instruments: object = None


def build(name: str, seed: int, window_ms: float) -> Scenario:
    return _BUILDERS[name](seed, window_ms)


def _window(cluster: TabsCluster, window_ms: float) -> tuple[float, float]:
    start = cluster.engine.now + WARMUP_SIM_S * 1000.0
    return start, start + window_ms


# -- disjoint_c8 -------------------------------------------------------------


def _build_disjoint(seed: int, window_ms: float) -> Scenario:
    cluster = TabsCluster(TabsConfig(seed=seed))
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("array"))
    cluster.start()
    start, end = _window(cluster, window_ms)
    clients = 8
    apps = [TimedApp(cluster.application("n1"))
            for _ in range(clients)]
    refs: dict[int, object] = {}

    def make_txn(client: int, rng, record: TxnRecord):
        app = apps[client]
        app.record = record
        cell, value = client + 1, rng.randrange(1, 1_000_000)
        record.kind, record.spec = "set_cell", (cell, value)

        def body(app, tid):
            if client not in refs:  # first touch, in the warm-up
                refs[client] = yield from app.lookup_one("array")
            yield from app.call(refs[client], "set_cell",
                                {"cell": cell, "value": value}, tid)

        return app, body

    loop = ClosedLoop(cluster, clients, lambda client: "n1", make_txn, seed,
                      stop_at_ms=end)

    def audit() -> list[str]:
        """Each cell holds its client's last committed value."""
        violations = []
        expected: dict[int, set] = {}
        for record in loop.records:
            cell, value = record.spec
            if record.outcome == "committed":
                expected[cell] = {value}
            elif record.outcome == "unknown":
                expected.setdefault(cell, {0}).add(value)

        def read_all(tid):
            app = cluster.application("n1")
            ref = yield from app.lookup_one("array")
            values = {}
            for cell in sorted(expected):
                reply = yield from app.call(ref, "get_cell", {"cell": cell},
                                            tid)
                values[cell] = reply["value"]
            return values

        for cell, value in cluster.run_transaction("n1", read_all).items():
            if value not in expected[cell]:
                violations.append(f"cell {cell} holds {value}, last "
                                  f"committed {sorted(expected[cell])}")
        return violations

    return Scenario(cluster, loop.records, start, end, audit)


# -- DebitCredit, closed loop ------------------------------------------------


def _inquiry_txn(app, topology, spec, tid):
    """Read-only: the customer's account row and the home branch row."""
    account_ref = yield from app.lookup_one(
        topology.account_server(spec.account_branch),
        node_name=topology.node_name(spec.account_branch))
    yield from app.call(account_ref, "get_balance", {"row": spec.account},
                        tid)
    branch_ref = yield from app.lookup_one(
        topology.branch_server(spec.home_branch),
        node_name=topology.node_name(spec.home_branch))
    yield from app.call(branch_ref, "get_balance", {"row": 1}, tid)


def _debitcredit_audit(cluster, auditor: DebitCreditWorkload,
                       records: list[TxnRecord]) -> list[str]:
    """Conservation across the four tiers, history rows against committed
    writes (exact when no outcome is unknown, the interval rule of
    ``check_invariants`` otherwise), atomicity and drainage; replica
    convergence when replicated."""
    auditor.stats.records = [
        DebitCreditRecord(record.index, record.spec, outcome=record.outcome,
                          tid=record.tid)
        for record in records if record.kind == "debitcredit"]
    report = auditor.check_invariants()
    violations = [f"{v.kind}: {v.detail}" for v in report.violations]
    if auditor.replicated:
        violations.extend(f"{v.kind}: {v.detail}"
                          for v in audit_replica_convergence(cluster))
    return violations


def _build_dc_closed(seed: int, window_ms: float,
                     inquiry_share: float) -> Scenario:
    config = TabsConfig(seed=seed, commit=CommitConfig.grouped(),
                        workload=DC_SCHEMA)
    cluster = TabsCluster(config)
    topology = cluster.build_workload()
    auditor = DebitCreditWorkload(cluster, topology, seed=seed)
    start, end = _window(cluster, window_ms)
    homes = [topology.client_home(client) for client in range(DC_CLIENTS)]
    apps = [TimedApp(cluster.application(topology.node_name(home)))
            for home in homes]

    def make_txn(client: int, rng, record: TxnRecord):
        app = apps[client]
        app.record = record
        # The kind is drawn first so both mixes consume the same stream.
        inquiry = rng.random() < inquiry_share
        spec = draw_spec(rng, DC_SCHEMA, homes[client])
        record.spec = spec
        if inquiry:
            record.kind = "inquiry"
            return app, lambda app, tid: _inquiry_txn(app, topology, spec,
                                                      tid)
        record.kind = "debitcredit"
        return app, lambda app, tid: debitcredit_txn(app, topology, spec,
                                                     tid)

    loop = ClosedLoop(cluster, DC_CLIENTS,
                      lambda client: topology.node_name(homes[client]),
                      make_txn, seed, stop_at_ms=end)
    return Scenario(cluster, loop.records, start, end,
                    lambda: _debitcredit_audit(cluster, auditor,
                                               loop.records))


# -- DebitCredit over rf=2, open loop ----------------------------------------


class _TimedReplicatedApp(ReplicatedApp):
    """A replicated router whose inner library is timed and whose
    ``write_all`` calls are counted into the transaction's record."""

    def __init__(self, cluster, node_name: str, record: TxnRecord) -> None:
        super().__init__(cluster, node_name)
        self.app = TimedApp(self.app, record)
        self._record = record

    def write_all(self, keyspace, op, body, tid):
        self._record.write_alls += 1
        result = yield from super().write_all(keyspace, op, body, tid)
        return result


def _schedule_crashes(cluster, nodes: list[str], start: float,
                      window_ms: float) -> list[float]:
    """One bank node at a time, in rotation; each is back (and caught up)
    long before the next goes, so no shard ever loses both copies."""
    engine = cluster.engine
    crashes = max(1, round(window_ms / CRASH_EVERY_SIM_MS))
    spacing = window_ms / crashes
    down_ms = min(RESTART_AFTER_SIM_MS, 0.4 * spacing)
    crash_times = []
    for index in range(crashes):
        at = start + (index + 0.5) * spacing
        tabs_node = cluster.node(nodes[index % len(nodes)])
        crash_times.append(at)
        engine.schedule(at - engine.now, tabs_node.crash)
        engine.schedule(at + down_ms - engine.now, tabs_node.node.restart)
    return crash_times


def _migration_director(manager: ReconfigManager, topology, start: float,
                        end: float, started: list):
    """Move account shards onto the joined node and back, one migration
    at a time (generator, runs on the originator).

    Each step waits for its planned instant *and* for the previous
    migration to resolve, and takes its direction from the placement it
    finds, so a slow or rolled-back migration delays or redirects the
    next step instead of invalidating it.  No step starts after the
    window.
    """
    cluster = manager.cluster
    engine = cluster.engine
    for fraction, branch in MIGRATION_PLAN:
        wait_ms = start + fraction * (end - start) - engine.now
        if wait_ms > 0:
            yield Timeout(engine, wait_ms)
        if engine.now >= end:
            return
        keyspace = topology.account_server(branch)
        replicas = cluster.placement.replicas(keyspace)
        if JOINED_NODE in replicas:
            source = JOINED_NODE
            dest = next(node for node in topology.node_names
                        if node not in replicas)
        else:
            source, dest = topology.node_name(branch), JOINED_NODE
        coordinator = manager.spawn_migration(keyspace, source, dest)
        started.append(coordinator)
        while coordinator.result is None:
            yield Timeout(engine, MIGRATION_POLL_SIM_MS)


def _placement_audit(cluster, placement_before, started: list) -> list[str]:
    """Every migration resolved, the committed count agrees with the
    counter, and the map is the initial one with the committed moves
    applied."""
    violations = []
    expected = {keyspace: placement_before.replicas(keyspace)
                for keyspace in placement_before.keyspaces()}
    committed = 0
    for coordinator in started:
        if coordinator.result is None:
            violations.append(f"migration of {coordinator.keyspace!r} "
                              "never resolved")
        elif coordinator.result:
            committed += 1
            expected[coordinator.keyspace] = coordinator.new_replicas
    counted = sum(counter.value for (_node, name), counter
                  in cluster.metrics.counters().items()
                  if name == "reconfig.migrations_committed")
    if counted != committed:
        violations.append(f"{committed} migrations committed, counter "
                          f"says {counted}")
    for keyspace, replicas in expected.items():
        placed = cluster.placement.replicas(keyspace)
        if placed != replicas:
            violations.append(f"{keyspace!r} placed on {placed!r}, "
                              f"expected {replicas!r}")
    return violations


def _build_rf2_open(seed: int, window_ms: float, crash: bool,
                    migrate: bool) -> Scenario:
    config = TabsConfig(
        seed=seed, workload=RF2_SCHEMA,
        replication=ReplicationConfig.available_copies(),
        reconfig=ReconfigConfig.online() if migrate else ReconfigConfig.off())
    cluster = TabsCluster(config)
    topology = cluster.build_workload()
    auditor = DebitCreditWorkload(cluster, topology, seed=seed)
    manager = None
    if migrate:
        manager = ReconfigManager(cluster, topology.node_name(0))
        manager.join(JOINED_NODE)  # hosts nothing until a shard moves to it
    warmup_start = cluster.engine.now
    start, end = _window(cluster, window_ms)

    def make_txn(rng, record: TxnRecord):
        home = rng.randrange(RF2_SCHEMA.branches)
        spec = draw_spec(rng, RF2_SCHEMA, home)
        record.kind, record.spec = "debitcredit", spec
        home_node = topology.node_name(home)
        return (home_node,
                lambda record: _TimedReplicatedApp(cluster, home_node,
                                                   record),
                lambda rapp, tid: replicated_debitcredit_txn(
                    rapp, topology, spec, tid))

    loop = OpenLoop(cluster, OPEN_LOOP_RATE_PER_SIM_S, warmup_start, end,
                    make_txn, seed)
    crash_times = _schedule_crashes(cluster, topology.node_names, start,
                                    window_ms) if crash else []
    placement_before = cluster.placement
    migrations: list = []
    if migrate:
        cluster.spawn_on(manager.originator,
                         _migration_director(manager, topology, start, end,
                                             migrations),
                         name="migration-director")

    def audit() -> list[str]:
        violations = _debitcredit_audit(cluster, auditor, loop.records)
        if migrate:
            violations.extend(_placement_audit(cluster, placement_before,
                                               migrations))
        return violations

    return Scenario(cluster, loop.records, start, end, audit,
                    crash_times_ms=crash_times, reconfig=manager)


_BUILDERS: dict[str, Callable[[int, float], Scenario]] = {
    "disjoint_c8": _build_disjoint,
    "dc_2pc_c16": lambda seed, window_ms: _build_dc_closed(
        seed, window_ms, inquiry_share=0.0),
    "dc_inquiry80_c16": lambda seed, window_ms: _build_dc_closed(
        seed, window_ms, inquiry_share=INQUIRY_SHARE),
    "dc_rf2_crash_open": lambda seed, window_ms: _build_rf2_open(
        seed, window_ms, crash=True, migrate=False),
    "dc_rf2_migrate_open": lambda seed, window_ms: _build_rf2_open(
        seed, window_ms, crash=False, migrate=True),
}
