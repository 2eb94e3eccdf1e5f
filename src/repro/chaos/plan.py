"""Fault plans: declarative schedules of failures for one simulated run.

A :class:`FaultPlan` is an immutable list of fault actions.  Timed actions
fire at a fixed simulated millisecond; *triggered* actions watch a node's
durable log and fire when the commit protocol reaches a chosen point
(mid-prepare, mid-commit, the in-doubt window).  Because the simulation and
every random roll derive from seeds, a run is exactly reproducible from
``(seed, plan)`` -- the property QUANTAS-style simulators exploit for
systematic fault exploration.

Plans are built either explicitly (the torture scenarios each pin one
protocol window) or randomly via :func:`random_plan` (the soak test).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class CrashAt:
    """Power-fail ``node`` at ``at_ms``; restart after ``restart_after_ms``
    (None leaves it down until the harness restarts it)."""

    at_ms: float
    node: str
    restart_after_ms: float | None = None


@dataclass(frozen=True)
class RestartAt:
    """Restart ``node`` (running full crash recovery) at ``at_ms``."""

    at_ms: float
    node: str


@dataclass(frozen=True)
class PartitionAt:
    """Split the network into ``groups`` at ``at_ms``.  Nodes not listed
    fall into singleton partitions."""

    at_ms: float
    groups: tuple[tuple[str, ...], ...]
    heal_after_ms: float | None = None


@dataclass(frozen=True)
class HealAt:
    """Remove any active partition at ``at_ms``."""

    at_ms: float


@dataclass(frozen=True)
class LinkFaultWindow:
    """Loss/duplication/reordering on one link between two instants."""

    start_ms: float
    end_ms: float
    source: str
    target: str
    loss: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_delay_ms: float = 50.0
    both_ways: bool = True


@dataclass(frozen=True)
class DiskSlowdown:
    """Multiply ``node``'s disk latency by ``factor`` during the window."""

    start_ms: float
    end_ms: float
    node: str
    factor: float = 4.0


@dataclass(frozen=True)
class TornWriteAt:
    """Power-fail ``node`` at ``at_ms`` mid-write: the last written data
    sector is torn (partial image under a full-image checksum) and the
    oldest buffered log record reaches both log disks half-written, then
    the node crashes.  Recovery's salvage scan truncates the torn log
    tail; the scrub repairs the torn data page from the archive."""

    at_ms: float
    node: str
    restart_after_ms: float | None = None


@dataclass(frozen=True)
class BitRotAt:
    """Decay one stored value of a data page on ``node`` at ``at_ms``.

    With ``page`` None the controller picks a written page of the node's
    segments deterministically from its seeded RNG.  The next read of the
    page trips :class:`~repro.errors.PageCorruption` and the node's
    supervisor repairs it from archive + log roll-forward."""

    at_ms: float
    node: str
    segment_id: str = ""
    page: int | None = None
    salt: int = 1


@dataclass(frozen=True)
class LostWriteAt:
    """Arm a lost write on ``node`` at ``at_ms``: the next write-back of
    the chosen page is acknowledged but its data never lands (the
    separately-written header metadata does, so reads detect it)."""

    at_ms: float
    node: str
    segment_id: str = ""
    page: int | None = None


@dataclass(frozen=True)
class LogSectorRotAt:
    """Bit-rot one log-disk copy of a durable record on ``node``.

    With ``lsn`` None the controller picks a durable record
    deterministically.  Single-copy rot is repaired from the mirror by
    the duplexed read path; ``both_copies`` (real log loss) is reserved
    for tests -- random plans never set it on acknowledged records."""

    at_ms: float
    node: str
    lsn: int | None = None
    copy: int = 0
    both_copies: bool = False


@dataclass(frozen=True)
class CrashWhenLogged:
    """Crash ``crash_node`` when the durable logs reach a protocol point.

    The conditions are matched per transaction family, over the records
    that turn durable after the plan is installed: the trigger fires the
    instant *some* family has a durable record for every ``seen`` pair
    (``(node, status)``, status being a :class:`TxnStatus` value name
    such as ``"prepared"``) while having none for any ``not_seen`` pair.
    One-shot.  Examples:

    - participant crash **mid-prepare**: ``seen=(("p", "prepared"),)``,
      ``not_seen=(("c", "committed"),)``;
    - participant crash **in the in-doubt window**:
      ``seen=(("p", "prepared"), ("c", "committed"))``,
      ``not_seen=(("p", "committed"),)``;
    - coordinator crash **mid-commit** (phase two not yet acknowledged):
      ``seen=(("c", "committed"), ("p", "prepared"))``,
      ``not_seen=(("p", "committed"),)``.
    """

    crash_node: str
    seen: tuple[tuple[str, str], ...]
    not_seen: tuple[tuple[str, str], ...] = ()
    restart_after_ms: float | None = None


@dataclass(frozen=True)
class CrashOnGroupForce:
    """Crash ``node`` the instant its group-commit pipeline starts a
    physical force of a batch of at least ``min_batch`` commit waiters.

    Only meaningful when the cluster runs the ``grouped`` commit
    pipeline (the paper pipeline never opens a force window).  The crash
    fires from the pipeline's ``on_group_force`` hook -- *before* the
    stable-storage write -- so every transaction waiting in that window
    has its commit record still volatile.  The post-recovery invariant is
    all-or-none per transaction: none of the window's waiters may be
    durably committed on the crashed node, and no client may have been
    acknowledged.  ``nth`` skips the first ``nth - 1`` qualifying
    batches; the trigger is one-shot per plan action.
    """

    node: str
    min_batch: int = 2
    nth: int = 1
    restart_after_ms: float | None = None


@dataclass(frozen=True)
class MigrationFault:
    """Fire a fault when a live shard migration reaches ``phase``.

    Armed on the reconfiguration manager's phase hooks (see
    :class:`~repro.reconfig.migration.MigrationCoordinator` for the
    phase machine: ``intent``, ``extend``, ``copy``, ``barrier``,
    ``commit``, ``done``).  When the ``nth`` matching phase boundary
    fires, the node playing ``role`` in that migration -- its
    ``originator``, ``source``, or ``dest`` -- is hit with ``kind``:

    - ``"crash"``: power-fail the node (restart after
      ``restart_after_ms``; None leaves it down for the harness);
    - ``"partition"``: isolate the node from every other node (heal
      after ``heal_after_ms``; None leaves the partition for the
      harness).

    One-shot per plan action; ``arm_after_ms`` delays arming so random
    plans can scatter reconfiguration faults over the run.  If the run
    never migrates (or the cluster has no reconfiguration manager) the
    action never fires -- the controller records it as unarmed.
    """

    phase: str
    role: str = "originator"
    kind: str = "crash"
    restart_after_ms: float | None = None
    heal_after_ms: float | None = None
    nth: int = 1
    arm_after_ms: float = 0.0


FaultAction = (CrashAt | RestartAt | PartitionAt | HealAt | LinkFaultWindow
               | DiskSlowdown | TornWriteAt | BitRotAt | LostWriteAt
               | LogSectorRotAt | CrashWhenLogged | CrashOnGroupForce
               | MigrationFault)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault actions."""

    actions: tuple[FaultAction, ...] = ()

    def __iter__(self):
        return iter(self.actions)

    @classmethod
    def of(cls, *actions: FaultAction) -> "FaultPlan":
        return cls(tuple(actions))


def crash_one_replica_per_shard(placement, at_ms: float,
                                restart_after_ms: float | None = None,
                                stagger_ms: float = 0.0,
                                rank: int = -1) -> tuple[CrashAt, ...]:
    """One :class:`CrashAt` per distinct node holding the ``rank``-th
    copy of some key-space (default: each shard's last copy).

    The availability scenario: with every shard losing one replica, the
    cluster must keep committing on the surviving copies.  Nodes are
    deduplicated and crashed in sorted order, ``stagger_ms`` apart, so
    the plan is deterministic and (with a positive stagger) never takes
    two replicas of one shard down at the same instant.
    """
    targets = sorted({placement.replicas(keyspace)[rank]
                      for keyspace in placement.keyspaces()})
    return tuple(CrashAt(at_ms + index * stagger_ms, node,
                         restart_after_ms=restart_after_ms)
                 for index, node in enumerate(targets))


def isolate_replica(placement, keyspace: str, at_ms: float,
                    heal_after_ms: float | None = None,
                    rank: int = -1) -> PartitionAt:
    """Partition the ``rank``-th replica of ``keyspace`` away from every
    other placement node (a crashless failure: the detector suspects it,
    writes degrade, and validation aborts transactions that had written
    to it)."""
    node = placement.replicas(keyspace)[rank]
    others = tuple(other for other in placement.nodes() if other != node)
    return PartitionAt(at_ms, ((node,), others),
                       heal_after_ms=heal_after_ms)


def random_plan(seed: int, nodes: list[str], duration_ms: float,
                episodes: int = 4,
                crash_weight: int = 4, partition_weight: int = 2,
                link_weight: int = 2, disk_weight: int = 1,
                corruption_weight: int = 0,
                replication_weight: int = 0,
                reconfig_weight: int = 0,
                placement=None) -> FaultPlan:
    """A reproducible random torture schedule over ``nodes``.

    Every episode is a bounded fault-and-repair pair (crash+restart,
    partition+heal, a link-fault window, or a disk slowdown), so the plan
    always returns the cluster to a repairable state for the post-run
    invariant checks.  ``corruption_weight`` (default 0, so historical
    seeds reproduce byte-identically) adds storage-corruption episodes:
    torn writes at a crash, bit rot on a data page, an armed lost write,
    or single-copy log-sector rot.  ``replication_weight`` (default 0,
    same guarantee; requires ``placement``) adds replica-targeted
    episodes: crash or isolate one replica of a random key-space.
    ``reconfig_weight`` (default 0, same guarantee) adds
    migration-targeted episodes: crash or isolate the originator,
    source, or destination of a live shard migration at a random phase
    boundary -- a no-op if the run never migrates.  The same ``(seed,
    nodes, duration_ms, ...)`` always yields the same plan.
    """
    rng = random.Random(seed)
    # New kinds append at the END so historical (seed, weights) pairs
    # keep drawing the same episodes.
    kinds = (["crash"] * crash_weight + ["partition"] * partition_weight
             + ["link"] * link_weight + ["disk"] * disk_weight
             + ["corrupt"] * corruption_weight
             + ["replica"] * (replication_weight if placement is not None
                              else 0)
             + ["reconfig"] * reconfig_weight)
    actions: list[FaultAction] = []
    for _ in range(episodes):
        kind = rng.choice(kinds)
        start = rng.uniform(0.05, 0.7) * duration_ms
        window = rng.uniform(0.05, 0.25) * duration_ms
        if kind == "crash":
            actions.append(CrashAt(start, rng.choice(nodes),
                                   restart_after_ms=window))
        elif kind == "replica":
            keyspace = rng.choice(sorted(placement.keyspaces()))
            replicas = placement.replicas(keyspace)
            rank = rng.randrange(len(replicas))
            if rng.random() < 0.5:
                actions.append(CrashAt(start, replicas[rank],
                                       restart_after_ms=window))
            else:
                actions.append(isolate_replica(placement, keyspace, start,
                                               heal_after_ms=window,
                                               rank=rank))
        elif kind == "reconfig":
            phase = rng.choice(["intent", "extend", "copy", "barrier",
                                "commit"])
            role = rng.choice(["originator", "source", "dest"])
            if rng.random() < 0.5:
                actions.append(MigrationFault(
                    phase=phase, role=role, kind="crash",
                    restart_after_ms=window, arm_after_ms=start))
            else:
                actions.append(MigrationFault(
                    phase=phase, role=role, kind="partition",
                    heal_after_ms=window, arm_after_ms=start))
        elif kind == "corrupt":
            node = rng.choice(nodes)
            flavour = rng.choice(["torn", "rot", "lost", "log-rot"])
            if flavour == "torn":
                actions.append(TornWriteAt(start, node,
                                           restart_after_ms=window))
            elif flavour == "rot":
                actions.append(BitRotAt(start, node,
                                        salt=rng.randrange(1, 1 << 16)))
            elif flavour == "lost":
                actions.append(LostWriteAt(start, node))
            else:
                # Single-copy rot only: both-copy rot of an acknowledged
                # record is unrecoverable data loss, not a survivable fault.
                actions.append(LogSectorRotAt(start, node,
                                              copy=rng.randrange(2)))
        elif kind == "partition":
            if len(nodes) < 2:
                continue
            shuffled = nodes[:]
            rng.shuffle(shuffled)
            cut = rng.randrange(1, len(shuffled))
            actions.append(PartitionAt(
                start, (tuple(shuffled[:cut]), tuple(shuffled[cut:])),
                heal_after_ms=window))
        elif kind == "link":
            source, target = rng.sample(nodes, 2) if len(nodes) >= 2 else \
                (nodes[0], nodes[0])
            actions.append(LinkFaultWindow(
                start, start + window, source, target,
                loss=rng.uniform(0.05, 0.4),
                duplicate=rng.uniform(0.0, 0.3),
                reorder=rng.uniform(0.0, 0.3)))
        else:
            actions.append(DiskSlowdown(start, start + window,
                                        rng.choice(nodes),
                                        factor=rng.uniform(2.0, 8.0)))
    actions.sort(key=_action_time)
    return FaultPlan(tuple(actions))


def _action_time(action: FaultAction) -> float:
    for attr in ("at_ms", "start_ms", "arm_after_ms"):
        if hasattr(action, attr):
            return getattr(action, attr)
    return 0.0  # pragma: no cover - every action carries a time
