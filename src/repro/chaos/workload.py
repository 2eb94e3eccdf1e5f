"""The invariant-checking workload of the chaos harness.

:class:`ChaosWorkload` drives randomized multi-node transfer (and
optionally queue) traffic against a cluster while a
:class:`~repro.chaos.controller.ChaosController` injects faults, then
checks -- after repair, quiescence, and a final crash-all/recover-all --
that the TABS guarantees held.  It is a subclass of the shared client
harness (:mod:`repro.workloads.harness`), which supplies the arrival
schedule, the outcome taxonomy and the standard audit list
(``docs/CHAOS.md``); what lives here is what a transfer or an enqueue
*is*, and this workload's own two invariants:

- **conservation**: transfers move money between integer-array cells, so
  the total across every account is invariant whatever committed or
  aborted;
- **queue integrity** (when enabled): a committed enqueue's item is
  drained exactly once; an aborted enqueue's item never appears.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.controller import ChaosController
from repro.core.cluster import TabsCluster
from repro.core.config import TabsConfig
from repro.recovery.audit import AuditViolation
from repro.servers.int_array import IntegerArrayServer
from repro.servers.weak_queue import QueueEmpty, WeakQueueServer
from repro.workloads import harness

#: server name of the shared queue (lives on the first node)
QUEUE_NAME = "mailq"


def build_cluster(node_count: int = 3, with_queue: bool = False,
                  seed: int = 1985, **config_overrides) -> TabsCluster:
    """A cluster of ``node_count`` nodes, one bank server each.

    Node ``n{i}`` hosts integer-array server ``bank{i}``; with
    ``with_queue`` node ``n0`` additionally hosts weak queue ``mailq``.
    """
    cluster = TabsCluster(TabsConfig(seed=seed, **config_overrides))
    for index in range(node_count):
        name = f"n{index}"
        cluster.add_node(name)
        cluster.add_server(name, IntegerArrayServer.factory(f"bank{index}"))
    if with_queue:
        cluster.add_server("n0", WeakQueueServer.factory(QUEUE_NAME))
    cluster.start()
    return cluster


@dataclass
class TxnRecord(harness.TxnRecord):
    """A transfer between two bank cells, or an enqueue on the queue."""

    kind: str  # "transfer" | "enqueue"
    client: str
    detail: tuple


class ChaosWorkload(harness.SeededWorkload):
    """Randomized transfers (+ optional enqueues) under fault injection."""

    PROCESS_PREFIX = "chaos-txn"

    def __init__(self, cluster: TabsCluster, controller: ChaosController,
                 seed: int = 0, accounts_per_server: int = 4,
                 initial_balance: int = 100) -> None:
        super().__init__(cluster, controller, seed)
        self.accounts = accounts_per_server
        self.initial_balance = initial_balance
        self.banks = sorted(name for node in cluster.nodes.values()
                            for name in node.servers
                            if name.startswith("bank"))
        self.has_queue = any(QUEUE_NAME in node.servers
                             for node in cluster.nodes.values())
        self.expected_total = (len(self.banks) * self.accounts
                               * self.initial_balance)

    # -- setup ---------------------------------------------------------------------

    def setup(self) -> None:
        """Fund every account (one committed transaction per bank)."""
        for bank in self.banks:
            node = self._home_of(bank)

            def fund(tid, bank=bank, node=node):
                app = self.cluster.application(node)
                ref = yield from app.lookup_one(bank)
                for cell in range(1, self.accounts + 1):
                    yield from app.call(ref, "set_cell",
                                        {"cell": cell,
                                         "value": self.initial_balance},
                                        tid)

            self.cluster.run_transaction(node, fund)
        self.cluster.settle()

    def _home_of(self, server_name: str) -> str:
        for node_name, tabs_node in self.cluster.nodes.items():
            if server_name in tabs_node.servers:
                return node_name
        raise KeyError(server_name)

    def schedule_archive_dumps(self, at_ms: float = 0.0) -> None:
        """Dump every node's segments to its off-line archive at ``at_ms``.

        Opt-in (dump events shift the timeline, so historical seeds stay
        byte-identical without it).  Corruption scenarios want an archive:
        it is the base image single-page media repair restores before
        rolling the log forward.
        """
        for name in sorted(self.cluster.nodes):
            self.engine.schedule(at_ms, lambda n=name: self._spawn_dump(n))

    def _spawn_dump(self, name: str) -> None:
        tabs_node = self.cluster.node(name)
        if not tabs_node.node.alive:
            return
        tabs_node.node.spawn(self._dump(name), name="chaos-archive-dump",
                             defused=True)

    def _dump(self, name: str):
        tabs_node = self.cluster.node(name)
        archive_lsn = yield from tabs_node.archive_dump_generator()
        self.controller.record("archive-dump", name, archive_lsn)

    # -- randomized traffic ---------------------------------------------------------

    def schedule_traffic(self, transfers: int = 20, enqueues: int = 0,
                         first_at_ms: float = 5.0,
                         spacing_ms: float = 120.0,
                         max_amount: int = 25) -> None:
        """Schedule the whole client mix at seeded, jittered instants."""
        self._schedule(self._draw_mix(transfers, enqueues, max_amount),
                       first_at_ms, spacing_ms)

    def _draw_mix(self, transfers: int, enqueues: int, max_amount: int):
        nodes = sorted(self.cluster.nodes)
        mix = (["transfer"] * transfers + ["enqueue"] * enqueues)
        self.rng.shuffle(mix)
        for index, kind in enumerate(mix):
            client = self.rng.choice(nodes)
            if kind == "transfer":
                src, dst = self.rng.sample(self.banks, 2)
                src_cell = self.rng.randint(1, self.accounts)
                dst_cell = self.rng.randint(1, self.accounts)
                amount = self.rng.randint(1, max_amount)
                detail = (src, src_cell, dst, dst_cell, amount)
            else:
                detail = (f"item-{index}",)
            yield TxnRecord(index, kind, client, detail)

    def client_node(self, record: TxnRecord) -> str:
        return record.client

    def trace_fields(self, record: TxnRecord) -> tuple:
        return (record.index, record.kind, record.client, record.outcome,
                *record.detail)

    def body(self, app, record: TxnRecord, tid):
        if record.kind == "enqueue":
            (item,) = record.detail
            ref = yield from app.lookup_one(QUEUE_NAME)
            yield from app.call(ref, "enqueue", {"data": item}, tid)
            return
        src, src_cell, dst, dst_cell, amount = record.detail
        src_ref = yield from app.lookup_one(src)
        dst_ref = yield from app.lookup_one(dst)
        src_val = yield from app.call(src_ref, "get_cell",
                                      {"cell": src_cell}, tid)
        dst_val = yield from app.call(dst_ref, "get_cell",
                                      {"cell": dst_cell}, tid)
        yield from app.call(src_ref, "set_cell",
                            {"cell": src_cell,
                             "value": src_val["value"] - amount}, tid)
        yield from app.call(dst_ref, "set_cell",
                            {"cell": dst_cell,
                             "value": dst_val["value"] + amount}, tid)

    # -- invariants ----------------------------------------------------------------

    def workload_audits(self) -> list[AuditViolation]:
        violations = self._check_conservation()
        if self.has_queue:
            violations.extend(self._check_queue())
        return violations

    def _check_conservation(self) -> list[AuditViolation]:
        """The sum over every account must equal the funded total."""
        total = 0
        for bank in self.banks:
            node = self._home_of(bank)

            def read_all(tid, bank=bank, node=node):
                app = self.cluster.application(node)
                ref = yield from app.lookup_one(bank)
                balances = []
                for cell in range(1, self.accounts + 1):
                    reply = yield from app.call(ref, "get_cell",
                                                {"cell": cell}, tid)
                    balances.append(reply["value"])
                return balances

            total += sum(self.cluster.run_transaction(node, read_all))
        if total != self.expected_total:
            return [AuditViolation(
                "conservation",
                detail=f"accounts sum to {total}, funded "
                       f"{self.expected_total} (money "
                       f"{'vanished' if total < self.expected_total else 'appeared'})")]
        return []

    def _check_queue(self) -> list[AuditViolation]:
        """Drain the queue; committed items exactly once, aborted never."""
        node = self._home_of(QUEUE_NAME)
        drained: list[str] = []
        while True:
            def dequeue_one(tid):
                app = self.cluster.application(node)
                ref = yield from app.lookup_one(QUEUE_NAME)
                reply = yield from app.call(ref, "dequeue", {}, tid)
                return reply["data"]

            try:
                drained.append(self.cluster.run_transaction(node,
                                                            dequeue_one))
            except QueueEmpty:
                break
        violations = []
        if len(drained) != len(set(drained)):
            dupes = sorted({d for d in drained if drained.count(d) > 1})
            violations.append(AuditViolation(
                "queue-duplicate", detail=f"items drained twice: {dupes}"))
        by_outcome = {r.detail[0]: r.outcome for r in self.stats.records
                      if r.kind == "enqueue"}
        for item in drained:
            outcome = by_outcome.get(item)
            if outcome is None:
                violations.append(AuditViolation(
                    "queue-phantom", detail=f"{item!r} was never enqueued"))
            elif outcome == "aborted":
                violations.append(AuditViolation(
                    "queue-aborted-item",
                    detail=f"{item!r} came from an aborted enqueue"))
        missing = [item for item, outcome in by_outcome.items()
                   if outcome == "committed" and item not in drained]
        if missing:
            violations.append(AuditViolation(
                "queue-lost-item",
                detail=f"committed enqueues missing: {missing}"))
        return violations
