"""DebitCredit throughput: TPS, abort rate, and latency distribution.

The Section 7 methodology of :mod:`repro.perf.throughput` applied to the
banking workload of :mod:`repro.workloads.debitcredit`: N closed-loop
clients -- each homed on a branch, round-robin -- run DebitCredit
transactions for a window of simulated time, and the harness reports
committed transactions per second, the abort rate, physical log forces
per commit, and a log-bucket latency histogram of the full
begin-to-commit path.

Where the throughput module's ``disjoint``/``shared`` cells isolate the
locking effect synthetically, DebitCredit is the *composed* case: every
local transaction serializes on its branch's hot balance row for the
branch-update-plus-commit window, ``1 - locality`` of the traffic spans
two nodes (real 2PC), and every transaction appends history.  Commit
latency is therefore the throughput ceiling -- the hot row admits one
committer at a time per branch -- which is exactly what the ``grouped``
commit pipeline attacks by amortizing log forces across the prepare and
commit records queued inside one force window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.core.cluster import TabsCluster
from repro.core.config import CommitConfig, TabsConfig, WorkloadConfig
from repro.obs.metrics import Histogram
from repro.perf.throughput import PIPELINE_CONFIGS, run_closed_loop
from repro.workloads.debitcredit import debitcredit_txn, draw_spec


@dataclass
class DebitCreditResult:
    clients: int
    duration_ms: float
    committed: int
    aborted: int
    #: committed transactions that spanned two nodes (remote account)
    remote_committed: int = 0
    #: physical log forces across every node during the window
    forces: int = 0
    pipeline: str = "paper"
    #: begin-to-commit latency of committed transactions (simulated ms)
    latency: Histogram = field(default_factory=Histogram)

    @property
    def tps(self) -> float:
        return self.committed / (self.duration_ms / 1000.0)

    @property
    def abort_rate(self) -> float:
        attempts = self.committed + self.aborted
        return self.aborted / attempts if attempts else 0.0

    @property
    def forces_per_commit(self) -> float:
        return self.forces / self.committed if self.committed else 0.0


def run_debitcredit(clients: int, duration_ms: float = 30_000.0,
                    config: TabsConfig | None = None,
                    commit: CommitConfig | None = None,
                    workload: WorkloadConfig | None = None,
                    instrument: Callable[[TabsCluster], None] | None = None,
                    ) -> DebitCreditResult:
    """Measure DebitCredit TPS at a given closed-loop client count.

    ``commit`` and ``workload`` override those blocks of ``config`` (or
    of a default config), so sweeps can hold everything else fixed.  The
    run is a pure function of the configuration: every client draws its
    transaction stream from its own seeded RNG.  ``instrument`` (if
    given) receives the built cluster before the clients spawn,
    mirroring ``run_benchmark``.
    """
    base = config or TabsConfig()
    if commit is not None:
        base = base.with_(commit=commit)
    if workload is not None:
        base = base.with_(workload=workload)
    cluster = TabsCluster(base)
    topology = cluster.build_workload()
    if instrument is not None:
        instrument(cluster)
    schema = base.workload
    homes = [topology.client_home(index) for index in range(clients)]
    nodes = [topology.node_name(home) for home in homes]
    remote_committed = [0]
    latency = Histogram()

    def client(index: int, app):
        yield from ()  # nothing to look up before the first transaction
        rng = random.Random((base.seed * 1_000_003) ^ (index * 7919))

        def next_txn():
            spec = draw_spec(rng, schema, homes[index])
            return spec, lambda tid: debitcredit_txn(app, topology, spec,
                                                     tid)

        return next_txn

    def on_commit(index: int, spec, elapsed: float) -> None:
        if spec.remote:
            remote_committed[0] += 1
        latency.observe(elapsed)
        cluster.ctx.metrics.histogram(
            nodes[index], "debitcredit.txn_ms").observe(elapsed)

    committed, aborted, forces = run_closed_loop(
        cluster, clients, duration_ms, home_node=nodes.__getitem__,
        client=client, process_name="client{}", on_commit=on_commit)
    return DebitCreditResult(clients=clients, duration_ms=duration_ms,
                             committed=committed, aborted=aborted,
                             remote_committed=remote_committed[0],
                             forces=forces, pipeline=base.commit.pipeline,
                             latency=latency)


def compare_debitcredit_pipelines(client_counts: list[int],
                                  duration_ms: float = 15_000.0,
                                  workload: WorkloadConfig | None = None,
                                  workers: int = 1,
                                  ) -> dict[str, list[DebitCreditResult]]:
    """The hot-row study: both commit pipelines, same serial log device.

    Reuses :data:`~repro.perf.throughput.PIPELINE_CONFIGS` so the
    DebitCredit comparison and the synthetic one measure the exact same
    two pipeline configurations.  Both pipelines' cells ride one flat
    fan-out across ``workers`` processes; the per-pipeline split is
    recovered from cell order, so the dict is identical for any count.
    """
    from repro.perf.runner import debitcredit_sweep_cells, run_cells

    names = list(PIPELINE_CONFIGS)
    cells = [cell for name in names
             for cell in debitcredit_sweep_cells(
                 client_counts, duration_ms,
                 commit=PIPELINE_CONFIGS[name], workload=workload)]
    results = run_cells(cells, workers=workers)
    step = len(client_counts)
    return {name: results[i * step:(i + 1) * step]
            for i, name in enumerate(names)}
