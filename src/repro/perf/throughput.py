"""Throughput measurement -- the Section 7 future-work methodology.

The paper's microscopic analysis predicts *latency* under no load and
explicitly defers throughput ("we would like to develop a performance
methodology for measuring and predicting throughput").  This module adds
the measuring half: N concurrent applications run update transactions
against one node for a fixed window of simulated time, and the harness
reports committed transactions per second and physical log forces per
commit.

Two workload shapes expose the first-order locking effect:

- **disjoint**: every application writes its own cell.  Nothing conflicts;
  throughput scales with concurrency until the log device saturates.
- **shared**: every application writes the same cell.  Two-phase locking
  serializes the writers; added concurrency buys nothing.

:func:`compare_pipelines` runs the same multi-client workload under the
``paper`` commit pipeline (one log force per commit record) and the
``grouped`` pipeline (group commit), both over
a *serial* log device -- one force in flight at a time, which is what a
real log disk does.  Under that device model the paper pipeline saturates
at 1000/79 ms ≈ 12.7 commits/second however many clients run, while group
commit amortizes one force over every commit in the window: committed
transactions per second keep scaling and forces-per-commit drop below 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from repro.core.cluster import TabsCluster
from repro.core.config import CommitConfig, TabsConfig
from repro.servers.int_array import IntegerArrayServer


@dataclass
class ThroughputResult:
    concurrency: int
    workload: str
    duration_ms: float
    committed: int
    aborted: int
    #: physical log forces performed during the window
    forces: int = 0
    #: which commit pipeline produced this result
    pipeline: str = "paper"

    @property
    def commits_per_second(self) -> float:
        return self.committed / (self.duration_ms / 1000.0)

    @property
    def forces_per_commit(self) -> float:
        return self.forces / self.committed if self.committed else 0.0


def run_closed_loop(cluster: TabsCluster, clients: int, duration_ms: float,
                    home_node: Callable[[int], str], client: Callable,
                    process_name: str, on_commit: Callable | None = None,
                    ) -> tuple[int, int, int]:
    """Drive ``clients`` closed-loop clients for ``duration_ms``; returns
    ``(committed, aborted, forces)`` counted inside the window.

    Each client starts its next transaction the moment the last one
    ends.  Client ``index`` runs on ``home_node(index)`` as process
    ``process_name.format(index)``; ``client(index, app)`` is a generator
    run once (it may look servers up) that returns ``next_txn``, and each
    ``next_txn()`` returns ``(tag, body)`` with ``body(tid)`` the
    generator run between begin and end.  A body that raises aborts; a
    commit landing after the deadline counts as neither outcome.
    ``on_commit(index, tag, elapsed_ms)`` sees each in-window commit.
    """
    engine = cluster.engine
    committed = aborted = 0
    forces_before = sum(node.rm.wal.forces
                        for node in cluster.nodes.values())
    deadline = engine.now + duration_ms

    def worker(index: int):
        nonlocal committed, aborted
        app = cluster.application(home_node(index))
        next_txn = yield from client(index, app)
        while engine.now < deadline:
            tag, body = next_txn()
            started = engine.now
            tid = yield from app.begin_transaction()
            try:
                yield from body(tid)
            except Exception:
                yield from app.abort_transaction(tid)
                aborted += 1
                continue
            ok = yield from app.end_transaction(tid)
            if ok and engine.now <= deadline:
                committed += 1
                if on_commit is not None:
                    on_commit(index, tag, engine.now - started)
            elif not ok:
                aborted += 1

    workers = [cluster.spawn_on(home_node(index), worker(index),
                                name=process_name.format(index))
               for index in range(clients)]

    def sentinel():
        # Keeps time advancing even if every client blocks on a lock.
        yield duration_ms

    cluster.spawn_on(min(cluster.nodes), sentinel(), name="sentinel")
    for process in workers:
        engine.run_until(process)
    forces = sum(node.rm.wal.forces
                 for node in cluster.nodes.values()) - forces_before
    return committed, aborted, forces


def run_throughput(concurrency: int, workload: str = "disjoint",
                   duration_ms: float = 60_000.0,
                   config: TabsConfig | None = None,
                   commit: CommitConfig | None = None,
                   instrument: Callable[[TabsCluster], None] | None = None,
                   ) -> ThroughputResult:
    """Measure committed transactions/second at a given concurrency.

    ``commit`` overrides the commit-pipeline configuration of ``config``
    (or of a default config) -- the sweep harnesses use it to hold every
    other knob fixed while swapping pipelines.  ``instrument`` (if given)
    receives the started cluster before the workers spawn, mirroring
    ``run_benchmark`` -- the observability harnesses use it to enable
    tracing or profiling.
    """
    if workload not in ("disjoint", "shared"):
        raise ValueError(f"unknown workload {workload!r}")
    base = config or TabsConfig()
    if commit is not None:
        base = base.with_(commit=commit)
    cluster = TabsCluster(base)
    cluster.add_node("n1")
    cluster.add_server("n1", IntegerArrayServer.factory("array"))
    cluster.start()
    if instrument is not None:
        instrument(cluster)

    def client(index: int, app):
        ref = yield from app.lookup_one("array")
        cell = 1 if workload == "shared" else index + 1
        iterations = itertools.count(1)

        def next_txn():
            value = next(iterations)
            return None, lambda tid: app.call(
                ref, "set_cell", {"cell": cell, "value": value}, tid)

        return next_txn

    committed, aborted, forces = run_closed_loop(
        cluster, concurrency, duration_ms, home_node=lambda index: "n1",
        client=client, process_name="app{}")
    return ThroughputResult(concurrency=concurrency, workload=workload,
                            duration_ms=duration_ms, committed=committed,
                            aborted=aborted, forces=forces,
                            pipeline=base.commit.pipeline)


#: the two pipeline configurations compared by :func:`compare_pipelines`;
#: both run over a serial log device so only the pipeline differs
PIPELINE_CONFIGS: dict[str, CommitConfig] = {
    "paper": CommitConfig(serial_log_device=True),
    "grouped": CommitConfig.grouped(),
}


def compare_pipelines(concurrencies: list[int],
                      workload: str = "disjoint",
                      duration_ms: float = 30_000.0,
                      workers: int = 1,
                      ) -> dict[str, list[ThroughputResult]]:
    """The group-commit study: both pipelines, same serial log device.

    Both pipelines' cells go into one flat fan-out (a single pool ride),
    then are split back per pipeline -- the result is identical to the
    sequential nested loops for any ``workers``.
    """
    from repro.perf.runner import run_cells, throughput_sweep_cells

    names = list(PIPELINE_CONFIGS)
    cells = [cell for name in names
             for cell in throughput_sweep_cells(
                 concurrencies, workload, duration_ms,
                 commit=PIPELINE_CONFIGS[name])]
    results = run_cells(cells, workers=workers)
    step = len(concurrencies)
    return {name: results[i * step:(i + 1) * step]
            for i, name in enumerate(names)}
