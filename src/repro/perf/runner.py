"""A QUANTAS-style parallel experiment runner.

Performance studies and chaos soaks are embarrassingly parallel: every
``(configuration, seed)`` cell is an independent, deterministic simulation.
This module fans a list of :class:`Cell` specifications across worker
processes (the shape QUANTAS uses for its consensus-algorithm sweeps) and
aggregates the results in **cell order**, so the output is byte-identical
no matter how many workers ran or in what order they finished:

- every cell is a pure function of its spec -- the worker builds the
  cluster, runs it, and returns a picklable result;
- results travel back tagged with their cell index
  (``imap_unordered`` is free to deliver them in completion order);
- the aggregator slots them by index, so ``workers=1`` and ``workers=N``
  produce the same list.

``workers=1`` bypasses multiprocessing entirely and runs the cells
inline; it is the reference execution the determinism suite compares the
parallel paths against.  Worker processes are started with the ``fork``
method when the platform offers it (cheap, inherits the imported tree)
and fall back to ``spawn`` elsewhere -- cells and their parameters must
therefore be module-level and picklable.

The high-level sweeps (:func:`throughput_sweep_cells`,
:func:`debitcredit_sweep_cells`, :func:`chaos_soak_cells`) build the
cells behind the pipeline comparisons in :mod:`repro.perf.throughput`
and :mod:`repro.perf.debitcredit` and the chaos soak suite; the
``sweep`` CLI subcommand (``python -m repro sweep``) drives them.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Callable

from repro.errors import TabsError


@dataclass(frozen=True)
class Cell:
    """One experiment: an independent ``(kind, params, seed)`` simulation.

    ``params`` is a tuple of ``(name, value)`` pairs (not a dict) so cells
    are hashable and their pickled form is canonical.
    """

    kind: str
    params: tuple = ()
    seed: int = 0

    def param_dict(self) -> dict:
        return dict(self.params)

    @classmethod
    def of(cls, kind: str, seed: int = 0, **params) -> "Cell":
        """Build a cell from keyword parameters (sorted for canonical form)."""
        return cls(kind=kind,
                   params=tuple(sorted(params.items())), seed=seed)


# -- cell kinds -------------------------------------------------------------------
#
# Each kind maps to a module-level function (picklable under spawn) taking
# (params: dict, seed: int) and returning a picklable result.  Imports are
# local so that importing the runner does not drag the whole perf stack
# into processes that never run a cell.


def _cell_throughput(params: dict, seed: int):
    from repro.core.config import TabsConfig
    from repro.perf.throughput import run_throughput

    return run_throughput(params["concurrency"],
                          workload=params.get("workload", "disjoint"),
                          duration_ms=params.get("duration_ms", 60_000.0),
                          config=TabsConfig(seed=seed),
                          commit=params.get("commit"))


def _cell_debitcredit(params: dict, seed: int):
    from repro.core.config import TabsConfig
    from repro.perf.debitcredit import run_debitcredit

    config = params.get("config")
    if config is None:
        config = TabsConfig(seed=seed)
    return run_debitcredit(params["clients"],
                           duration_ms=params.get("duration_ms", 30_000.0),
                           config=config,
                           commit=params.get("commit"),
                           workload=params.get("workload"))


def _cell_chaos_soak(params: dict, seed: int) -> dict:
    """One chaos soak: random fault plan, seeded traffic, full audit.

    Returns a summary dict (the live cluster is not picklable): the
    deterministic fields a soak fleet aggregates over.
    """
    from repro.chaos import ChaosController, ChaosWorkload, random_plan
    from repro.chaos.workload import build_cluster

    node_count = params.get("node_count", 3)
    nodes = [f"n{i}" for i in range(node_count)]
    plan = random_plan(seed=seed, nodes=nodes,
                       duration_ms=params.get("plan_ms", 8_000.0),
                       episodes=params.get("episodes", 5))
    cluster = build_cluster(node_count, seed=seed)
    controller = ChaosController(cluster, plan, seed=seed)
    workload = ChaosWorkload(cluster, controller, seed=seed)
    workload.setup()
    controller.install()
    workload.schedule_traffic(transfers=params.get("transfers", 24))
    quiet, report = workload.play(params.get("run_ms", 10_000.0))
    return {
        "seed": seed,
        "quiet": quiet,
        "ok": report.ok,
        "violations": sorted(str(v) for v in report.violations),
        "trace_events": len(controller.trace),
        "events_executed": cluster.engine.events_executed,
    }


CELL_KINDS: dict[str, Callable[[dict, int], object]] = {
    "throughput": _cell_throughput,
    "debitcredit": _cell_debitcredit,
    "chaos_soak": _cell_chaos_soak,
}


def run_cell(cell: Cell):
    """Run one cell in this process and return its result."""
    try:
        runner = CELL_KINDS[cell.kind]
    except KeyError:
        raise TabsError(f"unknown cell kind {cell.kind!r}; known: "
                        f"{sorted(CELL_KINDS)}") from None
    return runner(cell.param_dict(), cell.seed)


def _run_indexed(indexed: tuple) -> tuple:
    """Worker entry point: ``(index, cell) -> (index, result)``.

    The index tag is what makes the fan-out order-independent: workers
    may finish in any order, the aggregation slots results by index.
    """
    index, cell = indexed
    return index, run_cell(cell)


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context("spawn")


def run_cells(cells: list[Cell], workers: int = 1) -> list:
    """Run every cell; returns results in **cell order** regardless of
    ``workers``.

    ``workers=1`` runs inline (the reference execution); ``workers>1``
    fans the cells across a process pool.  Oversubscribing (more workers
    than cells, or than cores) is allowed and changes nothing but wall
    time.
    """
    if workers < 1:
        raise TabsError(f"workers must be >= 1, got {workers}")
    cells = list(cells)
    if workers == 1 or len(cells) <= 1:
        return [run_cell(cell) for cell in cells]
    results: list = [None] * len(cells)
    ctx = _pool_context()
    with ctx.Pool(processes=min(workers, len(cells))) as pool:
        for index, result in pool.imap_unordered(
                _run_indexed, enumerate(cells), chunksize=1):
            results[index] = result
    return results


# -- sweep builders ---------------------------------------------------------------


def throughput_sweep_cells(concurrencies: list[int],
                           workload: str = "disjoint",
                           duration_ms: float = 60_000.0,
                           seed: int = 1985,
                           commit=None) -> list[Cell]:
    extra = {"commit": commit} if commit is not None else {}
    return [Cell.of("throughput", seed=seed, concurrency=concurrency,
                    workload=workload, duration_ms=duration_ms, **extra)
            for concurrency in concurrencies]


def debitcredit_sweep_cells(client_counts: list[int],
                            duration_ms: float = 30_000.0,
                            seed: int = 1985,
                            commit=None, workload=None,
                            config=None) -> list[Cell]:
    extra = {}
    if commit is not None:
        extra["commit"] = commit
    if workload is not None:
        extra["workload"] = workload
    if config is not None:
        extra["config"] = config
    return [Cell.of("debitcredit", seed=seed, clients=clients,
                    duration_ms=duration_ms, **extra)
            for clients in client_counts]


def chaos_soak_cells(seeds: list[int], node_count: int = 3,
                     transfers: int = 24, episodes: int = 5,
                     plan_ms: float = 8_000.0,
                     run_ms: float = 10_000.0) -> list[Cell]:
    return [Cell.of("chaos_soak", seed=seed, node_count=node_count,
                    transfers=transfers, episodes=episodes,
                    plan_ms=plan_ms, run_ms=run_ms)
            for seed in seeds]


# -- JSON-able aggregation --------------------------------------------------------


def result_row(cell: Cell, result) -> dict:
    """One cell's result as a deterministic, JSON-able row."""
    row = {"kind": cell.kind, "seed": cell.seed}
    for name, value in cell.params:
        # Config-object parameters (CommitConfig / WorkloadConfig) are
        # summarized by repr so the row stays JSON-able.
        row[name] = (value if isinstance(value, (int, float, str, bool))
                     or value is None else repr(value))
    if isinstance(result, dict):
        row.update(result)
        return row
    # perf result dataclasses (ThroughputResult / DebitCreditResult)
    for name in ("concurrency", "clients", "workload", "committed",
                 "aborted", "remote_committed", "forces", "pipeline"):
        value = getattr(result, name, None)
        if value is not None:
            row[name] = value
    if getattr(result, "duration_ms", None):
        row["tps"] = round(
            result.committed / (result.duration_ms / 1000.0), 3)
    return row


def sweep_payload(cells: list[Cell], results: list,
                  workers: int) -> dict:
    """The ``sweep`` subcommand's JSON document.

    Deterministic in the cells alone: ``workers`` is recorded for
    provenance but every other byte is independent of it.
    """
    return {
        "cells": len(cells),
        "workers": workers,
        "rows": [result_row(cell, result)
                 for cell, result in zip(cells, results)],
    }
