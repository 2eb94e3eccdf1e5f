"""Command-line demo runner: ``python -m repro <command>``.

Commands:

- ``inventory`` -- print the Figure 3-1 component map of a running node
- ``primitives`` -- measure and print Table 5-1 against the paper
- ``benchmark [keys...]`` -- run Table 5-4 rows (default: a quick subset)
- ``paths`` -- print the longest-path commit analysis (Table 5-3 method)
- ``trace <target>`` -- run a benchmark, the canned chaos scenario or a
  short DebitCredit run with the flight recorder on; emit Chrome
  trace-event JSON (load it at https://ui.perfetto.dev) and optionally
  compact JSONL
- ``metrics <target>`` -- run a target and print its per-node counters,
  gauges, and latency histograms
- ``profile <target>`` -- run a target under the wall-clock self-profiler
  (and the tracer, whose spans name the components wall is booked to);
  print the events/sec meter, fabric churn, the wall by span component
  and the hot-handler table, and optionally write a collapsed-stack
  flamegraph and a pstats dump

The heavier artifacts (all fourteen benchmarks under three configurations,
ablations, throughput) live in ``pytest benchmarks/``.
"""

from __future__ import annotations

import argparse
import sys

from repro import TabsCluster, TabsConfig
from repro.kernel.costs import MEASURED_1985
from repro.perf.benchmarks import BENCHMARKS_BY_KEY, run_benchmark
from repro.perf.model import PAPER_TABLE_5_3
from repro.perf.pathmodel import TABLE_5_3_PATHS
from repro.perf.primitives import measure_primitives
from repro.perf.projections import run_table_5_4
from repro.perf.report import (
    render_metrics,
    render_table_5_1,
    render_table_5_4,
)
from repro.servers.int_array import IntegerArrayServer

#: the extra trace/metrics/profile targets beyond the benchmark keys
CHAOS_TARGET = "chaos"
DEBITCREDIT_TARGET = "debitcredit"


def write_report(text: str, stream=None) -> None:
    """Write one report to ``stream``, defaulting to the *current* stdout.

    Every command funnels its output through here; resolving
    ``sys.stdout`` at call time (not import time) keeps the commands
    observable under pytest's ``capsys`` and honest under redirection.
    """
    out = stream if stream is not None else sys.stdout
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def cmd_inventory(_args) -> int:
    cluster = TabsCluster(TabsConfig())
    cluster.add_node("demo")
    cluster.add_server("demo", IntegerArrayServer.factory("array"))
    cluster.start()
    lines = ["Figure 3-1: the components of a TABS node", ""]
    for name, role in cluster.node("demo").component_inventory().items():
        lines.append(f"  {name:24s} {role}")
    write_report("\n".join(lines))
    return 0


def cmd_primitives(_args) -> int:
    measured = measure_primitives(repetitions=20)
    write_report(render_table_5_1(measured, MEASURED_1985))
    return 0


def cmd_benchmark(args) -> int:
    keys = args.keys or ["r1", "w1", "r1r1", "w1w1"]
    rows = run_table_5_4(keys=keys, iterations=args.iterations)
    write_report(render_table_5_4(rows))
    return 0


def cmd_paths(_args) -> int:
    lines = ["Longest-path commit counts (ours | paper), per Table 5-3", ""]
    for protocol, path in TABLE_5_3_PATHS.items():
        paper = PAPER_TABLE_5_3[protocol]
        lines.append(f"  {protocol:14s} dg {path.datagrams:>4} | "
                     f"{paper.datagrams:>4}   small {path.small:>4.0f} | "
                     f"{paper.small:>4.0f}   stable {path.stable_writes:>2.0f} | "
                     f"{paper.stable_writes:>2.0f}")
    write_report("\n".join(lines))
    return 0


# -- observability targets ---------------------------------------------------

def _run_chaos_target(seed: int, traced: bool,
                      profiled: bool = False) -> TabsCluster:
    """The canned chaos scenario: crash + partition + link-fault torture.

    Mirrors the determinism suite's plan so a trace of it shows failure
    detection, aborts, session breaks, and crash-recovery replay -- the
    events the flight recorder exists for.
    """
    from repro.chaos import (
        ChaosController,
        ChaosWorkload,
        CrashAt,
        FaultPlan,
        LinkFaultWindow,
        PartitionAt,
    )
    from repro.chaos.workload import build_cluster

    plan = FaultPlan.of(
        CrashAt(350.0, "n1", restart_after_ms=450.0),
        PartitionAt(1_000.0, (("n0",), ("n1", "n2")), heal_after_ms=500.0),
        LinkFaultWindow(1_800.0, 2_600.0, "n0", "n2", loss=0.3,
                        duplicate=0.2, reorder=0.2))
    cluster = build_cluster(seed=seed)
    if traced:
        cluster.enable_tracing()
    if profiled:
        cluster.enable_profiling()
    controller = ChaosController(cluster, plan, seed=seed)
    workload = ChaosWorkload(cluster, controller, seed=seed)
    workload.setup()
    controller.install()
    workload.schedule_traffic(transfers=10)
    workload.play(4_000.0)
    return cluster


def _run_debitcredit_target(seed: int, traced: bool,
                            profiled: bool = False) -> TabsCluster:
    """A short seeded DebitCredit run: 40 transactions over two branch
    nodes, 30 % of them debiting a remote account (two-phase commit)."""
    from repro.core.config import WorkloadConfig
    from repro.workloads import DebitCreditWorkload

    cluster = TabsCluster(TabsConfig(seed=seed, workload=WorkloadConfig(
        branches=2, accounts_per_branch=300, tellers_per_branch=4,
        locality=0.7)))
    if traced:
        cluster.enable_tracing()
    if profiled:
        cluster.enable_profiling()
    workload = DebitCreditWorkload(cluster, cluster.build_workload(),
                                   seed=seed)
    workload.schedule_traffic(txns=40, spacing_ms=40.0)
    workload.run(60_000.0)
    cluster.settle()
    return cluster


def _run_target(target: str, seed: int, iterations: int,
                traced: bool, profiled: bool = False) -> TabsCluster:
    """Run ``target`` (a benchmark key, ``chaos`` or ``debitcredit``);
    return its cluster."""
    if target == CHAOS_TARGET:
        return _run_chaos_target(seed, traced, profiled)
    if target == DEBITCREDIT_TARGET:
        return _run_debitcredit_target(seed, traced, profiled)
    spec = BENCHMARKS_BY_KEY[target]
    captured: list[TabsCluster] = []

    def instrument(cluster: TabsCluster) -> None:
        captured.append(cluster)
        if traced:
            cluster.enable_tracing()
        if profiled:
            cluster.enable_profiling()

    run_benchmark(spec, TabsConfig(seed=seed), iterations=iterations,
                  instrument=instrument)
    return captured[0]


def cmd_trace(args) -> int:
    from repro.obs import chrome_trace_json, jsonl_events

    cluster = _run_target(args.target, args.seed, args.iterations,
                          traced=True)
    tracer = cluster.ctx.tracer
    payload = chrome_trace_json(tracer)
    summary = (f"{len(tracer.spans)} spans, {len(tracer.events)} events, "
               f"{tracer.last_time_ms():.1f} simulated ms")
    if args.jsonl:
        with open(args.jsonl, "w") as handle:
            handle.write(jsonl_events(tracer))
        write_report(f"wrote JSONL flight record to {args.jsonl} "
                     f"({summary})")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload)
        write_report(f"wrote Chrome trace to {args.out} ({summary}); "
                     "load it at https://ui.perfetto.dev")
    elif not args.jsonl:
        write_report(payload)
    return 0


def cmd_metrics(args) -> int:
    from repro.obs import metrics_json

    cluster = _run_target(args.target, args.seed, args.iterations,
                          traced=False)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(metrics_json(cluster.metrics))
        write_report(f"wrote metrics snapshot to {args.json}")
    else:
        write_report(render_metrics(cluster.metrics))
    return 0


def cmd_profile(args) -> int:
    from repro.obs import collapsed_stacks, render_profile, write_pstats

    cluster = _run_target(args.target, args.seed, args.iterations,
                          traced=True, profiled=True)
    profiler = cluster.ctx.profiler
    write_report(render_profile(profiler, top=args.top))
    if args.flame:
        with open(args.flame, "w") as handle:
            handle.write(collapsed_stacks(profiler))
        write_report(f"wrote collapsed-stack flamegraph text to "
                     f"{args.flame} (feed it to flamegraph.pl or "
                     "speedscope)")
    if args.pstats:
        write_pstats(profiler, args.pstats)
        write_report(f"wrote pstats dump to {args.pstats} "
                     "(load with pstats.Stats or snakeviz)")
    return 0


def cmd_sweep(args) -> int:
    import json

    from repro.perf.runner import (
        chaos_soak_cells,
        debitcredit_sweep_cells,
        run_cells,
        sweep_payload,
        throughput_sweep_cells,
    )

    counts = [int(part) for part in args.counts.split(",") if part]
    seeds = [int(part) for part in args.seeds.split(",") if part]
    if args.sweep == "throughput":
        cells = [cell for seed in seeds
                 for cell in throughput_sweep_cells(
                     counts, workload=args.workload,
                     duration_ms=args.duration_ms, seed=seed)]
    elif args.sweep == "debitcredit":
        cells = [cell for seed in seeds
                 for cell in debitcredit_sweep_cells(
                     counts, duration_ms=args.duration_ms, seed=seed)]
    else:
        cells = chaos_soak_cells(seeds)
    results = run_cells(cells, workers=args.workers)
    payload = sweep_payload(cells, results, workers=args.workers)
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
        write_report(f"wrote {len(cells)} cells to {args.json}")
    else:
        write_report(text)
    return 0


def _add_target_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "target",
        choices=sorted(BENCHMARKS_BY_KEY) + [CHAOS_TARGET,
                                             DEBITCREDIT_TARGET],
        help="benchmark key (e.g. w1w1), 'chaos' (canned fault scenario) "
             "or 'debitcredit' (40 DebitCredit transactions, some 2PC)")
    parser.add_argument("--seed", type=int, default=1985)
    parser.add_argument("--iterations", type=int, default=3,
                        help="benchmark iterations (benchmark keys only)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TABS reproduction demo runner (SOSP 1985)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("inventory").set_defaults(run=cmd_inventory)
    sub.add_parser("primitives").set_defaults(run=cmd_primitives)
    bench = sub.add_parser("benchmark")
    bench.add_argument("keys", nargs="*",
                       help="benchmark keys (e.g. r1 w1 r1r1)")
    bench.add_argument("--iterations", type=int, default=10)
    bench.set_defaults(run=cmd_benchmark)
    sub.add_parser("paths").set_defaults(run=cmd_paths)
    trace = sub.add_parser(
        "trace", help="run a target with the flight recorder on")
    _add_target_arguments(trace)
    trace.add_argument("--out", help="write Chrome trace-event JSON here "
                                     "(default: print to stdout)")
    trace.add_argument("--jsonl", help="also write compact JSONL events")
    trace.set_defaults(run=cmd_trace)
    metrics = sub.add_parser(
        "metrics", help="run a target and print its metrics registry")
    _add_target_arguments(metrics)
    metrics.add_argument("--json", help="write the JSON snapshot here "
                                        "instead of rendering tables")
    metrics.set_defaults(run=cmd_metrics)
    profile = sub.add_parser(
        "profile", help="run a target under the wall-clock self-profiler")
    _add_target_arguments(profile)
    profile.add_argument("--top", type=int, default=10,
                         help="rows in the hot-handler and contention "
                              "tables")
    profile.add_argument("--flame", help="write collapsed-stack "
                                         "flamegraph text here")
    profile.add_argument("--pstats", help="write a pstats-compatible "
                                          "dump here")
    profile.set_defaults(run=cmd_profile)
    sweep = sub.add_parser(
        "sweep", help="fan a (config, seed) experiment sweep across "
                      "worker processes (deterministic aggregation)")
    sweep.add_argument("sweep",
                       choices=["throughput", "debitcredit", "chaos"],
                       help="which experiment family to sweep")
    sweep.add_argument("--counts", default="1,2,4,8",
                       help="comma-separated client/concurrency counts")
    sweep.add_argument("--seeds", default="1985",
                       help="comma-separated seeds (chaos: one cell per "
                            "seed)")
    sweep.add_argument("--duration-ms", type=float, default=10_000.0)
    sweep.add_argument("--workload", default="disjoint",
                       choices=["disjoint", "shared"],
                       help="throughput sweep workload")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (results are identical "
                            "for any value)")
    sweep.add_argument("--json", help="write the JSON document here "
                                      "instead of printing it")
    sweep.set_defaults(run=cmd_sweep)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
