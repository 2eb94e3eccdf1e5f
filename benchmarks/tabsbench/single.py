"""One benchmark run in this process -- what the contract's command does.

``--trace 0``: set up (several times, for a steady ``setup_s``), run the
window with tracing off, drain, audit, print the end-to-end metrics.
``--trace 1``: one untraced pass (the counters, and the wall reference
for tracing overhead), then the traced pass of the same scenario, then
the probes; print the per-layer metrics.

The last line of standard output is the contract's JSON object; the line
before it, prefixed ``#detail``, carries what the ``run`` subcommand
prints beside the metrics (sample counts, outcomes, violations).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time
from pathlib import Path

from . import layers, measure, probes
from .spec import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOAD_BY_NAME

OUT_DIR = Path(__file__).resolve().parent / "out"
QUICK_SECONDS = RUN_SECONDS / 10.0


def _untraced_pass(name: str, seed: int, seconds: float, setups: int):
    """Build + warm ``setups`` times (identical every time: the
    simulation is deterministic), keep the last, run its window."""
    setup_walls = []
    for _ in range(setups):
        scenario = None  # free the previous set-up first
        gc.collect()
        started = time.perf_counter()
        scenario = measure.build_and_warm(name, seed, seconds)
        setup_walls.append(time.perf_counter() - started)
    return measure.run_window(scenario), setup_walls


def _traced_pass(name: str, seed: int, seconds: float, untraced: measure.Pass,
                 untraced_sim: dict, limit_ms: float, guards: measure.Guards
                 ) -> tuple[dict[str, float], list[str]]:
    """The same scenario again with tracing and profiling on; returns the
    per-layer metrics and whatever went wrong."""
    scenario = measure.build_and_warm(name, seed, seconds,
                                      instrument=layers.Instruments)
    traced = measure.run_window(scenario)
    violations = list(traced.violations)
    traced_sim = measure.sim_end_to_end(traced, limit_ms, guards)
    if traced_sim != untraced_sim:
        violations.append(
            "traced pass differs from untraced on simulated metrics: "
            + ", ".join(key for key in untraced_sim
                        if untraced_sim[key] != traced_sim[key]))
    values = measure.counter_layer_metrics(untraced)
    values.update(layers.traced_layer_metrics(traced, untraced))
    values.update(probes.probe_metrics())
    values["obs.sim_identical"] = float(traced_sim == untraced_sim)
    layers.dump_spans(scenario.instruments,
                      OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    return values, violations


def run_single(name: str, seed: int, seconds: float, trace: bool,
               quick: bool = False, import_s: float = 0.0
               ) -> tuple[dict, dict]:
    """Returns (the contract's result object, the detail object)."""
    workload = WORKLOAD_BY_NAME[name]
    guards = measure.QUICK_GUARDS if quick else measure.Guards()
    run, setup_walls = _untraced_pass(
        name, seed, seconds,
        setups=1 if trace or quick else measure.SETUP_REPEATS)
    sim = measure.sim_end_to_end(run, workload.latency_limit_sim_ms, guards)
    violations = list(run.violations)
    host_speed = statistics.median(run.host_speeds)
    if trace:
        table = PER_LAYER
        values, traced_violations = _traced_pass(
            name, seed, seconds, run, sim, workload.latency_limit_sim_ms,
            guards)
        violations.extend(traced_violations)
        q1, _, q3 = statistics.quantiles(run.host_speeds, n=4)
        values["host.calib_ops_per_s"] = host_speed
        values["host.calib_spread"] = (q3 - q1) / host_speed
    else:
        table = END_TO_END
        values = {
            **sim,
            "setup_s": import_s + statistics.median(setup_walls),
            "commits_per_wall_s":
                len(run.commit_instants) / run.window_reference_s,
            "peak_rss_mb": measure.peak_rss_mb(),
        }

    outcomes = measure.outcome_counts(run)
    attempted = sum(outcomes.values())
    result = {
        "correct": not violations,
        "attempted": attempted,
        "failed": attempted - outcomes.get("committed", 0),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in table},
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "quick": quick,
        "window_sim_s": workload.window_sim_ms(seconds) / 1000.0,
        "window_wall_s": run.window_wall_s,
        "window_reference_s": run.window_reference_s,
        "outcomes": outcomes,
        "committed_samples": outcomes.get("committed", 0),
        "commits_in_window": len(run.commit_instants),
        "longest_commit_gap_sim_ms": measure.commit_gaps(run)[0],
        # arrivals are engine-scheduled: never late on the simulated clock
        "generator_lag_sim_ms": 0.0,
        "calib_ops_per_s": host_speed,
        "setup_walls_s": setup_walls, "import_s": import_s,
        "violations": violations,
    }
    return result, detail


def main(argv: list[str] | None = None, started_at: float | None = None
         ) -> int:
    parser = argparse.ArgumentParser(
        description="One tabsbench run of one workload.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="run length; maps to a fixed simulated window "
                             "per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="window ~10x shorter, relaxed sample guards; "
                             "NOT comparable with full runs")
    args = parser.parse_args(argv)
    import_s = time.perf_counter() - started_at \
        if started_at is not None else 0.0
    seconds = QUICK_SECONDS if args.quick else args.seconds
    result, detail = run_single(args.workload, args.seed, seconds,
                                bool(args.trace), quick=args.quick,
                                import_s=import_s)
    print("#detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0
