"""``run``: every workload, every metric, the audits, one exit code.

Per workload: K untraced rounds, each a fresh subprocess of the
contract's own command, interleaved round-robin across workloads with
the order alternated per round and never two at once (the sandbox has
two cores: one for the run, one for everything else).  Wall metrics are
the median over rounds, with quartiles and every round listed; simulated
metrics must be *identical* across rounds -- a mismatch is an error, not
noise.  Then one traced run per workload yields the per-layer block.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

from .single import OUT_DIR
from .spec import END_TO_END, PER_LAYER, RUN_SECONDS, SIM_END_TO_END, WORKLOADS

RUN_PY = Path(__file__).resolve().parent / "run.py"
#: a round whose host calibration is further than this from the rounds'
#: median ran on a disturbed host: it is run again, once
CALIBRATION_TOLERANCE = 0.10
CHILD_TIMEOUT_S = 180


def run_child(workload: str, seed: int, trace: int, quick: bool
              ) -> tuple[dict, dict]:
    """One run in a fresh interpreter; returns (result, detail)."""
    command = [sys.executable, str(RUN_PY), "--workload", workload,
               "--seed", str(seed), "--seconds", str(RUN_SECONDS),
               "--trace", str(trace)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2 \
            or not lines[-2].startswith("#detail "):
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2][len("#detail "):])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def collect(seed: int, names: list[str], rounds: int, quick: bool,
            child: Callable = run_child, log: Callable = print) -> dict:
    """Run everything; returns the report (``problems`` empty = pass)."""
    untraced: dict[str, list[tuple[dict, dict]]] = {n: [] for n in names}
    for index in range(rounds):
        for name in (names if index % 2 == 0 else reversed(names)):
            log(f"  round {index + 1}/{rounds}  {name}")
            untraced[name].append(child(name, seed, 0, quick))

    replaced: dict[str, list[dict]] = {n: [] for n in names}
    for name in names:
        speeds = [detail["calib_ops_per_s"] for _, detail in untraced[name]]
        median = statistics.median(speeds)
        for index, speed in enumerate(speeds):
            if abs(speed - median) > CALIBRATION_TOLERANCE * median:
                log(f"  re-run  {name} round {index + 1}: host calibration "
                    f"{speed / median - 1:+.0%} off the rounds' median")
                result, detail = untraced[name][index]
                replaced[name].append({
                    "round": index + 1, "calib_ops_per_s": speed,
                    "metrics": result["metrics"]})
                untraced[name][index] = child(name, seed, 0, quick)

    report = {"seed": seed, "quick": quick, "rounds": rounds,
              "run_seconds": RUN_SECONDS, "workloads": {}, "problems": []}
    for name in names:
        log(f"  traced  {name}")
        traced_result, traced_detail = child(name, seed, 1, quick)
        results = [result for result, _ in untraced[name]]
        details = [detail for _, detail in untraced[name]]
        entry = {"end_to_end": {}, "per_layer": traced_result["metrics"],
                 "outcomes": details[0]["outcomes"],
                 "committed_samples": details[0]["committed_samples"],
                 "longest_commit_gap_sim_ms":
                     details[0]["longest_commit_gap_sim_ms"],
                 "window_sim_s": details[0]["window_sim_s"],
                 "window_wall_s": [d["window_wall_s"] for d in details],
                 "calib_ops_per_s": [d["calib_ops_per_s"] for d in details],
                 "replaced_rounds": replaced[name],
                 "violations": sorted({v for d in [*details, traced_detail]
                                       for v in d["violations"]})}
        for metric in END_TO_END:
            values = [r["metrics"][metric.name]["value"] for r in results]
            q1, median, q3 = quartiles(values)
            entry["end_to_end"][metric.name] = {
                "value": median, "unit": metric.unit, "q1": q1, "q3": q3,
                "rounds": values}
            if metric.name in SIM_END_TO_END and len(set(values)) > 1:
                report["problems"].append(
                    f"{name}: simulated metric {metric.name} differs "
                    f"between rounds of one seed: {values}")
        if not all(r["correct"] for r in [*results, traced_result]):
            report["problems"].append(
                f"{name}: audit failed: {entry['violations']}")
        report["workloads"][name] = entry
    return report


def render(report: dict) -> str:
    """Every metric by name with its unit: the end-to-end block per
    workload, then the per-layer block as one table across workloads."""
    by_name = {m.name: m for m in (*END_TO_END, *PER_LAYER)}
    lines = []
    if report["quick"]:
        lines.append("QUICK MODE: windows ~10x shorter, relaxed sample "
                     "guards -- NOT comparable with full runs")
    for name, entry in report["workloads"].items():
        lines += [
            "",
            f"== {name}  (seed {report['seed']}, "
            f"{entry['window_sim_s']:g} sim-s window, "
            f"{report['rounds']} untraced round(s) + 1 traced run)",
            f"   outcomes {entry['outcomes']}; latency over "
            f"{entry['committed_samples']} committed samples; single "
            "longest commit gap "
            f"{entry['longest_commit_gap_sim_ms']:.1f} sim-ms; "
            "generator_lag_sim_ms 0",
            "   window wall s per round "
            f"{[round(wall, 2) for wall in entry['window_wall_s']]}",
            f"   {'end-to-end':24s} {'median':>12s}  {'unit':7s} clock  "
            "[q1 .. q3]  every round"]
        for metric_name, cell in entry["end_to_end"].items():
            metric = by_name[metric_name]
            row = (f"   {metric_name:24s} {cell['value']:12.4f}  "
                   f"{cell['unit']:7s} {metric.clock:5s}")
            if metric.clock == "sim":
                row += "  identical in every round"
            else:
                row += (f"  [{cell['q1']:.4g} .. {cell['q3']:.4g}]  "
                        + " ".join(f"{v:.4g}" for v in cell["rounds"]))
            lines.append(row)
        for replaced in entry["replaced_rounds"]:
            lines.append(
                f"   round {replaced['round']} was re-run (host calibration "
                "off); its first attempt read "
                + " ".join(f"{key}={cell['value']:.4g}" for key, cell
                           in replaced["metrics"].items()
                           if by_name[key].clock != "sim"))
        lines.append("   audits: " + ("pass" if not entry["violations"]
                                      else f"FAIL {entry['violations']}"))
    names = list(report["workloads"])
    lines += ["", "== per-layer metrics (traced run of each workload)",
              f"   {'':42s} {'unit':6s}"
              + "".join(f" {name[:19]:>19s}" for name in names)]
    for metric in PER_LAYER:
        lines.append(
            f"   {metric.name:42s} {metric.unit:6s}" + "".join(
                f" {report['workloads'][name]['per_layer'][metric.name]['value']:19.4f}"
                for name in names))
    lines.append("")
    lines += [f"PROBLEM: {problem}" for problem in report["problems"]]
    lines.append("FAIL" if report["problems"] else "PASS")
    return "\n".join(lines)


def main_run(seed: int, names: list[str] | None, rounds: int, quick: bool,
             child: Callable = run_child) -> int:
    names = names or [w.name for w in WORKLOADS]
    if quick:
        rounds = 1
    report = collect(seed, names, rounds, quick, child=child)
    print(render(report))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"report-seed{seed}{'-quick' if quick else ''}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 1 if report["problems"] else 0
