"""``compare A.json B.json``: one rule for every reviewer.

A and B are reports written by ``run`` (A the base, B the candidate),
normally of the same seed.  For every (workload, end-to-end metric) pair
the candidate's median is set against the base's, each ratio printed with
its base, and the pair is filed under one of four verdicts:

``unresolved``  either side's run-to-run spread (interquartile distance /
                median over its rounds) is wider than the metric's bound,
                so the comparison cannot be decided -- not "unchanged"
``regressed``   worse than the base by more than the bound
``improved``    better than the base by more than the bound
``unchanged``   within the bound either way

Simulated metrics have zero spread (``run`` refuses a report where they
differ between rounds), so for them any movement beyond the bound is a
verdict, and a simulator-only change must leave them bit-identical --
flagged ``!= base`` when it does not.
"""

from __future__ import annotations

import json
from pathlib import Path

from .orchestrate import spread
from .spec import END_TO_END


def verdict(base: dict, candidate: dict, better: str, bound: float) -> str:
    if max(spread(base["rounds"]), spread(candidate["rounds"])) > bound:
        return "unresolved"
    change = candidate["value"] / base["value"] - 1.0
    worse = -change if better == "higher" else change
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(base_report: dict, candidate_report: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present in both."""
    rows = []
    for name, base_entry in base_report["workloads"].items():
        candidate_entry = candidate_report["workloads"].get(name)
        if candidate_entry is None:
            continue
        for metric in END_TO_END:
            base = base_entry["end_to_end"][metric.name]
            candidate = candidate_entry["end_to_end"][metric.name]
            rows.append({
                "workload": name, "metric": metric.name,
                "unit": metric.unit, "clock": metric.clock,
                "better": metric.better, "bound": metric.bound,
                "base": base["value"], "candidate": candidate["value"],
                "ratio": candidate["value"] / base["value"],
                "base_spread": spread(base["rounds"]),
                "candidate_spread": spread(candidate["rounds"]),
                "identical": base["value"] == candidate["value"],
                "verdict": verdict(base, candidate, metric.better,
                                   metric.bound)})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':20s} {'metric':24s} {'base':>12s} "
             f"{'candidate':>12s} {'cand/base':>9s} {'bound':>6s} "
             f"{'spread b/c':>13s}  verdict"]
    for row in rows:
        note = ""
        if row["clock"] == "sim" and not row["identical"]:
            note = "  (sim != base)"
        lines.append(
            f"{row['workload']:20s} {row['metric']:24s} "
            f"{row['base']:12.4f} {row['candidate']:12.4f} "
            f"{row['ratio']:9.4f} {row['bound']:6.2f} "
            f"{row['base_spread']:6.3f}/{row['candidate_spread']:<6.3f}  "
            f"{row['verdict']}{note}")
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    lines.append("  ".join(f"{key}: {counts[key]}" for key in sorted(counts)))
    return "\n".join(lines)


def main_compare(base_path: Path, candidate_path: Path) -> int:
    base = json.loads(base_path.read_text())
    candidate = json.loads(candidate_path.read_text())
    if base["quick"] != candidate["quick"]:
        print("refusing to compare a --quick report with a full one")
        return 2
    rows = compare(base, candidate)
    print(f"base {base_path} (seed {base['seed']})  candidate "
          f"{candidate_path} (seed {candidate['seed']}); every ratio is "
          "candidate / base")
    print(render(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0
