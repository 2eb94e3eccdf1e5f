"""Throughput versus concurrency -- the Section 7 future-work study.

Conflict-free applications scale; applications serialized by a shared
write lock do not.  The paper's no-load latency gives a first-order
prediction for both regimes: ~1000/latency commits per second per
conflict-free application, and ~1000/latency total for fully serialized
writers.

The pipeline-comparison half measures the group-commit payoff: the
``paper`` pipeline (one log force per commit record) against the
``grouped`` pipeline (batched forces), both
over a serial log device.  ``python benchmarks/bench_throughput.py
--json`` regenerates ``BENCH_throughput.json`` at the repository root;
``--smoke`` runs a shortened variant for CI.
"""

import json
import sys
from pathlib import Path

if __package__ in (None, ""):  # running as a script, not under pytest
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_ROOT / "src"))
    sys.path.insert(0, str(_ROOT))

import pytest

from benchmarks.conftest import REPO_ROOT, baseline_main, write_result
from repro.perf.throughput import compare_pipelines, run_throughput

CONCURRENCIES = (1, 2, 4, 8)
#: concurrency levels for the paper-versus-grouped pipeline comparison
PIPELINE_CONCURRENCIES = (1, 4, 16)
BASELINE_PATH = REPO_ROOT / "BENCH_throughput.json"


@pytest.fixture(scope="module")
def sweeps():
    return {
        workload: [run_throughput(n, workload, duration_ms=30_000.0)
                   for n in CONCURRENCIES]
        for workload in ("disjoint", "shared")}


@pytest.fixture(scope="module")
def pipeline_results():
    return compare_pipelines(list(PIPELINE_CONCURRENCIES),
                             duration_ms=10_000.0)


def test_render_throughput(sweeps, benchmark):
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    lines = ["Throughput vs concurrency (committed txns/second)", "=" * 50,
             f"{'concurrency':>12s} {'disjoint':>10s} {'shared':>10s}"]
    for index, concurrency in enumerate(CONCURRENCIES):
        lines.append(
            f"{concurrency:>12d} "
            f"{sweeps['disjoint'][index].commits_per_second:>10.2f} "
            f"{sweeps['shared'][index].commits_per_second:>10.2f}")
    write_result("throughput.txt", "\n".join(lines))


def test_disjoint_workload_scales(sweeps):
    rates = [r.commits_per_second for r in sweeps["disjoint"]]
    assert rates[-1] > 5 * rates[0]  # 8 apps ≈ 8x one app (lock-ideal)


def test_shared_workload_saturates(sweeps):
    rates = [r.commits_per_second for r in sweeps["shared"]]
    # Serialized by the single write lock: more apps, same total rate.
    assert rates[-1] < 1.5 * rates[0]


def test_single_app_rate_matches_latency_prediction(sweeps):
    """1000 / (w1 elapsed ≈ 244 ms) ≈ 4.1 commits/second."""
    rate = sweeps["disjoint"][0].commits_per_second
    assert rate == pytest.approx(1000.0 / 244.0, rel=0.15)


def test_no_aborts_without_conflicts(sweeps):
    assert all(r.aborted == 0 for r in sweeps["disjoint"])


# -- group commit versus the paper pipeline -----------------------------------


def test_render_pipeline_comparison(sweeps, pipeline_results, benchmark):
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    lines = ["Commit pipelines over a serial log device "
             "(commits/sec, forces/commit)", "=" * 66,
             f"{'concurrency':>12s} {'paper':>16s} {'grouped':>16s}"]
    for index, concurrency in enumerate(PIPELINE_CONCURRENCIES):
        paper = pipeline_results["paper"][index]
        grouped = pipeline_results["grouped"][index]
        lines.append(
            f"{concurrency:>12d} "
            f"{paper.commits_per_second:>8.2f} {paper.forces_per_commit:>7.3f} "
            f"{grouped.commits_per_second:>8.2f} "
            f"{grouped.forces_per_commit:>7.3f}")
    write_result("pipelines.txt", "\n".join(lines))


def test_paper_pipeline_saturates_on_serial_device(pipeline_results):
    """One force per commit over a serial device caps total throughput."""
    rates = [r.commits_per_second for r in pipeline_results["paper"]]
    assert rates[-1] < 1.5 * rates[1]  # 16 clients barely beat 4
    assert all(r.forces_per_commit >= 1.0
               for r in pipeline_results["paper"])


def test_grouped_pipeline_doubles_throughput_at_16_clients(pipeline_results):
    """The acceptance bar: >= 2x committed txns/sec at 16 clients."""
    paper = pipeline_results["paper"][-1]
    grouped = pipeline_results["grouped"][-1]
    assert grouped.commits_per_second >= 2.0 * paper.commits_per_second


def test_grouped_pipeline_amortizes_forces(pipeline_results):
    """Group commit shares one force across a window of commits."""
    grouped = pipeline_results["grouped"][-1]
    assert grouped.forces_per_commit < 1.0
    # At concurrency 1 there is nothing to share; no worse than paper.
    assert pipeline_results["grouped"][0].committed >= \
        pipeline_results["paper"][0].committed


def test_pipelines_agree_at_concurrency_one(pipeline_results):
    """A lone client gains nothing from batching -- and loses nothing."""
    paper = pipeline_results["paper"][0]
    grouped = pipeline_results["grouped"][0]
    assert grouped.committed == paper.committed
    assert grouped.aborted == paper.aborted == 0


# -- the BENCH_throughput.json baseline ---------------------------------------


def baseline_payload(duration_ms: float = 10_000.0) -> dict:
    """The committed baseline: both pipelines at 1/4/16 clients.

    The simulation is deterministic, so the payload carries no timestamp
    and regenerating it on an unchanged tree is a no-op diff.
    """
    results = compare_pipelines(list(PIPELINE_CONCURRENCIES),
                                duration_ms=duration_ms)
    paper_16 = results["paper"][-1]
    grouped_16 = results["grouped"][-1]
    return {
        "workload": "disjoint",
        "duration_ms": duration_ms,
        "concurrencies": list(PIPELINE_CONCURRENCIES),
        "pipelines": {
            name: [{"concurrency": r.concurrency,
                    "committed": r.committed,
                    "aborted": r.aborted,
                    "commits_per_second": round(r.commits_per_second, 3),
                    "forces": r.forces,
                    "forces_per_commit": round(r.forces_per_commit, 4)}
                   for r in rows]
            for name, rows in results.items()},
        "speedup_at_16_clients": round(
            grouped_16.commits_per_second / paper_16.commits_per_second, 3),
    }


def test_baseline_json_matches_current_tree(pipeline_results):
    """BENCH_throughput.json is regenerated, not hand-edited; drift fails."""
    committed = json.loads(BASELINE_PATH.read_text())
    assert committed == baseline_payload(duration_ms=10_000.0)


def smoke_check(payload: dict) -> tuple[bool, str]:
    paper_16 = payload["pipelines"]["paper"][-1]
    grouped_16 = payload["pipelines"]["grouped"][-1]
    ok = (payload["speedup_at_16_clients"] >= 2.0
          and grouped_16["forces_per_commit"] < 1.0
          and paper_16["forces_per_commit"] >= 1.0)
    return ok, (f"speedup={payload['speedup_at_16_clients']}x, "
                f"grouped forces/commit={grouped_16['forces_per_commit']}")


def main(argv: list[str] | None = None) -> int:
    return baseline_main(
        argv,
        description="Regenerate the commit-pipeline throughput baseline.",
        baseline_path=BASELINE_PATH,
        payload_fn=lambda duration_ms:
            baseline_payload(duration_ms=duration_ms),
        full_duration_ms=10_000.0,
        smoke_duration_ms=2_000.0,
        smoke_check=smoke_check)


if __name__ == "__main__":
    raise SystemExit(main())
