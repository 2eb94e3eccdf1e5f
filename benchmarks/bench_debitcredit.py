"""DebitCredit TPS under hot-row contention -- the gated workload bench.

Eight branches co-hosted on one bank node, closed-loop clients with 90/10
branch locality: every transaction updates its branch's balance row (the
hot row, taken last and held through commit), so per-branch commits are
serialized by two-phase locking while co-hosted branches commit
concurrently against one serial log device.  That is the regime the
``grouped`` commit pipeline targets: one physical force completes every
branch's commit queued during the previous force's flight.

``python benchmarks/bench_debitcredit.py --json`` regenerates
``BENCH_debitcredit.json`` at the repository root; ``--smoke`` runs a
shortened variant whose gate also checks TPS against the committed
baseline (CI uploads the smoke payload as an artifact).
"""

import json
import sys
from pathlib import Path

if __package__ in (None, ""):  # running as a script, not under pytest
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_ROOT / "src"))
    sys.path.insert(0, str(_ROOT))

import pytest

from benchmarks.conftest import (
    REPO_ROOT,
    baseline_main,
    drift_problems,
    workload_block,
    write_result,
)
from repro.core.config import WorkloadConfig
from repro.perf.debitcredit import compare_debitcredit_pipelines

#: eight branches on one node: the hot row serializes each branch's
#: commits, the shared serial log device sees eight concurrent streams
BENCH_WORKLOAD = WorkloadConfig(branches=8, branches_per_node=8,
                                accounts_per_branch=1_000)
#: 8 clients = one per branch (device-bound); 16 = two per branch
#: (device-bound *and* hot-row-bound)
CLIENT_COUNTS = (1, 8, 16)
FULL_DURATION_MS = 8_000.0
SMOKE_DURATION_MS = 3_000.0
#: smoke TPS may drift this much from the committed full-run baseline
#: (shorter window -> coarser commit quantization)
SMOKE_TPS_TOLERANCE = 0.25
BASELINE_PATH = REPO_ROOT / "BENCH_debitcredit.json"


@pytest.fixture(scope="module")
def pipeline_results():
    return compare_debitcredit_pipelines(
        list(CLIENT_COUNTS), duration_ms=FULL_DURATION_MS,
        workload=BENCH_WORKLOAD)


def test_render_debitcredit(pipeline_results, benchmark):
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    lines = ["DebitCredit, 8 hot branches, one serial log device "
             "(TPS, forces/commit, latency mean/p50/p95/p99 ms)", "=" * 72,
             f"{'clients':>8s} {'paper':>38s} {'grouped':>38s}"]
    for index, clients in enumerate(CLIENT_COUNTS):
        paper = pipeline_results["paper"][index]
        grouped = pipeline_results["grouped"][index]
        lines.append(
            f"{clients:>8d} "
            f"{paper.tps:>8.2f} {paper.forces_per_commit:>5.2f} "
            f"{paper.latency.mean:>7.1f} {paper.latency.p50:>5.1f} "
            f"{paper.latency.p95:>5.1f} {paper.latency.p99:>5.1f} "
            f"{grouped.tps:>8.2f} {grouped.forces_per_commit:>5.2f} "
            f"{grouped.latency.mean:>7.1f} {grouped.latency.p50:>5.1f} "
            f"{grouped.latency.p95:>5.1f} {grouped.latency.p99:>5.1f}")
    write_result("debitcredit.txt", "\n".join(lines))


def test_grouped_beats_paper_at_8_clients(pipeline_results):
    """The acceptance bar: grouped TPS > paper TPS at >= 8 clients."""
    for index, clients in enumerate(CLIENT_COUNTS):
        if clients < 8:
            continue
        paper = pipeline_results["paper"][index]
        grouped = pipeline_results["grouped"][index]
        assert grouped.tps > paper.tps, \
            f"grouped {grouped.tps} <= paper {paper.tps} at {clients} clients"


def test_hot_row_saturates_paper_pipeline(pipeline_results):
    """Doubling clients past device saturation buys the paper pipeline
    nothing: per-record forces cap the node however many branches queue."""
    paper_8 = pipeline_results["paper"][1]
    paper_16 = pipeline_results["paper"][2]
    assert paper_16.tps < 1.15 * paper_8.tps


def test_grouped_amortizes_forces_under_contention(pipeline_results):
    grouped_16 = pipeline_results["grouped"][2]
    assert grouped_16.forces_per_commit < 1.0
    assert all(r.forces_per_commit >= 1.0
               for r in pipeline_results["paper"])


def test_workload_is_deadlock_free(pipeline_results):
    """Global lock order (accounts < tellers < branches < history) means
    contention costs waiting, never aborts."""
    for rows in pipeline_results.values():
        assert all(r.aborted == 0 for r in rows)


def test_latency_histogram_covers_every_commit(pipeline_results):
    for rows in pipeline_results.values():
        for r in rows:
            assert r.latency.count == r.committed
            if r.committed:
                assert r.latency.min > 0.0


def payload_from(results: dict, duration_ms: float) -> dict:
    def row(r):
        return {"clients": r.clients,
                "committed": r.committed,
                "aborted": r.aborted,
                "remote_committed": r.remote_committed,
                "tps": round(r.tps, 3),
                "abort_rate": round(r.abort_rate, 4),
                "forces": r.forces,
                "forces_per_commit": round(r.forces_per_commit, 4),
                "latency_mean_ms": round(r.latency.mean, 3),
                "latency_max_ms": round(r.latency.max or 0.0, 3)}

    paper_8 = results["paper"][1]
    grouped_8 = results["grouped"][1]
    paper_16 = results["paper"][2]
    grouped_16 = results["grouped"][2]
    return {
        "workload": workload_block(BENCH_WORKLOAD),
        "duration_ms": duration_ms,
        "client_counts": list(CLIENT_COUNTS),
        "pipelines": {name: [row(r) for r in rows]
                      for name, rows in results.items()},
        "speedup_at_8_clients": round(grouped_8.tps / paper_8.tps, 3),
        "speedup_at_16_clients": round(grouped_16.tps / paper_16.tps, 3),
    }


def baseline_payload(duration_ms: float = FULL_DURATION_MS) -> dict:
    """The committed baseline (timestamp-free: deterministic simulation,
    so regenerating an unchanged tree is a no-op diff)."""
    results = compare_debitcredit_pipelines(
        list(CLIENT_COUNTS), duration_ms=duration_ms,
        workload=BENCH_WORKLOAD)
    return payload_from(results, duration_ms)


def test_baseline_json_matches_current_tree(pipeline_results):
    """BENCH_debitcredit.json is regenerated, not hand-edited."""
    committed = json.loads(BASELINE_PATH.read_text())
    assert committed == payload_from(pipeline_results, FULL_DURATION_MS)


def smoke_check(payload: dict) -> tuple[bool, str]:
    """Gate the shortened CI run against the committed full baseline."""
    problems = []
    if payload["speedup_at_8_clients"] <= 1.0:
        problems.append(
            f"grouped did not beat paper at 8 clients "
            f"(speedup {payload['speedup_at_8_clients']}x)")
    if payload["pipelines"]["grouped"][-1]["forces_per_commit"] >= 1.0:
        problems.append("grouped never amortized a force at 16 clients")
    committed = json.loads(BASELINE_PATH.read_text())
    for name in ("paper", "grouped"):
        for got, want in zip(payload["pipelines"][name],
                             committed["pipelines"][name]):
            problems += drift_problems(
                f"{name} tps at {got['clients']} clients",
                got["tps"], want["tps"], SMOKE_TPS_TOLERANCE)
    summary = (f"speedup@8={payload['speedup_at_8_clients']}x, "
               f"speedup@16={payload['speedup_at_16_clients']}x")
    if problems:
        summary += "; " + "; ".join(problems)
    return not problems, summary


def main(argv: list[str] | None = None) -> int:
    return baseline_main(
        argv,
        description="Regenerate the DebitCredit TPS baseline.",
        baseline_path=BASELINE_PATH,
        payload_fn=baseline_payload,
        full_duration_ms=FULL_DURATION_MS,
        smoke_duration_ms=SMOKE_DURATION_MS,
        smoke_check=smoke_check)


if __name__ == "__main__":
    raise SystemExit(main())
