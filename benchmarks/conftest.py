"""Shared fixtures and CLI plumbing for the benchmark harness.

Each ``bench_table_*`` module regenerates one table of the paper's
evaluation.  The rendered paper-versus-reproduction tables are written to
``benchmarks/results/`` and echoed to stdout (run with ``-s`` to see them
live); EXPERIMENTS.md summarizes the outcomes.

The expensive work (running all fourteen benchmarks under three
configurations) is done once per session and shared.

Workload benches (``bench_throughput``, ``bench_debitcredit``,
``bench_availability``, ``bench_reconfig``, ``bench_sim_speed``) double
as scripts that regenerate a committed ``BENCH_*.json`` baseline at the
repo root; :func:`baseline_main` is the shared ``--json/--smoke/--output``
entry point so each bench file only supplies its payload function and its
smoke gate.  The two *fault* benches (availability, reconfig) are one
experiment with two disturbances: :class:`FaultRun` runs it,
:class:`FaultBench` is its payload/gate/CLI, :class:`FaultBenchTests`
the tests both share.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import pytest

from repro.chaos import ChaosController, FaultPlan
from repro.core.cluster import TabsCluster
from repro.core.config import ReplicationConfig, TabsConfig, WorkloadConfig
from repro.perf.benchmarks import BENCHMARKS, run_benchmark
from repro.perf.projections import run_table_5_4
from repro.replication.catchup import RETRY_MS
from repro.replication.runtime import PREPARED_INQUIRY_MS
from repro.workloads import DebitCreditWorkload

RESULTS_DIR = Path(__file__).parent / "results"
#: the repository root, where committed ``BENCH_*.json`` baselines live
REPO_ROOT = Path(__file__).resolve().parent.parent


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n")
    print("\n" + text)


def baseline_main(argv: list[str] | None, *, description: str,
                  baseline_path: Path,
                  payload_fn: Callable[[float], dict],
                  full_duration_ms: float,
                  smoke_duration_ms: float,
                  smoke_check: Callable[[dict], tuple[bool, str]],
                  json_filter: Callable[[dict], dict] | None = None) -> int:
    """Shared CLI for baseline-regenerating benches.

    ``payload_fn(duration_ms)`` produces the JSON-ready payload (the
    simulation is deterministic, so payloads carry no timestamps and
    regenerating an unchanged tree is a no-op diff).  ``smoke_check``
    returns ``(ok, summary_line)`` for the shortened CI variant; CI runs
    ``--smoke --json --output BENCH_<name>.smoke.json`` and uploads the
    artifact.

    ``json_filter`` (if given) maps the payload to what ``--json``
    writes: benches that *measure wall-clock time* (``bench_sim_speed``)
    keep the nondeterministic wall section out of the committed baseline
    while the smoke gate still sees it.
    """
    import argparse

    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--json", action="store_true",
                        help=f"write {baseline_path.name} at the repo root")
    parser.add_argument("--smoke", action="store_true",
                        help="short windows (CI); exit nonzero if the "
                             "smoke gate fails")
    parser.add_argument("--output", type=Path, default=None,
                        help="override the output path for --json")
    args = parser.parse_args(argv)

    duration_ms = smoke_duration_ms if args.smoke else full_duration_ms
    payload = payload_fn(duration_ms)
    written = json_filter(payload) if json_filter is not None else payload
    text = json.dumps(written, indent=2) + "\n"
    if args.json:
        output = args.output or baseline_path
        output.write_text(text)
        print(f"wrote {output}")
    print(text, end="")
    if args.smoke:
        ok, summary = smoke_check(payload)
        print(f"smoke {'PASS' if ok else 'FAIL'}: {summary}")
        return 0 if ok else 1
    return 0


def drift_problems(what: str, got: float, want: float,
                   tolerance: float) -> list[str]:
    """``[problem]`` if ``got`` strays more than ``tolerance`` (a
    fraction) from the committed baseline value ``want``, else ``[]``."""
    if want <= 0:
        return []
    drift = abs(got - want) / want
    if drift <= tolerance:
        return []
    return [f"{what} drifted {drift:.0%} from baseline ({got} vs {want})"]


def workload_block(workload: WorkloadConfig) -> dict:
    """The ``"workload"`` section of a DebitCredit baseline payload."""
    return {
        "schema": "debitcredit",
        "branches": workload.branches,
        "branches_per_node": workload.branches_per_node,
        "tellers_per_branch": workload.tellers_per_branch,
        "accounts_per_branch": workload.accounts_per_branch,
        "locality": workload.locality,
    }


# -- the fault-bench scaffold ----------------------------------------------------

#: two branches on two nodes; 70% of account traffic is remote, so most
#: transactions exercise cross-node write fan-out
FAULT_WORKLOAD = WorkloadConfig(branches=2, accounts_per_branch=200,
                                tellers_per_branch=4, locality=0.3)
FAULT_REPLICATION = ReplicationConfig.available_copies()
FAULT_SEED = 1985
FAULT_SPACING_MS = 300.0
FAULT_FULL_DURATION_MS = 24_000.0
#: long enough that the fixed-cost windows (1.5 s failure detection,
#: 5 s in-doubt inquiry, catch-up retries, epoch-bump aborts) stay well
#: under the gap bar, which scales with duration while they do not
FAULT_SMOKE_DURATION_MS = 18_000.0
#: no commit gap may exceed this fraction of the run: the disturbance
#: bounds it well below a full outage
MAX_GAP_FRACTION = 0.4
#: smoke TPS may drift this much from the committed full-run baseline
#: (shorter window, same disturbance schedule -> coarser quantization)
FAULT_SMOKE_TPS_TOLERANCE = 0.5


class FaultRun:
    """Steady DebitCredit traffic over the rf=2 bench cluster while a
    disturbance plays out; then repair, audit and score.

    Straight-line use: construct, :meth:`install` the plan,
    :meth:`offer_traffic`, schedule the disturbance, :meth:`play`,
    :meth:`result`."""

    def __init__(self, duration_ms: float, **config_blocks) -> None:
        self.duration_ms = duration_ms
        self.cluster = TabsCluster(TabsConfig(
            seed=FAULT_SEED, workload=FAULT_WORKLOAD,
            replication=FAULT_REPLICATION, **config_blocks))
        self.topology = self.cluster.build_workload()

    def install(self, plan: FaultPlan) -> None:
        self.controller = ChaosController(self.cluster, plan,
                                          seed=FAULT_SEED)
        self.controller.install()

    def offer_traffic(self) -> None:
        self.driver = DebitCreditWorkload(
            self.cluster, self.topology, controller=self.controller,
            seed=FAULT_SEED)
        self.offered = int(self.duration_ms / FAULT_SPACING_MS)
        self.driver.schedule_traffic(txns=self.offered,
                                     spacing_ms=FAULT_SPACING_MS)

    def play(self) -> None:
        _, self.report = self.driver.play(self.duration_ms)

    def counter_sum(self, name: str) -> int:
        """A metric counter summed over every node."""
        return sum(counter.value for (node, metric), counter
                   in self.cluster.metrics.counters().items()
                   if metric == name)

    def result(self, disturbance: dict, effects: dict) -> dict:
        """The JSON-ready result: ``disturbance`` (what was done to the
        cluster) and ``effects`` (what only this bench counts) slot in
        around the fields every fault bench reports."""
        outcomes = self.driver.stats.outcomes()
        committed = outcomes.get("committed", 0)
        # the longest stretch of the run with no commit anywhere
        commit_times = sorted(
            event[0] for event in self.controller.trace
            if event[1] == "txn" and event[4] == "committed")
        points = [0.0] + commit_times + [self.duration_ms]
        max_gap = max(later - earlier
                      for earlier, later in zip(points, points[1:]))
        return {
            "duration_ms": self.duration_ms,
            **disturbance,
            "offered": self.offered,
            "committed": committed,
            "aborted": outcomes.get("aborted", 0),
            "skipped": outcomes.get("skipped", 0),
            "unknown": outcomes.get("unknown", 0),
            "tps": round(committed / (self.duration_ms / 1000.0), 3),
            "max_commit_gap_ms": round(max_gap, 3),
            **effects,
            "validation_aborts":
                self.counter_sum("replication.validation_abort"),
            "catchup_pages": self.counter_sum("replica.catchup_pages"),
            "audits_ok": self.report.ok,
            "violations": [v.kind for v in self.report.violations],
        }


@dataclass(frozen=True)
class FaultBench:
    """What one fault bench adds to the shared experiment: its
    :class:`FaultRun`-based ``run(duration_ms) -> result`` and the words
    and fields of its payload and smoke gate."""

    name: str  # the baseline is BENCH_<name>.json
    run: Callable[[float], dict]
    description: str
    #: heading of the rendered results/<name>.txt
    title: str
    #: the bench's own line of that rendering
    detail: Callable[[dict], str]
    #: completes "no transaction committed ..." in the smoke gate
    disturbance: str
    #: the payload field the smoke summary line ends on
    headline: str
    #: extra configuration sections of the payload
    config_blocks: dict = field(default_factory=dict)
    #: the bench's own smoke findings, reported first
    own_problems: Callable[[dict], list] = lambda payload: []

    @property
    def baseline_path(self) -> Path:
        return REPO_ROOT / f"BENCH_{self.name}.json"

    def payload(self, result: dict) -> dict:
        """The committed baseline (timestamp-free: deterministic
        simulation, so regenerating an unchanged tree is a no-op diff)."""
        return {
            "workload": workload_block(FAULT_WORKLOAD),
            "replication": {
                "replication_factor": FAULT_REPLICATION.replication_factor,
                "prepared_inquiry_ms": PREPARED_INQUIRY_MS,
                "catchup_retry_ms": RETRY_MS,
            },
            **self.config_blocks,
            "seed": FAULT_SEED,
            "spacing_ms": FAULT_SPACING_MS,
            **result,
        }

    def smoke_check(self, payload: dict) -> tuple[bool, str]:
        """Gate the shortened CI run against the committed full baseline."""
        problems = list(self.own_problems(payload))
        if payload["committed"] <= 0:
            problems.append(
                f"no transaction committed {self.disturbance}")
        if not payload["audits_ok"]:
            problems.append(f"audits failed: {payload['violations']}")
        gap_limit = MAX_GAP_FRACTION * payload["duration_ms"]
        if payload["max_commit_gap_ms"] >= gap_limit:
            problems.append(
                f"commit gap {payload['max_commit_gap_ms']} ms exceeds "
                f"{gap_limit} ms: that is an outage window")
        committed = json.loads(self.baseline_path.read_text())
        problems += drift_problems("tps", payload["tps"], committed["tps"],
                                   FAULT_SMOKE_TPS_TOLERANCE)
        summary = (f"tps={payload['tps']}, "
                   f"max_gap={payload['max_commit_gap_ms']}ms, "
                   f"{self.headline}={payload[self.headline]}")
        if problems:
            summary += "; " + "; ".join(problems)
        return not problems, summary

    def main(self, argv: list[str] | None = None) -> int:
        return baseline_main(
            argv, description=self.description,
            baseline_path=self.baseline_path,
            payload_fn=lambda duration_ms:
                self.payload(self.run(duration_ms)),
            full_duration_ms=FAULT_FULL_DURATION_MS,
            smoke_duration_ms=FAULT_SMOKE_DURATION_MS,
            smoke_check=self.smoke_check)


class FaultBenchTests:
    """The tests every fault bench shares.  A bench module subclasses
    this as ``Test<Name>``, sets ``bench`` and adds its own."""

    bench: FaultBench

    @pytest.fixture(scope="class")
    def result(self, request) -> dict:
        return request.cls.bench.run(FAULT_FULL_DURATION_MS)

    def test_render(self, result, benchmark):
        benchmark.pedantic(lambda: None, iterations=1, rounds=1)
        r = result
        write_result(f"{self.bench.name}.txt", "\n".join([
            self.bench.title, "=" * 72,
            f"offered {r['offered']}  committed {r['committed']}  "
            f"tps {r['tps']}",
            f"max commit gap {r['max_commit_gap_ms']} ms of "
            f"{r['duration_ms']} ms",
            self.bench.detail(r),
            f"audits ok: {r['audits_ok']}"]))

    def test_commits_keep_flowing(self, result):
        assert result["committed"] > 0

    def test_no_full_outage_window(self, result):
        assert result["max_commit_gap_ms"] < \
            MAX_GAP_FRACTION * result["duration_ms"], \
            f"commit gap {result['max_commit_gap_ms']} ms is an outage"

    def test_audits_pass_after_repair(self, result):
        assert result["audits_ok"], result["violations"]

    def test_baseline_json_matches_current_tree(self, result):
        """BENCH_<name>.json is regenerated, not hand-edited."""
        committed = json.loads(self.bench.baseline_path.read_text())
        assert committed == self.bench.payload(result)


@pytest.fixture(scope="session")
def measured_results():
    """All fourteen benchmarks under the measured-1985 configuration."""
    return [run_benchmark(spec, TabsConfig.measured(), iterations=10)
            for spec in BENCHMARKS]


@pytest.fixture(scope="session")
def table_5_4_rows():
    """All fourteen benchmarks under all three configurations."""
    return run_table_5_4(iterations=10)
