"""Self-tests of the benchmark harness.

Run explicitly (tier-1 collects only ``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/tabsbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.tabsbench import compare, measure, orchestrate, spec
from benchmarks.tabsbench.single import QUICK_SECONDS, run_single

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def sim_values(result: dict) -> dict:
    return {name: result["metrics"][name]["value"]
            for name in spec.SIM_END_TO_END}


# -- the contract's static limits ---------------------------------------------


def test_names_units_and_caps():
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    names = [m.name for m in (*spec.END_TO_END, *spec.PER_LAYER)] \
        + [w.name for w in spec.WORKLOADS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in (*spec.END_TO_END, *spec.PER_LAYER):
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("higher", "lower")
        assert metric.clock in ("sim", "wall", "host")
    for metric in spec.END_TO_END:
        assert 0 < metric.bound <= 0.25
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)
    for workload in spec.WORKLOADS:
        assert len(workload.why) <= 200 and "\n" not in workload.why


def test_benchmark_json_is_the_manifest():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.manifest()
    assert set(committed) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 1 <= committed["run_seconds"] <= 60
    runs = 4 + 22 * len(committed["workloads"])
    assert runs * 30 <= 3420  # the driver's cap, at 30 s a run


def test_every_handler_category_seen_so_far_has_a_layer():
    from benchmarks.tabsbench.layers import WALL_SHARE_LAYERS, handler_layer

    samples = {
        "Timeout:stable_storage_write": "wal", "Process:wal:group-force:bank":
        "wal", "Process:bank:ns:ns.lookup": "nameserver",
        "Event:recv:ns-reply:ns.lookup": "nameserver",
        "Process:bank:tm:tm.join": "txn", "Event:recv:bank:tm": "txn",
        "Event:recv:app:tm.end": "rpc", "Process:bank:rm:rm.spool":
        "recovery", "Process:recovery-supervisor:bank": "recovery",
        "Network": "comm", "FailureDetector": "comm",
        "Timeout:cpu:CM": "comm", "Event:recv:rpc-reply:set_cell": "rpc",
        "Process:n:client": "rpc", "Timeout:random_paged_io": "kernel",
        "Process:bank:branch:add_to_balance": "server",
        "Timeout:cpu:DS": "server", "Event:something-new": "sim"}
    for category, layer in samples.items():
        assert handler_layer(category) == layer, category
        assert layer in WALL_SHARE_LAYERS


# -- sample-size guards -------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(measure.BenchmarkError):
        measure.tail_percentile([float(x) for x in range(199)], 0.95)
    assert measure.tail_percentile(
        [float(x) for x in range(200)], 0.95) == 189.0
    assert measure.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0


def test_full_run_refuses_a_thin_window():
    """A quick window commits far fewer than 200 DebitCredit
    transactions; without --quick's relaxed guards that is an error."""
    with pytest.raises(measure.BenchmarkError):
        run_single("dc_rf2_crash_open", 3, QUICK_SECONDS, trace=False,
                   quick=False)


# -- determinism on the simulated clock ---------------------------------------


@pytest.mark.parametrize("name", ["disjoint_c8", "dc_inquiry80_c16"])
def test_quick_window_repeats_exactly_and_differs_across_seeds(name):
    first, _ = run_single(name, 11, QUICK_SECONDS, trace=False, quick=True)
    again, _ = run_single(name, 11, QUICK_SECONDS, trace=False, quick=True)
    other, _ = run_single(name, 12, QUICK_SECONDS, trace=False, quick=True)
    assert first["correct"] and again["correct"] and other["correct"]
    assert sim_values(first) == sim_values(again)
    assert sim_values(first) != sim_values(other)
    assert set(first["metrics"]) == {m.name for m in spec.END_TO_END}
    assert all(cell["value"] != 0 for cell in first["metrics"].values())


@pytest.mark.parametrize("name", [w.name for w in spec.WORKLOADS])
def test_traced_equals_untraced_and_the_layers_are_the_right_ones(name):
    result, detail = run_single(name, 5, QUICK_SECONDS, trace=True,
                                quick=True)
    assert result["correct"], detail["violations"]
    layer = {key: cell["value"] for key, cell in result["metrics"].items()}
    assert set(layer) == {m.name for m in spec.PER_LAYER}
    assert layer["obs.sim_identical"] == 1.0
    assert layer["obs.spans_per_commit"] > 0
    shares = sum(value for key, value in layer.items()
                 if key.endswith(".wall_share"))
    assert shares == pytest.approx(1.0)
    if name == "disjoint_c8":
        # the tree is sequential: the parts sum to the whole
        assert abs(layer["app.budget_residual_sim_ms"]) < 1e-6
        assert layer["locking.wait_sim_ms_per_commit"] == 0
        assert layer["wal.forces_per_commit"] == pytest.approx(1.0, abs=0.05)
    if "rf2" not in name:
        assert not any(value for key, value in layer.items()
                       if key.startswith(("replication.", "reconfig.")))
    if name == "dc_rf2_crash_open":
        assert not any(value for key, value in layer.items()
                       if key.startswith("reconfig."))
        assert layer["recovery.replays"] >= 1
        assert layer["comm.fd_detect_sim_ms_p50"] > 0
    if name == "dc_rf2_migrate_open":
        assert layer["reconfig.epoch_installs"] >= 2


# -- audits -------------------------------------------------------------------


def test_the_audit_notices_a_wrong_cell():
    scenario = measure.build_and_warm("disjoint_c8", 9, QUICK_SECONDS)
    run = measure.run_window(scenario)
    assert run.violations == []
    last = max((r for r in scenario.records if r.spec[0] == 1
                and r.outcome == "committed"), key=lambda r: r.index)
    last.spec = (1, last.spec[1] + 1)  # claim a value that was not written
    assert any("cell 1" in v for v in scenario.audit())


def test_the_audit_notices_lost_money():
    scenario = measure.build_and_warm("dc_2pc_c16", 9, QUICK_SECONDS)
    run = measure.run_window(scenario)
    assert run.violations == []
    victim = next(r for r in scenario.records
                  if r.kind == "debitcredit" and r.outcome == "committed")
    victim.outcome = "aborted"  # a committed transfer the client disowns
    assert any(v.startswith("history-") for v in scenario.audit())


def _fake_child(correct: bool):
    def child(workload, seed, trace, quick):
        table = spec.PER_LAYER if trace else spec.END_TO_END
        result = {"correct": correct, "attempted": 300, "failed": 0,
                  "metrics": {m.name: {"value": 1.0, "unit": m.unit}
                              for m in table}}
        detail = {"outcomes": {"committed": 300}, "committed_samples": 300,
                  "window_sim_s": 1.0, "window_wall_s": 1.0,
                  "longest_commit_gap_sim_ms": 1.0,
                  "calib_ops_per_s": 1e7,
                  "violations": [] if correct else ["conservation: lost"]}
        return result, detail
    return child


def test_run_exits_nonzero_on_an_audit_failure(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(orchestrate, "OUT_DIR", tmp_path)
    assert orchestrate.main_run(1, ["disjoint_c8"], 3, False,
                                child=_fake_child(True)) == 0
    assert orchestrate.main_run(1, ["disjoint_c8"], 3, False,
                                child=_fake_child(False)) == 1
    assert "conservation: lost" in capsys.readouterr().out


def test_run_rejects_a_simulated_metric_that_does_not_repeat():
    calls = []

    def child(workload, seed, trace, quick):
        result, detail = _fake_child(True)(workload, seed, trace, quick)
        calls.append(trace)
        if not trace:
            result["metrics"]["txn_p50_sim_ms"]["value"] = float(len(calls))
        return result, detail

    report = orchestrate.collect(1, ["disjoint_c8"], 3, False, child=child,
                                 log=lambda line: None)
    assert any("txn_p50_sim_ms differs" in p for p in report["problems"])


def test_a_disturbed_round_is_rerun_once_and_kept_in_the_report():
    speeds = iter([1e7, 1e7, 5e6, 1e7, 1e7])

    def child(workload, seed, trace, quick):
        result, detail = _fake_child(True)(workload, seed, trace, quick)
        detail["calib_ops_per_s"] = next(speeds)
        return result, detail

    report = orchestrate.collect(1, ["disjoint_c8"], 3, False, child=child,
                                 log=lambda line: None)
    entry = report["workloads"]["disjoint_c8"]
    assert [r["round"] for r in entry["replaced_rounds"]] == [3]
    assert entry["calib_ops_per_s"] == [1e7, 1e7, 1e7]


# -- compare ------------------------------------------------------------------


def _report(**values):
    cells = {m.name: {"value": 100.0, "rounds": [100.0, 100.0, 100.0]}
             for m in spec.END_TO_END}
    for name, rounds in values.items():
        cells[name] = {"value": sorted(rounds)[len(rounds) // 2],
                       "rounds": rounds}
    return {"seed": 1, "quick": False,
            "workloads": {"disjoint_c8": {"end_to_end": cells}}}


def test_compare_files_each_pair_under_one_verdict():
    base = _report()
    candidate = _report(
        commits_per_wall_s=[130.0, 131.0, 132.0],  # higher is better
        txn_p50_sim_ms=[120.0, 120.0, 120.0],      # lower is better
        peak_rss_mb=[60.0, 100.0, 140.0],          # too noisy to call
        txn_p95_sim_ms=[101.0, 101.0, 101.0])      # inside the bound
    verdicts = {row["metric"]: row["verdict"]
                for row in compare.compare(base, candidate)}
    assert verdicts["commits_per_wall_s"] == "improved"
    assert verdicts["txn_p50_sim_ms"] == "regressed"
    assert verdicts["peak_rss_mb"] == "unresolved"
    assert verdicts["txn_p95_sim_ms"] == "unchanged"
    assert verdicts["setup_s"] == "unchanged"
    text = compare.render(compare.compare(base, candidate))
    assert "(sim != base)" in text and "regressed: 1" in text


# -- the contract's command ---------------------------------------------------


def test_command_fails_without_the_program_under_test(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "tabsbench",
                    tmp_path / "benchmarks" / "tabsbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/tabsbench/run.py", "--workload",
         "disjoint_c8", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
