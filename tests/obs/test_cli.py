"""CLI tests for ``python -m repro trace`` / ``metrics`` / report routing."""

import hashlib
import io
import json

import pytest

from repro.__main__ import main, write_report

#: SHA-256 of ``python -m repro trace <target> --out F``: the simulated
#: schedule, every span, every datagram event and every failure-detector
#: decision of the run, byte for byte.  chaos-2026 last moved (a21596b6...
#: -> 5a3adf5e...) when an abort came to reach every fragment once: 298
#: -> 293 events -- two second-walk ``2pc.abort`` events, one
#: ``ds:ds.abort`` span of a second walk, and the tombstone's re-told
#: ``tm.abort_req`` (``net.send`` + ``net.blocked``) are gone, and the
#: span ids after them shift down
PINNED_EXPORTS = {
    ("chaos", "2026"):
        "5a3adf5efacd59efaaae35ba00b7c47f27e2aa80a5da42372f96f4af3856b45b",
    ("w1w1", "1985"):
        "77bf22325bbbc02aacba607b55a7b20075d0f0fa6ccd79ef8d09261230338c0b",
}


class TestWriteReport:
    def test_resolves_stdout_at_call_time(self, capsys):
        write_report("hello")
        assert capsys.readouterr().out == "hello\n"

    def test_no_double_newline(self, capsys):
        write_report("line\n")
        assert capsys.readouterr().out == "line\n"

    def test_explicit_stream(self):
        stream = io.StringIO()
        write_report("to a file", stream=stream)
        assert stream.getvalue() == "to a file\n"


class TestExistingCommands:
    def test_inventory_routes_through_write_report(self, capsys):
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3-1" in out
        assert "transaction_manager" in out

    def test_paths_routes_through_write_report(self, capsys):
        assert main(["paths"]) == 0
        assert "Longest-path commit counts" in capsys.readouterr().out

    def test_primitives_prints_table_5_1(self, capsys):
        assert main(["primitives"]) == 0
        out = capsys.readouterr().out
        assert "Stable Storage Write" in out
        assert "79.0   79.0" in out

    def test_benchmark_prints_the_rows_asked_for(self, capsys):
        assert main(["benchmark", "r1", "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 5-4" in out
        assert "1 Local Read, No Paging" in out
        assert "1 Local Write" not in out

    def test_sweep_prints_one_row_per_cell(self, capsys):
        assert main(["sweep", "throughput", "--counts", "1,2",
                     "--duration-ms", "1000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells"] == 2
        assert [row["concurrency"] for row in payload["rows"]] == [1, 2]
        assert all(row["committed"] > 0 for row in payload["rows"])

    def test_sweep_writes_the_same_document_to_a_file(self, tmp_path,
                                                       capsys):
        argv = ["sweep", "debitcredit", "--counts", "1",
                "--duration-ms", "1000"]
        assert main(argv) == 0
        printed = json.loads(capsys.readouterr().out)
        out = tmp_path / "sweep.json"
        assert main(argv + ["--json", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 1 cells to {out}\n"
        assert json.loads(out.read_text()) == printed


class TestTraceCommand:
    def test_writes_valid_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "r1", "--iterations", "1",
                     "--out", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert trace["displayTimeUnit"] == "ms"
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert {"M", "X"} <= phases
        assert "ui.perfetto.dev" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["trace", "r1", "--iterations", "1",
                         "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("target, seed", sorted(PINNED_EXPORTS))
    def test_export_matches_its_pinned_digest(self, target, seed, tmp_path,
                                               capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", target, "--seed", seed, "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == PINNED_EXPORTS[(target, seed)]

    def test_jsonl_output(self, tmp_path, capsys):
        out = tmp_path / "events.jsonl"
        assert main(["trace", "r1", "--iterations", "1",
                     "--jsonl", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines
        assert all(json.loads(line)["type"] in ("span", "event")
                   for line in lines)

    def test_stdout_when_no_out_file(self, capsys):
        assert main(["trace", "r1", "--iterations", "1"]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["otherData"]["clock"] == "simulated"


class TestMetricsCommand:
    def test_renders_tables(self, capsys):
        assert main(["metrics", "w1", "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "Counters" in out
        assert "wal.forces" in out
        assert "Latency histograms (ms)" in out

    def test_json_snapshot(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(["metrics", "w1", "--iterations", "1",
                     "--json", str(out)]) == 0
        snapshot = json.loads(out.read_text())
        assert any(key.endswith("/wal.forces")
                   for key in snapshot["counters"])

    def test_histogram_table_renders_percentiles(self, capsys):
        assert main(["metrics", "w1", "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        header_line = next(line for line in out.splitlines()
                           if "histogram" in line and "p95" in line)
        assert "p50" in header_line and "p99" in header_line


class TestProfileCommand:
    def test_renders_hot_handler_table(self, capsys):
        assert main(["profile", "w1w1", "--iterations", "1",
                     "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "Simulator speed meter" in out
        assert "Hot handlers (top 5" in out
        assert "events / wall sec" in out
        assert "events_scheduled" in out

    def test_writes_flamegraph_text(self, tmp_path, capsys):
        flame = tmp_path / "flame.txt"
        assert main(["profile", "r1", "--iterations", "1",
                     "--flame", str(flame)]) == 0
        lines = flame.read_text().splitlines()
        assert lines
        assert all(line.startswith("sim;") or line.startswith("sim ")
                   for line in lines)
        assert "flamegraph" in capsys.readouterr().out

    def test_writes_loadable_pstats(self, tmp_path, capsys):
        import pstats

        dump = tmp_path / "profile.pstats"
        assert main(["profile", "r1", "--iterations", "1",
                     "--pstats", str(dump)]) == 0
        stats = pstats.Stats(str(dump), stream=io.StringIO())
        assert stats.total_calls > 0

    def test_chaos_target_profiles(self, capsys):
        assert main(["profile", "chaos", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Hot handlers" in out
        assert "datagrams_sent" in out
