"""CLI coverage for the telemetry surface: ``discover --progress
--trace --profile --metrics-*``, ``trace-report [--profile]``, and the
``export-metrics`` subcommand."""

import json

import pytest

from repro.cli import main
from repro.obs.profile import ProfileReport
from repro.obs.sinks import load_records


@pytest.fixture
def csv(tmp_path):
    path = tmp_path / "orders.csv"
    lines = ["order,customer,city,zip"]
    for index in range(60):
        customer = index % 7
        lines.append(f"{index},{customer},city{customer % 3},{10000 + customer}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestDiscoverEvents:
    def test_trace_file_is_bracketed_by_the_run(self, csv, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["discover", str(csv), "--trace", str(trace)]) == 0
        records = load_records(trace)
        first, last = records[0], records[-1]
        assert first["name"] == last["name"] == "discover"
        assert "end" not in first and "end" in last
        assert last["attrs"]["ok"] is True

    def test_progress_flag_prints_per_level_lines(self, csv, capsys):
        assert main(["discover", str(csv), "--progress"]) == 0
        err = capsys.readouterr().err
        assert "level 1" in err
        assert "eta" in err
        assert "done in" in err

    def test_progress_and_events_share_one_stream(self, csv, tmp_path, capsys):
        # The progress line and the trace file are two sinks on one
        # tracer: every level the line printed is in the file.
        trace = tmp_path / "trace.jsonl"
        assert main(["discover", str(csv), "--progress", "--trace", str(trace)]) == 0
        err = capsys.readouterr().err
        levels = [
            r["attrs"]["level"]
            for r in load_records(trace)
            if r["name"] == "level" and "end" not in r
        ]
        assert levels
        for level in levels:
            assert f"level {level} (" in err
        assert "done in" in err

    def test_events_flag_is_gone(self, csv, tmp_path):
        with pytest.raises(SystemExit):
            main(["discover", str(csv), "--events", str(tmp_path / "e.jsonl")])


class TestDiscoverProfile:
    def test_profile_with_trace_records_it_in_the_trace(self, csv, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["discover", str(csv), "--trace", str(trace), "--profile",
             "--profile-interval", "0.001"]
        ) == 0
        report = ProfileReport.load(trace)
        assert report.interval == pytest.approx(0.001)
        assert not (tmp_path / "trace.jsonl.profile.json").exists()
        assert "profile:" in capsys.readouterr().out

    def test_profile_without_trace_still_prints_report(self, csv, capsys):
        assert main(
            ["discover", str(csv), "--profile", "--profile-interval", "0.001"]
        ) == 0
        assert "profile:" in capsys.readouterr().out

    def test_trace_report_profile_renders_sidecar(self, csv, tmp_path, capsys):
        # The profile rides on the trace's ``discover`` close record.
        trace = tmp_path / "trace.jsonl"
        main(["discover", str(csv), "--trace", str(trace), "--profile",
              "--profile-interval", "0.001"])
        capsys.readouterr()
        assert main(["trace-report", str(trace), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "trace:" in out

    def test_trace_report_profile_missing_sidecar_errors(self, csv, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["discover", str(csv), "--trace", str(trace)])
        capsys.readouterr()
        assert main(["trace-report", str(trace), "--profile"]) == 2
        assert "no profile in the trace" in capsys.readouterr().err


class TestTraceReportNodeRuns:
    def test_dfd_trace_renders_node_batch_summary(self, csv, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["discover", str(csv), "--strategy", "dfd", "--trace", str(trace),
             "--stats"]
        ) == 0
        out = capsys.readouterr().out
        tests = int(out.split(" tests v=")[1].split()[0])
        batches = sum(
            1 for r in load_records(trace) if r["name"] == "node_batch" and "end" in r
        )
        assert main(["trace-report", str(trace)]) == 0
        report = capsys.readouterr().out
        assert "node-batch summary" in report
        assert "per-level" not in report
        row = report.splitlines()[3].split()
        assert int(row[0]) == batches > 0
        assert int(row[1]) == tests > 0
        assert int(row[2]) > 0  # dependencies found by the walk


class TestDiscoverMetrics:
    def test_metrics_file_is_prometheus_text(self, csv, tmp_path):
        prom = tmp_path / "metrics.prom"
        assert main(["discover", str(csv), "--metrics-file", str(prom)]) == 0
        text = prom.read_text(encoding="utf-8")
        assert "# TYPE repro_" in text
        assert "repro_tane_validity_tests_total" in text

    def test_snapshots_written_and_exportable(self, csv, tmp_path, capsys):
        snapshots = tmp_path / "snapshots.jsonl"
        assert main(
            ["discover", str(csv), "--metrics-snapshots", str(snapshots)]
        ) == 0
        lines = snapshots.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            entry = json.loads(line)
            assert {"ts", "elapsed", "snapshot"} <= set(entry)
        capsys.readouterr()
        assert main(["export-metrics", str(snapshots)]) == 0
        assert "# TYPE repro_" in capsys.readouterr().out


class TestExportMetrics:
    def write_snapshots(self, tmp_path, csv):
        snapshots = tmp_path / "snapshots.jsonl"
        main(["discover", str(csv), "--metrics-snapshots", str(snapshots)])
        return snapshots

    def test_output_file_and_labels(self, csv, tmp_path, capsys):
        snapshots = self.write_snapshots(tmp_path, csv)
        out = tmp_path / "out.prom"
        capsys.readouterr()
        assert main(
            ["export-metrics", str(snapshots), "--output", str(out),
             "--label", "dataset=orders", "--label", "host=ci"]
        ) == 0
        text = out.read_text(encoding="utf-8")
        assert 'dataset="orders"' in text
        assert 'host="ci"' in text

    def test_bad_label_rejected(self, csv, tmp_path, capsys):
        snapshots = self.write_snapshots(tmp_path, csv)
        capsys.readouterr()
        assert main(["export-metrics", str(snapshots), "--label", "nope"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_index_out_of_range_errors(self, csv, tmp_path, capsys):
        snapshots = self.write_snapshots(tmp_path, csv)
        capsys.readouterr()
        assert main(["export-metrics", str(snapshots), "--index", "99"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_snapshot_file_errors(self, tmp_path, capsys):
        assert main(["export-metrics", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err
