"""Tests for the repro command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_traceroute_command(capsys):
    rc = main(["traceroute", "--seed", "7", "--src", "0", "--dst", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("traceroute from")
    assert "AS path:" in out


def test_build_and_analyze_roundtrip(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "uw4b.jsonl"
    rc = main(
        ["build", "--dataset", "UW4-B", "--seed", "61", "--scale", "0.05",
         "-o", str(out)]
    )
    assert rc == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out

    rc = main(["analyze", str(out), "--metric", "rtt", "--min-samples", "2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "alternate superior" in text
    assert "improvement CDF" in text


def test_build_unknown_dataset(tmp_path, capsys):
    rc = main(
        ["build", "--dataset", "NOPE", "--scale", "0.02",
         "-o", str(tmp_path / "x.jsonl")]
    )
    assert rc == 2
    assert "unknown dataset" in capsys.readouterr().err


def test_analyze_bandwidth_metric(tmp_path, capsys):
    out = tmp_path / "n2.jsonl"
    assert main(
        ["build", "--dataset", "N2-NA", "--seed", "61", "--scale", "0.05",
         "-o", str(out)]
    ) == 0
    capsys.readouterr()
    rc = main(
        ["analyze", str(out), "--metric", "bandwidth",
         "--loss-composition", "optimistic"]
    )
    assert rc == 0
    assert "bandwidth" in capsys.readouterr().out


def test_analyze_bandwidth_metric_on_traceroute_file_is_bad_usage(tmp_path, capsys):
    out = tmp_path / "uw4b.jsonl"
    assert main(
        ["build", "--dataset", "UW4-B", "--seed", "61", "--scale", "0.02",
         "-o", str(out)]
    ) == 0
    capsys.readouterr()
    rc = main(["analyze", str(out), "--metric", "bandwidth"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "transfer" in captured.err


def test_analyze_too_strict_min_samples(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    assert main(
        ["build", "--dataset", "UW4-B", "--seed", "61", "--scale", "0.05",
         "-o", str(out)]
    ) == 0
    rc = main(["analyze", str(out), "--min-samples", "100000"])
    assert rc == 1


def test_reproduce_subcommand(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    rc = main(
        ["reproduce", "--scale", "0.02", "--seed", "55", "--only", "table1",
         "--scorecard"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "table1" in out
    assert "Scorecard (paper-shape checks)" in out


def test_suite_subcommand(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    rc = main(["suite", "--scale", "0.02", "--seed", "55", "--jobs", "1"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "dataset provisioning" in text
    assert "UW3" in text
    # Second invocation is served from cache.
    rc = main(["suite", "--scale", "0.02", "--seed", "55"])
    assert rc == 0
    assert "8 cache hit(s)" in capsys.readouterr().out


def test_summarize_subcommand(tmp_path, capsys):
    out = tmp_path / "s.jsonl"
    assert main(
        ["build", "--dataset", "UW4-B", "--seed", "61", "--scale", "0.05",
         "-o", str(out)]
    ) == 0
    capsys.readouterr()
    rc = main(["summarize", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "RTT ms" in text
    assert "coverage" in text


def test_map_subcommand(tmp_path, capsys):
    out = tmp_path / "topo.svg"
    rc = main(["map", "--seed", "3", "--hosts", "6", "-o", str(out)])
    assert rc == 0
    assert out.exists()
    assert out.read_text().startswith("<svg")


def test_suite_bad_fault_plan_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    rc = main(["suite", "--scale", "0.02", "--fault-plan", "explode:uw3"])
    assert rc == 2
    assert "bad fault plan" in capsys.readouterr().err


def test_reproduce_bad_fault_plan_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    rc = main(["reproduce", "--scale", "0.02", "--fault-plan", "[{]"])
    assert rc == 2
    assert "bad fault plan" in capsys.readouterr().err


def test_suite_keep_going_partial_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    rc = main(
        [
            "suite", "--scale", "0.02", "--seed", "55", "--jobs", "1",
            "--fault-plan", "fail:uw3:times=99", "--keep-going",
        ]
    )
    assert rc == 3
    out = capsys.readouterr().out
    uw3_line = next(ln for ln in out.splitlines() if ln.strip().startswith("UW3"))
    assert "MISSING" in uw3_line
    assert "FAILED: uw3" in out


def test_suite_build_failure_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    rc = main(
        [
            "suite", "--scale", "0.02", "--seed", "55", "--jobs", "1",
            "--fault-plan", "fail:uw3:times=99",
        ]
    )
    assert rc == 1
    assert "dataset build failed" in capsys.readouterr().err


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "exit codes" in out
    assert "partial success" in out


def test_help_documents_command_surface(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "command surface" in out
    for command in ("analyze", "suite", "reproduce", "trace", "check"):
        assert command in out


def test_analyze_flag_alias_matches_positional(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    assert main(
        ["build", "--dataset", "UW4-B", "--seed", "61", "--scale", "0.05",
         "-o", str(out)]
    ) == 0
    capsys.readouterr()
    assert main(["analyze", "--dataset-file", str(out), "--min-samples", "2"]) == 0
    flagged = capsys.readouterr().out
    assert main(["analyze", str(out), "--min-samples", "2"]) == 0
    positional = capsys.readouterr().out
    assert flagged == positional


def test_analyze_conflicting_paths_exit_2(tmp_path, capsys):
    rc = main(
        ["analyze", str(tmp_path / "a.jsonl"),
         "--dataset-file", str(tmp_path / "b.jsonl")]
    )
    assert rc == 2
    assert "conflicting" in capsys.readouterr().err


def test_analyze_missing_path_exit_2(capsys):
    rc = main(["analyze"])
    assert rc == 2
    assert "--dataset-file" in capsys.readouterr().err


def test_summarize_flag_alias(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    assert main(
        ["build", "--dataset", "UW4-B", "--seed", "61", "--scale", "0.05",
         "-o", str(out)]
    ) == 0
    capsys.readouterr()
    assert main(["summarize", "--dataset-file", str(out)]) == 0
    assert main(["summarize"]) == 2


def test_suite_trace_writes_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    trace_file = tmp_path / "out.json"
    rc = main(
        ["suite", "--scale", "0.02", "--seed", "55", "--jobs", "1",
         "--trace", str(trace_file)]
    )
    assert rc == 0
    assert "wrote trace" in capsys.readouterr().out
    assert trace_file.exists()
    assert (tmp_path / "metrics.json").exists()

    rc = main(["trace", str(trace_file), "--validate", "--top", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "valid RunTrace" in out
    assert "top 3 slowest span(s):" in out
    assert "datasets.provision" in out

    rc = main(["trace", "--trace-file", str(trace_file)])
    assert rc == 0


def test_trace_subcommand_bad_usage(tmp_path, capsys):
    assert main(["trace"]) == 2
    assert "--trace-file" in capsys.readouterr().err

    missing = tmp_path / "missing.json"
    assert main(["trace", str(missing)]) == 2
    assert "unreadable trace" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["trace", str(bad)]) == 2
    assert "malformed trace" in capsys.readouterr().err


def test_trace_validate_rejects_schema_violations(tmp_path, capsys):
    import json

    payload = {
        "version": 1,
        "meta": {},
        "counters": {"bad": -1},
        "gauges": {},
        "histograms": {},
        "spans": [],
    }
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps(payload))
    rc = main(["trace", str(bad), "--validate"])
    assert rc == 1
    assert "schema violation" in capsys.readouterr().err


def test_reproduce_forwards_trace(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    trace_file = tmp_path / "repro-trace.json"
    rc = main(
        ["reproduce", "--scale", "0.02", "--seed", "55", "--only", "table1",
         "--trace", str(trace_file)]
    )
    assert rc == 0
    assert trace_file.exists()
    from repro.obs.artifact import RunTrace

    trace = RunTrace.load(trace_file)
    assert trace.meta["command"] == "reproduce"
    assert "experiments" in trace.subsystems()
    capsys.readouterr()
