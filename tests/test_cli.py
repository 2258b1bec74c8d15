"""Tests for the command-line interface (python -m repro)."""

from __future__ import annotations

import pytest

from repro.__main__ import build_parser, main


class TestCLI:
    def test_sort_command(self, capsys):
        assert main(["sort", "--n", "256", "--dist", "uniform"]) == 0
        out = capsys.readouterr().out
        assert "sorted 256 pairs" in out
        assert "stream ops" in out
        assert "GeForce 6800" in out and "GeForce 7800" in out

    def test_sort_variants(self, capsys):
        assert main(["sort", "--n", "64",
                     "--engine", "abisort-sequential"]) == 0
        out = capsys.readouterr().out
        assert "sorted 64 pairs" in out
        assert "engine 'abisort-sequential'" in out

    def test_figures_single(self, capsys):
        assert main(["figures", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "32 31 32 30 32 31 32 3s" in out
        assert "Figure 6" not in out

    def test_figures_all(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for name in ("Figure 1", "Figure 4", "Figure 5", "Figure 6", "Figure 7"):
            assert name in out

    def test_table3_with_sizes(self, capsys):
        assert main(["table3", "--sizes", "1024", "4096"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "GPU-ABiSort" in out
        assert "time vs n" in out  # the plot companion

    def test_ops_command(self, capsys):
        assert main(["ops", "--n", "256"]) == 0
        out = capsys.readouterr().out
        assert "Appendix A" in out
        assert "Section 7" in out

    def test_profile_command(self, capsys):
        assert main(["profile", "--n", "256", "--gpu", "6800"]) == 0
        out = capsys.readouterr().out
        assert "run profile on GeForce 6800" in out
        assert "level8" in out

    def test_profile_exec_tier_is_tier_identical(self, capsys):
        """``profile --exec-tier``: the op log, and so the profile, must be
        byte-identical across tiers (the stream-tier contract)."""
        assert main(["profile", "--n", "256",
                     "--exec-tier", "reference"]) == 0
        reference = capsys.readouterr().out
        assert main(["profile", "--n", "256",
                     "--exec-tier", "vectorized"]) == 0
        vectorized = capsys.readouterr().out
        assert "level8" in reference
        assert reference == vectorized

    def test_report_command(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "reproduction checklist" in out
        assert "FAIL" not in out
        assert "12/12 checks passed" in out

    def test_report_health_command(self, capsys, tmp_path):
        out_html = tmp_path / "health.html"
        assert main(["report", "health", "--scenario", "burst",
                     "--out", str(out_html)]) == 0
        out = capsys.readouterr().out
        assert "pool health: trace 'burst'" in out
        assert "utilization" in out and "slot0" in out
        assert "fairness (Jain over mean slowdown)" in out
        assert out_html.read_text().startswith("<!DOCTYPE html>")

    def test_report_health_json(self, capsys):
        import json

        assert main(["report", "health", "--scenario", "burst",
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["trace"] == "burst"
        assert record["pool"]["devices"]
        assert "notes" in record

    def test_metrics_command_summarizes_ndjson(self, capsys, tmp_path):
        samples = tmp_path / "m.ndjson"
        assert main(["fleet", "replay", "--scenario", "burst",
                     "--metrics-out", str(samples)]) == 0
        capsys.readouterr()
        assert main(["metrics", "--samples", str(samples)]) == 0
        out = capsys.readouterr().out
        assert "metrics at t=" in out
        assert "repro_fleet_completed_total" in out

    def test_fleet_replay_trace_out(self, capsys, tmp_path):
        import json

        trace_out = tmp_path / "trace.json"
        assert main(["fleet", "replay", "--scenario", "burst",
                     "--trace-out", str(trace_out)]) == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(trace_out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["cat"] == "run" for e in doc["traceEvents"])

    def test_backends_command(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "registered sort engines" in out
        for flag in ("any_length", "key_value", "out_of_core", "stable"):
            assert flag in out
        for engine in ("abisort", "bitonic-network", "cpu-quicksort",
                       "external", "periodic-balanced", "sharded-abisort"):
            assert engine in out
        # Every engine row carries a one-line description and the default
        # engine (the planner front end) is starred.
        assert "auto*" in out
        assert "cost-model planner" in out  # auto's description
        assert "loser-tree merge" in out  # sharded-abisort's description
        assert "NumPy lexsort" in out     # cpu-std's description

    def test_cluster_command(self, capsys):
        assert main(["cluster", "--n", "1024", "--devices", "4",
                     "--gpu", "7800"]) == 0
        out = capsys.readouterr().out
        assert "sharded sort of 1024 pairs" in out
        assert "4 x GeForce 7800 GTX" in out
        assert "makespan" in out
        assert "bubble" in out
        assert "output bit-identical to single-device engine: yes" in out

    def test_cluster_command_6800(self, capsys):
        assert main(["cluster", "--n", "512", "--devices", "2",
                     "--gpu", "6800"]) == 0
        out = capsys.readouterr().out
        assert "GeForce 6800 Ultra" in out and "AGP" in out

    def test_plan_command(self, capsys):
        assert main(["plan", "--n", "1024"]) == 0
        out = capsys.readouterr().out
        assert "plan for n=1024" in out
        assert "->" in out and "predicted" in out
        # Every scored candidate appears, winner starred.
        assert "*" in out
        assert "abisort" in out and "cpu-std" in out

    def test_plan_command_batch_and_devices(self, capsys):
        assert main(["plan", "--n", "512", "--gpu", "6800", "--batch", "4",
                     "--max-devices", "2"]) == 0
        out = capsys.readouterr().out
        assert "GeForce 6800" in out
        assert "batch of 4:" in out and "predicted makespan" in out

    def test_sort_with_auto_engine(self, capsys):
        assert main(["sort", "--n", "256", "--engine", "auto"]) == 0
        out = capsys.readouterr().out
        assert "engine 'auto'" in out
        assert "planner pick:" in out

    def test_sort_with_engine(self, capsys):
        assert main(["sort", "--n", "256", "--engine", "bitonic-network"]) == 0
        out = capsys.readouterr().out
        assert "engine 'bitonic-network'" in out
        assert "stream ops" in out

    def test_sort_with_cpu_engine(self, capsys):
        assert main(["sort", "--n", "256", "--engine", "cpu-quicksort"]) == 0
        out = capsys.readouterr().out
        assert "engine 'cpu-quicksort'" in out
        assert "modeled time" in out

    def test_ops_with_engine(self, capsys):
        assert main(["ops", "--n", "256", "--engine", "periodic-balanced"]) == 0
        out = capsys.readouterr().out
        assert "periodic-balanced" in out
        assert "Appendix A" not in out

    def test_profile_with_engine(self, capsys):
        assert main(["profile", "--n", "256", "--gpu", "7800",
                     "--engine", "odd-even-merge"]) == 0
        out = capsys.readouterr().out
        assert "run profile on GeForce 7800" in out

    def test_profile_rejects_machineless_engine(self, capsys):
        assert main(["profile", "--n", "64", "--engine", "cpu-std"]) == 2
        assert "does not run on the stream machine" in capsys.readouterr().out

    def test_user_errors_print_cleanly(self, capsys):
        # Unknown engine and capability mismatches are one-line errors
        # (exit 2), not tracebacks.
        assert main(["sort", "--n", "64", "--engine", "no-such-engine"]) == 2
        assert "unknown engine" in capsys.readouterr().err
        assert main(["sort", "--n", "1000", "--engine", "bitonic-network"]) == 2
        err = capsys.readouterr().err
        assert "power-of-two" in err and "abisort" in err

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
