"""Tests for the command-line interface."""

import pytest

from repro.cli import main

TEXT = """\
system demo
process p1
block p1 main deadline=8
op p1 main a1 add
op p1 main m1 mul
edge p1 main a1 m1
process p2
block p2 main deadline=8
op p2 main m1 mul
global multiplier p1 p2
period multiplier 4
"""


@pytest.fixture
def sys_file(tmp_path):
    path = tmp_path / "demo.sys"
    path.write_text(TEXT, encoding="utf-8")
    return str(path)


class TestScheduleCommand:
    def test_schedule_prints_summary(self, sys_file, capsys):
        assert main(["schedule", sys_file]) == 0
        out = capsys.readouterr().out
        assert "multiplier" in out
        assert "verified" in out

    def test_schedule_table(self, sys_file, capsys):
        assert main(["schedule", sys_file, "--table"]) == 0
        out = capsys.readouterr().out
        assert "global type 'multiplier'" in out

    def test_schedule_local(self, sys_file, capsys):
        assert main(["schedule", sys_file, "--local"]) == 0
        out = capsys.readouterr().out
        assert "2x multiplier" in out

    def test_schedule_no_verify(self, sys_file, capsys):
        assert main(["schedule", sys_file, "--no-verify"]) == 0
        assert "verified" not in capsys.readouterr().out


class TestOtherCommands:
    def test_compare(self, sys_file, capsys):
        assert main(["compare", sys_file]) == 0
        out = capsys.readouterr().out
        assert "saves" in out

    def test_simulate(self, sys_file, capsys):
        assert main(["simulate", sys_file, "--cycles", "300", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "violations: none" in out

    def test_sweep(self, sys_file, capsys):
        assert main(["sweep", sys_file]) == 0
        out = capsys.readouterr().out
        assert "best:" in out

    def test_info(self, sys_file, capsys):
        assert main(["info", sys_file]) == 0
        out = capsys.readouterr().out
        assert "2 processes" in out
        assert "critical path" in out


class TestSweepEngine:
    """The engine-backed sweep: summary, -v gating, flags, truncation."""

    def test_default_output_is_compact(self, sys_file, capsys):
        assert main(["sweep", sys_file]) == 0
        out = capsys.readouterr().out
        assert "sweep:" in out and "evaluated" in out and "pruned" in out
        assert "-> area" not in out  # per-candidate lines need -v

    def test_verbose_prints_candidates(self, sys_file, capsys):
        assert main(["sweep", sys_file, "-v", "--no-prune"]) == 0
        out = capsys.readouterr().out
        assert "-> area" in out
        assert "best:" in out

    def test_no_prune_evaluates_everything(self, sys_file, capsys):
        assert main(["sweep", sys_file, "--no-prune"]) == 0
        out = capsys.readouterr().out
        assert " 0 pruned" in out

    def test_prune_and_no_prune_agree_on_best(self, sys_file, capsys):
        assert main(["sweep", sys_file]) == 0
        pruned_out = capsys.readouterr().out
        assert main(["sweep", sys_file, "--no-prune"]) == 0
        exhaustive_out = capsys.readouterr().out
        best = [l for l in pruned_out.splitlines() if l.startswith("best:")]
        best_ex = [
            l for l in exhaustive_out.splitlines() if l.startswith("best:")
        ]
        assert best and best == best_ex

    def test_workers_flag_same_best(self, sys_file, capsys):
        assert main(["sweep", sys_file, "--no-prune"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["sweep", sys_file, "--no-prune", "--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        best = [l for l in serial_out.splitlines() if l.startswith("best:")]
        best_par = [
            l for l in parallel_out.splitlines() if l.startswith("best:")
        ]
        assert best and best == best_par

    def test_limit_truncation_warns(self, sys_file, capsys):
        assert main(["sweep", sys_file, "--limit", "2"]) == 0
        captured = capsys.readouterr()
        assert "2 period assignments survive" in captured.out
        assert "truncated" in captured.err
        assert "truncated" in captured.out  # summary carries the count

    def test_no_truncation_no_warning(self, sys_file, capsys):
        assert main(["sweep", sys_file]) == 0
        assert "truncated" not in capsys.readouterr().out

    def test_sweep_profile_uses_merged_telemetry(self, sys_file, capsys):
        assert main(["sweep", sys_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase timings" in out
        assert "counters" in out

    def test_parallel_sweep_profile_merges_worker_counters(
        self, sys_file, capsys
    ):
        assert main(["sweep", sys_file, "--workers", "2", "--profile"]) == 0
        out = capsys.readouterr().out
        counters = out.split("counters", 1)[1]
        assert "force_evaluations" in counters
        assert "candidate_seconds" in out

    def test_compare_workers(self, sys_file, capsys):
        assert main(["compare", sys_file]) == 0
        serial_out = capsys.readouterr().out
        assert main(["compare", sys_file, "--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        # Identical report shape; wall times legitimately differ.
        strip = lambda text: [
            line.split("(")[0]
            for line in text.splitlines()
            if line.strip()
        ]
        assert strip(parallel_out) == strip(serial_out)

class TestObservability:
    def test_schedule_profile_prints_tables(self, sys_file, capsys):
        assert main(["schedule", sys_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase timings" in out
        assert "reduction_loop" in out
        assert "counters" in out
        assert "force_evaluations" in out

    def test_schedule_trace_writes_jsonl(self, sys_file, tmp_path, capsys):
        import json

        target = str(tmp_path / "trace.jsonl")
        assert main(["schedule", sys_file, "--trace", target]) == 0
        assert "wrote" in capsys.readouterr().out
        lines = open(target, encoding="utf-8").read().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        reductions = [r for r in records if r["name"] == "reduction"]
        assert len(reductions) >= 1
        # One event per scheduler iteration.
        iterations = max(r["attrs"]["iteration"] for r in reductions)
        assert len(reductions) == iterations

    def test_profile_subcommand(self, sys_file, capsys):
        assert main(["profile", sys_file]) == 0
        out = capsys.readouterr().out
        assert "phase timings" in out
        assert "counters" in out

    def test_profile_subcommand_local(self, sys_file, capsys):
        assert main(["profile", sys_file, "--local"]) == 0
        assert "phase timings" in capsys.readouterr().out

    def test_compare_profile(self, sys_file, capsys):
        assert main(["compare", sys_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "saves" in out
        assert "counters" in out

    def test_sweep_trace(self, sys_file, tmp_path, capsys):
        target = str(tmp_path / "sweep.jsonl")
        assert main(["sweep", sys_file, "--trace", target]) == 0
        out = capsys.readouterr().out
        assert "best:" in out and "wrote" in out

    def test_verbose_flag_accepted(self, sys_file, capsys):
        assert main(["schedule", sys_file, "-v"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_quiet_flag_accepted(self, sys_file, capsys):
        assert main(["simulate", sys_file, "--cycles", "100", "-q"]) == 0


class TestExplainAndReport:
    def test_explain_names_a_bottleneck_triple(self, sys_file, capsys):
        assert main(["explain", sys_file]) == 0
        out = capsys.readouterr().out
        assert "area attribution" in out
        assert "pinned by (type 'multiplier', slot " in out
        assert "audited reduction decision(s)" in out

    def test_explain_triple_matches_certifier(self, sys_file, capsys):
        from repro.analysis.static.certifier import pool_conflict
        from repro.api import load_problem

        assert main(["explain", sys_file]) == 0
        out = capsys.readouterr().out
        result = load_problem(sys_file).schedule()
        conflict = pool_conflict(
            result, "multiplier", result.global_instances("multiplier")
        )
        assert conflict.triple() in out

    def test_explain_json(self, sys_file, capsys):
        import json

        assert main(["explain", sys_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["system"] == "demo"
        globals_ = [e for e in data["entries"] if e["scope"] == "global"]
        assert globals_ and globals_[0]["type"] == "multiplier"
        assert globals_[0]["audit_decisions"] > 0

    def test_explain_markdown(self, sys_file, capsys):
        assert main(["explain", sys_file, "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert "| rank | type | scope |" in out

    def test_explain_audit_export(self, sys_file, tmp_path, capsys):
        import json

        target = str(tmp_path / "audit.jsonl")
        assert main(["explain", sys_file, "--audit", target]) == 0
        assert "audit records" in capsys.readouterr().out
        lines = open(target, encoding="utf-8").read().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "audit_summary"
        assert header["recorded"] == len(lines) - 1 > 0

    def test_schedule_audit_export(self, sys_file, tmp_path, capsys):
        import json

        target = str(tmp_path / "audit.jsonl")
        assert main(["schedule", sys_file, "--audit", target]) == 0
        assert "audit records" in capsys.readouterr().out
        records = [
            json.loads(line)
            for line in open(target, encoding="utf-8")
        ]
        decisions = [r for r in records if r["type"] == "decision"]
        assert decisions
        for record in decisions:
            assert record["candidates"]
            assert record["op"] in {
                c["op"] for c in record["candidates"]
            }

    def test_schedule_audit_capacity_caps_trail(
        self, sys_file, tmp_path, capsys
    ):
        import json

        target = str(tmp_path / "audit.jsonl")
        assert main(
            ["schedule", sys_file, "--audit", target, "--audit-capacity", "3"]
        ) == 0
        capsys.readouterr()
        records = [
            json.loads(line)
            for line in open(target, encoding="utf-8")
        ]
        assert records[0]["dropped"] > 0
        assert len(records) - 1 == 3

    def test_report_to_stdout(self, sys_file, capsys):
        assert main(["report", sys_file]) == 0
        out = capsys.readouterr().out
        assert "# Run report:" in out
        assert "## Area attribution" in out
        assert "(type 'multiplier', slot " in out

    def test_report_to_file(self, sys_file, tmp_path, capsys):
        target = str(tmp_path / "report.md")
        assert main(["report", sys_file, "-o", target]) == 0
        assert "wrote" in capsys.readouterr().out
        text = open(target, encoding="utf-8").read()
        assert "## Profile" in text and "## Schedule" in text

    def test_report_json(self, sys_file, capsys):
        import json

        assert main(["report", sys_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["system"] == "demo"
        assert data["telemetry"]["iterations"] > 0
        assert data["attribution"]["entries"]

    def test_profile_json_format(self, sys_file, capsys):
        import json

        assert main(["profile", sys_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["iterations"] > 0
        assert "force_evaluations" in data["counters"]
        # The demo has no hits: every commit re-evaluates its candidates.
        assert data["counters"]["force_cache_misses"] > 0
        assert "phase_times" in data
        assert "select_seconds" in data["histograms"]
        assert "frames_remaining" in data["gauges"]

    def test_sweep_live_progress_on_stderr(self, sys_file, capsys):
        assert main(["sweep", sys_file, "--live"]) == 0
        captured = capsys.readouterr()
        assert "best:" in captured.out
        lines = [
            line for line in captured.err.splitlines() if line.startswith("[")
        ]
        assert lines
        assert lines[-1].startswith(f"[{len(lines)}/{len(lines)}]")
        assert any("-> area" in line or "pruned" in line for line in lines)

    def test_sweep_live_does_not_change_best(self, sys_file, capsys):
        assert main(["sweep", sys_file]) == 0
        plain = capsys.readouterr().out
        assert main(["sweep", sys_file, "--live"]) == 0
        live = capsys.readouterr().out
        pick = lambda text: [
            l for l in text.splitlines() if l.startswith("best:")
        ]
        assert pick(plain) and pick(plain) == pick(live)


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["schedule", "/nonexistent/x.sys"]) == 2
        assert "error [OS]:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.sys"
        path.write_text("frobnicate\n", encoding="utf-8")
        assert main(["schedule", str(path)]) == 2
        assert "error [" in capsys.readouterr().err

    def test_infeasible_deadline(self, tmp_path, capsys):
        path = tmp_path / "tight.sys"
        path.write_text(
            "process p\nblock p b deadline=1\n"
            "op p b m mul\n",
            encoding="utf-8",
        )
        assert main(["schedule", str(path)]) == 2


class TestRtlAndGantt:
    def test_rtl_to_stdout(self, sys_file, capsys):
        assert main(["rtl", sys_file]) == 0
        out = capsys.readouterr().out
        assert "module p1_main_ctrl (" in out
        assert "endmodule" in out

    def test_rtl_to_file(self, sys_file, tmp_path, capsys):
        target = str(tmp_path / "out.v")
        assert main(["rtl", sys_file, "-o", target]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        with open(target, encoding="utf-8") as handle:
            assert "module" in handle.read()

    def test_gantt(self, sys_file, capsys):
        assert main(["gantt", sys_file]) == 0
        out = capsys.readouterr().out
        assert "=== p1/main ===" in out
        assert "-- multiplier --" in out

    def test_export_stdout(self, sys_file, capsys):
        assert main(["export", sys_file]) == 0
        import json

        parsed = json.loads(capsys.readouterr().out)
        assert parsed["system"] == "demo"

    def test_export_to_file(self, sys_file, tmp_path, capsys):
        import json

        target = str(tmp_path / "r.json")
        assert main(["export", sys_file, "-o", target]) == 0
        with open(target, encoding="utf-8") as handle:
            parsed = json.load(handle)
        assert "global_types" in parsed
