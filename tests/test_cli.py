"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_prints_grid(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        assert "u \\ m" in out
        assert "13" in out


class TestTradeoff:
    def test_seven(self, capsys):
        code, out, _ = run_cli(capsys, "tradeoff", "7")
        assert code == 0
        assert "1/4-degradable" in out


class TestRun:
    def test_clean_run(self, capsys):
        code, out, _ = run_cli(capsys, "run", "-m", "1", "-u", "2")
        assert code == 0
        assert "SATISFIED" in out

    def test_degraded_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "-m", "1", "-u", "2", "--faulty", "p1,p2"
        )
        assert code == 0
        assert "degraded regime" in out

    def test_each_adversary_flag(self, capsys):
        for adversary in ("lie", "silent", "constant", "two-faced"):
            code, out, _ = run_cli(
                capsys, "run", "-m", "1", "-u", "2",
                "--faulty", "p1", "--adversary", adversary,
            )
            assert code == 0, adversary
            assert "SATISFIED" in out

    def test_unknown_faulty_id(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "-m", "1", "-u", "2", "--faulty", "ghost"
        )
        assert code == 2
        assert "unknown node ids" in err

    def test_configuration_error_reported(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "-m", "1", "-u", "2", "-n", "3"
        )
        assert code == 2
        assert "error:" in err


class TestScenarios:
    def test_theorem2_pattern(self, capsys):
        code, out, _ = run_cli(capsys, "scenarios", "-m", "1", "-u", "2")
        assert code == 0
        assert "Theorem 2 witnessed" in out


class TestConnectivity:
    def test_theorem3_pattern(self, capsys):
        code, out, _ = run_cli(capsys, "connectivity", "-m", "1", "-u", "2")
        assert code == 0
        assert "holds" in out and "breaks" in out


class TestReliability:
    def test_prints_chart(self, capsys):
        code, out, _ = run_cli(capsys, "reliability", "7", "-p", "0.02")
        assert code == 0
        assert "P(unsafe)" in out
        assert "log scale" in out


class TestComplexity:
    def test_prints_costs(self, capsys):
        code, out, _ = run_cli(capsys, "complexity", "-u", "3")
        assert code == 0
        assert "OM" in out and "BYZ(m=1)" in out


class TestSearch:
    def test_at_bound(self, capsys):
        code, out, _ = run_cli(capsys, "search", "-u", "1")
        assert code == 0
        assert "no violating adversary" in out

    def test_below_bound(self, capsys):
        code, out, _ = run_cli(capsys, "search", "-u", "1", "--below")
        assert code == 0
        assert "violation found" in out


class TestMission:
    def test_safe_mission(self, capsys):
        code, out, _ = run_cli(
            capsys, "mission", "--steps", "40", "-p", "0.05", "--seed", "7"
        )
        assert code == 0
        assert "availability" in out


class TestExperiments:
    def test_subset_runs_and_writes(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code, stdout, _ = run_cli(
            capsys, "experiments", "--only", "E3,E6", "--out", str(out)
        )
        assert code == 0
        assert "[PASS] E3" in stdout and "[PASS] E6" in stdout
        assert out.exists()


class TestVerboseRun:
    def test_narration(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "-m", "1", "-u", "2", "--faulty", "p1", "--verbose"
        )
        assert code == 0
        assert "round 2" in out
        assert "from a faulty node" in out
        assert "contract SATISFIED" in out


class TestSuiteCommand:
    def test_reference_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "suite")
        assert code == 0
        assert "6/6 scenarios passed" in out

    def test_save_and_reload(self, capsys, tmp_path):
        path = tmp_path / "suite.json"
        code, out, _ = run_cli(capsys, "suite", "--save", str(path))
        assert code == 0 and path.exists()
        code, out, _ = run_cli(capsys, "suite", str(path))
        assert code == 0
        assert "scenarios passed" in out


class TestNet:
    def test_local_clean_run(self, capsys):
        code, out, _ = run_cli(capsys, "net", "-m", "1", "-u", "2")
        assert code == 0
        assert "transport=local" in out
        assert "contract: SATISFIED" in out
        assert "synchronous-engine cross-check: decisions identical" in out

    def test_tcp_run_over_real_sockets(self, capsys):
        code, out, _ = run_cli(capsys, "net", "--transport", "tcp")
        assert code == 0
        assert "transport=tcp" in out
        assert "bytes" in out
        assert "contract: SATISFIED" in out

    def test_crash_adversary_times_out(self, capsys):
        code, out, _ = run_cli(
            capsys, "net", "--faulty", "p1", "--adversary", "crash",
            "--timeout", "0.4",
        )
        assert code == 0
        assert "V_d substitutions" in out
        assert "contract: SATISFIED" in out

    def test_degraded_band_over_local_bus(self, capsys):
        code, out, _ = run_cli(
            capsys, "net", "--faulty", "p1,p2", "--adversary", "lie"
        )
        assert code == 0
        assert "degraded regime" in out

    def test_no_verify_skips_cross_check(self, capsys):
        code, out, _ = run_cli(capsys, "net", "--no-verify")
        assert code == 0
        assert "cross-check" not in out

    def test_unknown_faulty_id(self, capsys):
        code, _, err = run_cli(capsys, "net", "--faulty", "ghost")
        assert code == 2
        assert "unknown node ids" in err

    def test_batched_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "net")
        assert code == 0
        assert "batch frame(s)" in out


class TestChaos:
    def test_light_campaign_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "chaos", "--seed", "7", "--severity", "light",
            "--trials", "2",
        )
        assert code == 0
        assert "campaign PASSED" in out
        assert "tier byzantine" in out

    def test_report_written(self, capsys, tmp_path):
        path = tmp_path / "chaos.json"
        code, out, _ = run_cli(
            capsys, "chaos", "--seed", "7", "--severity", "crash",
            "--trials", "2", "--report", str(path),
        )
        assert code == 0
        assert path.exists()
        assert "report written" in out

    def test_replay_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "chaos", "--replay",
            "m=1,u=2,n=5,severity=crash,transport=local,seed=11",
        )
        assert code == 0
        assert "replay m=1,u=2,n=5" in out
        assert "verdict:" in out

    def test_bad_replay_token(self, capsys):
        code, _, err = run_cli(capsys, "chaos", "--replay", "nonsense")
        assert code == 2
        assert "replay token" in err or "malformed" in err

    def test_bad_trials_rejected(self, capsys):
        code, _, err = run_cli(capsys, "chaos", "--trials", "0")
        assert code == 2
        assert "--trials" in err


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["explore", "--timeout", "0"], "--timeout must be > 0"),
            (["fuzz", "--examples", "0"], "--examples must be >= 1"),
            (["suite", "/nonexistent.json"], "cannot read suite"),
            (["serve", "--metrics-port", "99999"], "--metrics-port must be in"),
            (["load", "--metrics-port", "99999"], "--metrics-port must be in"),
        ],
    )
    def test_bad_argument_is_one_error_line_not_a_traceback(
        self, capsys, argv, names
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert names in err


class TestStartup:
    """Import cost follows use: only ``report`` computes a Clopper-Pearson
    bound, so only it may load scipy."""

    @pytest.mark.parametrize(
        "statement",
        [
            "import repro.analysis",
            "import repro.cli",
            "import runpy, sys; sys.argv = ['repro', 'net', '--help']\n"
            "try:\n    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit:\n    pass",
        ],
    )
    def test_scipy_stays_unloaded(self, statement):
        import subprocess
        import sys

        probe = f"{statement}\nimport sys\nprint('scipy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert result.stdout.splitlines()[-1] == "False"


class TestClocksyncCommand:
    def test_conjecture_grid(self, capsys):
        code, out, _ = run_cli(capsys, "clocksync", "-m", "1", "-u", "1")
        assert code == 0
        assert "evidence FOR the conjecture" in out


class TestReportCommand:
    def test_report_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--no-battery")
        assert code == 0
        assert "# Measured report" in out
        assert "Degradable clock-sync conjecture grid" in out

    def test_report_to_file(self, capsys, tmp_path):
        path = tmp_path / "REPORT.md"
        code, out, _ = run_cli(capsys, "report", "-o", str(path), "--no-battery")
        assert code == 0
        assert path.exists()
        assert "report written" in out


class TestServe:
    def test_local_service_multiplexes_and_cross_checks(self, capsys):
        code, out, _ = run_cli(
            capsys, "serve", "--instances", "6", "--timeout", "2.0",
        )
        assert code == 0
        assert "6 instance(s) multiplexed" in out
        assert "multiplexing: 6 instance(s)" in out
        assert "synchronous-engine cross-check: decisions identical" in out
        assert "FAIL" not in out

    def test_chaos_service_runs_seeded(self, capsys):
        code, out, _ = run_cli(
            capsys, "serve", "--instances", "4", "--chaos", "light",
            "--seed", "5", "--timeout", "0.5",
        )
        assert code == 0
        assert "under 'light' chaos" in out

    def test_trace_written_and_verifiable(self, capsys, tmp_path):
        trace = tmp_path / "serve.jsonl"
        code, out, _ = run_cli(
            capsys, "serve", "--instances", "4", "--timeout", "2.0",
            "--trace", str(trace),
        )
        assert code == 0
        assert trace.exists()
        code, out, _ = run_cli(capsys, "verify", str(trace))
        assert code == 0
        assert "4 instance(s)" in out

    def test_bad_instances_rejected(self, capsys):
        code, _, err = run_cli(capsys, "serve", "--instances", "0")
        assert code == 2
        assert "--instances" in err


class TestLoad:
    def test_quick_load_writes_report(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_serve.json"
        code, out, _ = run_cli(
            capsys, "load", "--quick", "--instances", "12",
            "--timeout", "2.0", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.exists()
        assert "p50" in out

    def test_open_loop_mode(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_serve.json"
        code, out, _ = run_cli(
            capsys, "load", "--quick", "--instances", "8",
            "--mode", "open", "--rate", "400", "--timeout", "2.0",
            "--out", str(out_path),
        )
        assert code == 0
        assert "open" in out


class TestExplore:
    def test_clean_campaign(self, capsys):
        code, out, _ = run_cli(
            capsys, "explore", "--depth", "1", "--budget", "40"
        )
        assert code == 0
        assert "[ok]" in out
        assert "partial-order pruning" in out

    def test_seeded_bug_exits_nonzero_with_replay_token(self, capsys):
        code, out, _ = run_cli(
            capsys, "explore", "--inject-vote-bug", "1",
            "--depth", "2", "--budget", "50",
        )
        assert code == 1
        assert "VOTE_MISMATCH" in out
        assert 'explore --replay "' in out

    def test_replay_token_reproduces_verdict(self, capsys):
        token = (
            "m=1,u=2,n=5,value=alpha,faults=-,timeout=1.0,"
            "batch=1,sup=0,bug=1,sched=1"
        )
        code_a, out_a, _ = run_cli(capsys, "explore", "--replay", token)
        code_b, out_b, _ = run_cli(capsys, "explore", "--replay", token)
        assert code_a == code_b == 1
        assert out_a == out_b
        assert "fingerprint" in out_a

    def test_faulty_flag_and_usage_errors(self, capsys):
        code, out, _ = run_cli(
            capsys, "explore", "--faulty", "p1:silent",
            "--depth", "1", "--budget", "20",
        )
        assert code == 0
        code, _, err = run_cli(
            capsys, "explore", "--faulty", "ghost:lie", "--budget", "5"
        )
        assert code == 2
        assert "unknown faulty node" in err
