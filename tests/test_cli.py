"""Unit tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import _parse_budget, build_parser, main
from repro.harness import ALL_EXPERIMENTS


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestList:
    def test_lists_every_experiment(self):
        code, out = run_cli("list")
        assert code == 0
        for name in ALL_EXPERIMENTS:
            assert name in out

    def test_summaries_present(self):
        _code, out = run_cli("list")
        assert "Fig 9" in out


class TestRun:
    def test_unknown_experiment(self, capsys):
        code, _out = run_cli("run", "fig99")
        assert code == 2

    def test_run_single(self):
        code, out = run_cli("run", "fig06")
        assert code == 0
        assert "Fig 6" in out
        assert "completed in" in out

    def test_run_with_out_dir(self, tmp_path):
        code, _out = run_cli("run", "fig06", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "fig06.txt").read_text().startswith("== Fig 6")


class TestDemoInfo:
    def test_demo(self):
        code, out = run_cli("demo")
        assert code == 0
        assert "restore verified" in out

    def test_info_lists_testbeds(self):
        code, out = run_cli("info")
        assert code == 0
        for name in ("old-cluster", "new-cluster", "big-cluster"):
            assert name in out


class TestTrace:
    def test_traced_null_writes_artifacts(self, tmp_path):
        code, out = run_cli("trace", "--out", str(tmp_path))
        assert code == 0
        assert "span_wall_ms" in out
        chrome = tmp_path / "null.trace.json"
        assert chrome.exists()
        assert (tmp_path / "null.trace.jsonl").exists()
        assert (tmp_path / "null.metrics.txt").exists()
        from repro.obs import validate_chrome_trace
        assert validate_chrome_trace(chrome) > 0

    def test_traced_experiment_per_run_artifacts(self, tmp_path):
        code, out = run_cli("trace", "fig11", "--out", str(tmp_path))
        assert code == 0
        runs = sorted(tmp_path.glob("fig11.run*.trace.json"))
        assert runs
        from repro.obs import validate_chrome_trace
        for p in runs:
            assert validate_chrome_trace(p) > 0

    def test_unknown_experiment(self, tmp_path):
        code, _out = run_cli("trace", "fig99", "--out", str(tmp_path))
        assert code == 2


class TestBench:
    """CLI surface of the benchmark harness and regression gate."""

    # The cheapest quick-tier spec (~0.1s); everything run-based below
    # filters down to it so the CLI tests stay fast.
    SPEC = "monitor.scan"

    def _bench(self, *argv):
        return run_cli("bench", "--no-trajectory", *argv)

    def test_list_names_specs_with_tier(self):
        code, out = run_cli("bench", "--list")
        assert code == 0
        assert "cmd.null" in out and "[quick]" in out
        assert "cmd.null.big" in out and "[full]" in out

    def test_list_applies_the_run_path_filter(self):
        code, out = run_cli("bench", "--list", "--filter", "cmd.")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] \
            == ["cmd.null", "cmd.null.big"]

    @pytest.mark.parametrize("flag", (("--workers", "2"), ("--profile",)))
    def test_host_clock_flags_are_gone(self, flag):
        with pytest.raises(SystemExit):
            run_cli("bench", "--list", *flag)

    def test_selftest_trips_gate_and_exits_1(self):
        code, out = run_cli("bench", "--selftest")
        assert code == 1
        assert "REGRESSION" in out

    def test_filter_without_match_exits_2(self):
        code, _out = self._bench("--quick", "--filter", "zzz-no-such")
        assert code == 2

    def test_quick_run_appends_schema_valid_trajectory(self, tmp_path):
        traj = tmp_path / "traj.json"
        code, out = run_cli("bench", "--quick", "--filter", self.SPEC,
                            "--trajectory", str(traj))
        assert code == 0
        assert self.SPEC in out
        doc = json.loads(traj.read_text())
        assert doc["schema"] == 1
        (rec,) = doc["records"]
        assert rec["name"] == self.SPEC
        assert rec["metrics"]
        for key in ("python", "numpy", "machine", "git_sha"):
            assert key in rec["env"]
        # The fingerprint names the worker count the systems ran with,
        # not the host's CPU count.
        from repro.core.config import ConCORDConfig
        assert rec["env"]["workers"] == ConCORDConfig().workers

    def test_compare_missing_baseline_fails_fast(self, tmp_path):
        code, out = self._bench("--quick", "--compare",
                                str(tmp_path / "nope.json"))
        assert code == 2
        assert "benchmark(s)" not in out  # failed before running anything

    def test_compare_malformed_baseline_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _out = self._bench("--quick", "--compare", str(bad))
        assert code == 2

    def test_compare_old_schema_baseline_exits_2(self, tmp_path):
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"schema": 0, "records": []}))
        code, _out = self._bench("--quick", "--compare", str(old))
        assert code == 2

    def test_write_baseline_then_compare_passes(self, tmp_path):
        base = tmp_path / "base.json"
        code, _out = self._bench("--quick", "--filter", self.SPEC,
                                 "--write-baseline", str(base))
        assert code == 0
        code, out = self._bench("--quick", "--filter", self.SPEC,
                                "--compare", str(base))
        assert code == 0
        assert "[gate: OK" in out

    def test_doctored_baseline_trips_gate(self, tmp_path):
        base = tmp_path / "base.json"
        code, _out = self._bench("--quick", "--filter", self.SPEC,
                                 "--write-baseline", str(base))
        assert code == 0
        # Doctor every metric so the fresh run looks 2x worse.
        doc = json.loads(base.read_text())
        for rec in doc["records"]:
            for m in rec["metrics"].values():
                m["value"] = (m["value"] * 2 if m["higher_is_better"]
                              else m["value"] / 2)
        base.write_text(json.dumps(doc))
        code, out = self._bench("--quick", "--filter", self.SPEC,
                                "--compare", str(base), "--budget", "25%")
        assert code == 1
        assert "REGRESSION" in out


class TestServe:
    """CLI surface of the query-serving frontend (docs/SERVING.md)."""

    ARGS = ("serve", "--clients", "4", "--duration", "0.05",
            "--population", "32", "--zipf", "1.4")

    def test_summary_table_and_exit_zero(self):
        code, out = run_cli(*self.ARGS)
        assert code == 0
        for row in ("submitted", "completed", "throughput_qps",
                    "coalesce_rate", "cache_hit_rate"):
            assert row in out

    def test_verify_cache_clean_run(self):
        code, out = run_cli(*self.ARGS, "--verify-cache")
        assert code == 0
        assert "every hit matched fresh execution" in out

    def test_expect_coalescing_holds_on_hot_keys(self):
        code, _out = run_cli(*self.ARGS, "--expect-coalescing")
        assert code == 0

    def test_expect_coalescing_fails_without_any(self):
        # A single client at a trickle rate cannot coalesce anything.
        code, out = run_cli("serve", "--clients", "1", "--duration", "0.01",
                            "--rate", "100", "--expect-coalescing")
        assert code == 1
        assert "expected request coalescing" in out

    def test_no_cache_disables_hits(self):
        code, out = run_cli(*self.ARGS, "--no-cache")
        assert code == 0
        for line in out.splitlines():
            if "cache_hits" in line:
                assert line.split()[-1] == "0"

    def test_closed_loop_runs(self):
        code, out = run_cli("serve", "--closed", "--clients", "4",
                            "--duration", "0.02", "--think", "1e-4")
        assert code == 0
        assert "completed" in out

    def test_bad_args_exit_2(self):
        assert run_cli("serve", "--clients", "0")[0] == 2
        assert run_cli("serve", "--nodes", "1")[0] == 2
        assert run_cli("serve", "--duration", "0")[0] == 2

    def test_rate_limit_sheds_and_reports(self):
        code, out = run_cli("serve", "--clients", "8", "--duration", "0.05",
                            "--rate", "2000", "--rate-limit", "1000")
        assert code == 0
        assert "rejected[rate_limited]" in out


class TestStorageFlags:
    """--storage/--storage-dir/--expect-warm (docs/STORAGE.md)."""

    SERVE = ("serve", "--clients", "2", "--duration", "0.02",
             "--population", "16", "--pages", "128")

    def test_bench_lists_storage_specs(self):
        code, out = run_cli("bench", "--list")
        assert code == 0
        assert "storage.restart.cold_vs_warm" in out

    def test_bench_storage_flag_does_not_leak_env(self, tmp_path):
        # --storage must not leak into the process env (tier-2 CI runs
        # with CONCORD_STORAGE already set: assert unchanged, not unset).
        import os
        before = {k: os.environ.get(k)
                  for k in ("CONCORD_STORAGE", "CONCORD_STORAGE_DIR")}
        code, _out = run_cli("bench", "--no-trajectory", "--quick",
                             "--filter", "monitor.scan",
                             "--storage", "sqlite",
                             "--storage-dir", str(tmp_path))
        assert code == 0
        assert {k: os.environ.get(k) for k in before} == before

    def test_serve_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            run_cli(*self.SERVE, "--storage", "bogus")

    def test_expect_warm_requires_persistent_backend(self, monkeypatch):
        monkeypatch.delenv("CONCORD_STORAGE", raising=False)
        code, out = run_cli(*self.SERVE, "--expect-warm")
        assert code == 2
        assert "persistent" in out
        code, out = run_cli(*self.SERVE, "--storage", "memory",
                            "--expect-warm")
        assert code == 2

    def test_expect_warm_fails_on_empty_root(self, tmp_path):
        code, out = run_cli(*self.SERVE, "--storage", "sqlite",
                            "--storage-dir", str(tmp_path),
                            "--expect-warm")
        assert code == 1
        assert "expected a warm restart" in out

    @pytest.mark.parametrize("backend", ("mmap", "sqlite"))
    def test_serve_twice_warm_restarts(self, backend, tmp_path):
        cold = self.SERVE + ("--storage", backend,
                             "--storage-dir", str(tmp_path))
        code, out = run_cli(*cold)
        assert code == 0
        assert "warm restart" not in out
        code, out = run_cli(*cold, "--expect-warm")
        assert code == 0
        assert f"[warm restart from {backend} storage:" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_budget_formats(self):
        assert _parse_budget("25%") == pytest.approx(0.25)
        assert _parse_budget("0.25") == pytest.approx(0.25)
        assert _parse_budget("30") == pytest.approx(0.30)

    def test_budget_invalid(self):
        with pytest.raises(SystemExit):
            _parse_budget("abc")
        with pytest.raises(SystemExit):
            _parse_budget("-5%")
