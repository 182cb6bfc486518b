"""Unit tests for the command-line interface."""

import io
import json
import math
import re

import pytest

from repro.cli import build_parser, main
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

    def test_profile_flag_is_gone(self):
        """Function-level host time is `python -m cProfile -m repro ...`."""
        with pytest.raises(SystemExit) as exc:
            run_cli("trace", "--profile")
        assert exc.value.code == 2


class TestBench:
    """CLI surface of the benchmark suite and its golden file."""

    # The cheapest real spec (~0.1s); run-based tests of the real suite
    # filter down to it so the CLI tests stay fast.
    SPEC = "monitor.scan"

    @pytest.fixture
    def tiny(self, monkeypatch):
        """Swap the suite for two instant specs; ``calls`` lists the runs."""
        from repro.harness import benchsuite
        from repro.obs.bench import BenchRunner, BenchSpec

        calls = []

        def fn(ctx):
            calls.append(ctx.params["name"])
            ctx.record("wall_s", 0.1 + 0.2)
            ctx.record("rows", 100)

        runner = BenchRunner()
        for name in ("t.one", "t.two"):
            runner.register(BenchSpec(name, fn, params={"name": name}))
        monkeypatch.setattr(benchsuite, "build_default_runner",
                            lambda: runner)
        return calls

    GOLDEN = {name: {"wall_s": 0.1 + 0.2, "rows": 100.0}
              for name in ("t.one", "t.two")}

    def _golden(self, tmp_path, doc=None):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(self.GOLDEN if doc is None else doc))
        return path

    def test_list_names_specs_with_doc(self):
        code, out = run_cli("bench", "--list")
        assert code == 0
        assert "cmd.null " in out and "cmd.null.big " in out
        assert "(Fig 10 point)" in out

    def test_list_applies_the_run_path_filter(self):
        code, out = run_cli("bench", "--list", "--filter", "cmd.")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] \
            == ["cmd.null", "cmd.null.big"]

    def test_help_lists_exactly_four_flags(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("bench", "--help")
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) \
            == {"--help", "--list", "--filter", "--compare",
                "--write-baseline"}

    @pytest.mark.parametrize("flag", (
        ("--workers", "2"), ("--profile",), ("--budget", "0%"),
        ("--selftest",), ("--quick",), ("--full",),
        ("--trajectory", "t.json"), ("--no-trajectory",),
        ("--storage", "mmap"), ("--storage-dir", "d"),
        ("--chunking", "cdc")))
    def test_host_clock_flags_are_gone(self, flag):
        with pytest.raises(SystemExit):
            run_cli("bench", "--list", *flag)

    def test_filter_without_match_exits_2(self):
        assert run_cli("bench", "--filter", "zzz-no-such")[0] == 2
        assert run_cli("bench", "--list", "--filter", "zzz-no-such")[0] == 2

    def test_plain_run_reports_counts(self, tiny):
        code, out = run_cli("bench")
        assert code == 0 and tiny == ["t.one", "t.two"]
        assert "[2 specs / 4 metrics]" in out

    def test_compare_missing_baseline_fails_fast(self, tiny, tmp_path):
        code, _out = run_cli("bench", "--compare", str(tmp_path / "nope.json"))
        assert code == 2
        assert tiny == []            # failed before running anything

    def test_compare_malformed_baseline_exits_2(self, tiny, tmp_path):
        bad = tmp_path / "bad.json"
        for text in ("{not json", "[1, 2]", '{"t.one": {"rows": "100"}}',
                     '{"t.one": {"rows": 100.0, "wall_s": NaN}}'):
            bad.write_text(text)
            assert run_cli("bench", "--compare", str(bad))[0] == 2
        assert tiny == []

    def test_compare_old_schema_baseline_exits_2(self, tiny, tmp_path):
        old = self._golden(tmp_path, {"schema": 1, "records": []})
        assert run_cli("bench", "--compare", str(old))[0] == 2
        assert tiny == []

    def test_write_baseline_then_compare_passes(self, tmp_path):
        base = tmp_path / "base.json"
        code, _out = run_cli("bench", "--filter", self.SPEC,
                             "--write-baseline", str(base))
        assert code == 0
        assert list(json.loads(base.read_text())) == [self.SPEC]
        code, out = run_cli("bench", "--filter", self.SPEC,
                            "--compare", str(base))
        assert code == 0
        assert f"[1 specs / 2 metrics against {base}: 0 difference(s)]" in out

    def test_compare_clean_and_filtered(self, tiny, tmp_path):
        path = self._golden(tmp_path)
        code, out = run_cli("bench", "--compare", str(path))
        assert code == 0
        assert f"[2 specs / 4 metrics against {path}: 0 difference(s)]" in out
        # A filtered run ignores the golden entries of specs it skipped.
        code, out = run_cli("bench", "--filter", "one", "--compare", str(path))
        assert code == 0 and "[1 specs / 2 metrics" in out

    def test_doctored_baseline_trips_gate(self, tiny, tmp_path):
        for toward in (math.inf, -math.inf):     # one ulp, either direction
            doc = json.loads(json.dumps(self.GOLDEN))
            doc["t.two"]["wall_s"] = math.nextafter(0.1 + 0.2, toward)
            code, out = run_cli("bench", "--compare",
                                str(self._golden(tmp_path, doc)))
            assert code == 1
            assert f"DIFF t.two.wall_s: golden {doc['t.two']['wall_s']!r} " \
                   "-> 0.30000000000000004" in out
            assert "1 difference(s)" in out

    def test_one_sided_entries_trip_gate(self, tiny, tmp_path):
        doc = json.loads(json.dumps(self.GOLDEN))
        del doc["t.one"]["rows"]           # run records it, file lacks it
        doc["t.one"]["ghost"] = 1.0        # file holds it, run does not
        del doc["t.two"]                   # a spec with no golden entry
        doc["t.bogus"] = {"rows": 1.0}     # an entry no spec owns
        path = self._golden(tmp_path, doc)
        code, out = run_cli("bench", "--compare", str(path))
        assert code == 1
        for row in ("NEW t.one.rows", "DROPPED t.one.ghost",
                    "NEW t.two.rows", "NEW t.two.wall_s",
                    "DROPPED t.bogus.rows"):
            assert row in out
        assert "5 difference(s)" in out
        # The orphan entry trips a filtered run too: no spec skipped it.
        code, out = run_cli("bench", "--filter", "one", "--compare", str(path))
        assert code == 1 and "DROPPED t.bogus.rows" in out
        assert "t.two" not in out

    def test_filtered_write_keeps_the_other_entries(self, tiny, tmp_path):
        doc = {"t.one": {"stale": 1.0}, "t.two": {"rows": 7.0},
               "t.retired": {"rows": 1.0}}
        path = self._golden(tmp_path, doc)
        code, _out = run_cli("bench", "--filter", "one",
                             "--write-baseline", str(path))
        assert code == 0 and tiny == ["t.one"]
        assert json.loads(path.read_text()) == {
            **doc, "t.one": self.GOLDEN["t.one"]}
        assert list(json.loads(path.read_text())) \
            == ["t.one", "t.retired", "t.two"]

    def test_unfiltered_write_drops_retired_specs(self, tiny, tmp_path):
        path = self._golden(tmp_path, {"t.retired": {"rows": 1.0}})
        assert run_cli("bench", "--write-baseline", str(path))[0] == 0
        assert json.loads(path.read_text()) == self.GOLDEN
        assert run_cli("bench", "--compare", str(path))[0] == 0

    def test_filtered_write_into_malformed_file_exits_2(self, tiny, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("bench", "--filter", "one",
                       "--write-baseline", str(bad))[0] == 2
        assert tiny == [] and bad.read_text() == "{not json"


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
        assert run_cli("serve", "--duration", "nan")[0] == 2   # never ends

    def test_rate_limit_sheds_and_reports(self):
        code, out = run_cli("serve", "--clients", "8", "--duration", "0.05",
                            "--rate", "2000", "--rate-limit", "1000")
        assert code == 0
        assert "rejected[rate_limited]" in out


class TestStorageFlags:
    """Storage knobs of ``repro serve`` — the ``CONCORD_STORAGE`` /
    ``CONCORD_STORAGE_DIR`` env vars — and --expect-warm
    (docs/STORAGE.md)."""

    SERVE = ("serve", "--clients", "2", "--duration", "0.02",
             "--population", "16", "--pages", "128")

    def test_bench_lists_storage_specs(self):
        code, out = run_cli("bench", "--list")
        assert code == 0
        assert "storage.restart.cold_vs_warm" in out

    def test_serve_rejects_unknown_backend(self, monkeypatch):
        monkeypatch.setenv("CONCORD_STORAGE", "bogus")
        code, out = run_cli(*self.SERVE)
        assert code == 2
        assert "CONCORD_STORAGE='bogus'" in out

    def test_expect_warm_requires_persistent_backend(self, monkeypatch):
        monkeypatch.delenv("CONCORD_STORAGE", raising=False)
        code, out = run_cli(*self.SERVE, "--expect-warm")
        assert code == 2
        assert "CONCORD_STORAGE=mmap" in out
        monkeypatch.setenv("CONCORD_STORAGE", "memory")
        code, out = run_cli(*self.SERVE, "--expect-warm")
        assert code == 2

    def test_expect_warm_fails_on_empty_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CONCORD_STORAGE", "mmap")
        monkeypatch.setenv("CONCORD_STORAGE_DIR", str(tmp_path))
        code, out = run_cli(*self.SERVE, "--expect-warm")
        assert code == 1
        assert "expected a warm restart" in out

    @pytest.mark.parametrize("backend", ("mmap",))
    def test_serve_twice_warm_restarts(self, backend, monkeypatch, tmp_path):
        monkeypatch.setenv("CONCORD_STORAGE", backend)
        monkeypatch.setenv("CONCORD_STORAGE_DIR", str(tmp_path))
        code, out = run_cli(*self.SERVE)
        assert code == 0
        assert "warm restart" not in out
        code, out = run_cli(*self.SERVE, "--expect-warm")
        assert code == 0
        assert f"[warm restart from {backend} storage:" in out

    @pytest.mark.parametrize("flag", (
        ("--workers", "2"), ("--storage", "mmap"), ("--storage-dir", "d"),
        ("--chunking", "cdc")))
    def test_env_knob_flags_are_gone(self, flag):
        """One way to set each: the CONCORD_* env var ConCORDConfig reads."""
        with pytest.raises(SystemExit):
            run_cli(*self.SERVE, *flag)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])
