"""Unit tests for the benchmark runner, trajectory, and regression gate."""

import json
import math

import pytest

from repro.obs.bench import (
    SCHEMA_VERSION,
    BaselineError,
    BenchRunner,
    BenchSpec,
    append_records,
    compare,
    diff_table,
    environment_fingerprint,
    gate_selftest,
    load_baseline,
    load_trajectory,
    write_baseline,
)


def _spec(name="t.spec", **kw):
    def fn(ctx):
        ctx.sim("wall_s", 0.5)
        ctx.count("rows", 100)
        ctx.sim("qps", 1e6, unit="qps", higher_is_better=True)

    return BenchSpec(name, fn, **kw)


def _run(spec=None):
    return BenchRunner().run_spec(spec or _spec())


class TestRunner:
    def test_record_schema(self):
        rec = _run()
        assert rec["schema"] == SCHEMA_VERSION
        assert rec["name"] == "t.spec"
        assert rec["runtime_s"] >= 0
        for key in ("python", "numpy", "machine", "git_sha"):
            assert key in rec["env"]
        assert rec["metrics"] == {
            "wall_s": {"value": 0.5, "unit": "s", "kind": "sim",
                       "higher_is_better": False},
            "rows": {"value": 100.0, "unit": "", "kind": "count",
                     "higher_is_better": False},
            "qps": {"value": 1e6, "unit": "qps", "kind": "sim",
                    "higher_is_better": True},
        }

    def test_host_time_is_not_a_metric_kind(self):
        def fn(ctx):
            ctx.record("elapsed_s", 1.0, kind="wall")

        with pytest.raises(ValueError, match="unknown metric kind"):
            BenchRunner().run_spec(BenchSpec("w", fn))

    def test_param_overrides_do_not_mutate_spec(self):
        captured = {}

        def fn(ctx):
            captured.update(ctx.params)
            ctx.count("n", ctx.params["n"])

        spec = BenchSpec("p", fn, params={"n": 1, "m": 2})
        rec = BenchRunner().run_spec(spec, n=7)
        assert captured == {"n": 7, "m": 2}
        assert rec["params"] == {"n": 7, "m": 2}
        assert spec.params == {"n": 1, "m": 2}

    def test_tiers_nest(self):
        r = BenchRunner()
        r.register(_spec("a.quick", tier="quick"))
        r.register(_spec("b.full", tier="full"))
        assert r.names("quick") == ["a.quick"]
        assert r.names("full") == ["a.quick", "b.full"]
        assert r.names() == ["a.quick", "b.full"]

    def test_run_filters_and_unknown_name(self):
        r = BenchRunner()
        r.register(_spec("x.one", tier="quick"))
        r.register(_spec("x.two", tier="quick"))
        assert [rec["name"] for rec in r.run(tier="quick",
                                             filter_substr="two")] \
            == ["x.two"]
        with pytest.raises(KeyError):
            r.run(names=["nope"])

    def test_environment_fingerprint_fields(self):
        env = environment_fingerprint()
        assert env["python"] and env["numpy"] and env["machine"]
        assert isinstance(env["git_sha"], str)

    def test_environment_fingerprint_platform_knobs(self):
        """The knobs that change what a record means — workers, storage,
        placement — are part of the fingerprint, with env-var defaults."""
        env = environment_fingerprint()
        assert env["workers"] >= 1
        assert env["storage"] in ("memory", "mmap", "sqlite")
        assert env["placement"] == "mod"

    def test_environment_fingerprint_extra_overrides_knobs(self):
        env = environment_fingerprint(
            {"workers": 8, "storage": "sqlite", "placement": "hd"})
        assert (env["workers"], env["storage"], env["placement"]) == \
            (8, "sqlite", "hd")

    def test_environment_fingerprint_reads_env_vars(self, monkeypatch):
        monkeypatch.setenv("CONCORD_WORKERS", "4")
        monkeypatch.setenv("CONCORD_STORAGE", "mmap")
        env = environment_fingerprint()
        assert env["workers"] == 4
        assert env["storage"] == "mmap"
        monkeypatch.setenv("CONCORD_WORKERS", "four")
        with pytest.raises(ValueError, match="CONCORD_WORKERS"):
            environment_fingerprint()


class TestTrajectory:
    def test_append_creates_and_extends(self, tmp_path):
        path = tmp_path / "traj.json"
        append_records(path, [_run()])
        append_records(path, [_run()])
        doc = load_trajectory(path)
        assert doc["schema"] == SCHEMA_VERSION
        assert len(doc["records"]) == 2

    def test_malformed_trajectory_raises(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text("[1, 2]")
        with pytest.raises(BaselineError, match="malformed"):
            load_trajectory(path)


class TestBaseline:
    def test_roundtrip_latest_wins(self, tmp_path):
        path = tmp_path / "base.json"
        a, b = _run(), _run()
        b["metrics"]["wall_s"]["value"] = 9.0
        write_baseline(path, [a, b])
        loaded = load_baseline(path)
        assert loaded["t.spec"]["metrics"]["wall_s"]["value"] == 9.0

    def test_reads_trajectory_files_too(self, tmp_path):
        path = tmp_path / "traj.json"
        append_records(path, [_run(), _run()])
        assert "t.spec" in load_baseline(path)

    def test_missing_file_message(self, tmp_path):
        with pytest.raises(BaselineError, match="does not exist"):
            load_baseline(tmp_path / "nope.json")

    def test_invalid_json_message(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(BaselineError, match="not valid JSON"):
            load_baseline(path)

    def test_old_schema_message_names_the_fix(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 0, "records": []}))
        with pytest.raises(BaselineError,
                           match="--write-baseline"):
            load_baseline(path)

    def test_record_missing_fields_is_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"schema": SCHEMA_VERSION, "records": [{"name": "x"}]}))
        with pytest.raises(BaselineError, match="malformed"):
            load_baseline(path)


class TestGate:
    def _baseline(self):
        rec = _run()
        return rec, {rec["name"]: json.loads(json.dumps(rec))}

    def test_no_change_no_regression(self):
        rec, base = self._baseline()
        assert not any(d.regressed for d in compare([rec], base, 0.10))

    def test_gated_slowdown_trips(self):
        rec, base = self._baseline()
        rec["metrics"]["wall_s"]["value"] *= 1.5
        diffs = compare([rec], base, 0.25)
        tripped = [d for d in diffs if d.regressed]
        assert [(d.spec, d.metric) for d in tripped] \
            == [("t.spec", "wall_s")]
        assert tripped[0].delta_pct == pytest.approx(50.0)

    def test_within_budget_passes(self):
        rec, base = self._baseline()
        rec["metrics"]["wall_s"]["value"] *= 1.2
        assert not any(d.regressed for d in compare([rec], base, 0.25))

    def test_higher_is_better_direction(self):
        rec, base = self._baseline()
        # Throughput *dropping* is the bad direction, and it trips.
        rec["metrics"]["qps"]["value"] /= 10
        diffs = compare([rec], base, 0.10)
        tp = next(d for d in diffs if d.metric == "qps")
        assert tp.delta_pct == pytest.approx(90.0)
        assert tp.regressed
        # Rising by any amount is an improvement, never a regression.
        rec["metrics"]["qps"]["value"] *= 100
        diffs = compare([rec], base, 0.10)
        tp = next(d for d in diffs if d.metric == "qps")
        assert tp.delta_pct == pytest.approx(-900.0)
        assert not tp.regressed

    @pytest.mark.parametrize("metric, better, worse",
                             [("qps", 0.5, -0.5), ("wall_s", -0.5, 0.5)])
    def test_zero_baseline_is_direction_aware(self, metric, better, worse):
        rec, base = self._baseline()
        base["t.spec"]["metrics"][metric]["value"] = 0.0
        for value, pct, regressed in ((better, -math.inf, False),
                                      (worse, math.inf, True),
                                      (0.0, 0.0, False)):
            rec["metrics"][metric]["value"] = value
            d = next(d for d in compare([rec], base, 0.10)
                     if d.metric == metric)
            assert (d.delta_pct, d.regressed) == (pct, regressed)

    def test_dropped_metric_trips(self):
        rec, base = self._baseline()
        del rec["metrics"]["rows"]
        diffs = compare([rec], base, 0.10)
        (d,) = [d for d in diffs if d.regressed]
        assert (d.spec, d.metric, d.base) == ("t.spec", "rows", 100.0)
        assert math.isnan(d.current)
        text = diff_table(diffs, 0.10).render()
        assert "DROPPED t.spec.rows" in text
        assert "3 metrics compared, 0 new, 1 dropped, 1 regression(s)" in text

    def test_legacy_wall_entry_and_unrun_spec_are_not_dropped(self):
        rec, base = self._baseline()
        # What an old trajectory file holds: an ungated host timing ...
        base["t.spec"]["metrics"]["elapsed_s"] = {
            "value": 1.0, "unit": "s", "kind": "wall",
            "higher_is_better": False, "gated": False}
        # ... and records of specs this run filtered out.
        base["t.other"] = json.loads(json.dumps(base["t.spec"]))
        diffs = compare([rec], base, 0.0)
        assert len(diffs) == 3 and not any(d.regressed for d in diffs)
        assert "0 new, 0 dropped, 0 regression(s)" \
            in diff_table(diffs, 0.0).render()

    def test_new_spec_and_metric_are_not_regressions(self):
        rec, _ = self._baseline()
        diffs = compare([rec], {}, 0.10)
        assert diffs and not any(d.regressed for d in diffs)
        assert all(d.base != d.base for d in diffs)  # NaN baselines

    def test_diff_table_lists_regressions_in_notes(self):
        rec, base = self._baseline()
        rec["metrics"]["wall_s"]["value"] *= 3
        text = diff_table(compare([rec], base, 0.25), 0.25).render()
        assert "REGRESSION t.spec.wall_s" in text
        assert "budget 25%" in text

    def test_gate_selftest_trips(self):
        tripped, table = gate_selftest()
        assert tripped
        assert "REGRESSION selftest.synthetic.wall_s" in table.render()
