"""Unit tests for the benchmark runner, trajectory, and regression gate."""

import json

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
    def fn(ctx, _state):
        ctx.sim("wall_s", 0.5)
        ctx.count("rows", 100)
        ctx.wall("throughput", 1e6, unit="ops/s", higher_is_better=True)

    return BenchSpec(name, fn, **kw)


def _run(spec=None):
    return BenchRunner().run_spec(spec or _spec())[0]


class TestRunner:
    def test_record_schema(self):
        rec = _run()
        assert rec["schema"] == SCHEMA_VERSION
        assert rec["name"] == "t.spec"
        assert rec["runtime_s"] >= 0
        for key in ("python", "numpy", "machine", "git_sha"):
            assert key in rec["env"]
        m = rec["metrics"]["wall_s"]
        assert m == {"value": 0.5, "unit": "s", "kind": "sim",
                     "higher_is_better": False, "gated": True}
        # Host-timing metrics are recorded but not gated by default.
        assert rec["metrics"]["throughput"]["gated"] is False

    def test_param_overrides_do_not_mutate_spec(self):
        captured = {}

        def fn(ctx, _state):
            captured.update(ctx.params)
            ctx.count("n", ctx.params["n"])

        spec = BenchSpec("p", fn, params={"n": 1, "m": 2})
        rec, _ = BenchRunner().run_spec(spec, n=7)
        assert captured == {"n": 7, "m": 2}
        assert rec["params"] == {"n": 7, "m": 2}
        assert spec.params == {"n": 1, "m": 2}

    def test_setup_teardown_and_payload(self):
        events = []
        spec = BenchSpec(
            "s", lambda ctx, state: events.append(("run", state)) or "payload",
            setup=lambda params: "state",
            teardown=lambda state: events.append(("down", state)))
        record, payload = BenchRunner().run_spec(spec)
        assert payload == "payload"
        assert events == [("run", "state"), ("down", "state")]

    def test_repeats_keep_best_wall_and_stable_sim(self):
        ticks = iter([3.0, 1.0, 2.0])

        def fn(ctx, _state):
            ctx.sim("model_s", 0.25)
            ctx.wall("elapsed_s", next(ticks))

        rec, _ = BenchRunner().run_spec(BenchSpec("r", fn, repeats=3))
        assert rec["metrics"]["elapsed_s"]["value"] == 1.0  # best of 3
        assert rec["metrics"]["model_s"]["value"] == 0.25

    def test_sim_metric_varying_across_repeats_is_an_error(self):
        ticks = iter([1.0, 2.0])

        def fn(ctx, _state):
            ctx.sim("model_s", next(ticks))

        with pytest.raises(RuntimeError, match="deterministic"):
            BenchRunner().run_spec(BenchSpec("bad", fn, repeats=2))

    def test_tiers_nest(self):
        r = BenchRunner()
        r.register(_spec("a.quick", tier="quick"))
        r.register(_spec("b.full", tier="full"))
        r.register(_spec("c.figure", tier="figure"))
        assert r.names("quick") == ["a.quick"]
        assert r.names("full") == ["a.quick", "b.full"]
        assert r.names("figure") == ["c.figure"]
        assert r.names() == ["a.quick", "b.full", "c.figure"]

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
        # Throughput *dropping* is the bad direction — but it is a wall
        # metric, ungated by default, so it must never trip the gate.
        rec["metrics"]["throughput"]["value"] /= 10
        diffs = compare([rec], base, 0.10)
        tp = next(d for d in diffs if d.metric == "throughput")
        assert tp.delta_pct == pytest.approx(90.0)
        assert not tp.regressed
        # Gate it, and the same drop trips.
        rec["metrics"]["throughput"]["gated"] = True
        diffs = compare([rec], base, 0.10)
        assert next(d for d in diffs if d.metric == "throughput").regressed

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
