"""Unit tests for the benchmark runner and the golden-file diff."""

import json
import math

import pytest

from repro.obs.bench import (
    BaselineError,
    BenchRunner,
    BenchSpec,
    MetricDiff,
    compare,
    load_baseline,
    write_baseline,
)


def _spec(name="t.spec"):
    def fn(ctx):
        ctx.record("wall_s", 0.1 + 0.2)      # 0.30000000000000004
        ctx.record("rows", 100)
        ctx.record("qps", 1e6 * ctx.params.get("scale", 1))

    return BenchSpec(name, fn)


def _run(*names):
    r = BenchRunner()
    for name in names or ("t.spec",):
        r.register(_spec(name))
    return r.run()


class TestRunner:
    def test_record_schema(self):
        assert _run() == {"t.spec": {"wall_s": 0.1 + 0.2, "rows": 100.0,
                                     "qps": 1e6}}
        assert all(type(v) is float for v in _run()["t.spec"].values())

    def test_params_reach_the_spec(self):
        r = BenchRunner()
        spec = r.register(BenchSpec("p", _spec().fn, params={"scale": 3}))
        assert r.run()["p"]["qps"] == 3e6
        assert spec.params == {"scale": 3}

    def test_duplicate_name_rejected(self):
        r = BenchRunner()
        r.register(_spec())
        with pytest.raises(ValueError, match="already registered"):
            r.register(_spec())

    def test_run_filters_and_unknown_name(self):
        r = BenchRunner()
        r.register(_spec("x.two"))
        r.register(_spec("x.one"))
        assert r.names() == ["x.one", "x.two"]
        seen = []
        assert list(r.run(["x.two"], progress=lambda n, m: seen.append(n))) \
            == ["x.two"] == seen
        with pytest.raises(KeyError):
            r.run(["nope"])


class TestBaseline:
    def test_roundtrip_compares_equal(self, tmp_path):
        path = tmp_path / "base.json"
        results = _run("b.spec", "a.spec")
        write_baseline(path, results)
        assert load_baseline(path) == results
        assert compare(results, load_baseline(path)) == []
        # Sorted, so re-recording one value is a one-line diff of the file.
        text = path.read_text()
        assert text.index('"a.spec"') < text.index('"b.spec"')
        assert text.index('"qps"') < text.index('"rows"')
        assert "0.30000000000000004" in text

    def test_missing_file_message(self, tmp_path):
        with pytest.raises(BaselineError, match="does not exist"):
            load_baseline(tmp_path / "nope.json")

    def test_invalid_json_message(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(BaselineError, match="not valid JSON"):
            load_baseline(path)

    def test_old_schema_message_names_the_fix(self, tmp_path):
        """The record-list format ``baselines/ci.json`` had before it
        became a golden map is rejected, not half-read."""
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 1, "records": [
            {"name": "t.spec", "metrics": {"rows": {"value": 100.0}}}]}))
        with pytest.raises(BaselineError, match="--write-baseline"):
            load_baseline(path)

    def test_wrong_shape_is_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        for doc in ([1, 2], {"t.spec": [1.0]}, {"t.spec": {"rows": "100"}},
                    {"t.spec": {"rows": None}}, {"t.spec": {"rows": True}},
                    {"t.spec": {"rows": {"value": 100.0}}},
                    # json writes and reads these tokens; NaN != NaN.
                    {"t.spec": {"rows": float("nan")}},
                    {"t.spec": {"rows": float("-inf")}}):
            path.write_text(json.dumps(doc))
            with pytest.raises(BaselineError, match="malformed"):
                load_baseline(path)

    def test_non_finite_value_is_not_written(self, tmp_path):
        path = tmp_path / "base.json"
        with pytest.raises(ValueError):
            write_baseline(path, {"t.spec": {"rows": float("nan")}})
        assert not path.exists()


class TestGate:
    def _pair(self):
        return _run(), _run()

    def test_no_change_no_regression(self):
        results, golden = self._pair()
        assert compare(results, golden) == []

    @pytest.mark.parametrize("metric", ("wall_s", "rows", "qps"))
    @pytest.mark.parametrize("toward", (math.inf, -math.inf))
    def test_one_ulp_either_direction_is_a_row(self, metric, toward):
        results, golden = self._pair()
        nudged = math.nextafter(golden["t.spec"][metric], toward)
        golden["t.spec"][metric] = nudged
        assert compare(results, golden) == [
            MetricDiff("t.spec", metric, nudged, results["t.spec"][metric])]

    def test_dropped_metric_trips(self):
        results, golden = self._pair()
        del results["t.spec"]["rows"]
        (d,) = compare(results, golden)
        assert d == MetricDiff("t.spec", "rows", 100.0, None)
        assert str(d).startswith("DROPPED t.spec.rows: golden 100.0")

    def test_new_spec_and_metric_are_rows(self):
        results, golden = self._pair()
        results["t.spec"]["extra"] = 7.0
        results["t.unpinned"] = {"rows": 1.0}
        diffs = compare(results, golden)
        assert diffs == [MetricDiff("t.spec", "extra", None, 7.0),
                         MetricDiff("t.unpinned", "rows", None, 1.0)]
        assert str(diffs[1]).startswith("NEW t.unpinned.rows: 1.0")

    def test_golden_spec_the_run_lacks_is_dropped(self):
        results, golden = self._pair()
        golden["t.bogus"] = {"rows": 1.0}
        assert compare(results, golden) == [
            MetricDiff("t.bogus", "rows", 1.0, None)]

    def test_rows_name_the_metric_and_both_values(self):
        results, golden = self._pair()
        golden["t.spec"]["wall_s"] = 0.3
        (d,) = compare(results, golden)
        assert str(d) == ("DIFF t.spec.wall_s: golden 0.3 -> "
                          "0.30000000000000004")
