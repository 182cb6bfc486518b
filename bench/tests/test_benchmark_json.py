"""BENCHMARK.json obeys the driver's schema and names what bench/ measures."""

import json
import re
from pathlib import Path

from bench import metrics
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    # 4 + 22 runs per workload, each within run_seconds plus set-up,
    # warm-up and one repeat of overrun (~8 s here), inside 3420 s.
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 8) <= 3420


def test_command_and_paths_stay_inside_the_benchmark():
    assert SPEC["paths"] == ["bench"]
    assert 1 <= len(SPEC["command"]) <= 32
    for arg in SPEC["command"]:
        assert len(arg) <= 200 and not arg.startswith("/") and ".." not in arg
    assert SPEC["command"][-1].startswith("bench/")
    assert (ROOT / SPEC["command"][-1]).is_file()


def test_names_units_and_bounds():
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and 0 < len(w["why"]) <= 200
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    for n in names:
        assert NAME.fullmatch(n), n
    assert len(names) == len(set(names)), "a name is used twice"


def test_setup_s_is_an_end_to_end_metric():
    (setup,) = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_spec_matches_what_the_benchmark_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]]["why"]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == \
        [(n, u, b, bound) for n, u, _clock, b, bound in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == list(metrics.PER_LAYER)
