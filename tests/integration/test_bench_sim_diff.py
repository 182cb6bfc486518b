"""tools/bench_sim_diff.py — "sim bit-identical across two runs" as an exit
status: 0 whatever the host-clock numbers and repeat counts say, 1 naming
the workload and the value once anything the modelled cluster decides
differs, 2 for files it cannot compare."""

import copy
import json
from pathlib import Path

import pytest

from tests.conftest import load_tool

pytest.importorskip("bench.metrics")

tool = load_tool("bench_sim_diff")

RECORD = {
    "workload": "pipeline", "trace": 0, "repeats": 2, "digest": "abc",
    "attempted": 200, "failed": 0,
    "counters": {"sim.network.msgs_sent": 10, "recon.rounds": 2},
    "end_to_end": {"host_ops_per_s": {"median": 1000.0},
                   "sim_ops_per_s": {"median": 5.0},
                   "sim_latency_mean_us": {"median": 1.5},
                   "sim_latency_p99_us": {"median": 2.5}},
    "workload_metrics": {"pipeline.host_s": {"median": 3.0},
                         "pipeline.repair_bytes_ratio": {"median": 0.5}},
}


def run(tmp_path, capsys, a, b):
    paths = []
    for name, rec in (("a", a), ("b", b)):
        paths.append(str(tmp_path / f"{name}.json"))
        Path(paths[-1]).write_text(json.dumps({"env": {}, "records": [rec]}))
    status = tool.main(paths)
    return status, capsys.readouterr().out


def test_host_clock_and_repeat_count_are_ignored(tmp_path, capsys):
    other = copy.deepcopy(RECORD)
    other.update(repeats=3, attempted=300)
    other["end_to_end"]["host_ops_per_s"]["median"] = 7.0
    other["workload_metrics"]["pipeline.host_s"]["median"] = 9.0
    status, out = run(tmp_path, capsys, RECORD, other)
    assert status == 0 and out.startswith("identical: 1 workloads")


@pytest.mark.parametrize("path, shown", [
    (("digest",), "pipeline: digest"),
    (("attempted",), "pipeline: attempted per repeat"),
    (("counters", "sim.network.msgs_sent"),
     "pipeline: counters.sim.network.msgs_sent"),
    (("end_to_end", "sim_latency_p99_us", "median"),
     "pipeline: sim_latency_p99_us"),
    (("workload_metrics", "pipeline.repair_bytes_ratio", "median"),
     "pipeline: pipeline.repair_bytes_ratio"),
])
def test_any_sim_side_difference_is_listed(tmp_path, capsys, path, shown):
    other = copy.deepcopy(RECORD)
    holder = other
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = "xyz" if path == ("digest",) else holder[path[-1]] + 1
    status, out = run(tmp_path, capsys, RECORD, other)
    assert status == 1
    assert shown in out and "DIFFERENT: 1 " in out


def test_unreadable_input_is_status_2(tmp_path, capsys):
    broken = {k: v for k, v in RECORD.items() if k != "counters"}
    status, _out = run(tmp_path, capsys, RECORD, broken)
    assert status == 2
