#!/usr/bin/env python3
"""Did two benchmark runs simulate bit-identical work?

    python3 tools/bench_sim_diff.py A.json B.json

A.json and B.json are files written by ``python3 bench/run.py --json``
(same ``--seed``, same ``--smoke`` or not) — typically the parent commit
and a change, or two runs of one commit.  For every workload the untraced
records are compared on everything the modelled cluster decides: the
inputs ``digest``, ``attempted`` and ``failed`` operations per repeat (the
number of timed repeats depends on how fast the host was, the work inside
one does not), the whole ``counters`` block, and the median of every
sim-clock metric.  Host-clock metrics are not looked at: judging those is
the benchmark's own job (``bench/run.py --selfcheck``, BENCHMARK.json).

Exit status: 0 identical, 1 something differs (one line per difference),
2 the files cannot be compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from bench.metrics import END_TO_END, WORKLOAD_METRICS  # noqa: E402

#: (record block, metric name) of every metric measured on the sim clock.
SIM_METRICS = (
    [("end_to_end", name) for name, _unit, clock, *_ in END_TO_END
     if clock == "sim"]
    + [("workload_metrics", name) for name, _unit, clock, _better
       in WORKLOAD_METRICS if clock == "sim"])


def sim_view(rec: dict) -> dict:
    """Everything one untraced record says about the simulated run."""
    view = {"digest": rec["digest"],
            "attempted per repeat": rec["attempted"] / rec["repeats"],
            "failed per repeat": rec["failed"] / rec["repeats"]}
    view.update((f"counters.{k}", v) for k, v in rec["counters"].items())
    view.update((name, rec[block][name]["median"])
                for block, name in SIM_METRICS if name in rec[block])
    return view


def load(path: str) -> dict[str, dict]:
    records = json.loads(Path(path).read_text())["records"]
    return {r["workload"]: sim_view(r) for r in records if not r["trace"]}


def diff(a: dict[str, dict], b: dict[str, dict]) -> list[str]:
    lines = []
    for workload in sorted(a.keys() | b.keys()):
        if workload not in a or workload not in b:
            lines.append(f"{workload}: only in "
                         f"{'A' if workload in a else 'B'}")
            continue
        va, vb = a[workload], b[workload]
        for key in sorted(va.keys() | vb.keys()):
            if va.get(key) != vb.get(key):
                lines.append(f"{workload}: {key}: {va.get(key)!r} != "
                             f"{vb.get(key)!r}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        a, b = load(argv[0]), load(argv[1])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"bench_sim_diff: cannot read a benchmark record: {exc!r}",
              file=sys.stderr)
        return 2
    if not a or not b:
        print("bench_sim_diff: no untraced records to compare",
              file=sys.stderr)
        return 2
    lines = diff(a, b)
    for line in lines:
        print(line)
    if lines:
        print(f"DIFFERENT: {len(lines)} sim-side values differ")
        return 1
    print(f"identical: {len(a)} workloads x (digest, attempted, failed, "
          f"counters, sim-clock metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
