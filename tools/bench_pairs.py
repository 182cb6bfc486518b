#!/usr/bin/env python3
"""Is it a gain?  Alternating parent/change runs, judged by one rule.

    python3 tools/bench_pairs.py --parent <checkout> --change <checkout> \\
        --workload serve_churn --metric host_ops_per_s \\
        [--pairs 10] [--seed 12] [--seconds N]

Each pair runs both trees' own driver-contract command

    python3 bench/run.py --workload W --seed S [--seconds N] --trace 0

(in its checkout, so each side measures its own ``src/`` with its own copy
of the benchmark), alternating which side goes first, and reads the metric
from the final JSON line.  Every pair is printed, then each side's median
and quartiles, wins and ties, and the verdict of the rule in the
``choosing-metrics`` guide, section 8: a gain is claimed only when the
change wins at least nine tenths of all pairs run (a tie counts for
neither side) **and** the medians differ, in the better direction, by more
than the distance between the quartiles of the parent's own runs.  The
mirror verdict, a loss, is the same rule the other way round: the change
loses at least nine tenths of the pairs **and** its median is worse by more
than that distance.

Whether higher or lower is better is read from the change checkout's
``BENCHMARK.json``.  ``tools/bench_sim_diff.py`` answers the other
question — whether the *modelled* machine moved.

Exit status: 0 gain, 1 neither gain nor loss, 2 a run was incorrect, had
failed operations, or printed no result (or the arguments cannot be used),
3 loss.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple


class Verdict(NamedTuple):
    gain: bool
    loss: bool
    wins: int
    ties: int
    parent_quartiles: tuple[float, float, float]   # q1, median, q3
    change_quartiles: tuple[float, float, float]
    reason: str


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), quartiles interpolated between the data points."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float],
            higher_is_better: bool) -> Verdict:
    """The section 8 rule over paired runs (``parent[i]`` ran next to
    ``change[i]``).  Pure: numbers in, verdict out."""
    if not parent or len(parent) != len(change):
        raise ValueError("need one change run per parent run, at least one")
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(sign * c > sign * p for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    spread = pq[2] - pq[0]
    lead = sign * (cq[1] - pq[1])       # > 0: the change's median is better
    n = len(parent)
    losses = n - wins - ties
    gain = loss = False
    if wins >= 0.9 * n and lead > spread:
        gain, reason = True, (
            f"the change won {wins} of {n} pairs and the medians "
            f"differ by {lead:.6g} > the parent's inter-quartile distance "
            f"{spread:.6g}")
    elif losses >= 0.9 * n and -lead > spread:
        loss, reason = True, (
            f"the change lost {losses} of {n} pairs and its median is worse "
            f"by {-lead:.6g} > the parent's inter-quartile distance "
            f"{spread:.6g}")
    elif wins < 0.9 * n:
        reason = (f"the change won {wins} of {n} pairs; the rule needs "
                  f"nine tenths")
    else:
        reason = (f"the medians differ by {lead:.6g}, not more than the "
                  f"parent's inter-quartile distance {spread:.6g}")
    return Verdict(gain, loss, wins, ties, pq, cq, reason)


def higher_is_better(checkout: Path, metric: str) -> bool:
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if entry["name"] == metric:
            return entry["better"] == "higher"
    raise KeyError(f"BENCHMARK.json declares no metric {metric!r}")


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float | None) -> dict:
    """One driver-contract run in ``checkout``; its final JSON line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode} with no result line")
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--metric", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of each BENCHMARK.json")
    args = ap.parse_args(argv)
    try:
        higher = higher_is_better(args.change, args.metric)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    if args.pairs < 1:
        print("bench_pairs: --pairs must be >= 1", file=sys.stderr)
        return 2

    print(f"{args.workload} {args.metric} "
          f"({'higher' if higher else 'lower'} is better), seed {args.seed}, "
          f"{args.pairs} pairs")
    print(f"{'pair':>4}  {'first':<6}  {'parent':>14}  {'change':>14}  "
          f"{'change/parent':>13}")
    sides = {"parent": args.parent, "change": args.change}
    series: dict[str, list[float]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                out = run_once(sides[side], args.workload, args.seed,
                               args.seconds)
                value = float(out["metrics"][args.metric]["value"])
            except (RuntimeError, ValueError, KeyError, TypeError) as exc:
                print(f"bench_pairs: pair {i + 1}, {side}: {exc!r}",
                      file=sys.stderr)
                return 2
            if not out["correct"] or out["failed"]:
                print(f"bench_pairs: pair {i + 1}, {side}: correct="
                      f"{out['correct']} failed={out['failed']}",
                      file=sys.stderr)
                return 2
            series[side].append(value)
        p, c = series["parent"][-1], series["change"][-1]
        print(f"{i + 1:>4}  {order[0]:<6}  {p:>14.6g}  {c:>14.6g}  "
              f"{c / p if p else float('nan'):>13.3f}", flush=True)

    v = verdict(series["parent"], series["change"], higher)
    for side, (q1, med, q3) in (("parent", v.parent_quartiles),
                                ("change", v.change_quartiles)):
        print(f"{side}: median {med:.6g}  quartiles {q1:.6g} .. {q3:.6g}  "
              f"(distance {q3 - q1:.6g})")
    pm, cm = v.parent_quartiles[1], v.change_quartiles[1]
    print(f"wins {v.wins}  ties {v.ties}  losses "
          f"{args.pairs - v.wins - v.ties}  median change/parent "
          f"{cm / pm if pm else float('nan'):.3f}")
    label, status = (("GAIN", 0) if v.gain else ("LOSS", 3) if v.loss
                     else ("NO GAIN", 1))
    print(f"{label}: {v.reason}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
