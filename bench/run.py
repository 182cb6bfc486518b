#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 bench/run.py --seed 12                 every workload, untraced
    python3 bench/run.py --seed 12 --traced        ... plus the per-layer trace
    python3 bench/run.py --workload serve_hot --seed 12 --seconds 12 --trace 0
                                                   the driver's contract call
    python3 bench/run.py --smoke                   ~1/20 size, 1 repeat, <= 30 s
    python3 bench/run.py --selfcheck               the suite twice; repeatability

One workload runs in this process (the driver starts a fresh process per
run); the suite starts one child process per workload, so ``peak_rss_mb``
is per workload.  A single-workload run ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import os
import time

_T_START = time.perf_counter()

# One load-generating thread on a 2-core box: pin the numeric libraries
# before NumPy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"
for _p in (ROOT / "src", ROOT):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

#: Fewest timed repeats a full-size run reports a median over.
MIN_REPEATS = 3
SMOKE_SCALE = 0.05


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- measuring one workload (this process) ------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, scale: float,
            repeats: int | None, workdir: Path) -> dict:
    """Untraced: one discarded warm-up, then timed repeats (fresh inputs
    and bring-up each) until ``seconds`` have passed; medians over them."""
    from bench import metrics
    from bench.calibrate import slowdown, ticks
    from bench.stats import summarize
    from bench.workloads import run_repeat

    # What every run pays once before it can bring anything up: loading
    # NumPy and the program.  Work moved to import time shows here.  Like
    # every host time, it is brought to reference speed (calibrate.py).
    machine = slowdown(ticks(15))
    import_s = (time.perf_counter() - _T_START) / machine
    if repeats is None:
        run_repeat(name, seed, scale, workdir=workdir)     # warm-up, discarded
    reps = []
    t_begin = time.perf_counter()
    while True:
        # Each repeat starts from a collected heap: a finished repeat's
        # cluster is cyclic garbage, and when the collector happens to reach
        # it should decide neither the next repeat's pauses nor peak_rss_mb.
        gc.collect()
        reps.append(run_repeat(name, seed, scale, workdir=workdir))
        if repeats is not None:
            if len(reps) >= repeats:
                break
        elif (len(reps) >= MIN_REPEATS
              and time.perf_counter() - t_begin >= seconds):
            break

    problems = [p for r in reps for p in r.problems]
    if len({metrics.sim_signature(r) for r in reps}) != 1:
        problems.append("sim metrics differ between repeats of one run")
    samples = metrics.end_to_end(reps, _peak_rss_mb(), import_s)
    e2e = {}
    for metric, unit, clock, better, bound in metrics.END_TO_END:
        e2e[metric] = {**summarize(samples[metric]), "unit": unit,
                       "clock": clock, "better": better, "bound": bound,
                       "samples": samples[metric]}
        e2e[metric]["value"] = e2e[metric]["median"]
    # The reported host rate pools the segments of every repeat; the
    # per-repeat estimates above are kept to show its dispersion.
    e2e["host_ops_per_s"]["value"] = reps[0].ops / metrics.host_seconds(reps)
    extra = {}
    for metric, unit, clock, better in metrics.WORKLOAD_METRICS:
        if metric in reps[0].extras:
            vals = [r.extras[metric] for r in reps]
            extra[metric] = {**summarize(vals), "unit": unit, "clock": clock,
                             "better": better, "samples": vals}
            extra[metric]["value"] = extra[metric]["median"]
    stage = {s: summarize([r.segments[s][0] for r in reps])
             for s in metrics.STAGES if s in reps[0].segments}
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    return {
        "workload": name, "seed": seed, "trace": 0, "scale": scale,
        "repeats": len(reps), "warmup_repeats": 0 if repeats else 1,
        "digest": reps[0].digest,
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "problems": problems[:10],
        "latency_samples": int(len(reps[0].latency_us)),
        "import_s": import_s,
        "machine_slowdown_at_start": machine,
        "end_to_end": e2e, "workload_metrics": extra, "stage_s": stage,
        "counters": reps[0].counters,
    }


def measure_traced(name: str, seed: int, scale: float, workdir: Path,
                   warmup: bool = True) -> dict:
    """Traced: warm-up, one untraced reference repeat, one repeat with the
    shims installed; per-layer metrics from the traced one, the overhead
    from the pair."""
    from bench import layers, metrics
    from bench.workloads import run_repeat, traffic_driver_rate

    if warmup:
        run_repeat(name, seed, scale, workdir=workdir)
    untraced = run_repeat(name, seed, scale, workdir=workdir)
    traffic = traffic_driver_rate(seed, scale) if name == "serve_hot" else 0.0
    log = layers.SpanLog()
    with layers.Shims(log):
        traced = run_repeat(name, seed, scale, log=log, workdir=workdir)
    problems = untraced.problems + traced.problems
    if metrics.sim_signature(untraced) != metrics.sim_signature(traced):
        problems.append("tracing changed the sim metrics")
    agg = layers.aggregate(log, traced.t0_ns, traced.t1_ns)
    values = metrics.per_layer(agg, log, traced, untraced, traffic)
    trace_path = RESULTS / f"trace-{name}.json"
    layers.write_trace(log, trace_path,
                       {"workload": name, "seed": seed, "scale": scale},
                       (traced.t0_ns, traced.t1_ns))
    units = {n: (u, b) for n, u, b in metrics.PER_LAYER}
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    return {
        "workload": name, "seed": seed, "trace": 1, "scale": scale,
        "digest": traced.digest,
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "problems": problems[:10],
        "host_s": {"untraced": untraced.host_s, "traced": traced.host_s},
        "spans": len(log), "trace_file": str(trace_path.relative_to(ROOT)),
        "per_layer": {n: {"value": v, "unit": units[n][0],
                          "better": units[n][1]}
                      for n, v in values.items()},
        "per_callable": {n: e for n, e in agg.items() if e["calls"]},
    }


# -- printing ----------------------------------------------------------------------


def _fmt(x: float) -> str:
    if x == 0:
        return "0"
    if abs(x) >= 1e5 or abs(x) < 1e-3:
        return f"{x:.4g}"
    return f"{x:.4f}".rstrip("0").rstrip(".")


def print_untraced(rec: dict) -> None:
    print(f"\n== {rec['workload']}  seed={rec['seed']}  "
          f"{rec['repeats']} timed repeats (+{rec['warmup_repeats']} warm-up) "
          f" inputs {rec['digest'][:12]}")
    print(f"  {'end-to-end metric':34s} {'clock':5s} {'unit':6s} "
          f"{'value':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}")
    rows = list(rec["end_to_end"].items()) + \
        list(rec["workload_metrics"].items())
    for name, m in rows:
        print(f"  {name:34s} {m['clock']:5s} {m['unit']:6s} "
              f"{_fmt(m['value']):>12s} {_fmt(m['q1']):>12s} "
              f"{_fmt(m['q3']):>12s} {m['n']:>3d}")
    print(f"  {'failed_frac':34s} {'-':5s} {'frac':6s} "
          f"{_fmt(rec['failed_frac']):>12s}   ({rec['failed']} of "
          f"{rec['attempted']} operations; latency percentiles over "
          f"{rec['latency_samples']} exact samples per repeat)")
    if rec["stage_s"]:
        print("  stages (host s, median): " + "  ".join(
            f"{s}={_fmt(v['median'])}" for s, v in rec["stage_s"].items()))
    for p in rec["problems"]:
        print(f"  PROBLEM: {p}")


def print_traced(rec: dict) -> None:
    from bench.layers import LAYERS
    host = rec["host_s"]
    pl = rec["per_layer"]
    print(f"\n== {rec['workload']}  traced  seed={rec['seed']}  "
          f"{rec['spans']} spans -> {rec['trace_file']}")
    print(f"  timed region: untraced {host['untraced']:.3f} s, traced "
          f"{host['traced']:.3f} s, trace_overhead_frac "
          f"{pl['trace_overhead_frac']['value']:.3f}")
    print(f"  {'layer':22s} {'calls':>10s} {'self ms':>10s} {'share':>7s}")
    traced_ns = host["traced"] * 1e9
    for layer in LAYERS:
        calls = pl[f"{layer}.calls"]["value"]
        self_ns = pl[f"{layer}.self_ns"]["value"]
        print(f"  {layer:22s} {calls:>10d} {self_ns / 1e6:>10.2f} "
              f"{self_ns / traced_ns:>7.1%}")
    print(f"  {'callable':44s} {'calls':>9s} {'self ms':>10s} {'total ms':>10s}")
    for name, e in sorted(rec["per_callable"].items(),
                          key=lambda kv: -kv[1]["self_ns"]):
        print(f"  {name:44s} {e['calls']:>9d} {e['self_ns'] / 1e6:>10.2f} "
              f"{e['total_ns'] / 1e6:>10.2f}")
    print("  derived:")
    for name, m in pl.items():
        if name.endswith((".calls", ".self_ns")) and \
                name.rsplit(".", 1)[0] in LAYERS:
            continue
        if m["value"]:
            print(f"    {name:44s} {_fmt(m['value']):>14s} {m['unit']}")
    for p in rec["problems"]:
        print(f"  PROBLEM: {p}")


def contract_line(rec: dict) -> str:
    """The driver's last line: exactly correct/attempted/failed/metrics."""
    if rec["trace"]:
        metrics = {n: {"value": m["value"], "unit": m["unit"]}
                   for n, m in rec["per_layer"].items()}
    else:
        metrics = {n: {"value": m["value"], "unit": m["unit"]}
                   for n, m in rec["end_to_end"].items()}
    return json.dumps({"correct": rec["correct"],
                       "attempted": rec["attempted"],
                       "failed": rec["failed"], "metrics": metrics})


# -- the suite (one child process per workload) -----------------------------------


def _run_child(name: str, args, trace: int) -> dict:
    fd, out = tempfile.mkstemp(prefix=f"{name}-", suffix=".json",
                               dir=RESULTS)
    os.close(fd)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--json", out, "--quiet"]
    if args.smoke:
        cmd.append("--smoke")
    if args.repeats is not None:
        cmd += ["--repeats", str(args.repeats)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=900)
        text = Path(out).read_text()
        if not text:
            raise RuntimeError(
                f"workload {name} produced no result (exit "
                f"{proc.returncode}):\n{proc.stderr[-2000:]}")
        return json.loads(text)["records"][0]
    finally:
        Path(out).unlink(missing_ok=True)


def run_suite(args, names: list[str]) -> list[dict]:
    records = []
    for name in names:
        rec = _run_child(name, args, 0)
        print_untraced(rec)
        records.append(rec)
        if args.traced:
            rec = _run_child(name, args, 1)
            print_traced(rec)
            records.append(rec)
        sys.stdout.flush()
    return records


# -- --selfcheck: two sets of runs of the same code ------------------------------


def selfcheck(args, names: list[str]) -> bool:
    from bench.stats import spread
    sets = []
    for i in (1, 2):
        print(f"\n#### selfcheck: set {i} of 2")
        sets.append({r["workload"]: r for r in run_suite(args, names)})
    rows = []
    ok = True
    print(f"\n{'workload':12s} {'metric':22s} {'clock':5s} {'value 1':>12s} "
          f"{'value 2':>12s} {'change':>8s} {'spread 1':>9s} "
          f"{'spread 2':>9s} {'bound':>6s}  verdict")
    for name in names:
        a, b = sets[0][name], sets[1][name]
        ok &= a["correct"] and b["correct"]
        pairs = [(m, a["end_to_end"][m], b["end_to_end"][m])
                 for m in a["end_to_end"]]
        pairs += [(m, a["workload_metrics"][m], b["workload_metrics"][m])
                  for m in a["workload_metrics"]]
        for metric, ma, mb in pairs:
            bound = ma.get("bound", 0.15 if ma["clock"] == "host" else 0.0)
            spreads = (spread(ma["samples"]), spread(mb["samples"]))
            worse = (mb["value"] - ma["value"]) / ma["value"] \
                if ma["value"] else 0.0
            if ma["better"] == "higher":
                worse = -worse
            if ma["clock"] == "sim":
                # One exact value per set, whatever the repeat counts.
                verdict = "identical" if (
                    len(set(ma["samples"]) | set(mb["samples"])) == 1
                ) else "DIFFERS"
            elif ma["clock"] == "raw":
                # Un-normalised wall clock: shown, never judged.
                verdict = "not judged"
            elif worse > bound:
                verdict = "WORSE"
            elif metric != "setup_s" and max(spreads) > bound:
                # The repeats of one set disagree by more than the bound:
                # too noisy to call, so never reported as unchanged.
                verdict = "unresolved"
            else:
                verdict = "within bound"
            ok &= verdict not in ("DIFFERS", "WORSE")
            rows.append({"workload": name, "metric": metric,
                         "clock": ma["clock"], "unit": ma["unit"],
                         "value_1": ma["value"], "value_2": mb["value"],
                         "worse_by": worse, "spread_1": spreads[0],
                         "spread_2": spreads[1], "bound": bound,
                         "n_1": ma["n"], "n_2": mb["n"], "verdict": verdict})
            print(f"{name:12s} {metric:22s} {ma['clock']:5s} "
                  f"{_fmt(ma['value']):>12s} {_fmt(mb['value']):>12s} "
                  f"{worse:>+8.2%} {spreads[0]:>9.2%} {spreads[1]:>9.2%} "
                  f"{bound:>6.0%}  {verdict}")
    from bench.envinfo import environment
    unresolved = [f"{r['workload']}: {r['metric']}" for r in rows
                  if r["verdict"] == "unresolved"]
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "repeatability.json").write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "passed": ok,
         "unresolved": unresolved, "env": environment(ROOT), "rows": rows},
        indent=1) + "\n")
    print(f"\nselfcheck {'passed' if ok else 'FAILED'}: no sim metric "
          "differs and no host metric is worse than its bound"
          if ok else "\nselfcheck FAILED")
    if unresolved:
        print(f"unresolved (repeats too spread out to call, NOT unchanged): "
              f"{', '.join(unresolved)}")
    print("wrote bench/results/repeatability.json")
    return ok


# -- entry point --------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=12,
                    help="workload seed: the same seed gives the same inputs")
    ap.add_argument("--seconds", type=float, default=None,
                    help="how long one run measures (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced run (per-layer metrics)")
    ap.add_argument("--traced", action="store_true",
                    help="suite: also run each workload traced")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run the suite twice and compare the two sets")
    ap.add_argument("--smoke", action="store_true",
                    help="~1/20 size, 1 repeat, correctness checks on")
    ap.add_argument("--repeats", type=int, default=None,
                    help="exactly this many timed repeats, no warm-up "
                         "(overrides --seconds)")
    ap.add_argument("--json", metavar="PATH",
                    help="also write the full records here")
    ap.add_argument("--quiet", action="store_true",
                    help="print only the final JSON line")
    args = ap.parse_args(argv)

    try:
        from bench.envinfo import environment, environment_warnings
        from bench.workloads import WORKLOADS
        spec = _benchmark_json()
    except (ImportError, OSError) as exc:
        # A checkout without src/ (or BENCHMARK.json): nothing to measure.
        print(f"bench/run.py: cannot load the program under test: {exc}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.smoke and args.repeats is None:
        args.repeats = 1
    names = [w["name"] for w in spec["workloads"]]
    if set(names) != set(WORKLOADS):
        print("bench/run.py: BENCHMARK.json and bench/workloads.py name "
              "different workloads", file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"bench/run.py: unknown workload {args.workload!r}; one of "
              f"{', '.join(names)}", file=sys.stderr)
        return 2

    env = environment(ROOT)
    if not args.quiet:
        for w in environment_warnings(env):
            print(f"WARNING: {w}", file=sys.stderr)
    RESULTS.mkdir(parents=True, exist_ok=True)

    if args.selfcheck:
        return 0 if selfcheck(args, names) else 1

    if args.workload is None:
        t0 = time.perf_counter()
        records = run_suite(args, names)
        ok = all(r["correct"] for r in records)
        print(f"\n{'OK' if ok else 'FAILED'}: {len(names)} workloads in "
              f"{time.perf_counter() - t0:.0f} s; failed_frac "
              + ", ".join(f"{r['workload']}={_fmt(r['failed_frac'])}"
                          for r in records if not r["trace"]))
    else:
        scale = SMOKE_SCALE if args.smoke else 1.0
        workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
        try:
            if args.trace:
                rec = measure_traced(args.workload, args.seed, scale, workdir,
                                     warmup=not args.smoke)
            else:
                rec = measure(args.workload, args.seed, args.seconds, scale,
                              args.repeats, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if not args.quiet:
            (print_traced if args.trace else print_untraced)(rec)
        records = [rec]
        ok = rec["correct"]
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"env": env, "records": records}, indent=1) + "\n")
    if args.workload is not None:
        print(contract_line(records[0]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
