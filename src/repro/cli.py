"""Command-line interface: run the paper's experiments by name.

Usage::

    python -m repro list                     # available experiments
    python -m repro run fig09                # one experiment, table to stdout
    python -m repro run all --out results/   # everything, archived to files
    python -m repro demo                     # 30-second end-to-end tour
    python -m repro info                     # testbeds and calibration
    python -m repro trace --out traces/      # traced null command + artifacts
    python -m repro trace fig10 --out t/     # trace any experiment's runs
    python -m repro bench --compare baselines/ci.json   # exact golden diff
    python -m repro bench --filter cmd. --write-baseline baselines/ci.json
    python -m repro serve --clients 16 --duration 0.5   # serving frontend
    python -m repro serve --closed --verify-cache --expect-coalescing
    python -m repro serve --sample-period 0.005 --timeseries ts.jsonl
    python -m repro lab --grid quick --report lab-out/   # scenario lab
    python -m repro lab --grid full --filter moldy,churn --list

``bench --compare`` exits 1 when any metric differs from the golden file
in either direction or exists on one side only (docs/BENCHMARKS.md).

Exit status is non-zero on unknown experiment names, so the CLI is usable
from shell scripts and CI.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.harness import ALL_EXPERIMENTS
from repro.sim.costmodel import TESTBEDS
from repro.util.stats import fmt_bytes, fmt_time_s

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="ConCORD reproduction: regenerate the paper's "
                    "evaluation figures and explore the system.")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment",
                     help="experiment id (see 'list') or 'all'")
    run.add_argument("--out", type=Path, default=None,
                     help="directory to write result tables into")

    sub.add_parser("demo", help="quick end-to-end demonstration")
    sub.add_parser("info", help="show testbed cost-model calibration")

    tr = sub.add_parser(
        "trace", help="run with sim-time span tracing and export artifacts")
    tr.add_argument("experiment", nargs="?", default=None,
                    help="experiment id to trace (default: a traced "
                         "null service command)")
    tr.add_argument("--out", type=Path, default=Path("traces"),
                    help="directory for .trace.json / .jsonl / metrics "
                         "artifacts (default: traces/)")

    be = sub.add_parser(
        "bench", help="run the benchmark suite, diff it against the "
                      "golden file")
    be.add_argument("--list", action="store_true", dest="list_specs",
                    help="list registered benchmark specs and exit")
    be.add_argument("--filter", default=None, metavar="SUBSTR",
                    help="only run (or list) specs whose name contains "
                         "SUBSTR")
    be.add_argument("--compare", type=Path, default=None, metavar="GOLDEN",
                    help="diff the run against a golden file; exit 1 on "
                         "any metric that differs or is on one side only")
    be.add_argument("--write-baseline", type=Path, default=None,
                    metavar="PATH",
                    help="record this run in a golden file (entries of "
                         "specs --filter left out are kept)")

    sv = sub.add_parser(
        "serve", help="drive simulated client traffic through the "
                      "query-serving frontend (docs/SERVING.md)")
    sv.add_argument("--clients", type=int, default=16,
                    help="simulated clients (default: 16)")
    sv.add_argument("--duration", type=float, default=0.5,
                    help="simulated seconds of traffic (default: 0.5)")
    sv.add_argument("--nodes", type=int, default=4,
                    help="cluster size (default: 4)")
    sv.add_argument("--pages", type=int, default=256,
                    help="pages per entity in the traced workload "
                         "(default: 256)")
    sv.add_argument("--closed", action="store_true",
                    help="closed-loop clients (default: open-loop Poisson)")
    sv.add_argument("--rate", type=float, default=2000.0,
                    help="open-loop submits/s per client (default: 2000)")
    sv.add_argument("--think", type=float, default=0.0,
                    help="closed-loop think time in seconds (default: 0)")
    sv.add_argument("--zipf", type=float, default=1.2,
                    help="hot-key popularity skew (default: 1.2)")
    sv.add_argument("--population", type=int, default=128,
                    help="hot content hashes queried (default: 128)")
    sv.add_argument("--churn", type=float, default=0.0,
                    help="client replacements per second (default: 0)")
    sv.add_argument("--queue-limit", type=int, default=256,
                    help="bounded admission queue per QoS class "
                         "(default: 256)")
    sv.add_argument("--rate-limit", type=float, default=None,
                    help="token-bucket admission limit, total qps "
                         "(default: off)")
    sv.add_argument("--no-cache", action="store_true",
                    help="disable the update-epoch result cache "
                         "(cache capacity 0)")
    sv.add_argument("--verify-cache", action="store_true",
                    help="shadow-execute every cache hit; exit 1 on any "
                         "correctness violation")
    sv.add_argument("--expect-coalescing", action="store_true",
                    help="exit 1 unless at least one request coalesced "
                         "(CI smoke assertion)")
    sv.add_argument("--seed", type=int, default=0,
                    help="workload and traffic seed (default: 0)")
    sv.add_argument("--expect-warm", action="store_true",
                    help="exit 1 unless the instance warm-restarted from "
                         "persistent storage (CI smoke assertion; set "
                         "CONCORD_STORAGE=mmap and CONCORD_STORAGE_DIR)")
    sv.add_argument("--autoscale", type=int, default=None, metavar="N",
                    help="run the autoscaler during the stream, live-"
                         "joining nodes under load up to N total "
                         "(docs/ELASTICITY.md)")
    sv.add_argument("--placement", default="mod",
                    choices=["mod", "hd"],
                    help="hash->node placement policy; hd minimizes "
                         "entries moved per join (default: mod)")
    sv.add_argument("--expect-join", action="store_true",
                    help="exit 1 unless at least one live join completed "
                         "(CI smoke assertion; implies load thresholds "
                         "low enough to trip)")
    sv.add_argument("--sample-period", type=float, default=None,
                    metavar="S",
                    help="record the standard metrics time-series every S "
                         "simulated seconds during the stream "
                         "(docs/LAB.md)")
    sv.add_argument("--timeseries", type=Path, default=None, metavar="FILE",
                    help="write the sampled time-series as JSONL to FILE "
                         "(implies --sample-period 0.001 if unset)")

    lab = sub.add_parser(
        "lab", help="sweep the scenario-lab stress matrix with SLO gates "
                    "(docs/LAB.md)")
    lab.add_argument("--grid", default="quick", choices=["quick", "full"],
                     help="which matrix to sweep: quick = 16 cells "
                          "(CI smoke), full = 64 cells (default: quick)")
    lab.add_argument("--filter", default=None, metavar="EXPR",
                     help="only run cells whose id contains every comma-"
                          "separated term (e.g. 'moldy,churn')")
    lab.add_argument("--report", type=Path, default=Path("lab-report"),
                     help="directory for LAB_REPORT.md, lab_report.json, "
                          "and failing-cell artifacts "
                          "(default: lab-report/)")
    lab.add_argument("--seed", type=int, default=0,
                     help="base seed every cell seed is derived from "
                          "(default: 0)")
    lab.add_argument("--list", action="store_true", dest="list_cells",
                     help="list the selected cell ids and exit")
    lab.add_argument("--inject-violation", default=None, metavar="CELL",
                     help="seed a cache-corruption bug into CELL (a cell "
                          "id, or 'first' for the first selected cell) — "
                          "the matrix must then fail; lab self-test")
    lab.add_argument("--no-trace", action="store_true",
                     help="skip span tracing (failing cells then dump "
                          "only the metrics time-series)")
    return p


def _cmd_list(out) -> int:
    width = max(len(k) for k in ALL_EXPERIMENTS)
    for name, fn in ALL_EXPERIMENTS.items():
        doc = (getattr(fn, "__doc__", None) or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{name:<{width}}  {summary}", file=out)
    return 0


def _cmd_run(experiment: str, out_dir: Path | None, out) -> int:
    if experiment == "all":
        names = list(ALL_EXPERIMENTS)
    elif experiment in ALL_EXPERIMENTS:
        names = [experiment]
    else:
        print(f"error: unknown experiment {experiment!r}; "
              f"try 'repro list'", file=sys.stderr)
        return 2
    for name in names:
        t0 = time.perf_counter()
        table = ALL_EXPERIMENTS[name]()
        elapsed = time.perf_counter() - t0
        text = table.render()
        print(text, file=out)
        print(f"[{name} completed in {elapsed:.1f}s]\n", file=out)
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{name}.txt").write_text(text + "\n")
    return 0


def _cmd_demo(out) -> int:
    from repro import (CheckpointStore, Cluster, CollectiveCheckpoint,
                       ConCORD, ConCORDConfig, ServiceScope, restore_entity,
                       workloads)

    cluster = Cluster(4, cost="new-cluster", seed=1)
    ents = workloads.instantiate(cluster, workloads.moldy(4, 1024, seed=1))
    eids = [e.entity_id for e in ents]
    with ConCORD(cluster, ConCORDConfig()) as concord:
        concord.initial_scan()
        print(f"4-node cluster, {len(ents)} processes, "
              f"{fmt_bytes(sum(e.memory_bytes for e in ents))} traced; "
              f"sharing={concord.sharing(eids).value:.3f}", file=out)
        store = CheckpointStore()
        result = concord.execute_command(CollectiveCheckpoint(store),
                                         ServiceScope.of(eids))
    for e in ents:
        assert (restore_entity(store, e.entity_id) == e.pages).all()
    print(f"collective checkpoint: {fmt_time_s(result.wall_time)} simulated, "
          f"ratio {store.compression_ratio:.1%}, restore verified", file=out)
    return 0


def _dump_obs(obs, out_dir: Path, stem: str, out) -> None:
    """Write one run's trace/metrics artifacts and validate the trace."""
    from repro.obs import validate_chrome_trace

    chrome = obs.tracer.write_chrome_trace(out_dir / f"{stem}.trace.json")
    n_events = validate_chrome_trace(chrome)
    jsonl = obs.tracer.write_jsonl(out_dir / f"{stem}.trace.jsonl")
    (out_dir / f"{stem}.metrics.txt").write_text(
        obs.registry.report(stem).render() + "\n")
    print(f"[{stem}: {len(obs.tracer)} spans, {n_events} chrome events "
          f"-> {chrome}, {jsonl}]", file=out)


def _cmd_trace(experiment: str | None, out_dir: Path, out) -> int:
    from repro.harness.trace import run_traced_experiment, run_traced_null

    out_dir.mkdir(parents=True, exist_ok=True)
    if experiment is None:
        table, _result, obs = run_traced_null()
        print(table.render(), file=out)
        _dump_obs(obs, out_dir, "null", out)
        return 0
    if experiment not in ALL_EXPERIMENTS:
        print(f"error: unknown experiment {experiment!r}; "
              f"try 'repro list'", file=sys.stderr)
        return 2
    table, cap = run_traced_experiment(experiment)
    print(table.render(), file=out)
    for i, obs in enumerate(cap.runs):
        _dump_obs(obs, out_dir, f"{experiment}.run{i:03d}", out)
    if not cap.runs:
        print(f"[{experiment}: no ConCORD instances built; "
              "nothing to trace]", file=out)
    return 0


def _cmd_bench(args, out) -> int:
    from repro.harness.benchsuite import build_default_runner
    from repro.obs.bench import (BaselineError, compare, load_baseline,
                                 write_baseline)

    runner = build_default_runner()
    names = [n for n in runner.names()
             if args.filter is None or args.filter in n]
    if not names:
        print(f"error: no benchmarks match --filter {args.filter!r}",
              file=sys.stderr)
        return 2
    if args.list_specs:
        width = max(map(len, names))
        for name in names:
            print(f"{name:<{width}}  {runner.specs[name].doc}", file=out)
        return 0

    # Specs --filter left out: their golden entries are neither compared
    # nor rewritten.  An entry no registered spec owns is never skipped —
    # it compares as DROPPED, and an unfiltered write is what drops it.
    skipped = set(runner.specs) - set(names)
    golden, previous = None, {}
    try:                         # fail fast, before any benchmark runs
        if args.compare is not None:
            golden = load_baseline(args.compare)
        if (skipped and args.write_baseline is not None
                and args.write_baseline.exists()):
            previous = load_baseline(args.write_baseline)
    except BaselineError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    results = runner.run(names, progress=lambda n, metrics: print(
        f"[{n}: {len(metrics)} metrics]", file=out))
    n_metrics = sum(map(len, results.values()))
    if args.write_baseline is not None:
        p = write_baseline(args.write_baseline, {**previous, **results})
        print(f"[baseline written: {p}]", file=out)
    if golden is None:
        print(f"[{len(results)} specs / {n_metrics} metrics]", file=out)
        return 0
    diffs = compare(results, {s: m for s, m in golden.items()
                              if s not in skipped})
    for d in diffs:
        print(d, file=out)
    print(f"[{len(results)} specs / {n_metrics} metrics against "
          f"{args.compare}: {len(diffs)} difference(s)]", file=out)
    if diffs:
        print(f"error: {len(diffs)} metric(s) differ from {args.compare} "
              "(rows above); an intended change re-records them with "
              "--write-baseline", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args, out) -> int:
    from repro.core.concord import ConCORD
    from repro.core.config import ConCORDConfig
    from repro.serve.config import ServeConfig
    from repro.sim.cluster import Cluster
    from repro.workloads import TrafficSpec, instantiate, moldy

    try:
        # Capacity 0 is the cache's true bypass: nothing stored, no hits.
        cache_kw = {"cache_capacity": 0} if args.no_cache else {}
        cfg = ServeConfig(queue_limit=args.queue_limit,
                          rate_limit_qps=args.rate_limit,
                          verify_cache=args.verify_cache, **cache_kw)
        spec = TrafficSpec(
            n_clients=args.clients, duration_s=args.duration,
            arrival="closed" if args.closed else "poisson",
            rate_per_client=args.rate, think_time_s=args.think,
            zipf_s=args.zipf, population=args.population,
            churn_rate=args.churn, seed=args.seed)
        if args.nodes < 2:
            raise ValueError("--nodes must be >= 2")
        if args.pages < 1:
            raise ValueError("--pages must be >= 1")
        # Workers, storage and chunking come from the CONCORD_* env vars.
        core = ConCORDConfig(use_network=False, serve=cfg,
                             placement=args.placement)
        if args.expect_warm and not core.storage.persistent:
            raise ValueError("--expect-warm requires a persistent backend "
                             "(CONCORD_STORAGE=mmap)")
        if args.autoscale is not None and args.autoscale <= args.nodes:
            raise ValueError("--autoscale target must exceed --nodes")
        if args.expect_join and args.autoscale is None:
            raise ValueError("--expect-join requires --autoscale")
    except ValueError as e:
        print(f"error: {e}", file=out)
        return 2

    # The big-cluster testbed is the only one with headroom past 8 nodes.
    target = args.autoscale if args.autoscale is not None else args.nodes
    cost = "big-cluster" if target > 8 else "new-cluster"
    cluster = Cluster(n_nodes=args.nodes, cost=cost, seed=args.seed)
    instantiate(cluster, moldy(args.nodes, args.pages, seed=args.seed))
    status = 0
    with ConCORD(cluster, core) as concord:
        if concord.storage_recovered:
            rep = concord.warm_restart()
            loads = concord.obs.registry.value
            print(f"[warm restart from {core.storage.backend} storage: "
                  f"{rep.copies_restored + rep.copies_removed} delta op(s) "
                  f"reconciled; shard files loaded "
                  f"{loads('storage.recover', rung='warm')}, refused "
                  f"{loads('storage.recover', rung='cold')}]", file=out)
        else:
            concord.initial_scan()
            if args.expect_warm:
                print("FAIL: expected a warm restart, storage was empty",
                      file=out)
                status = 1
        autoscale_cfg = None
        if args.autoscale is not None:
            from repro.serve.autoscaler import AutoscalerConfig
            if args.expect_join:
                # Smoke mode: thresholds at zero so any served traffic
                # counts as overload and the join path definitely runs.
                autoscale_cfg = AutoscalerConfig(max_nodes=args.autoscale,
                                                 queue_depth_high=0.0,
                                                 p95_high_s=0.0)
            else:
                autoscale_cfg = AutoscalerConfig(max_nodes=args.autoscale)
        sample_period = args.sample_period
        if sample_period is None and args.timeseries is not None:
            sample_period = 1e-3
        report = concord.serve(spec, autoscale=autoscale_cfg,
                               sample_period_s=sample_period)
        joins = (concord._last_autoscaler.joins
                 if concord._last_autoscaler is not None else [])
        if args.timeseries is not None:
            path = concord._last_sampler.series.write_jsonl(args.timeseries)
            print(f"[time-series: {len(concord._last_sampler.series)} "
                  f"tick(s) -> {path}]", file=out)
    print(report.summary_table().render(), file=out)

    if args.autoscale is not None:
        print(f"autoscale[{args.placement}]: {args.nodes} -> "
              f"{args.nodes + len(joins)} node(s), "
              f"{sum(r.entries_moved for r in joins)} entry(ies) moved",
              file=out)
        for r in joins:
            print(f"  join node {r.node}: moved {r.entries_moved}/"
                  f"{r.entries_total} ({r.moved_fraction:.1%}), "
                  f"precopied {r.precopied}, delta +{r.delta_inserts}/"
                  f"-{r.delta_removes}", file=out)
    if args.expect_join and not joins:
        print("FAIL: expected at least one live join, saw none", file=out)
        status = 1

    if args.verify_cache:
        if report.cache_violations:
            print(f"FAIL: {report.cache_violations} cache correctness "
                  f"violation(s)", file=out)
            status = 1
        else:
            print("cache verify: every hit matched fresh execution",
                  file=out)
    if args.expect_coalescing and report.coalesced == 0:
        print("FAIL: expected request coalescing, saw none", file=out)
        status = 1
    return status


def _cmd_lab(args, out) -> int:
    from repro.lab import full_grid, quick_grid, run_cells, write_report

    spec = (quick_grid if args.grid == "quick" else full_grid)(args.seed)
    spec = spec.filtered(args.filter)
    if not spec.cells:
        print(f"error: --filter {args.filter!r} selects no cells "
              f"in the {args.grid} grid", file=out)
        return 2
    if args.list_cells:
        for cell in spec.cells:
            print(f"{cell.cell_id}  (seed {cell.seed})", file=out)
        return 0
    inject = args.inject_violation
    if inject == "first":
        inject = spec.cells[0].cell_id
    if inject is not None and all(c.cell_id != inject for c in spec.cells):
        print(f"error: --inject-violation {inject!r} names no selected "
              f"cell (try --list)", file=out)
        return 2

    def progress(cell, res) -> None:
        verdict = ("PASS" if res.passed else
                   "FAIL: " + "; ".join(r.slo.expr for r in res.failures))
        print(f"  {cell.cell_id:<44} {verdict}", file=out)

    print(f"lab: {args.grid} grid, {len(spec.cells)} cell(s), "
          f"seed {args.seed}", file=out)
    results = run_cells(spec.cells, inject_violation_in=inject,
                        trace=not args.no_trace, progress=progress)
    json_path, md_path = write_report(args.report, spec.name,
                                      args.seed, results)
    n_failed = sum(1 for r in results if not r.passed)
    print(f"report: {md_path} / {json_path}", file=out)
    if n_failed:
        print(f"FAIL: {n_failed}/{len(results)} cell(s) violated their "
              f"SLOs (artifacts under {args.report}/cells/)", file=out)
        return 1
    print(f"OK: all {len(results)} cell(s) within SLO", file=out)
    return 0


def _cmd_info(out) -> int:
    for name, cm in TESTBEDS.items():
        print(f"{name}: {cm.n_nodes} nodes, "
              f"link {fmt_bytes(cm.link_bw)}/s, "
              f"latency {fmt_time_s(cm.udp_latency)}, "
              f"DHT insert {fmt_time_s(cm.dht_insert_hash)}, "
              f"SFH/page {fmt_time_s(cm.hash_page_sfh)}", file=out)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(out)
        if args.command == "run":
            return _cmd_run(args.experiment, args.out, out)
        if args.command == "demo":
            return _cmd_demo(out)
        if args.command == "info":
            return _cmd_info(out)
        if args.command == "trace":
            return _cmd_trace(args.experiment, args.out, out)
        if args.command == "bench":
            return _cmd_bench(args, out)
        if args.command == "serve":
            return _cmd_serve(args, out)
        if args.command == "lab":
            return _cmd_lab(args, out)
    except BrokenPipeError:  # e.g. `repro run all | head`
        return 0
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
