"""Span arithmetic, and the shims come off again."""

import numpy as np

from bench import layers, metrics
from bench.metrics import sim_signature
from bench.workloads import run_repeat


def test_self_time_on_a_hand_built_tree():
    #  0: [0, 100)            root
    #  1:   [10, 40)          child of 0
    #  2:     [15, 25)        child of 1
    #  3:   [50, 90)          child of 0
    #  4:     [60, 70)        child of 3
    #  5:     [70, 85)        child of 3
    #  6: [200, 230)          second root, no children
    start = [0, 10, 15, 50, 60, 70, 200]
    end = [100, 40, 25, 90, 70, 85, 230]
    parent = [-1, 0, 1, 0, 3, 3, -1]
    selfs = layers.self_times(start, end, parent)
    assert selfs.tolist() == [100 - 30 - 40, 30 - 10, 10, 40 - 10 - 15, 10,
                              15, 30]
    # Self times partition the covered wall time exactly.
    assert selfs.sum() == 100 + 30


def test_roots_follow_the_event_not_the_event_loop():
    # 0 = engine.run (dispatch), 1 and 3 = two events it fires, 2 under 1,
    # 4 = a stage outside the loop with 5 below it.
    parent = [-1, 0, 1, 0, -1, 4]
    is_dispatch = [True, False, False, False, False, False]
    assert layers.span_roots(parent, is_dispatch) == [0, 1, 1, 3, 4, 4]


def _originals():
    return [(holder, attr, vars(holder)[attr])
            for holder, attr in layers.Shims.targets()]


def test_shims_are_fully_uninstalled_and_never_leak_into_untraced_runs():
    before = _originals()
    assert not any(getattr(fn, "_bench_shim", False) for *_, fn in before)

    untraced = run_repeat("serve_churn", 5, scale=0.05)
    assert [fn for *_, fn in _originals()] == [fn for *_, fn in before]

    log = layers.SpanLog()
    with layers.Shims(log):
        installed = _originals()
        assert all(getattr(fn, "_bench_shim", False) for *_, fn in installed)
        traced = run_repeat("serve_churn", 5, scale=0.05, log=log)
    for (holder, attr, now), (_h, _a, was) in zip(_originals(), before):
        assert now is was, f"{holder.__name__}.{attr} is still wrapped"

    # Tracing costs host time only: the modelled cluster did the same work.
    assert sim_signature(traced) == sim_signature(untraced)
    assert len(log) > 0 and log.stack == [-1]
    agg = layers.aggregate(log, traced.t0_ns, traced.t1_ns)
    values = metrics.per_layer(agg, log, traced, untraced)
    assert set(values) == {n for n, *_ in metrics.PER_LAYER}
    assert values["serve.cache.invalidations"] > 0
    assert values["serve.frontend.calls"] > 0
    # Every span lies inside its parent.
    start, end = np.asarray(log.start_ns), np.asarray(log.end_ns)
    par = np.asarray(log.parent)
    kids = par >= 0
    assert (start[kids] >= start[par[kids]]).all()
    assert (end[kids] <= end[par[kids]]).all()


def test_pipeline_touches_no_serving_layer(tmp_path):
    log = layers.SpanLog()
    with layers.Shims(log):
        rep = run_repeat("pipeline", 5, scale=0.05, log=log, workdir=tmp_path)
    assert rep.failed == 0, rep.problems
    agg = layers.aggregate(log, rep.t0_ns, rep.t1_ns)
    assert not any(e["calls"] for e in agg.values()
                   if e["layer"].startswith(("serve.", "bench.driver")))
    stages = [n for n in agg if n.startswith("pipeline.stage.")]
    assert sorted(stages) == sorted(f"pipeline.stage.{s}"
                                    for s in metrics.STAGES)
