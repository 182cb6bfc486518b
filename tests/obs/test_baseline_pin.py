"""``baselines/ci.json`` is pinned in tier-1, not only in the CI gate job.

Every ``repro bench`` metric is a deterministic function of the seed, so
a fresh run must reproduce the committed baseline bit for bit on any
machine and under any ``CONCORD_WORKERS``/``CONCORD_STORAGE``/
``CONCORD_CHUNKING``.  A perturbed spec parameter, an edited baseline
value, or a stale record/metric left behind by a hand edit fails here.
"""

from pathlib import Path

from repro.harness.benchsuite import build_default_runner
from repro.obs.bench import compare, load_baseline

BASELINE = Path(__file__).resolve().parents[2] / "baselines" / "ci.json"

#: Quick specs left to CI's ``bench-gate`` job because they take seconds.
SLOW = {
    "serve.cached_qps": "5.8 s: two closed-loop serving runs",
    "serve.flash_crowd": "1.0 s: autoscaled serving run with cache verify",
}


def test_baseline_holds_exactly_the_quick_tier():
    baseline = load_baseline(BASELINE)
    assert set(baseline) == set(build_default_runner().names("quick"))
    kinds = {m["kind"] for rec in baseline.values()
             for m in rec["metrics"].values()}
    assert kinds == {"sim", "count"}


def test_quick_tier_reproduces_the_baseline_bit_for_bit():
    runner = build_default_runner()
    quick = runner.names("quick")
    assert set(SLOW) <= set(quick)
    names = [n for n in quick if n not in SLOW]
    diffs = compare(runner.run(names=names), load_baseline(BASELINE),
                    budget=0.0)
    assert len(diffs) == 56
    assert [d for d in diffs if d.regressed] == []
    # Bit for bit: an "improved" value is a behaviour change too, and a
    # NaN side (new or dropped metric) never compares equal.
    assert [d for d in diffs if d.current != d.base] == []
