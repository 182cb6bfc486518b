"""``baselines/ci.json`` is pinned in tier-1, not only in CI's
``bench-golden`` job.

Every ``repro bench`` metric is a deterministic function of the seed, so
a fresh run must reproduce the committed golden file bit for bit on any
machine and under any ``CONCORD_WORKERS``/``CONCORD_STORAGE``/
``CONCORD_CHUNKING``.  A perturbed spec parameter, an edited golden
value, a spec registered without a golden entry, or a stale spec/metric
left behind in the file fails here — one case per spec, so a failure
names its spec and lists the disagreeing metrics.
"""

from pathlib import Path

import pytest

from repro.harness.benchsuite import build_default_runner
from repro.obs.bench import compare, load_baseline

BASELINE = Path(__file__).resolve().parents[2] / "baselines" / "ci.json"
RUNNER = build_default_runner()

#: Specs left to CI's ``bench-golden`` job because they take seconds.
SLOW = {
    "serve.cached_qps": "6.3 s: two closed-loop serving runs",
    "serve.flash_crowd": "1.0 s: autoscaled serving run with cache verify",
}


def test_golden_file_holds_exactly_the_suite():
    assert sorted(load_baseline(BASELINE)) == RUNNER.names()
    assert set(SLOW) <= set(RUNNER.specs)


@pytest.mark.parametrize("spec", [n for n in RUNNER.names() if n not in SLOW])
def test_suite_reproduces_the_golden_file_bit_for_bit(spec):
    golden = load_baseline(BASELINE).get(spec, {})
    # Symmetric and exact: an "improved" value is a behaviour change
    # too, and a metric on one side only is a row.
    diffs = compare(RUNNER.run([spec]), {spec: golden})
    assert not diffs, "\n".join(map(str, diffs))
