"""Same seed, same inputs and same sim metrics; another seed, other inputs."""

import numpy as np
import pytest

from bench.metrics import sim_signature
from bench.reqgen import Mix, draw_stream
from bench.workloads import WORKLOADS, run_repeat


def _stream(seed, rate=None):
    hashes = np.arange(1000, 2000, dtype=np.uint64)
    return draw_stream([seed, 1], 640, Mix(n_keys=64, zipf_s=1.5,
                                           nodewise_frac=0.8),
                       hashes, list(range(8)), 16, 4, rate=rate)


@pytest.mark.parametrize("rate", [None, 1e5])
def test_request_digest_is_a_function_of_the_seed(rate):
    a, b, c = _stream(7, rate), _stream(7, rate), _stream(8, rate)
    assert a.digest == b.digest != c.digest
    assert (a.ops, a.args, a.qos, a.client, a.due) == \
        (b.ops, b.args, b.qos, b.client, b.due)
    assert (a.due is None) == (rate is None)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_sim_metrics_repeat_exactly(name, tmp_path):
    a = run_repeat(name, 21, scale=0.05, workdir=tmp_path)
    b = run_repeat(name, 21, scale=0.05, workdir=tmp_path)
    c = run_repeat(name, 22, scale=0.05, workdir=tmp_path)
    assert a.failed == b.failed == c.failed == 0, a.problems + c.problems
    assert a.digest == b.digest != c.digest
    assert sim_signature(a) == sim_signature(b)
    assert a.ops > 0 and a.sim_s > 0 and len(a.latency_us) > 0
