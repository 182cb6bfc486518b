"""Property-based pinning of elastic membership (docs/ELASTICITY.md).

Two contracts:

* **Join/handoff convergence** — a focused run of the system state
  machine (tests/properties/machine.py): writes, crashes, restarts and
  repairs interleaved with live joins, a handoff left pending across the
  rules between ``begin_join`` and ``complete_join``.  Once the history
  settles, the machine's *rebuild* check makes every shard equal a cold
  bring-up of the same machine at the final membership and placement.

* **Flash-crowd byte-identity** — an open-loop overload on 8 nodes with
  the autoscaler live-joining to 32 produces, request for request, the
  same answer values as the same traffic against a static 32-node ring
  (and zero ``serve.cache.violations`` with the verifying cache on):
  scaling is invisible to clients except as capacity.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Cluster, ConCORD, ConCORDConfig
from tests.properties.machine import SystemMachine, focused, schedules


@pytest.mark.parametrize("backend", ("memory", "mmap"))
class TestJoinConvergenceProperty:
    @focused()
    @given(schedules("kill", "restart", "write", "repair", "begin_join",
                     "complete_join", max_size=12),
           st.integers(0, 3), st.sampled_from(["mod", "hd"]))
    def test_join_handoff_converges_to_fresh_bringup(self, backend, rules,
                                                     seed, placement):
        SystemMachine().replay(rules, drawn=True, seed=seed,
                               backend=backend, placement=placement)


def _norm(v):
    if isinstance(v, np.ndarray):
        return tuple(v.tolist())
    if isinstance(v, (list, tuple)):
        return tuple(_norm(x) for x in v)
    return v


def _serve_run(n_nodes, autoscale, seed):
    """One traffic run; returns (report, {(client, t_submit): answer},
    completed joins, final node count)."""
    from repro.serve.autoscaler import AutoscalerConfig
    from repro.serve.config import ServeConfig
    from repro.workloads import TrafficSpec, instantiate, moldy

    cluster = Cluster(n_nodes, cost="big-cluster", seed=seed)
    # The same entities regardless of ring size (they live on nodes 0-7),
    # so both runs trace identical content.
    instantiate(cluster, moldy(8, 256, seed=seed))
    cfg = ServeConfig(queue_limit=100_000, verify_cache=True)
    concord = ConCORD(cluster, ConCORDConfig(serve=cfg, placement="hd"))
    concord.initial_scan()
    spec = TrafficSpec(n_clients=8, duration_s=0.16,
                       rate_per_client=2000.0, seed=seed)
    scale = (AutoscalerConfig(max_nodes=32, queue_depth_high=0.0,
                              p95_high_s=0.0)
             if autoscale else None)
    rep = concord.serve(spec, autoscale=scale, keep_responses=True)
    answers = {(r.request.client_id, r.request.t_submit):
               (r.request.op, _norm(r.request.args), _norm(r.value))
               for r in concord._last_traffic.responses}
    joins = (concord._last_autoscaler.joins
             if concord._last_autoscaler is not None else [])
    return rep, answers, joins, concord.cluster.n_nodes


class TestFlashCrowdProperty:
    @settings(max_examples=2, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 3))
    def test_scale_8_to_32_is_byte_identical_to_static(self, seed):
        rep_e, ans_e, joins, n_final = _serve_run(8, autoscale=True,
                                                  seed=seed)
        # The flash crowd drove the ring all the way out, live.
        assert n_final == 32
        assert len(joins) == 24
        assert rep_e.cache_violations == 0
        assert rep_e.rejected == 0

        rep_s, ans_s, _, _ = _serve_run(32, autoscale=False, seed=seed)
        assert rep_s.cache_violations == 0
        assert rep_s.rejected == 0

        # Same submissions, and answer-for-answer identical values.
        assert set(ans_e) == set(ans_s)
        assert ans_e == ans_s
