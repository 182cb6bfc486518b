"""The frontend pushes its counters once per batch, not once per request;
the numbers must be the same numbers.  One seeded closed-loop run that
coalesces, uses both QoS classes, is refused for both reasons, has cached
answers invalidated by an update and by a failover, and overflows
``max_batch`` into re-drains — its whole ``ServeReport`` and every
``serve.*`` series must equal ``counters_golden.json``, recorded with this
same scenario at the commit before the batching change (9629a03).

A second, small scenario (``stale_token``) pins the one case where the
token a miss's lookup computed must *not* be the token it is stored under:
two node-wise misses in one batch, the second lookup detecting a dead home
and so advancing every epoch after the first token was read.  Recorded at
e709c2f, where ``store`` always re-derived its token.

Re-record (only for a change that *means* to move a number):
``PYTHONPATH=src:. python tests/serve/test_counters_golden.py > \\
tests/serve/counters_golden.json``.
"""

import dataclasses
import json
import random
from pathlib import Path

from repro.queries.interface import QueryInterface
from repro.serve import QoSClass, QueryFrontend, ServeConfig
from tests.conftest import make_system

GOLDEN = Path(__file__).with_name("counters_golden.json")

N_CLIENTS = 12
PER_CLIENT = 40


def run_scenario() -> dict:
    cluster, _ents, concord = make_system(seed=11)
    engine, sim = concord.tracing, cluster.engine
    cfg = ServeConfig(max_batch=4, queue_limit=10, rate_limit_qps=40_000.0,
                      rate_burst=16)
    fe = QueryFrontend(cluster, QueryInterface(cluster, engine), cfg,
                       obs=concord.obs)
    rng = random.Random(7)
    hashes = sorted(int(h) for s in engine.shards for h in s.hashes())[:6]
    eids = tuple(sorted(cluster.all_entity_ids()))
    left = [PER_CLIENT] * N_CLIENTS

    def draw():
        if rng.random() < 0.85:
            return rng.choice(("num_copies", "entities")), \
                (rng.choice(hashes),)
        if rng.random() < 0.5:
            return "sharing", (eids,)
        return "num_shared_content", (eids, 2)

    def kick(cid):
        if left[cid] == 0:
            return
        left[cid] -= 1
        op, args = draw()
        fe.submit(op, args, issuing_node=cid % cluster.n_nodes,
                  qos=QoSClass.BATCH if cid % 4 == 0
                  else QoSClass.INTERACTIVE,
                  client_id=cid, on_done=on_done)

    def on_done(resp):
        cid = resp.request.client_id
        if resp.rejected:
            sim.after(max(resp.answer.retry_after_s, 1e-6), kick, cid)
        else:
            kick(cid)

    def update():
        engine.route_updates(0, inserts=[(hashes[0], 5)], removes=[])

    def burst():
        # Open-loop extras, all at one instant while the bucket is full:
        # the interactive queue overflows before the tokens run out.
        for _ in range(14):
            op, args = draw()
            fe.submit(op, args, client_id=N_CLIENTS, on_done=done.append)

    done = []
    sim.after(0.0, burst)
    for cid in range(N_CLIENTS):
        sim.after((cid + 1) * 1e-7, kick, cid)
    sim.after(4e-4, update)
    sim.after(9e-4, concord.fail_node, 2)
    sim.run()
    assert fe.pending == 0 and not any(left)
    return report_and_registry(fe, concord)


def report_and_registry(fe, concord) -> dict:
    registry = {name: series
                for name, series in concord.obs.registry.snapshot().items()
                if name.startswith("serve.")}
    return {"report": dataclasses.asdict(fe.report()), "registry": registry}


def run_stale_token_scenario() -> dict:
    cluster, _ents, concord = make_system(seed=11)
    engine, sim = concord.tracing, cluster.engine
    fe = QueryFrontend(cluster, QueryInterface(cluster, engine),
                       ServeConfig(), obs=concord.obs)
    victim = 2
    hashes = sorted(int(h) for s in engine.shards for h in s.hashes())
    survivor_homed = next(h for h in hashes if engine.home_node(h) != victim)
    victim_homed = next(h for h in hashes if engine.home_node(h) == victim)
    done = []

    def batch():
        # One window, lookups in this order: the first token is read
        # before the second lookup's detection bumps every epoch.
        for h in (survivor_homed, victim_homed):
            fe.submit("num_copies", (h,), on_done=done.append)

    # Dead but undetected: no node_failed(), the epochs stand still.
    cluster.network.set_node_up(victim, False)
    engine.shards[victim].crash()
    sim.after(0.0, batch)
    sim.after(1e-3, batch)
    sim.run()
    assert fe.pending == 0 and engine.stats.failovers == 1
    return {**report_and_registry(fe, concord),
            "answers": [[r.cache_hit, dataclasses.asdict(r.answer)]
                        for r in done]}


def test_report_and_registry_equal_the_per_request_counters():
    got = json.loads(json.dumps(run_scenario()))
    want = json.loads(GOLDEN.read_text())
    assert got["report"] == want["report"]
    assert got["registry"] == want["registry"]
    # The scenario keeps covering what it is there for.
    rep = got["report"]
    assert rep["coalesced"] and rep["cache_invalidations"]
    assert set(rep["rejected_by_reason"]) == {"queue_full", "rate_limited"}
    assert set(rep["mean_latency_s"]) == {"interactive", "batch"}
    assert rep["batches"] * 4 >= rep["admitted"] > rep["batches"]


def test_a_token_read_before_a_detection_is_not_stored():
    got = json.loads(json.dumps(run_stale_token_scenario()))
    assert got == json.loads(GOLDEN.read_text())["stale_token"]
    # Both first-batch entries must still be there for the second batch:
    # stored under the pre-detection token, the first would invalidate.
    assert [hit for hit, _answer in got["answers"]] == [False, False,
                                                        True, True]
    assert got["report"]["cache_invalidations"] == 0
    assert got["answers"][1][1]["degraded"]


if __name__ == "__main__":
    print(json.dumps({**run_scenario(),
                      "stale_token": run_stale_token_scenario()},
                     indent=1, sort_keys=True))
