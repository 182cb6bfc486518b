"""Unit tests for admission control (token bucket + bounded queues)."""

import numpy as np
import pytest

from repro.queries.interface import QueryInterface
from repro.serve import (AdmissionController, QoSClass, QueryFrontend,
                         Rejected, RejectReason, Request, ServeConfig,
                         TokenBucket)
from tests.conftest import make_system

#: The entity ids a collective request may name in these unit tests.
KNOWN = range(100)


def req(op="num_copies", qos=QoSClass.INTERACTIVE):
    return Request(op, (1,), qos=qos)


class TestTokenBucket:
    def test_burst_then_exhaustion(self):
        b = TokenBucket(rate=10.0, burst=3)
        assert [b.try_take(0.0) for _ in range(4)] == [True, True, True,
                                                      False]

    def test_refills_on_sim_clock(self):
        b = TokenBucket(rate=10.0, burst=1)
        assert b.try_take(0.0)
        assert not b.try_take(0.05)   # half a token accrued
        assert b.try_take(0.1)        # one full token at t=0.1

    def test_caps_at_burst(self):
        b = TokenBucket(rate=100.0, burst=2)
        b.try_take(0.0)
        # A long idle period cannot bank more than `burst` tokens.
        assert [b.try_take(100.0) for _ in range(3)] == [True, True, False]

    def test_time_to_token(self):
        b = TokenBucket(rate=10.0, burst=1)
        assert b.time_to_token(0.0) == 0.0
        b.try_take(0.0)
        assert b.time_to_token(0.0) == pytest.approx(0.1)
        assert b.time_to_token(0.05) == pytest.approx(0.05)

    def test_disabled_bucket_always_admits(self):
        b = TokenBucket(rate=None, burst=1)
        assert all(b.try_take(0.0) for _ in range(100))
        assert b.time_to_token(0.0) == 0.0

    def test_rate_zero_is_disabled(self):
        # rate=0 means "no limit", not "limit of nothing": an
        # always-rejecting bucket would answer retry_after_s=inf.
        b = TokenBucket(rate=0.0, burst=1)
        assert all(b.try_take(i * 0.001) for i in range(100))
        assert b.time_to_token(0.0) == 0.0
        assert ServeConfig(rate_limit_qps=0.0).rate_limit_qps == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=float("nan"), burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)
        with pytest.raises(ValueError):
            ServeConfig(rate_limit_qps=-1.0)

    def test_time_to_token_never_negative_or_inf(self):
        import math
        for rate in (1e-300, 1e-9, 0.3, 7.0, 1e9):
            b = TokenBucket(rate=rate, burst=1)
            b.try_take(0.0)
            for now in (0.0, 1e-12, 0.5, 1e6):
                dt = b.time_to_token(now)
                assert math.isfinite(dt)
                assert dt >= 0.0

    def test_granted_retry_yields_a_token(self):
        # Fractional-token starvation regression: a client that waits
        # exactly time_to_token() must succeed, even when float rounding
        # leaves the balance at 0.999... under odd rates.
        for rate in (3.0, 7.0, 9.99, 0.3, 1234.567):
            b = TokenBucket(rate=rate, burst=1)
            now = 0.0
            for _ in range(50):
                assert b.try_take(now), (rate, now)
                now += b.time_to_token(now)

    def test_deterministic_sequence(self):
        def run():
            b = TokenBucket(rate=1000.0, burst=4)
            return [b.try_take(i * 0.0007) for i in range(50)]
        assert run() == run()


class TestAdmissionController:
    def test_admits_when_room(self):
        ac = AdmissionController(ServeConfig(), KNOWN)
        assert ac.admit(req(), queue_depth=0, now=0.0) is None

    def test_unknown_op_is_bad_request(self):
        ac = AdmissionController(ServeConfig(), KNOWN)
        verdict = ac.admit(req(op="frobnicate"), queue_depth=0, now=0.0)
        assert isinstance(verdict, Rejected)
        assert verdict.reason is RejectReason.BAD_REQUEST

    def test_full_queue_sheds_with_retry_hint(self):
        cfg = ServeConfig(queue_limit=2)
        ac = AdmissionController(cfg, KNOWN)
        verdict = ac.admit(req(), queue_depth=2, now=0.0)
        assert verdict.reason is RejectReason.QUEUE_FULL
        assert verdict.retry_after_s == cfg.interactive_window_s
        batch = ac.admit(req(qos=QoSClass.BATCH), queue_depth=2, now=0.0)
        assert batch.retry_after_s == cfg.batch_window_s

    def test_full_queue_does_not_burn_tokens(self):
        ac = AdmissionController(ServeConfig(queue_limit=1,
                                             rate_limit_qps=1000.0,
                                             rate_burst=1), KNOWN)
        assert ac.admit(req(), queue_depth=1, now=0.0) is not None
        # The queue-full rejection above must not have consumed the token.
        assert ac.admit(req(), queue_depth=0, now=0.0) is None

    def test_rate_limit_sheds_with_eta(self):
        ac = AdmissionController(ServeConfig(rate_limit_qps=10.0,
                                             rate_burst=1), KNOWN)
        assert ac.admit(req(), queue_depth=0, now=0.0) is None
        verdict = ac.admit(req(), queue_depth=0, now=0.0)
        assert verdict.reason is RejectReason.RATE_LIMITED
        assert verdict.retry_after_s == pytest.approx(0.1)

    def test_entity_ids_outside_the_known_set_are_bad_requests(self):
        known = {0: "e0", 1: "e1", 2: "e2"}
        ac = AdmissionController(ServeConfig(), known)
        for args in [((0, 2),), ((np.int64(1),),), ((),)]:
            assert ac.admit(Request("sharing", args), 0, 0.0) is None, args
        for args in [((0, 3),), ((10**9,),), ((np.uint16(7), 0),)]:
            verdict = ac.admit(Request("sharing", args), 0, 0.0)
            assert verdict.reason is RejectReason.BAD_REQUEST, args
        known[3] = "e3"     # the set is read live: it only ever grows
        assert ac.admit(Request("sharing", ((0, 3),)), 0, 0.0) is None


class TestOneIntegerRule:
    """A content hash, an entity id and ``k`` are integers by one rule:
    ``int`` or a NumPy integer of any width, never a ``bool`` or a float."""

    POSITIONS = {
        "hash": lambda v: ("num_copies", (v,)),
        "entity_id": lambda v: ("sharing", ((0, v),)),
        "k": lambda v: ("num_shared_content", ((0, 1), v)),
    }

    @staticmethod
    def verdict(op, args):
        ac = AdmissionController(ServeConfig(), KNOWN)
        return ac.admit(Request(op, args), queue_depth=0, now=0.0)

    @pytest.mark.parametrize("position", POSITIONS)
    @pytest.mark.parametrize("value", [1, np.int64(2), np.uint64(3),
                                       np.int8(1), np.uint16(2)])
    def test_python_and_numpy_integers_are_admitted(self, position, value):
        assert self.verdict(*self.POSITIONS[position](value)) is None

    @pytest.mark.parametrize("position", POSITIONS)
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 1.0,
                                       np.float64(2.0)])
    def test_bools_and_floats_are_bad_requests(self, position, value):
        verdict = self.verdict(*self.POSITIONS[position](value))
        assert verdict is not None
        assert verdict.reason is RejectReason.BAD_REQUEST

    def test_numpy_k_is_answered_like_the_python_int(self):
        cluster, _e, concord = make_system(seed=3)
        q = QueryInterface(cluster, concord.tracing)
        fe = QueryFrontend(cluster, q, ServeConfig(), obs=concord.obs)
        eids = tuple(sorted(cluster.all_entity_ids()))
        got = []
        fe.submit("num_shared_content", (eids, np.int64(2)),
                  on_done=got.append)
        fe.submit("num_shared_content", (eids, 2), on_done=got.append)
        cluster.engine.run()
        assert [r.rejected for r in got] == [False, False]
        assert got[0].answer == got[1].answer == \
            q.num_shared_content(list(eids), 2)
        assert got[1].coalesced     # np.int64(2) and 2 are one key
