"""Pin the bisect bucket selection against the old linear scan.

``Histogram.observe`` used to walk the bounds tuple per observation
(O(bounds) on the hot path); it now bisects.  The two must place every
float — bound-exact values, infinities, NaN, negatives — in the same
bucket, so the old loop lives on here as the reference implementation.
"""

import struct

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.registry import DEFAULT_BOUNDS, QUANTILE_SAMPLE_CAP, Histogram


def reference_bucket(bounds: tuple, v: float) -> int:
    """The pre-bisect linear scan, verbatim."""
    for i, bound in enumerate(bounds):
        if v <= bound:
            return i
    return len(bounds)


def bucket_of(bounds: tuple, v: float) -> int:
    h = Histogram(bounds)
    h.observe(v)
    return h.bucket_counts.index(1)


EDGE_VALUES = [
    0.0, -0.0, -1.0, -1e300, 1e300,
    float("inf"), float("-inf"), float("nan"),
    *DEFAULT_BOUNDS,                       # exactly on each bound
    *(b * (1 - 1e-12) for b in DEFAULT_BOUNDS),
    *(b * (1 + 1e-12) for b in DEFAULT_BOUNDS),
]


class TestBucketEquivalence:
    def test_edge_values_match_reference(self):
        for v in EDGE_VALUES:
            want = reference_bucket(DEFAULT_BOUNDS, v)
            assert bucket_of(DEFAULT_BOUNDS, v) == want, v

    def test_nan_lands_in_overflow(self):
        # The one spot bisect and the loop could diverge: every `NaN <=
        # bound` is False, so the loop overflowed; bisect_left would
        # return 0 without the explicit guard.
        assert bucket_of(DEFAULT_BOUNDS, float("nan")) == len(DEFAULT_BOUNDS)

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_any_float_matches_reference(self, v):
        assert bucket_of(DEFAULT_BOUNDS, v) == \
            reference_bucket(DEFAULT_BOUNDS, v)

    @given(st.lists(st.floats(min_value=1e-9, max_value=1e4,
                              allow_nan=False), min_size=1, max_size=50),
           st.integers(0, 2**32 - 1))
    def test_random_streams_produce_identical_buckets(self, bounds_src, seed):
        bounds = tuple(sorted(set(bounds_src)))
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 2e4, size=200).tolist() \
            + list(bounds)                  # hit every bound exactly
        h = Histogram(bounds)
        want = [0] * (len(bounds) + 1)
        for v in values:
            h.observe(v)
            want[reference_bucket(bounds, float(v))] += 1
        assert h.bucket_counts == want
        assert h.count == len(values)


def state(h: Histogram) -> tuple:
    """Everything a histogram holds, floats as their bits (so NaN, -0.0
    and the last ulp of ``total`` all count)."""
    def bits(x):
        return struct.pack("<d", x)
    return (h.count, bits(h.total), bits(h.min), bits(h.max),
            list(h.bucket_counts), [bits(v) for v in h.samples])


def observed(batches, bounds=DEFAULT_BOUNDS) -> tuple[tuple, tuple]:
    """(state after observe per value, state after observe_many per batch)."""
    one, many = Histogram(bounds), Histogram(bounds)
    for batch in batches:
        for v in batch:
            one.observe(v)
        many.observe_many(batch)
    return state(one), state(many)


class TestObserveMany:
    """``observe_many(vs)`` is a loop of ``observe``: same count, buckets,
    samples, min/max, and a bit-identical ``total`` (summed in order)."""

    def test_empty_batch_changes_nothing(self):
        h = Histogram()
        h.observe_many([])
        assert state(h) == state(Histogram())
        one, many = observed([[1e-5, 2.0], [], [3e-3]])
        assert one == many

    def test_nan_infinities_and_signed_zeros(self):
        batch = [1e-5, float("nan"), 3.0, -0.0, 0.0, float("inf"),
                 float("-inf"), float("nan"), 2e-4]
        one, many = observed([batch, batch[::-1]])
        assert one == many
        assert many[4][-1] == 6     # per batch: +inf and each NaN overflow

    def test_leading_nan_does_not_become_min_or_max(self):
        one, many = observed([[float("nan"), 1.0, 5.0]])
        assert one == many
        h = Histogram()
        h.observe_many([float("nan"), 1.0, 5.0])
        assert (h.min, h.max) == (1.0, 5.0)

    def test_batch_crossing_the_sample_cap(self):
        first = [i * 1e-7 for i in range(QUANTILE_SAMPLE_CAP - 3)]
        crossing = [0.1 + i * 1e-3 for i in range(10)]
        one, many = observed([first, crossing, [7.0]])
        assert one == many
        assert len(many[5]) == QUANTILE_SAMPLE_CAP

    def test_non_float_values_are_converted_like_observe(self):
        one, many = observed([[1, np.float32(0.1), np.int64(3), True]])
        assert one == many

    @given(st.lists(st.lists(st.floats(allow_nan=True,
                                       allow_infinity=True),
                             max_size=20), max_size=8))
    def test_any_batches_match_repeated_observe(self, batches):
        one, many = observed(batches)
        assert one == many
