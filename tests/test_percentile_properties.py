"""Property-based suite for ``runtime.serving.percentile``.

The serving simulator's p50/p99/p999 reporting — the paper's Table 1
tail-latency columns included — funnels through this one nearest-rank
implementation, so it gets the full property treatment:

* permutation invariance — order of samples never matters;
* membership — the result is always one of the inputs;
* monotonicity in the percentile — p50 <= p99 <= p999;
* agreement with an independent exact-arithmetic oracle on the
  nearest-rank definition (rank = ceil(pct * n / 100), computed in
  rationals).

The oracle disagreement this suite originally surfaced: the naive
``ceil(pct / 100.0 * n)`` rank goes wrong whenever the binary product
``pct / 100 * n`` lands just above the true integer — e.g. pct=7,
n=100 floats to ``ceil(7.000000000000001) = 8``, returning the
8th-ranked sample instead of the 7th.  ``test_agrees_with_exact_oracle``
fails within a handful of examples against the pre-fix implementation.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.serving import percentile

samples = st.lists(
    st.floats(min_value=-1e9, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=200)
percentiles = st.one_of(
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=100),
    # the p999-style fractional percentiles the serving layer uses
    st.sampled_from([50, 70, 90, 95, 99, 99.9, 99.99]))


def oracle(values, pct):
    """Independent nearest-rank definition in exact arithmetic."""
    ordered = sorted(values)
    if pct <= 0:
        return ordered[0]
    if pct >= 100:
        return ordered[-1]
    rank = math.ceil(Fraction(pct) * len(ordered) / Fraction(100))
    return ordered[rank - 1]


@given(values=samples, pct=percentiles)
def test_permutation_invariant(values, pct):
    assert percentile(values, pct) == percentile(
        list(reversed(sorted(values))), pct)


@given(values=samples, pct=percentiles, seed=st.integers(0, 2**32 - 1))
def test_shuffle_invariant(values, pct, seed):
    import random
    shuffled = list(values)
    random.Random(seed).shuffle(shuffled)
    assert percentile(values, pct) == percentile(shuffled, pct)


@given(values=samples, pct=percentiles)
def test_result_is_a_sample(values, pct):
    assert percentile(values, pct) in values


@given(values=samples,
       pcts=st.tuples(percentiles, percentiles))
def test_monotone_in_percentile(values, pcts):
    lo, hi = sorted(pcts)
    assert percentile(values, lo) <= percentile(values, hi)


@settings(max_examples=300)
@given(values=samples, pct=percentiles)
def test_agrees_with_exact_oracle(values, pct):
    assert percentile(values, pct) == oracle(values, pct)


@given(values=samples)
def test_extremes(values):
    """pct<=0 clamps to the min, pct>=100 to the max."""
    assert percentile(values, 0) == min(values)
    assert percentile(values, -5) == min(values)
    assert percentile(values, 100) == max(values)
    assert percentile(values, 250) == max(values)


def test_empty_input_is_zero():
    assert percentile([], 99) == 0.0


@pytest.mark.parametrize("pct,n,rank", [
    # cases where ceil(pct/100.0 * n) differs from the exact rank —
    # the float-rounding bug family this suite surfaced
    (7, 100, 7),
    (14, 50, 7),
    (28, 25, 7),
    (55, 100, 55),
    (56, 25, 14),
])
def test_known_float_traps(pct, n, rank):
    values = [float(i) for i in range(1, n + 1)]
    assert percentile(values, pct) == float(rank)
    # the naive float rank really is wrong for these inputs — keep
    # the regression honest about what it protects against
    assert math.ceil(pct / 100.0 * n) != rank


@given(pct=percentiles)
def test_singleton(pct):
    assert percentile([42.0], pct) == 42.0
