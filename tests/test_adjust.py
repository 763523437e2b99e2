import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from confjudge.adjust import (
    _FP_TOL,
    EXPAND,
    NEAREST,
    SHRINK,
    AdjustmentPolicy,
    adjust,
    adjust_all,
    fallback_label,
    midpoint,
)
from confjudge.core import Interval, Intervals, LabelScale, ValidationError

LIKERT = LabelScale(1, 5, 1)
THIRDS = LabelScale(1, 5, 1 / 3)

POLICIES = [
    AdjustmentPolicy(SHRINK),
    AdjustmentPolicy(EXPAND),
    AdjustmentPolicy(NEAREST, 0.5),
    AdjustmentPolicy(NEAREST, 0.1),
    AdjustmentPolicy(NEAREST, 0.0),
]


class TestEndpointPolicies:
    def test_expand_likert(self):
        out = adjust(Interval(2.2, 3.9), LIKERT, AdjustmentPolicy(EXPAND))
        assert (out.lo, out.hi) == (2.0, 4.0)

    def test_shrink_likert(self):
        out = adjust(Interval(2.2, 3.9), LIKERT, AdjustmentPolicy(SHRINK))
        assert (out.lo, out.hi) == (3.0, 3.0)

    def test_nearest_full_thirds(self):
        out = adjust(Interval(4.6, 4.9), THIRDS, AdjustmentPolicy(NEAREST, 1 / 6))
        assert out.lo == pytest.approx(14 / 3, abs=1e-9)
        assert out.hi == pytest.approx(5.0, abs=1e-9)

    @pytest.mark.parametrize("lo", [4.612, 4.626])
    def test_near_top_intervals_round_to_thirds(self, lo):
        out = adjust(Interval(lo, 5.0), THIRDS, AdjustmentPolicy(NEAREST, 1 / 6))
        assert out.lo == pytest.approx(14 / 3, abs=1e-9)
        assert out.hi == pytest.approx(5.0, abs=1e-9)

    def test_partial_nearest_likert(self):
        out = adjust(Interval(3.2, 4.9), LIKERT, AdjustmentPolicy(NEAREST, 0.1))
        assert out.lo == pytest.approx(3.2)
        assert out.hi == pytest.approx(5.0)

    def test_shrink_can_empty(self):
        out = adjust(Interval(3.2, 3.9), LIKERT, AdjustmentPolicy(SHRINK))
        assert out.empty

    def test_fallback_label_nearest_midpoint(self):
        assert fallback_label(Interval(3.2, 3.9), LIKERT) == 4.0
        assert fallback_label(Interval(3.05, 3.55), LIKERT) == 3.0

    def test_clamped_to_scale(self):
        out = adjust(Interval(4.6, 5.0), LIKERT, AdjustmentPolicy(EXPAND))
        assert (out.lo, out.hi) == (4.0, 5.0)

    def test_unknown_policy(self):
        with pytest.raises(ValidationError):
            AdjustmentPolicy("round")

    def test_lambda_cap(self):
        with pytest.raises(ValidationError, match="step/2"):
            adjust(Interval(2.0, 3.0), LIKERT, AdjustmentPolicy(NEAREST, 0.6))

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            adjust(Interval.make_empty(), LIKERT, AdjustmentPolicy(EXPAND))
        with pytest.raises(ValidationError, match="empty"):
            adjust_all(Intervals([np.nan, 2.0], [np.nan, 3.0], [True, False]), LIKERT, AdjustmentPolicy(EXPAND))

    @pytest.mark.parametrize("lam", [-0.1, math.nan, math.inf, -math.inf])
    def test_lambda_must_be_finite_and_non_negative(self, lam):
        # a NaN lambda used to pass both checks and label its rows nearest(nan)
        with pytest.raises(ValidationError, match="lambda"):
            AdjustmentPolicy(NEAREST, lam)


class TestMidpoint:
    def test_values(self):
        assert midpoint(Interval(4.33, 5.0)) == pytest.approx(4.665)
        assert midpoint(Interval(3.0, 3.0)) == 3.0

    def test_empty_errors(self):
        with pytest.raises(ValidationError, match="no midpoint"):
            midpoint(Interval.make_empty())
        with pytest.raises(ValidationError, match="no midpoint"):
            midpoint(Intervals([1.0, np.nan], [2.0, np.nan], [False, True]))

    def test_elementwise_on_a_batch(self):
        batch = Intervals([4.33, 3.0, 3.2, 3.05], [5.0, 3.0, 3.9, 3.55])
        np.testing.assert_array_equal(midpoint(batch), [midpoint(iv) for iv in batch])
        np.testing.assert_array_equal(fallback_label(batch, LIKERT), [5.0, 3.0, 4.0, 3.0])
        assert [fallback_label(iv, LIKERT) for iv in batch] == [5.0, 3.0, 4.0, 3.0]


grid_points = st.integers(0, 4).map(lambda k: 1.0 + k)


class TestStructuralProperties:
    @given(grid_points, grid_points)
    def test_idempotent_on_grid_aligned(self, a, b):
        lo, hi = min(a, b), max(a, b)
        for policy in POLICIES:
            out = adjust(Interval(lo, hi), LIKERT, policy)
            assert (out.lo, out.hi) == (lo, hi)

    @given(st.floats(1, 5), st.floats(1, 5))
    def test_containment_ordering(self, a, b):
        lo, hi = min(a, b), max(a, b)
        iv = Interval(lo, hi)
        shrunk = adjust(iv, LIKERT, AdjustmentPolicy(SHRINK))
        expanded = adjust(iv, LIKERT, AdjustmentPolicy(EXPAND))
        if not shrunk.empty:
            assert shrunk.lo >= lo - 1e-9 and shrunk.hi <= hi + 1e-9
        assert expanded.lo <= lo + 1e-9 and expanded.hi >= hi + -1e-9

    @given(st.floats(1, 5), st.floats(1, 5))
    def test_nearest_zero_is_identity(self, a, b):
        lo, hi = min(a, b), max(a, b)
        out = adjust(Interval(lo, hi), LIKERT, AdjustmentPolicy(NEAREST, 0.0))
        assert out.lo == pytest.approx(lo, abs=1e-9)
        assert out.hi == pytest.approx(hi, abs=1e-9)

    @given(st.floats(1, 5), st.floats(1, 5))
    def test_nearest_full_lands_on_grid(self, a, b):
        lo, hi = min(a, b), max(a, b)
        out = adjust(Interval(lo, hi), THIRDS, AdjustmentPolicy.full(THIRDS))
        assert THIRDS.on_grid(out.lo) and THIRDS.on_grid(out.hi)

    @pytest.mark.parametrize("scale", [LIKERT, THIRDS])
    def test_coverage_never_decreases_on_grid_labels(self, scale):
        # per-label counting: expand/nearest add labels, shrink removes
        # only label-free margins
        rng = np.random.default_rng(42)
        labels = scale.labels()
        for _ in range(500):
            lo, hi = np.sort(rng.uniform(1, 5, size=2))
            iv = Interval(float(lo), float(hi))
            base = {y for y in labels if iv.covers(y)}
            for policy in (AdjustmentPolicy(EXPAND), AdjustmentPolicy.full(scale),
                           AdjustmentPolicy(NEAREST, scale.step / 5)):
                out = adjust(iv, scale, policy)
                after = {y for y in labels if out.covers(y)}
                assert base <= after
            shrunk = adjust(iv, scale, AdjustmentPolicy(SHRINK))
            after = {y for y in labels if shrunk.covers(y)}
            assert after == base


def endpoints(scale):
    """Grid points, points within and just past _FP_TOL of them (in fine-grid
    units), points anywhere between, and the scale ends (offsets are
    clamped into the range)."""
    near = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 3.0, -3.0]).map(lambda t: t * _FP_TOL)
    offset = near | st.floats(-0.5, 0.5)
    return st.builds(lambda k, o: min(max(scale.min + (k + o) * scale.step, scale.min), scale.max),
                     st.integers(0, scale.n_labels - 1), offset)


def same_bits(got: Interval, want: Interval) -> bool:
    if got.empty or want.empty:
        return got.empty == want.empty
    return np.array([got.lo, got.hi]).tobytes() == np.array([want.lo, want.hi]).tobytes()


class TestBatchAdjustment:
    @pytest.mark.parametrize("scale", [LIKERT, THIRDS])
    @given(data=st.data())
    def test_equals_scalar_adjust_row_by_row(self, scale, data):
        pairs = data.draw(st.lists(st.tuples(endpoints(scale), endpoints(scale)), min_size=1, max_size=20))
        batch = Intervals([min(p) for p in pairs], [max(p) for p in pairs])
        for policy in (AdjustmentPolicy(SHRINK), AdjustmentPolicy(EXPAND), AdjustmentPolicy.full(scale),
                       AdjustmentPolicy(NEAREST, scale.step / 5), AdjustmentPolicy(NEAREST, 0.0)):
            out = adjust_all(batch, scale, policy)
            assert len(out) == len(batch)
            for got, iv in zip(out, batch):
                assert same_bits(got, adjust(iv, scale, policy)), (policy, iv, got)

    @pytest.mark.parametrize("scale", [LIKERT, THIRDS])
    def test_shrink_empties_the_same_rows(self, scale):
        rng = np.random.default_rng(4)
        lo = rng.uniform(1, 5, size=2000)
        batch = Intervals(lo, np.minimum(lo + rng.uniform(0, 2 * scale.step, size=2000), 5.0))
        out = adjust_all(batch, scale, AdjustmentPolicy(SHRINK))
        expected = [adjust(iv, scale, AdjustmentPolicy(SHRINK)) for iv in batch]
        assert 100 < out.empty.sum() < 1900
        np.testing.assert_array_equal(out.empty, [iv.empty for iv in expected])
        assert np.isnan(out.lo[out.empty]).all() and np.isnan(out.hi[out.empty]).all()
        assert all(same_bits(got, want) for got, want in zip(out, expected))

    def test_lambda_cap(self):
        with pytest.raises(ValidationError, match="step/2"):
            adjust_all(Intervals([2.0], [3.0]), LIKERT, AdjustmentPolicy(NEAREST, 0.6))
