"""Tests for the smooth activation primitives."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import physics


class TestExpit:
    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(0)
        x = np.concatenate([
            rng.uniform(-1e3, 1e3, 200_000),
            rng.uniform(-20.0, 20.0, 200_000),
        ])
        # Both compute 1 / (1 + exp(-x)).  numpy's exp may differ from
        # the C library's by one ULP, which with each side's two
        # roundings bounds the results' gap at 6 ULP.
        np.testing.assert_array_max_ulp(
            physics.expit(x), special.expit(x), maxulp=6
        )

    def test_in_place(self):
        x = np.linspace(-5.0, 5.0, 11)
        expected = physics.expit(x)
        assert physics.expit(x, out=x) is x
        assert np.array_equal(x, expected)

    def test_extremes_are_exact_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert physics.logistic10(-1000.0) == 0.0
            assert physics.logistic10(1000.0) == 1.0
            assert np.array_equal(
                physics.expit(np.array([-1e3, 0.0, 1e3])), [0.0, 0.5, 1.0]
            )

    def test_float_in_scalar_out(self):
        for y in (physics.expit(0.25), physics.logistic10(0.25)):
            assert isinstance(y, float)
            assert np.ndim(y) == 0 and not isinstance(y, np.ndarray)


class TestLogistic10:
    def test_midpoint(self):
        assert physics.logistic10(0.0) == pytest.approx(0.5)

    def test_decade_slope_below(self):
        # One unit down -> one decade of attenuation (asymptotically).
        lo = physics.logistic10(-6.0)
        lower = physics.logistic10(-7.0)
        assert lo / lower == pytest.approx(10.0, rel=1e-3)

    def test_saturates_to_one(self):
        assert physics.logistic10(10.0) == pytest.approx(1.0, abs=1e-9)

    def test_no_overflow_at_extremes(self):
        assert physics.logistic10(-1000.0) >= 0.0
        assert physics.logistic10(1000.0) <= 1.0

    def test_vectorised(self):
        x = np.array([-1.0, 0.0, 1.0])
        y = physics.logistic10(x)
        assert y.shape == (3,)
        assert np.all(np.diff(y) > 0)


class TestActivations:
    @given(st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=50)
    def test_n_p_mirror_symmetry(self, v):
        """p_activation(v) == n_activation(-v) for the same thresholds."""
        n = float(physics.n_activation(-v, 0.4, 0.1))
        p = float(physics.p_activation(v, 0.4, 0.1))
        assert n == pytest.approx(p, rel=1e-9)

    def test_n_activation_monotonic(self):
        v = np.linspace(-1.0, 2.0, 101)
        a = physics.n_activation(v, 0.4, 0.1)
        assert np.all(np.diff(a) > 0)

    def test_p_activation_monotonic_decreasing(self):
        v = np.linspace(-1.0, 2.0, 101)
        a = physics.p_activation(v, 0.4, 0.1)
        assert np.all(np.diff(a) < 0)

    def test_threshold_is_half_activation(self):
        assert float(physics.n_activation(0.4, 0.4, 0.1)) == pytest.approx(
            0.5
        )


class TestSeriesActivation:
    def test_all_ones_gives_one(self):
        assert physics.series_activation(1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_limited_by_weakest(self):
        g = physics.series_activation(1e-6, 1.0, 1.0)
        assert g == pytest.approx(3e-6, rel=1e-3)

    @given(
        st.floats(min_value=1e-12, max_value=1.0),
        st.floats(min_value=1e-12, max_value=1.0),
        st.floats(min_value=1e-12, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_bounded_by_min_segment(self, a, b, c):
        g = float(physics.series_activation(a, b, c))
        assert g <= 3 * min(a, b, c) + 1e-15
        assert g > 0

    def test_order_invariance(self):
        assert physics.series_activation(0.1, 0.5, 0.9) == pytest.approx(
            physics.series_activation(0.9, 0.1, 0.5)
        )

    def test_requires_segments(self):
        with pytest.raises(ValueError):
            physics.series_activation()


class TestSmoothPositive:
    def test_positive_passthrough(self):
        assert physics.smooth_positive(1.0) == pytest.approx(1.0, rel=1e-6)

    def test_negative_clamped(self):
        assert physics.smooth_positive(-1.0) == pytest.approx(0.0, abs=1e-6)

    @given(st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=50)
    def test_nonnegative_and_above_x(self, x):
        y = float(physics.smooth_positive(x))
        assert y >= 0.0
        assert y >= x - 1e-12

    def test_smooth_at_zero(self):
        # Derivative approx 0.5 at x=0 (no kink).
        h = 1e-7
        d = (
            physics.smooth_positive(h) - physics.smooth_positive(-h)
        ) / (2 * h)
        assert d == pytest.approx(0.5, abs=0.01)


class TestSaturationFactor:
    def test_zero_at_zero(self):
        assert physics.saturation_factor(0.0, 0.35, 9.0) == pytest.approx(0.0)

    def test_monotonic(self):
        v = np.linspace(0, 2, 50)
        f = physics.saturation_factor(v, 0.35, 9.0)
        assert np.all(np.diff(f) > 0)

    def test_linear_region(self):
        # Small vds: f ~ vds/v_dsat.
        f = float(physics.saturation_factor(0.01, 0.35, 9.0))
        assert f == pytest.approx(0.01 / 0.35, rel=0.01)


class TestDecades:
    def test_value(self):
        assert physics.decades(1000.0) == pytest.approx(3.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            physics.decades(0.0)
