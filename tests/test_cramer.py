"""Scaled cumulant-generating function, rate function, and their symmetries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from epr_ldp.cramer import (
    cramer,
    cramer_curve,
    cramer_derivative,
    cramer_domain,
    legendre_oracle,
    rate,
    symmetry_residuals,
)
from epr_ldp.errors import DomainError, ReversibilityError
from epr_ldp.model import SystemSpec, magnetic_example, mean_epr, spectral_decompose
from epr_ldp.testing import random_system

SQRT2 = math.sqrt(2.0)


def random_spectrum(seed, d=4):
    spec = random_system(np.random.default_rng(seed), d, "identity")
    return spectral_decompose(spec)


class TestDomain:
    def test_magnetic_interval(self, pi4_spectrum):
        dom = cramer_domain(pi4_spectrum)
        assert dom.m == pytest.approx(1.0, abs=1e-12)
        assert dom.a == pytest.approx(-(1.0 + SQRT2) / 2.0, rel=1e-14)
        assert dom.b == pytest.approx(SQRT2 / 2.0 - 0.5, rel=1e-13)
        assert dom.a + dom.b == pytest.approx(-1.0, abs=1e-12)

    def test_reversible_spectrum_rejected(self):
        sp = spectral_decompose(random_system(np.random.default_rng(3), 2, "identity"))
        flat = type(sp)(pairs=((-1.0, 0.0), (-2.0, 0.0)), vectors=np.eye(2, dtype=complex))
        with pytest.raises(ReversibilityError):
            cramer_domain(flat)
        with pytest.raises(ReversibilityError):
            cramer(0.1, flat)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6))
    def test_property_interval_centered(self, seed, d):
        sp = random_spectrum(seed, d)
        dom = cramer_domain(sp)
        assert dom.a + dom.b == pytest.approx(-1.0, abs=1e-12)
        assert dom.a < -0.5 < dom.b
        assert dom.m > 0


class TestCramerValues:
    def test_interior_closed_form(self, pi4_spectrum):
        # ell(0.1) = 0.44, radicand 0.5 - 0.22 = 0.28 per channel
        expected = SQRT2 / 2.0 - math.sqrt(0.28)
        assert cramer(0.1, pi4_spectrum) == pytest.approx(expected, rel=1e-13)
        assert cramer(0.1, pi4_spectrum) == pytest.approx(0.1779565189736293, rel=1e-13)

    def test_zeros(self, pi4_spectrum):
        assert cramer(0.0, pi4_spectrum) == 0.0
        assert cramer(-1.0, pi4_spectrum) == pytest.approx(0.0, abs=1e-14)

    def test_minimum_at_center(self, pi4_spectrum):
        assert cramer(-0.5, pi4_spectrum) == pytest.approx(-(1.0 - SQRT2 / 2.0), rel=1e-13)
        assert cramer_derivative(-0.5, pi4_spectrum) == pytest.approx(0.0, abs=1e-12)

    def test_endpoints_finite_and_equal(self, pi4_spectrum):
        dom = cramer_domain(pi4_spectrum)
        va, vb = cramer(dom.a, pi4_spectrum), cramer(dom.b, pi4_spectrum)
        assert va == vb == pytest.approx(SQRT2 / 2.0, rel=1e-14)

    def test_infinite_outside(self, pi4_spectrum):
        dom = cramer_domain(pi4_spectrum)
        assert cramer(dom.b + 1e-9, pi4_spectrum) == math.inf
        assert cramer(dom.a - 1e-9, pi4_spectrum) == math.inf
        assert cramer(5.0, pi4_spectrum) == math.inf

    def test_slope_at_zero_is_mean(self, pi4_spectrum):
        assert cramer_derivative(0.0, pi4_spectrum) == pytest.approx(
            mean_epr(pi4_spectrum), rel=1e-12
        )

    def test_derivative_matches_finite_difference(self, pi4_spectrum):
        h = 1e-6
        fd = (cramer(0.1 + h, pi4_spectrum) - cramer(0.1 - h, pi4_spectrum)) / (2 * h)
        assert cramer_derivative(0.1, pi4_spectrum) == pytest.approx(fd, rel=1e-7)

    def test_derivative_undefined_at_endpoints(self, pi4_spectrum):
        dom = cramer_domain(pi4_spectrum)
        for lam in (dom.a, dom.b, dom.b + 0.5):
            with pytest.raises(DomainError):
                cramer_derivative(lam, pi4_spectrum)

    def test_steepness_toward_endpoint(self, pi4_spectrum):
        # the slope blows up like an inverse square root approaching b
        dom = cramer_domain(pi4_spectrum)
        slopes = [cramer_derivative(dom.b - 10.0**-k, pi4_spectrum) for k in (4, 6, 8)]
        assert slopes[1] >= 2.0 * slopes[0]
        assert slopes[2] >= 2.0 * slopes[1]


class TestCramerCurve:
    def test_values_and_derivative_policy(self, pi4_spectrum):
        dom = cramer_domain(pi4_spectrum)
        grid = [dom.a - 0.1, dom.a, -0.5, dom.b, dom.b + 0.1]
        curve = cramer_curve(pi4_spectrum, grid, with_derivative=True)
        assert curve.values[0] == math.inf and curve.values[-1] == math.inf
        assert math.isfinite(curve.values[1]) and math.isfinite(curve.values[3])
        assert math.isnan(curve.derivative[0]) and math.isnan(curve.derivative[-1])
        assert curve.derivative[1] == -math.inf
        assert curve.derivative[3] == math.inf
        assert curve.derivative[2] == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8))
    def test_array_derivative_matches_scalar(self, seed, d):
        sp = random_spectrum(seed, d)
        dom = cramer_domain(sp)
        grid = np.linspace(dom.a, dom.b, 41)
        curve = cramer_curve(sp, grid, with_derivative=True)
        for lam, slope in zip(grid[1:-1], curve.derivative[1:-1]):
            scalar = cramer_derivative(float(lam), sp)
            assert abs(slope - scalar) <= 1e-14 * abs(scalar)

    def test_without_derivative(self, pi4_spectrum):
        curve = cramer_curve(pi4_spectrum, [0.0, 0.1])
        assert curve.derivative is None
        assert curve.values[0] == 0.0


class TestParametricForms:
    def test_f_anchors(self, pi4_spectrum):
        # F(ell) = -Lambda(lambda) at ell = 4 lambda (1 + lambda): ell = 0, -1
        # and m are lambda = 0, -1/2 and b
        assert cramer(0.0, pi4_spectrum) == 0.0
        assert cramer(-0.5, pi4_spectrum) == pytest.approx(SQRT2 / 2.0 - 1.0, rel=1e-13)
        dom = cramer_domain(pi4_spectrum)
        # at the right edge the radicands clamp to zero, leaving the alpha sum
        assert cramer(dom.b, pi4_spectrum) == pytest.approx(SQRT2 / 2.0, rel=1e-14)
        # ell = m + 1e-6 lies past b, where Lambda is infinite
        assert cramer(-0.5 + 0.5 * math.sqrt(1.0 + dom.m + 1e-6), pi4_spectrum) == math.inf


class TestRate:
    def test_zero_level(self, pi4_spectrum):
        pt = rate(0.0, pi4_spectrum)
        assert pt.ell0 == pytest.approx(-1.0, abs=1e-9)
        assert pt.I == pytest.approx(1.0 - SQRT2 / 2.0, rel=1e-10)

    def test_vanishes_at_mean(self, pi4_spectrum):
        pt = rate(SQRT2, pi4_spectrum)
        assert abs(pt.ell0) <= 1e-9
        assert pt.I <= 1e-12

    def test_known_parameter_root(self, pi4_spectrum):
        pt = rate(2.0 * SQRT2, pi4_spectrum)
        assert pt.ell0 == pytest.approx(0.6, abs=1e-9)
        # lambda(0.6) x + F(0.6), with alpha_k^2 = beta_k^2 = 1/2 on both channels
        lam = (math.sqrt(1.6) - 1.0) / 2.0
        expected = lam * 2.0 * SQRT2 + math.sqrt(0.5 - 0.6 * 0.5) - SQRT2 / 2.0
        assert pt.I == pytest.approx(expected, rel=1e-9)
        assert pt.residual <= 1e-9

    def test_negative_levels_use_lower_branch(self, pi4_spectrum):
        pt = rate(-SQRT2, pi4_spectrum)
        assert pt.I == pytest.approx(SQRT2, rel=1e-9)
        # same parameter root as the mirrored level
        assert pt.ell0 == pytest.approx(rate(SQRT2, pi4_spectrum).ell0, abs=1e-8)

    def test_fluctuation_relation_on_grid(self, pi4_spectrum):
        for x in np.linspace(-3.0 * SQRT2, 3.0 * SQRT2, 25):
            forward = rate(float(x), pi4_spectrum).I
            backward = rate(float(-x), pi4_spectrum).I
            assert forward - backward + x == pytest.approx(0.0, abs=1e-9)

    def test_symmetry_residuals_helper(self, pi4_spectrum):
        dom = cramer_domain(pi4_spectrum)
        res_lambda, res_rate = symmetry_residuals(
            pi4_spectrum,
            np.linspace(dom.a, dom.b, 101),
            np.linspace(-3.0 * SQRT2, 3.0 * SQRT2, 41),
        )
        assert res_lambda <= 1e-13
        assert res_rate <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5))
    def test_property_rate_nonnegative_zero_at_mean(self, seed, d):
        sp = random_spectrum(seed, d)
        if not sp.has_rotation:
            return
        mbar = mean_epr(sp)
        assert rate(mbar, sp).I <= 1e-10 * (1.0 + mbar)
        for x in (0.0, 0.5 * mbar, 2.0 * mbar, -mbar):
            assert rate(float(x), sp).I >= -1e-12

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_property_convex_on_interior(self, seed):
        sp = random_spectrum(seed, 4)
        dom = cramer_domain(sp)
        pad = 0.05 * (dom.b - dom.a)
        grid = np.linspace(dom.a + pad, dom.b - pad, 21)
        vals = np.array([cramer(float(l), sp) for l in grid])
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        assert np.min(second) >= -1e-9 * max(1.0, np.max(np.abs(vals)))


def brentq_ell0(x, sp):
    """Test-only reference root of |x| = sqrt(1+ell) sum beta^2 / sqrt(alpha^2 -
    ell beta^2) on [-1, m), bracketed as the library brackets it."""
    rot = sp.betas != 0.0
    a2, b2 = sp.alphas[rot] ** 2, sp.betas[rot] ** 2
    m = float(np.min(a2 / b2))

    def f(ell):
        return math.sqrt(1.0 + ell) * float(np.sum(b2 / np.sqrt(a2 - ell * b2))) - abs(x)

    hi = m * (1.0 - 1e-15)
    while f(hi) < 0.0:
        hi = m - (m - hi) / 16.0
    return brentq(f, -1.0, hi, xtol=1e-300, maxiter=1000)


def assert_matches_reference(x, sp):
    pt = rate(x, sp)
    ref = brentq_ell0(x, sp)
    assert abs(pt.ell0 - ref) <= 1e-12 * (1.0 + abs(pt.ell0))
    assert abs(pt.residual) <= max(1e-12, 1e-9 * max(1.0, abs(x)))


class TestSolverAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 8),
        style=st.sampled_from(["identity", "scalar", "poly"]),
        k=st.floats(-5.0, 5.0),
    )
    def test_property_random_systems(self, seed, d, style, k):
        sp = spectral_decompose(random_system(np.random.default_rng(seed), d, style))
        x = k * mean_epr(sp)
        if abs(x) > 1e-12:
            assert_matches_reference(x, sp)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_narrow_domain(self, sign):
        sp = spectral_decompose(magnetic_example(sign * (math.pi / 2 - 0.01)))
        assert cramer_domain(sp).m < 2e-4
        for k in np.linspace(-5.0, 5.0, 41):
            if k != 0.0:
                assert_matches_reference(float(k * mean_epr(sp)), sp)

    def test_levels_just_past_short_circuit(self, pi4_spectrum):
        for x in (2e-12, -2e-12):
            assert_matches_reference(x, pi4_spectrum)
        assert rate(2e-12, pi4_spectrum).I == pytest.approx(1.0 - SQRT2 / 2.0, rel=1e-10)

    def test_tiny_levels(self, pi4_spectrum):
        # 1+ell0 lies below one ulp of ell here; the old solver raised
        # ZeroDivisionError or failed its residual gate on these levels.
        for x in np.geomspace(1.1e-12, 1e-4, 60):
            assert_matches_reference(float(x), pi4_spectrum)
            assert_matches_reference(float(-x), pi4_spectrum)

    def test_tiny_scale_rate(self):
        # alpha^2 = 1e-14: every radicand lies below the absolute 1e-14 clamp
        # and ell0 ~ 1e-14, so I = lambda x + F must avoid both to stay exact.
        sp = spectral_decompose(magnetic_example(math.pi / 2 - 1e-7))
        a2, b2 = sp.alphas**2, sp.betas**2
        for k in (0.5, 1.5, 2.0, 3.0, -2.0):
            x = k * mean_epr(sp)
            ell = brentq_ell0(x, sp)
            root = math.sqrt(1.0 + ell)
            lam = 0.5 * math.expm1(0.5 * math.log1p(ell)) if x >= 0 else -0.5 * (1.0 + root)
            expected = lam * x + 0.5 * float(np.sum(np.sqrt(a2 - ell * b2) + sp.alphas))
            assert rate(x, sp).I == pytest.approx(expected, rel=1e-6)

    def test_batch_matches_single_levels(self, pi4_spectrum):
        xs = np.linspace(-3.0 * SQRT2, 3.0 * SQRT2, 7)
        _, res_rate = symmetry_residuals(pi4_spectrum, [], xs)
        single = max(abs(rate(float(x), pi4_spectrum).I - rate(float(-x), pi4_spectrum).I + x)
                     for x in xs)
        assert res_rate == pytest.approx(single, abs=1e-13)

    def test_nan_level_rejected(self, pi4_spectrum):
        with pytest.raises(DomainError):
            rate(math.nan, pi4_spectrum)

    def test_nan_lambda_rejected_by_cramer(self, pi4_spectrum):
        with pytest.raises(DomainError):
            cramer(math.nan, pi4_spectrum)

    def test_nan_lambda_rejected_by_cramer_curve(self, pi4_spectrum):
        with pytest.raises(DomainError):
            cramer_curve(pi4_spectrum, [0.1, math.nan], with_derivative=True)

    def test_nan_level_rejected_by_legendre_oracle(self, pi4_spectrum):
        with pytest.raises(DomainError):
            legendre_oracle(math.nan, pi4_spectrum)


class TestLegendreAgreement:
    def test_magnetic_levels(self, pi4_spectrum):
        for x in (0.0, SQRT2, -SQRT2, 2.0 * SQRT2, -2.0, 5.0):
            closed = rate(float(x), pi4_spectrum).I
            searched = legendre_oracle(float(x), pi4_spectrum)
            assert abs(closed - searched) <= 1e-8 * (1.0 + closed)

    def test_random_spectrum_levels(self):
        sp = random_spectrum(20260823, d=5)
        mbar = mean_epr(sp)
        for x in np.linspace(-2.0 * mbar, 2.0 * mbar, 9):
            closed = rate(float(x), sp).I
            searched = legendre_oracle(float(x), sp)
            assert abs(closed - searched) <= 1e-6 * (1.0 + closed)


class TestSmallChannels:
    def test_tiny_alpha_legendre_matches_rate(self):
        # alpha^2 = 1e-14 against beta^2 = 1: every radicand on [0, b] lies
        # below 1e-14, which a clamp floored at unit scale set to 0.
        sp = spectral_decompose(magnetic_example(math.pi / 2 - 1e-7))
        assert cramer(0.0, sp) == 0.0
        for k in (1.5, 2.0):
            x = k * mean_epr(sp)
            closed = rate(x, sp).I
            assert legendre_oracle(x, sp) == pytest.approx(closed, rel=1e-6)

    def test_far_tail_legendre_matches_rate(self):
        # At 10 mean EPR the optimum's radicand alpha^2/100 = 1e-16 lies far
        # below the 1e-15 beta^2 clamp of the lambda coordinates; the oracle
        # works in m - ell, where it is resolved.
        sp = spectral_decompose(magnetic_example(math.pi / 2 - 1e-7))
        x = 10.0 * mean_epr(sp)
        closed = rate(x, sp).I
        assert abs(legendre_oracle(x, sp) - closed) <= 1e-6 * closed

    def test_small_scale_system_scales_lambda(self, pi4_spec):
        # A -> s A scales every channel, hence Lambda, by s.
        s = 1e-7
        sp = spectral_decompose(SystemSpec(s * pi4_spec.A))
        for lam in (-1.1, -0.5, 0.1):
            assert cramer(lam, sp) == pytest.approx(s * cramer(lam, spectral_decompose(pi4_spec)),
                                                    rel=1e-12)


class TestQInvariance:
    def test_identical_curves_across_noise(self):
        # Lambda and I consume only the drift channels, so any commuting SPD
        # noise produces bit-identical values.
        rngs = [np.random.default_rng(99) for _ in range(3)]
        specs = [
            random_system(rng, 4, style)
            for rng, style in zip(rngs, ["identity", "scalar", "poly"])
        ]
        assert all(np.array_equal(specs[0].A, s.A) for s in specs)
        spectra = [spectral_decompose(s) for s in specs]
        lams = np.linspace(-1.2, 0.2, 31)
        base = [cramer(float(l), spectra[0]) for l in lams]
        for sp in spectra[1:]:
            assert [cramer(float(l), sp) for l in lams] == base
