"""Scaled cumulant-generating function, rate function, and their symmetries."""

import dataclasses
import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from epr_ldp.cramer import (
    cramer,
    cramer_curve,
    cramer_domain,
    legendre_oracle,
    rate,
    symmetry_residuals,
)
from epr_ldp.errors import DomainError, EprLdpError, ReversibilityError
from epr_ldp.model import (Spectrum, SystemSpec, magnetic_example, mean_epr, spectral_decompose,
                           validate_system)
from epr_ldp.testing import random_system

SQRT2 = math.sqrt(2.0)
# the module itself: the package's `cramer` attribute is the function
cramer_module = importlib.import_module("epr_ldp.cramer")


def slope(lam, spectrum):
    """Lambda'(lam) from a one-point curve."""
    return float(cramer_curve(spectrum, [lam], with_derivative=True).derivative[0])


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
        assert slope(-0.5, pi4_spectrum) == pytest.approx(0.0, abs=1e-12)

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
        assert slope(0.0, pi4_spectrum) == pytest.approx(
            mean_epr(pi4_spectrum), rel=1e-12
        )

    def test_derivative_matches_finite_difference(self, pi4_spectrum):
        h = 1e-6
        fd = (cramer(0.1 + h, pi4_spectrum) - cramer(0.1 - h, pi4_spectrum)) / (2 * h)
        assert slope(0.1, pi4_spectrum) == pytest.approx(fd, rel=1e-7)

    def test_derivative_undefined_at_endpoints(self, pi4_spectrum):
        dom = cramer_domain(pi4_spectrum)
        slopes = [slope(lam, pi4_spectrum) for lam in (dom.a, dom.b, dom.b + 0.5)]
        assert slopes[:2] == [-math.inf, math.inf]
        assert math.isnan(slopes[2])

    def test_steepness_toward_endpoint(self, pi4_spectrum):
        # the slope blows up like an inverse square root approaching b
        dom = cramer_domain(pi4_spectrum)
        slopes = [slope(dom.b - 10.0**-k, pi4_spectrum) for k in (4, 6, 8)]
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
        for lam, value in zip(grid[1:-1].tolist(), curve.derivative[1:-1]):
            # the closed form on Python floats, one channel at a time
            ell = 4.0 * lam * (1.0 + lam)
            scalar = (1.0 + 2.0 * lam) * math.fsum(
                b * b / math.sqrt(a * a - ell * b * b) for a, b in sp.pairs if b != 0.0)
            assert abs(value - scalar) <= 1e-14 * abs(scalar)

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

    @pytest.mark.filterwarnings("error")
    def test_mean_of_a_scaled_drift(self):
        # |A| ~ 1e20: at the mean EPR, I = lambda x + F cancels to rounding
        # of order 1e4, far inside a gate relative to the terms that cancel
        for k in range(6):
            spec = random_system(np.random.default_rng(k), 2 + k % 5,
                                 ("identity", "scalar", "poly")[k % 3])
            sp = spectral_decompose(SystemSpec(1e20 * spec.A, spec.Q))
            assert 0.0 <= rate(mean_epr(sp), sp).I <= 1e-12 * mean_epr(sp)

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

    def test_batch_residual_is_the_single_level_maximum(self, pi4_spectrum):
        for sp in (pi4_spectrum, random_spectrum(5, d=6)):
            mbar = mean_epr(sp)
            xs = np.linspace(-3.0 * mbar, 3.0 * mbar, 31)
            _, res_rate = symmetry_residuals(sp, [], xs)
            assert res_rate == max(abs(rate(float(x), sp).I - rate(float(-x), sp).I + x)
                                   for x in xs)

    def test_nan_level_rejected(self, pi4_spectrum):
        with pytest.raises(DomainError):
            rate(math.nan, pi4_spectrum)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [math.inf, -math.inf, "a", "1.0", None, [1.0]])
    def test_bad_level_rejected_without_warning(self, pi4_spectrum, x):
        # inf once reached the Newton solve (divide-by-zero warning, then a
        # NumericError on a nan residual); a string escaped as a raw ValueError
        with pytest.raises(DomainError):
            rate(x, pi4_spectrum)
        if isinstance(x, float):  # the batch path shares the finiteness check
            with pytest.raises(DomainError):
                symmetry_residuals(pi4_spectrum, [], [1.0, x])

    def test_nan_lambda_rejected_by_cramer(self, pi4_spectrum):
        with pytest.raises(DomainError):
            cramer(math.nan, pi4_spectrum)

    def test_nan_lambda_rejected_by_cramer_curve(self, pi4_spectrum):
        with pytest.raises(DomainError):
            cramer_curve(pi4_spectrum, [0.1, math.nan], with_derivative=True)

    def test_nan_level_rejected_by_legendre_oracle(self, pi4_spectrum):
        with pytest.raises(DomainError):
            legendre_oracle(math.nan, pi4_spectrum)


def _huge_level_systems():
    yield "pi4", magnetic_example(math.pi / 4)
    for sign in (1.0, -1.0):
        yield f"edge{sign:+.0f}", magnetic_example(sign * (math.pi / 2 - 1e-7))
    for d in range(2, 9):
        yield f"d{d}", random_system(np.random.default_rng(1300 + d), d, "identity")


class TestHugeLevels:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, spec", list(_huge_level_systems()),
                             ids=[n for n, _ in _huge_level_systems()])
    def test_value_or_domain_error(self, name, spec):
        # |x| up to the double range: ell0 approaches m far below one ulp of
        # ell, so the bracket is carried as m - ell; where beta^2 (m - ell)
        # underflows the level raises DomainError, and no raw error escapes
        sp = spectral_decompose(spec)
        dom = cramer_domain(sp)
        for x in np.geomspace(1e-300, 1.7e308, 60):
            for level in (float(x), float(-x)):
                try:
                    I = rate(level, sp).I
                except EprLdpError as exc:
                    assert isinstance(exc, DomainError) and abs(level) > 1e150, (level, exc)
                    continue
                assert math.isfinite(I) and I >= 0.0
                if abs(level) >= 1e20:  # I(x) / |x| tends to b as x -> inf, 1 + b as x -> -inf
                    slope = dom.b if level > 0 else 1.0 + dom.b
                    assert I / abs(level) == pytest.approx(slope, rel=1e-6)


    @pytest.mark.filterwarnings("error")
    def test_tiny_level_of_a_huge_drift(self):
        # (x / |x|(ell = (m-1)/2))^2 underflows, so the logit start sits at ell = -1
        sp = spectral_decompose(SystemSpec(5e149 * np.array([[-1.0, 1.0], [-1.0, -1.0]])))
        for x in (1.1e-12, -1.1e-12, 1e-5):
            try:
                assert rate(x, sp).I >= 0.0
            except EprLdpError:
                pass


    @pytest.mark.filterwarnings("error")
    def test_level_below_the_scale_of_a_huge_drift(self):
        # levels within 1e-12 of the level scale (~1e150 here) are x = 0
        sp = spectral_decompose(SystemSpec(5e149 * np.array([[-1.0, 1.0], [-1.0, -1.0]])))
        at_zero = rate(0.0, sp).I
        for x in (1.1e-12, -1.1e-12, 1e-5, 1e130):
            assert rate(x, sp).I == pytest.approx(at_zero, rel=1e-12)


class TestSolverCost:
    @staticmethod
    def _systems():
        for theta in (-1.4, -0.9, -0.3, 0.2, 0.785, 1.1, 1.45,
                      math.pi / 2 - 0.01, -(math.pi / 2 - 0.01)):
            yield magnetic_example(theta)
        yield magnetic_example(0.6, extended=True)
        rng = np.random.default_rng(7)
        for d in range(2, 9):
            for style in ("identity", "scalar", "poly"):
                yield random_system(rng, d, style)

    def test_level_evaluations_per_solve(self, monkeypatch):
        # ldp_curves' 31-level grid: the logit Newton needs about 4 level
        # evaluations per solve (bracket, iterations and the final residual)
        calls = []
        level = cramer_module._level
        monkeypatch.setattr(cramer_module, "_level", lambda *a: calls.append(1) or level(*a))
        worst = 0
        for spec in self._systems():
            sp = spectral_decompose(spec)
            cramer_domain(sp)  # the per-spectrum constants evaluate two levels
            mbar = mean_epr(sp)
            for x in np.linspace(-3.0 * mbar, 3.0 * mbar, 31):
                calls.clear()
                rate(float(x), sp)
                worst = max(worst, len(calls))
        assert worst <= 12

    def test_golden_section_stops_when_the_bracket_stops_shrinking(self, monkeypatch):
        # one F evaluation per Brent step.  At theta = pi/2 - 1e-7 (m = 1e-14)
        # the optimum sits ~1e-15 from an end of a 1/64-wide grid cell, which
        # the golden steps walk down to; a tolerance below the float spacing
        # there ran into the 100-step cap
        calls = []
        F = cramer_module._F_at
        monkeypatch.setattr(cramer_module, "_F_at", lambda *a: calls.append(1) or F(*a))
        edge = math.pi / 2 - 1e-7
        counts = []
        for spec in (*self._systems(), magnetic_example(edge), magnetic_example(-edge)):
            sp = spectral_decompose(spec)
            mbar = mean_epr(sp)
            for x in [*np.linspace(-3.0 * mbar, 3.0 * mbar, 31)[3::6], -10.0 * mbar, 10.0 * mbar]:
                calls.clear()
                legendre_oracle(float(x), sp)
                counts.append(len(calls))
        assert max(counts) <= 90


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


class TestLegendreIndependence:
    # values of an earlier, independent search: a 2001-point grid polished by
    # golden section; levels are in units of the mean EPR except on pi4
    PINNED = [
        ("pi4", -2.0 * SQRT2, 2.943174758686337), ("pi4", -1.0, 1.0176380902050413),
        ("pi4", 0.0, 0.2928932188134523), ("pi4", 0.5, 0.10355339059327359),
        ("pi4", SQRT2, 2.7564544827791633e-17), ("pi4", 3.0, 0.1381010987251674),
        ("d5", -2.0, 10.799508830289241), ("d5", -0.5, 2.789230402957668),
        ("d5", 1.5, 0.07020497950456711),
        ("edge", -1.5, 29999999.964114033), ("edge", 2.0, 2.5000000029904596e-08),
    ]

    def test_agrees_without_the_ell0_solver(self, pi4_spectrum, monkeypatch):
        spectra = {"pi4": pi4_spectrum, "d5": random_spectrum(20260823, d=5),
                   "edge": spectral_decompose(magnetic_example(math.pi / 2 - 1e-7))}
        for sp in spectra.values():
            cramer_domain(sp)  # the per-spectrum constants evaluate two levels
        scale = {name: 1.0 if name == "pi4" else mean_epr(sp) for name, sp in spectra.items()}

        def refuse(*args):
            raise AssertionError("legendre_oracle called the ell0 solver")

        monkeypatch.setattr(cramer_module, "_solve", refuse)
        monkeypatch.setattr(cramer_module, "_level", refuse)
        for name, k, pinned in self.PINNED:
            searched = legendre_oracle(k * scale[name], spectra[name])
            assert abs(searched - pinned) <= 1e-13 * (1.0 + pinned), (name, k)


_EXTREMES = [s * v for v in (0.0, 1e-300, 1.0, 6e153, 7e153, 1e300, 1.7e308, math.inf)
             for s in (1.0, -1.0)] + [math.nan]
# wrongly typed grids and specs: each must raise EprLdpError, not a raw Python error
_BAD_GRIDS = [["a"], [1j], [object()], [[1.0], [1.0, 2.0]], [True], [1.0, None], "abc"]
_BAD_SPECS = ["abc", None, 1.0, [[-1.0]], np.eye(2)]


class TestExtremeArguments:
    @pytest.mark.filterwarnings("error")
    def test_huge_arguments_without_warnings(self):
        sp = spectral_decompose(magnetic_example(0.7))
        for lam in (6e153, 7e153, -7e153, 1e300, math.inf, -math.inf):
            assert cramer(lam, sp) == math.inf
            for with_derivative in (False, True):
                assert cramer_curve(sp, [lam, 0.1], with_derivative).values[0] == math.inf
        assert symmetry_residuals(sp, [math.inf, -math.inf, 7e153], []) == (0.0, 0.0)
        assert legendre_oracle(1.7e308, sp) == pytest.approx(cramer_domain(sp).b * 1.7e308,
                                                             rel=1e-15)
        assert legendre_oracle(-1.7e308, sp) == math.inf

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 6),
        style=st.sampled_from(["identity", "scalar", "poly"]),
        lam=st.sampled_from(_EXTREMES),
        x=st.sampled_from(_EXTREMES),
        bad_grid=st.sampled_from(_BAD_GRIDS),
        bad_spec=st.sampled_from(_BAD_SPECS),
    )
    def test_property_value_or_library_error(self, seed, d, style, lam, x, bad_grid, bad_spec):
        # each public evaluation returns a NaN-free value or raises EprLdpError;
        # any warning is an error (set in the body: hypothesis warns on its own)
        sp = spectral_decompose(random_system(np.random.default_rng(seed), d, style))
        dom = cramer_domain(sp)
        calls = [
            lambda: [cramer(lam, sp)],
            lambda: cramer_curve(sp, [lam]).values,
            lambda: dataclasses.astuple(rate(x, sp)),
            lambda: [legendre_oracle(x, sp)],
            lambda: symmetry_residuals(sp, [lam], [x]),
            lambda: symmetry_residuals(sp, [[lam]], [[x, -x]]),  # grids read flat
            lambda: cramer_curve(sp, bad_grid, with_derivative=True).values,
            lambda: symmetry_residuals(sp, bad_grid, []),
            lambda: symmetry_residuals(sp, [], bad_grid),
            lambda: [spectral_decompose(bad_spec).dim],
            lambda: [validate_system(bad_spec).passed],
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                try:
                    out = call()
                except EprLdpError:
                    continue
                assert not np.isnan(out).any()
            try:
                slope = cramer_curve(sp, [lam], with_derivative=True).derivative[0]
            except EprLdpError:
                return
        # the documented NaN of Lambda' is outside [a, b] only
        assert math.isnan(slope) == (not dom.a <= lam <= dom.b)


class TestPairFolding:
    """The long-run layer keeps one row per conjugate pair and counts it
    twice.  The reference below runs the same solver and grids with every
    entry of ``sp.pairs`` as its own row and the unfolded sums 1/2 sum_k
    over all of them: on a spectrum whose betas are made positive no member
    is dropped, and ``_level``, ``_F_at`` and ``_F`` are replaced by the
    all-channel sums."""

    @staticmethod
    def _level_all(ch, w, v):
        S = D = 0.0
        for gap, b2 in ch.pairs:
            r = gap + v * b2
            q = b2 / math.sqrt(r)
            S += q
            D += q * (v * b2 / r)
        return math.sqrt(w) * S, S, D

    @staticmethod
    def _F_at_all(ch, v):
        return 0.5 * (sum(math.sqrt(gap + v * b2) for gap, b2 in ch.pairs) + ch.alpha_sum)

    @staticmethod
    def _F_all(ch, roots):
        return 0.5 * (roots.sum(axis=-1) + ch.alpha_sum)

    @staticmethod
    def _evaluate(sp):
        dom = cramer_domain(sp)
        lams = np.linspace(dom.a, dom.b, 41)
        mbar = mean_epr(sp)
        xs = [float(x) for x in np.linspace(-3.0 * mbar, 3.0 * mbar, 13)] + [10.0 * mbar]
        curve = cramer_curve(sp, lams, with_derivative=True)
        return {
            "cramer": [cramer(float(l), sp) for l in lams[::5]],
            "values": curve.values.tolist(),
            "rate": [dataclasses.astuple(rate(x, sp))[1:3] for x in xs],
            "legendre": [legendre_oracle(x, sp) for x in xs[1::3]],
            "symmetry": list(symmetry_residuals(sp, lams, xs)),
        }, curve.derivative

    def _reference(self, sp, monkeypatch):
        unfolded = Spectrum(pairs=tuple((a, abs(b)) for a, b in sp.pairs), vectors=sp.vectors)
        with monkeypatch.context() as mp:
            mp.setattr(cramer_module, "_level", self._level_all)
            mp.setattr(cramer_module, "_F_at", self._F_at_all)
            mp.setattr(cramer_module, "_F", self._F_all)
            values, _ = self._evaluate(unfolded)
        ch = cramer_module._channels(unfolded)
        lams = np.linspace(ch.dom.a, ch.dom.b, 41)[1:-1]
        roots = cramer_module._cramer_values(ch, lams)[1]
        return values, (1.0 + 2.0 * lams) * (ch.beta2 / roots).sum(axis=-1)

    @staticmethod
    def _single_pair_systems():
        for theta in (-1.4, -0.3, 0.785, 1.45, math.pi / 2 - 1e-7):
            yield magnetic_example(theta)
            yield magnetic_example(theta, extended=True)
        rng = np.random.default_rng(25)
        for d in (2, 3):
            for style in ("identity", "scalar", "poly"):
                yield random_system(rng, d, style)

    def test_single_pair_bit_identical_to_all_channel_sums(self, monkeypatch):
        for spec in self._single_pair_systems():
            sp = spectral_decompose(spec)
            assert sum(b > 0.0 for _, b in sp.pairs) == 1
            folded, slope_folded = self._evaluate(sp)
            reference, slope_reference = self._reference(sp, monkeypatch)
            assert folded == reference
            assert np.array_equal(slope_folded[1:-1], slope_reference)

    @pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
    def test_many_pairs_agree_with_all_channel_sums(self, d, monkeypatch):
        rng = np.random.default_rng(2500 + d)
        for style in ("identity", "scalar", "poly"):
            sp = spectral_decompose(random_system(rng, d, style))
            folded, slope_folded = self._evaluate(sp)
            reference, slope_reference = self._reference(sp, monkeypatch)
            for key in folded:
                got, want = np.array(folded[key]), np.array(reference[key])
                assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + np.abs(want))), key
            got = slope_folded[1:-1]
            assert np.all(np.abs(got - slope_reference) <= 1e-14 * (1.0 + np.abs(slope_reference)))

    def test_symmetry_residual_is_the_rate_difference(self):
        for spec in (magnetic_example(0.6), magnetic_example(-1.2, extended=True),
                     random_system(np.random.default_rng(3), 6, "poly")):
            sp = spectral_decompose(spec)
            mbar = mean_epr(sp)
            xs = [float(x) for x in np.linspace(-3.0 * mbar, 3.0 * mbar, 31)]
            worst = max(abs(rate(x, sp).I - rate(-x, sp).I + x) for x in xs)
            assert symmetry_residuals(sp, [], xs) == (0.0, worst)

    def test_symmetry_residuals_solve_each_level_once(self, monkeypatch):
        sp = spectral_decompose(random_system(np.random.default_rng(5), 5, "scalar"))
        cramer_domain(sp)  # the per-spectrum constants evaluate two levels
        calls = []
        level = cramer_module._level
        monkeypatch.setattr(cramer_module, "_level", lambda *a: calls.append(1) or level(*a))
        mbar = mean_epr(sp)
        for x in (0.3 * mbar, -1.7 * mbar, 2.9 * mbar):
            calls.clear()
            rate(x, sp)
            per_rate = len(calls)
            calls.clear()
            symmetry_residuals(sp, [], [x])
            assert len(calls) == per_rate > 0

    def test_legendre_grid_is_linspace(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = 10.0 ** rng.uniform(-14, 8)
            b = 0.5 * m / (1.0 + math.sqrt(1.0 + m))
            a = -1.0 - b
            grid = a + (b - a) * cramer_module._LEGENDRE_STEPS
            grid[-1] = b
            assert np.array_equal(grid, np.linspace(a, b, cramer_module._LEGENDRE_GRID))


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
