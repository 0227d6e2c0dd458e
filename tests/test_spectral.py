"""Sturm-Liouville roots, kernel spectrum, discretized oracle, trace identities."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from epr_ldp.errors import DomainError
from epr_ldp.model import spectral_decompose
from epr_ldp.spectral import (
    eigenfunction_norm_sq,
    gamma_tail,
    kernel_eval,
    kernel_spectrum,
    log_det_tail,
    nystrom_spectrum,
    omega_roots,
    spectrum_gamma_tail,
    trace_closed_form,
)
from epr_ldp.spectral import _channel_kernel_factors, _gauss_legendre, _nu_partial_sums

# First two roots of omega cos(omega) = -sin(omega) on the positive axis,
# i.e. the alpha = -1, T = 1 frequency equation.
OMEGA_1 = 2.0287578381104343
OMEGA_2 = 4.9131804394348836


def bracket(j, T):
    """Open bracket ((2j-1)pi/2T, (2j+1)pi/2T) of the 1-based root index j."""
    return (2 * j - 1) * math.pi / (2 * T), (2 * j + 1) * math.pi / (2 * T)


def residual_g(omega, alpha, T):
    """|omega cos(omega T) - alpha sin(omega T)|, the backward-stable form."""
    return abs(omega * math.cos(omega * T) - alpha * math.sin(omega * T))


class TestOmegaRoots:
    def test_classic_first_roots(self):
        r = omega_roots(-1.0, 1.0, 5)
        assert r[0] == pytest.approx(OMEGA_1, rel=1e-12)
        assert r[1] == pytest.approx(OMEGA_2, rel=1e-12)

    def test_residuals_small(self):
        alpha, T = -0.7, 2.5
        r = omega_roots(alpha, T, 300)
        for j in (1, 2, 10, 50, 300):
            om = r[j - 1]
            assert residual_g(om, alpha, T) <= 1e-11 * max(1.0, om)
        # the tangent form is well-conditioned only for small j
        for j in (1, 2, 5):
            om = r[j - 1]
            assert abs(om / alpha - math.tan(om * T)) <= 1e-8

    def test_roots_increasing_and_bracketed(self):
        r = omega_roots(-2.0, 1.5, 100)
        assert np.all(np.diff(r) > 0)
        for j in range(1, 101):
            lo, hi = bracket(j, 1.5)
            assert lo < r[j - 1] < hi

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            omega_roots(0.0, 1.0, 5)
        with pytest.raises(DomainError):
            omega_roots(-1.0, 0.0, 5)
        with pytest.raises(DomainError):
            omega_roots(-1.0, 1.0, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(-5.0, -0.05),
        T=st.floats(0.2, 10.0),
    )
    def test_property_bracketed_stable(self, alpha, T):
        r = omega_roots(alpha, T, 50)
        for j in (1, 7, 50):
            lo, hi = bracket(j, T)
            om = r[j - 1]
            assert lo < om < hi
            assert residual_g(om, alpha, T) <= 1e-9 * max(1.0, om)


class TestKernelSpectrum:
    def test_magnetic_top_eigenvalue(self, pi4_spectrum):
        ks = kernel_spectrum(pi4_spectrum, 1.0)
        assert ks.gamma_max == pytest.approx(0.9527307428615568, rel=1e-12)

    def test_classic_top_eigenvalue(self, classic_spectrum):
        ks = kernel_spectrum(classic_spectrum, 1.0)
        assert ks.gamma_max == pytest.approx(1.5637649497190353, rel=1e-12)
        top = ks.descending()[0]
        assert top.omega == pytest.approx(OMEGA_1, rel=1e-12)

    def test_entry_layout(self, pi4_spectrum):
        ks = kernel_spectrum(pi4_spectrum, 1.0, j_max=64)
        assert ks.omega.shape == ks.gamma.shape == ks.phase.shape == (2, 64)
        assert ks.j_max == 64
        assert list(ks.k) == [0, 1]
        records = ks.records()
        assert list(records.k) == [0] * 64 + [1] * 64
        assert list(records.j) == list(range(1, 65)) * 2
        assert np.array_equal(records.gamma, ks.gammas)
        for k in (0, 1):
            alpha, beta = pi4_spectrum.pairs[k]
            for omega, gamma, phase in zip(ks.omega[k], ks.gamma[k], ks.phase[k]):
                assert gamma == pytest.approx(
                    8.0 * beta**2 / (alpha**2 + omega**2), rel=1e-14
                )
                assert phase == pytest.approx(
                    math.atan2(omega, -alpha), rel=1e-14
                )

    def test_descending_sorted(self, pi4_spectrum):
        top = kernel_spectrum(pi4_spectrum, 2.0).descending()
        gammas = [e.gamma for e in top]
        assert gammas == sorted(gammas, reverse=True)
        # conjugate channels tie in gamma and are ordered by (k, j)
        keys = list(zip(-top.gamma, top.k, top.j))
        assert keys == sorted(keys)

    def test_conjugate_channels_share_gammas(self, pi4_spectrum):
        ks = kernel_spectrum(pi4_spectrum, 1.0, j_max=16)
        assert np.array_equal(ks.gamma[0], ks.gamma[1])

    def test_flat_channels_skipped(self):
        from epr_ldp.model import magnetic_example

        sp = spectral_decompose(magnetic_example(math.pi / 4, extended=True))
        ks = kernel_spectrum(sp, 1.0, j_max=8)
        assert ks.gammas.size == 2 * 8  # the beta = 0 coordinate contributes nothing

    def test_rejects_bad_horizon(self, pi4_spectrum):
        with pytest.raises(DomainError):
            kernel_spectrum(pi4_spectrum, 0.0)


class TestEigenfunctions:
    def test_norm_matches_quadrature(self, pi4_spectrum):
        T = 1.7
        ks = kernel_spectrum(pi4_spectrum, T, j_max=40)
        t = (np.arange(200_000) + 0.5) * (T / 200_000)
        for i in (0, 4, 39):
            omega, phase = ks.omega[0, i], ks.phase[0, i]
            quad = float(np.sum(np.sin(omega * t + phase) ** 2)) * (T / 200_000)
            assert eigenfunction_norm_sq(omega, phase, T) == pytest.approx(
                quad, abs=1e-9
            )

    def test_modes_vanish_at_horizon(self, pi4_spectrum):
        T = 2.3
        ks = kernel_spectrum(pi4_spectrum, T, j_max=60)
        for omega, phase in zip(ks.omega[0], ks.phase[0]):
            assert abs(math.sin(omega * T + phase)) <= 1e-10


class TestKernelEval:
    def test_endpoint_matches_matrix_formula(self, pi4_spec):
        T = 1.3
        A = pi4_spec.A
        M, N = A + A.T, A - A.T
        expected = 2.0 * N.T @ np.linalg.solve(M, scipy.linalg.expm(M * T) - np.eye(2)) @ N
        H00 = kernel_eval(pi4_spec, 0.3, T, 0.0, 0.0)
        assert np.max(np.abs(H00 - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))

    def test_transpose_symmetry(self, pi4_spec):
        H12 = kernel_eval(pi4_spec, 0.2, 1.0, 0.3, 0.8)
        H21 = kernel_eval(pi4_spec, 0.2, 1.0, 0.8, 0.3)
        assert np.max(np.abs(H12 - H21.T)) <= 1e-12

    def test_rejects_out_of_range(self, pi4_spec):
        with pytest.raises(DomainError):
            kernel_eval(pi4_spec, 0.0, 1.0, -0.1, 0.5)
        with pytest.raises(DomainError):
            kernel_eval(pi4_spec, 0.0, 1.0, 0.5, 1.5)

    @settings(max_examples=20, deadline=None)
    @given(
        u1=st.floats(0.0, 1.0),
        u2=st.floats(0.0, 1.0),
        lam=st.floats(-1.5, 0.5),
    )
    def test_property_real_symmetric(self, pi4_spec, u1, u2, lam):
        H = kernel_eval(pi4_spec, lam, 1.0, u1, u2)
        Ht = kernel_eval(pi4_spec, lam, 1.0, u2, u1)
        assert H.dtype == float
        assert np.max(np.abs(H - Ht.T)) <= 1e-11

    def test_factor_matches_textbook_form(self):
        # e^{-(a - i f) u1} e^{-(a + i f) u2} (e^{2a max(u1, u2)} - e^{2aT}),
        # safe to evaluate directly at a short horizon
        alpha, beta, lam, T = -0.8, 0.6, 0.3, 2.5
        u = np.linspace(0.0, T, 33)
        U1, U2 = u[:, None], u[None, :]
        f = (1.0 + 2.0 * lam) * beta
        textbook = (
            (-4.0 * beta * beta / alpha)
            * np.exp(-(alpha - 1j * f) * U1)
            * np.exp(-(alpha + 1j * f) * U2)
            * (np.exp(2.0 * alpha * np.maximum(U1, U2)) - math.exp(2.0 * alpha * T))
        )
        got = _channel_kernel_factors(alpha, beta, lam, T, U1, U2)
        assert np.max(np.abs(got - textbook)) <= 1e-13 * np.max(np.abs(textbook))


class TestNystrom:
    def test_matches_analytic_top5(self, classic_spec, classic_spectrum):
        analytic = np.array(
            [e.gamma for e in kernel_spectrum(classic_spectrum, 1.0).descending()]
        )
        discrete = nystrom_spectrum(classic_spec, 0.0, 1.0, n_nodes=200)
        rel = np.abs(discrete[:5] - analytic[:5]) / analytic[:5]
        assert np.max(rel) <= 1e-3

    def test_tilt_independent(self, classic_spec):
        base = nystrom_spectrum(classic_spec, 0.0, 1.0, n_nodes=120)
        tilted = nystrom_spectrum(classic_spec, 0.3, 1.0, n_nodes=120)
        rel = np.abs(tilted[:10] - base[:10]) / base[:10]
        assert np.max(rel) <= 1e-6

    def test_positive_semidefinite(self, classic_spec):
        vals = nystrom_spectrum(classic_spec, 0.0, 1.0, n_nodes=150)
        assert vals[-1] >= -1e-8 * vals[0]

    def test_gauss_rule_cached_read_only(self, classic_spec):
        x, w = _gauss_legendre(64)
        assert _gauss_legendre(64)[0] is x
        assert not x.flags.writeable and not w.flags.writeable
        first = nystrom_spectrum(classic_spec, 0.0, 1.0, n_nodes=64)
        second = nystrom_spectrum(classic_spec, 0.0, 1.0, n_nodes=64)
        assert np.array_equal(first[:5], second[:5])

    @pytest.mark.parametrize("T", [600.0, 1e4])
    def test_long_horizon_finite(self, pi4_spec, T):
        # far past |alpha| T = 709, where e^{|alpha| T} alone overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = nystrom_spectrum(pi4_spec, 0.2, T)
            H = kernel_eval(pi4_spec, 0.2, T, 0.0, T)
        assert np.all(np.isfinite(vals))
        assert np.all(np.isfinite(H))


class TestTraceIdentity:
    def test_worked_value(self, classic_spec):
        expected = 4.0 * (math.exp(-2.0) - 1.0) + 8.0
        assert trace_closed_form(classic_spec, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_truncation_plus_tail_closes(self, pi4_spec, classic_spec):
        for spec in (pi4_spec, classic_spec):
            sp = spectral_decompose(spec)
            for T in (1.0, 5.0):
                tr = trace_closed_form(spec, T)
                partial = float(np.sum(kernel_spectrum(sp, T, j_max=200).gammas))
                tail = spectrum_gamma_tail(sp, T, 201)
                assert partial + tail == pytest.approx(tr, abs=1e-8 * (1.0 + abs(tr)))

    def test_gamma_tail_telescopes(self, classic_spectrum):
        T = 1.0
        alpha, beta = classic_spectrum.pairs[0]
        ks = kernel_spectrum(classic_spectrum, T, j_max=400)
        explicit = sum(ks.gamma[0, 200:400])
        diff = gamma_tail(alpha, beta, T, 201) - gamma_tail(alpha, beta, T, 401)
        assert diff == pytest.approx(explicit, rel=1e-10)

    def test_log_det_tail_telescopes(self, classic_spectrum):
        T, theta = 1.0, 0.3
        alpha, beta = classic_spectrum.pairs[0]
        ks = kernel_spectrum(classic_spectrum, T, j_max=400)
        explicit = sum(math.log1p(-theta * g) for g in ks.gamma[0, 200:400])
        diff = log_det_tail(alpha, beta, T, theta, 201) - log_det_tail(
            alpha, beta, T, theta, 401
        )
        assert diff == pytest.approx(explicit, rel=1e-10)

    def test_flat_channel_contributes_nothing(self):
        assert gamma_tail(-1.0, 0.0, 1.0, 201) == 0.0
        assert log_det_tail(-1.0, 0.0, 1.0, 0.4, 201) == 0.0


class TestLongHorizonTails:
    """The closed-form nu_j sums behind the tails stay finite past the
    |alpha| T ~ 710 overflow of cosh."""

    def test_nu_partial_sums_unchanged_at_300(self):
        alpha, T, J1 = -1.0, 300.0, 20200
        x = abs(alpha) * T
        jj = np.arange(1, J1 + 1)
        nu2 = ((2.0 * jj - 1.0) * (math.pi / (2.0 * T))) ** 2
        ref1 = T * math.tanh(x) / 2.0 - float(np.sum(1.0 / (1.0 + nu2)))
        ref2 = T * (math.tanh(x) - x / math.cosh(x) ** 2) / 4.0 - float(
            np.sum(1.0 / (1.0 + nu2) ** 2)
        )
        got1, got2 = _nu_partial_sums(alpha, T, J1)
        assert got1 == pytest.approx(ref1, rel=1e-14)
        assert got2 == pytest.approx(ref2, rel=1e-14)

    @pytest.mark.parametrize("alpha_T", [1000.0, 1e4])
    def test_tails_finite(self, classic_spectrum, alpha_T):
        alpha, beta = classic_spectrum.pairs[0]
        T = alpha_T / abs(alpha)
        assert all(math.isfinite(v) for v in _nu_partial_sums(alpha, T, 20200))
        assert math.isfinite(log_det_tail(alpha, beta, T, 0.1, 201))
        assert math.isfinite(gamma_tail(alpha, beta, T, 201))
        assert math.isfinite(spectrum_gamma_tail(classic_spectrum, T, 201))
