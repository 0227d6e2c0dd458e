"""Sturm-Liouville roots, kernel spectrum, discretized oracle, trace identities."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq
from hypothesis import given, settings, strategies as st

from epr_ldp.chaos import (
    MgfQuery,
    _channel_closed_form,
    conditional_mgf_series,
    cramer_finite_T,
    cramer_finite_T_series,
    g_coefficients,
)
from epr_ldp import spectral
from epr_ldp.errors import DomainError
from epr_ldp.model import SystemSpec, spectral_decompose
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
from epr_ldp.spectral import (
    _channel_kernel_factors,
    _gauss_legendre,
    _nystrom_blocks,
    _nystrom_eigvals,
    _scaled_roots,
)
from epr_ldp.testing import random_system
from epr_ldp.verify import _fredholm_residual

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


def brent_root(alpha, T, j):
    """The j-th root of g(omega) = omega cos(omega T) - alpha sin(omega T) by
    Brent's method on ((2j-1)pi/2T, j pi/T), where g changes sign once;
    independent of the library's Newton iteration."""
    lo, hi = (2 * j - 1) * math.pi / (2 * T), j * math.pi / T
    return brentq(lambda w: w * math.cos(w * T) - alpha * math.sin(w * T),
                  lo, hi, xtol=1e-16 * lo, rtol=8.9e-16, maxiter=200)


class TestRootOracle:
    """The Newton roots against Brent's method on the pole-free form."""

    @pytest.mark.parametrize("alpha", [-0.05, -1.0, -40.0])
    @pytest.mark.parametrize("cT", [1e-10, 1e-4, 0.3, 1.0, 3.0, 50.0, 1e4])
    def test_first_brackets(self, alpha, cT):
        T = cT / -alpha
        r = omega_roots(alpha, T, 200)
        for j in (1, 2, 10, 200):
            assert r[j - 1] == pytest.approx(brent_root(alpha, T, j), rel=1e-13)

    @pytest.mark.parametrize("alpha, T", [(-1.0, 1.0), (-0.3, 40.0), (-25.0, 0.01)])
    def test_tail_indices(self, alpha, T):
        j = np.arange(201.0, 20201.0)
        om = _scaled_roots(alpha, T, j) / T  # the roots gamma_tail sums
        for jj in (201, 1000, 5000, 20200):
            assert om[jj - 201] == pytest.approx(brent_root(alpha, T, jj), rel=1e-13)

    @pytest.mark.parametrize("cT", [1e-10, 0.5, 1.0, 7.0, 1e4])
    def test_one_more_newton_step_moves_nothing(self, cT):
        j = np.concatenate([np.arange(1.0, 201.0), [1000.0, 20200.0]])
        x = _scaled_roots(-1.0, cT, j)
        base = (2.0 * j - 1.0) * (math.pi / 2.0)
        step = (x - base - np.arctan(cT / x)) / (1.0 + cT / (x * x + cT * cT))
        assert np.all(np.abs(step) <= np.spacing(x))


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("T", [1e-11, 1e-12, 1e-14, 1e-100, 1e-200, 1e-290])
    def test_short_horizons(self, pi4_spectrum, T):
        # omega_j -> (2j-1) pi/2T, so gamma_j T^-2 -> 8 beta^2/((2j-1) pi/2)^2
        ks = kernel_spectrum(pi4_spectrum, T, j_max=50)
        j = np.arange(1, 51)
        assert ks.omega[0] * T == pytest.approx((2 * j - 1) * math.pi / 2, rel=1e-9)
        assert np.all(ks.phase <= math.pi / 2) and np.all(np.isfinite(ks.gamma))
        if T >= 1e-100:
            beta2 = pi4_spectrum.pairs[0][1] ** 2
            expected = 8.0 * beta2 / ((2 * j - 1) * math.pi / 2) ** 2
            assert ks.gamma[0] / T**2 == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("T", [1e-291, 1e-300, 5e-324])
    def test_below_shortest_horizon(self, pi4_spectrum, T):
        with pytest.raises(DomainError, match="1e-290"):
            kernel_spectrum(pi4_spectrum, T)
        with pytest.raises(DomainError, match="1e-290"):
            omega_roots(-1.0, T, 5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("T", [1e10, 1e200, 1e308])
    def test_long_horizons(self, pi4_spectrum, T):
        # omega_j -> j pi/T and gamma -> 8 beta^2/alpha^2 without overflow
        ks = kernel_spectrum(pi4_spectrum, T, j_max=5)
        alpha, beta = pi4_spectrum.pairs[0]
        assert ks.gamma_max == pytest.approx(8.0 * beta**2 / alpha**2, rel=1e-9)
        assert ks.omega[0] * T == pytest.approx(np.arange(1, 6) * math.pi, rel=1e-9)


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

    @pytest.mark.parametrize("omega, phase, T", [
        (math.inf, 0.3, 1.0), (1.0, math.nan, 1.0), (1e300, 0.3, 1e300),
        (np.array([1.0, math.inf]), np.array([0.3, 0.3]), 1.0),
    ], ids=["omega=inf", "phase=nan", "omega_T_overflows", "array_with_inf"])
    def test_non_finite_inputs_raise(self, omega, phase, T):
        with pytest.raises(DomainError):
            eigenfunction_norm_sq(omega, phase, T)

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
        # the phased complex blocks at two tilts against the real blocks
        base = nystrom_spectrum(classic_spec, 0.0, 1.0, n_nodes=120)
        for lam in (0.0, 0.3):
            tilted = _nystrom_eigvals(classic_spec, 1.0, 120, lam)
            rel = np.abs(tilted[:10] - base[:10]) / base[:10]
            assert np.max(rel) <= 1e-6

    def test_real_blocks_only(self, pi4_spec, monkeypatch):
        # the oracle never builds the phased complex kernel
        def refuse(*args):
            raise AssertionError("complex kernel built")

        monkeypatch.setattr(spectral, "_channel_kernel_factors", refuse)
        assert all(B.dtype == float for _, _, B in _nystrom_blocks(pi4_spec, 1.0, 16))
        assert np.all(np.isfinite(nystrom_spectrum(pi4_spec, 0.3, 1.0, n_nodes=16)))

    @pytest.mark.parametrize("T", [0.5, 1.0, 5.0])
    def test_fredholm_determinant_second_order(self, pi4_spec, T):
        # slogdet(I - theta B) of the real blocks against the closed-form
        # log w: the kernel's kink makes the error fall like n^-2
        rng = np.random.default_rng(11)
        for spec in (pi4_spec, random_system(rng, 2), random_system(rng, 4)):
            coarse, fine = (_fredholm_residual(spec, T, n) for n in (200, 400))
            assert fine * 3.0 <= coarse, (spec.dim, coarse, fine)

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

    @pytest.mark.parametrize(
        "spec",
        [random_system(np.random.default_rng(5), 5),
         SystemSpec(np.array([[-2.0, 0.5, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, -3.0]]))],
        ids=["d5_one_real_channel", "reversible"],
    )
    def test_whole_spectrum_matches_dense_kernel_matrix(self, spec):
        # the (n d) x (n d) real matrix with blocks sqrt(w_i w_j) H(t_i, t_j),
        # assembled from the paper's d x d kernel H_{lambda,T} node by node
        n, lam, T = 24, 0.3, 1.7
        x, w = _gauss_legendre(n)
        t, sw = (x + 1.0) * (T / 2.0), np.sqrt(w * (T / 2.0))
        d = spec.dim
        B = np.zeros((n * d, n * d))
        for i in range(n):
            for j in range(n):
                B[i * d:(i + 1) * d, j * d:(j + 1) * d] = (
                    sw[i] * sw[j] * kernel_eval(spec, lam, T, t[i], t[j]))
        dense = np.linalg.eigvalsh((B + B.T) / 2.0)[::-1]
        vals = nystrom_spectrum(spec, lam, T, n_nodes=n)
        assert vals.shape == (n * d,)
        assert np.max(np.abs(vals - dense)) <= 1e-12 * np.max(np.abs(dense))
        # one beta = 0 channel (d = 5) or none rotating (reversible): n zeros each
        betas = spectral_decompose(spec).betas
        zeros = n * np.count_nonzero(betas == 0.0)
        assert zeros in (n, n * d) and np.count_nonzero(vals == 0.0) == zeros

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
    """The tails stay finite and right past the |alpha| T ~ 710 overflow of
    cosh, and on through c = |alpha| T >> the cut L = 200 pi."""

    @pytest.mark.parametrize("alpha_T", [1000.0, 1e4])
    def test_tails_finite(self, classic_spectrum, alpha_T):
        alpha, beta = classic_spectrum.pairs[0]
        T = alpha_T / abs(alpha)
        assert math.isfinite(log_det_tail(alpha, beta, T, 0.1, 201))
        assert math.isfinite(gamma_tail(alpha, beta, T, 201))
        assert math.isfinite(spectrum_gamma_tail(classic_spectrum, T, 201))

    @pytest.mark.parametrize("j_start", [1, 201])
    @pytest.mark.parametrize("T", [1e5, 1e8, 1e80, 1e200])
    def test_against_closed_forms(self, pi4_spec, pi4_spectrum, T, j_start):
        # from j = 1 the tails are the whole channel sums: half the kernel
        # trace and the Fredholm log-determinant; the first 200 terms come
        # from kernel_spectrum.
        alpha, beta = pi4_spectrum.pairs[0]
        g_inf = 8.0 * beta**2 / alpha**2  # gamma_j -> g_inf for omega_j << |alpha|
        head = kernel_spectrum(pi4_spectrum, T, j_max=j_start - 1).gamma[0] if j_start > 1 else np.zeros(0)
        bound = 1e-5 if T < 1e12 else 1e-13
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gamma_tail(alpha, beta, T, j_start)
            want = trace_closed_form(pi4_spec, T) / 2.0 - math.fsum(head)
            assert abs(got - want) <= bound * want
            for theta in (0.9 / g_inf, -30.0 / g_inf, -1e100):
                got = log_det_tail(alpha, beta, T, theta, j_start)
                want = _channel_closed_form(alpha, beta, theta, T)[0] - math.fsum(np.log1p(-theta * head))
                assert abs(got - want) <= bound * abs(want), theta

    @pytest.mark.parametrize("j_start", [1, 201])
    @pytest.mark.parametrize("c", [3e4, 1e5, 1e6, 1e7])
    def test_through_c_near_the_cut(self, pi4_spec, pi4_spectrum, c, j_start):
        # c from ~50 L to ~1.6e4 L (L = 200 pi): the roots below c sit near
        # b_j + pi/2, and the closure follows them through b ~ c
        alpha, beta = pi4_spectrum.pairs[0]
        T = c / abs(alpha)
        g_inf = 8.0 * beta**2 / alpha**2
        head = kernel_spectrum(pi4_spectrum, T, j_max=j_start - 1).gamma[0] if j_start > 1 else np.zeros(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gamma_tail(alpha, beta, T, j_start)
            want = trace_closed_form(pi4_spec, T) / 2.0 - math.fsum(head)
            assert got == pytest.approx(want, rel=1e-12)
            for theta in (0.9 / g_inf, -30.0 / g_inf, -1e100):
                got = log_det_tail(alpha, beta, T, theta, j_start)
                want = _channel_closed_form(alpha, beta, theta, T)[0] - math.fsum(np.log1p(-theta * head))
                assert got == pytest.approx(want, rel=1e-12), theta

    def test_huge_horizon_keeps_the_shift_unclipped(self):
        # gamma_tail ~ 4 beta^2 T/|alpha| once |alpha| T >> j_start
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gamma_tail(-1.0, 1.0, 1e151, 201) == pytest.approx(4e151, rel=1e-12)
            # |alpha| T overflows, the tail does not
            assert gamma_tail(-2.0, 1e-10, 1e308, 201) == pytest.approx(2e288, rel=1e-12)
            assert log_det_tail(-2.0, 1e-10, 1e308, 1.0, 201) == pytest.approx(-2e288, rel=1e-12)


J_REF = 1_000_000


def brute_force_tails(c, thetas):
    """Reference tails of the channel (alpha, beta) = (-1, 1/2) at T = c, from
    j_start = 2 and from j_start = 201: [gamma sum, log-det sum per theta].

    Newton roots are summed explicitly up to J_REF = 1e6 with math.fsum.  The
    rest is closed on shifted midpoints, y_j = u/(x^2 + b_j^2) with x^2 = c^2
    + 2c, b_j = (2j-1)pi/2 and u = 8 beta^2 T^2 (times theta for the log),
    as sum y, or -y - y^2/2 for the log, by the midpoint integral from
    L = J_REF pi with its first Euler-Maclaurin correction.  At L = pi 1e6
    and c <= 1e4 the shift's next order ((c^2 + 2c^3/3)/b^4 per term), the
    dropped y^3/3 (|y| <= 3e-4 at the cut) and the next midpoint correction
    each stay below 1e-11 of the tail, so the reference is good to ~1e-11
    relative.
    """
    T, beta = c, 0.5
    x = _scaled_roots(-1.0, T, np.arange(2.0, J_REF + 1.0))
    gam = 8.0 * (beta * T / np.hypot(c, x)) ** 2
    x2, L, k = c * c + 2.0 * c, J_REF * math.pi, 8.0 * (beta * T) ** 2
    s1 = (math.atan(math.sqrt(x2) / L) / (math.pi * math.sqrt(x2))
          - math.pi / 12.0 * L / (x2 + L * L) ** 2)
    s2 = 1.0 / (3.0 * math.pi * L**3)
    out = {2: [], 201: []}
    for terms, rem in [(gam, k * s1)] + [
            (np.log1p(-th * gam), -th * k * (s1 + 0.5 * th * k * s2)) for th in thetas]:
        late = math.fsum(terms[199:].tolist())  # j >= 201
        out[201].append(math.fsum([late, rem]))
        out[2].append(math.fsum([late, rem] + terms[:199].tolist()))
    return out


class TestTailAccuracy:
    """gamma_tail and log_det_tail against the brute-force reference over
    c = |alpha| T from 1e-7 to 1e4, at theta gamma_1 = 0.9, -1, -3 and -30."""

    @pytest.mark.parametrize(
        "c", [1e-7, 1e-3, 0.5, 2.0, 10.0, 50.0, 200.0, 1000.0, 4000.0, 1e4])
    def test_against_brute_force(self, c):
        T, beta = c, 0.5
        gamma_1 = 8.0 * beta**2 / (1.0 + omega_roots(-1.0, T, 1)[0] ** 2)
        thetas = (0.9 / gamma_1, -1.0 / gamma_1, -3.0 / gamma_1, -30.0 / gamma_1)
        ref = brute_force_tails(c, thetas)
        bound = 1e-9 if c <= 4000.0 else 1e-7
        for j_start, want in ref.items():
            got = [gamma_tail(-1.0, beta, T, j_start)] + [
                log_det_tail(-1.0, beta, T, th, j_start) for th in thetas]
            for g, w in zip(got, want):
                assert abs(g - w) <= bound * abs(w), (j_start, g, w)

    def test_huge_theta_in_the_newton_stretch(self):
        # |theta| gamma_j passes the float range on the solved roots j <= 200:
        # the explicit terms log(|theta| gamma_j) plus the closure from 201
        alpha, beta, T, theta = -1e-3, 1e5, 1.0, -1e300
        head = 8.0 * beta**2 / (alpha**2 + omega_roots(alpha, T, 200) ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_det_tail(alpha, beta, T, theta, 1)
            want = math.fsum(np.log(-theta) + np.log(head)) + log_det_tail(alpha, beta, T, theta, 201)
            assert log_det_tail(alpha, beta, T, -theta, 1) == -math.inf
        assert got == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("theta", [-1e100, -1e200])
    def test_huge_negative_theta(self, theta):
        # log(1 + |theta| gamma_j) is closed without expanding the log: the
        # tail is the Fredholm log-determinant minus its first 200 terms
        alpha, beta, T = -1.0, 0.5, 1.0
        head = 8.0 * beta**2 / (alpha**2 + omega_roots(alpha, T, 200) ** 2)
        want = _channel_closed_form(alpha, beta, theta, T)[0] - math.fsum(np.log1p(-theta * head))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_det_tail(alpha, beta, T, theta, 201)
        assert got == pytest.approx(want, rel=1e-12)


class TestClosureWithoutRoots:
    """From j_start >= 201 the tails solve no root: they are the closure
    alone, checked against the Newton roots it replaces."""

    @pytest.mark.parametrize("c", [1e-3, 1.0, 600.0, 1e4])
    def test_telescopes_to_newton_roots(self, c):
        alpha, beta, T = -1.0, 0.5, c
        omega = omega_roots(alpha, T, 1200)
        gam = 8.0 * (beta / np.hypot(alpha, omega)) ** 2
        theta = 0.3 / gam[0]
        want = math.fsum(gam[1000:])
        assert gamma_tail(alpha, beta, T, 1001) - gamma_tail(alpha, beta, T, 1201) == pytest.approx(want, rel=1e-12)
        want = math.fsum(np.log1p(-theta * gam[1000:]))
        got = log_det_tail(alpha, beta, T, theta, 1001) - log_det_tail(alpha, beta, T, theta, 1201)
        assert got == pytest.approx(want, rel=1e-12)

    def test_no_root_is_solved(self, pi4_spectrum, monkeypatch):
        def refuse(*args):
            raise AssertionError("a tail from j_start >= 201 solved a root")

        monkeypatch.setattr(spectral, "_scaled_roots", refuse)
        for T in (1e-3, 1.0, 1e3, 1e6):
            assert spectrum_gamma_tail(pi4_spectrum, T, 201) > 0.0
            for alpha, beta in pi4_spectrum.pairs:
                g_inf = 8.0 * beta**2 / alpha**2  # no real singular point below 1/g_inf
                for theta in (0.9 / g_inf, -30.0 / g_inf, -1e100):
                    assert math.isfinite(log_det_tail(alpha, beta, T, theta, 201))

    @pytest.mark.parametrize("j_start", [201, 1001, 2**40])
    @pytest.mark.parametrize("c", [1.0, 1e6, 1e13, 1e200])
    def test_minus_inf_exactly_from_the_first_term(self, c, j_start):
        # -inf iff theta gamma_{j_start} >= 1 with gamma formed as in
        # kernel_spectrum, also where c >> x_j rounds gamma_j to g_inf
        alpha, beta = -1.0, 0.5
        x = _scaled_roots(alpha, c, np.array([float(j_start)]))[0]
        g = 8.0 * (beta / np.hypot(alpha, x / c)) ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for theta in (1.0 / g, math.nextafter(1.0 / g, 0.0), math.nextafter(1.0 / g, 1.0),
                          (1.0 + 1e-12) / g, (1.0 - 1e-9) / g, 2.0 / g, alpha**2 / (8.0 * beta**2)):
                got = log_det_tail(alpha, beta, c, theta, j_start)
                assert (got == -math.inf) == (theta * g >= 1.0) and not math.isnan(got), theta

    def test_near_the_divergence_edge(self, pi4_spec, pi4_spectrum):
        # c >> L: theta gamma at the cut X(200 pi) is 1 + 1e-9 but every
        # term from j = 201 on is finite.  The 200 head terms are past 1,
        # so the Fredholm determinant is positive and its log is
        # sum_j log|1 - theta gamma_j|.
        alpha, beta = pi4_spectrum.pairs[0]
        T = 1e6 / abs(alpha)
        g = kernel_spectrum(pi4_spectrum, T, j_max=201).gamma[0]
        theta = (1.0 - 1e-9) / g[200]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_det_tail(alpha, beta, T, theta, 201)
        want = _channel_closed_form(alpha, beta, theta, T)[0] - math.fsum(np.log(theta * g[:200] - 1.0))
        assert got == pytest.approx(want, rel=1e-12)
        x = _scaled_roots(alpha, T, np.arange(201.0, 1201.0))
        explicit = np.log1p(-theta * 8.0 * (beta / np.hypot(alpha, x / T)) ** 2)
        want = math.fsum(explicit) + log_det_tail(alpha, beta, T, theta, 1201)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("j_start", [201.5, "201", 10**20, 1e300, 0])
    def test_j_start_is_checked(self, pi4_spectrum, j_start):
        for call in (lambda: gamma_tail(-1.0, 0.5, 1.0, j_start),
                     lambda: log_det_tail(-1.0, 0.5, 1.0, 0.3, j_start),
                     lambda: spectrum_gamma_tail(pi4_spectrum, 1.0, j_start)):
            with pytest.raises(DomainError, match="j_start"):
                call()
        if j_start in (10**20, 1e300):
            with pytest.raises(DomainError, match=str(2**52)):
                gamma_tail(-1.0, 0.5, 1.0, j_start)

    def test_largest_j_start(self):
        # sum_{j > J1} 2/x_j^2 with x_j ~ (j - 1/2) pi, J1 = 2^52 - 1
        want = 2.0 / (math.pi**2 * (2.0**52 - 1.0))
        assert gamma_tail(-1.0, 0.5, 1.0, 2**52) == pytest.approx(want, rel=1e-12)
        assert log_det_tail(-1.0, 0.5, 1.0, 0.3, 2**52) == pytest.approx(-0.3 * want, rel=1e-12)


class TestShortHorizonTails:
    """No overflow warning below T ~ 1e-150, where omega_j ~ 1/T squares
    past the double range."""

    @pytest.mark.parametrize("T", [1e-160, 1e-200, 1e-290])
    def test_no_warning(self, pi4_spec, pi4_spectrum, T):
        alpha, beta = pi4_spectrum.pairs[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = [
                gamma_tail(alpha, beta, T, 201),
                log_det_tail(alpha, beta, T, 0.3, 201),
                spectrum_gamma_tail(pi4_spectrum, T, 201),
                conditional_mgf_series(MgfQuery(x=[1.0, 0.5], theta=0.3, T=T), pi4_spec),
                cramer_finite_T_series(0.1, pi4_spec, T),
                *g_coefficients([1.0, 0.5], pi4_spec, T),
            ]
        assert all(math.isfinite(v) for v in vals)
        # the series oracle still meets the closed form's T -> 0 limit
        assert vals[4] == pytest.approx(cramer_finite_T(0.1, pi4_spec, T), rel=1e-12)

    def test_huge_alpha_at_shortest_horizon(self):
        # c = 1e-140, beta T = 1e-140: gamma_j = 8e-280/(c^2 + x_j^2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gamma_tail(-1e150, 1e150, 1e-290, 2)
            assert math.isfinite(log_det_tail(-1e150, 1e150, 1e-290, 1e279, 2))
        want = 8e-280 * (0.5 - 4.0 / math.pi**2)  # sum_{j>=2} 1/b_j^2
        assert got == pytest.approx(want, rel=1e-12)
