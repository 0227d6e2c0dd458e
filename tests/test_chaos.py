"""Quadratic-functional expansion: offset, linear coefficients, conditional MGF."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epr_ldp.chaos import (
    MgfQuery,
    conditional_mgf,
    conditional_mgf_series,
    cramer_finite_T,
    cramer_finite_T_series,
    g_coefficients,
    s0,
)
from epr_ldp.cramer import cramer, legendre_oracle, rate
from epr_ldp.errors import DimensionError, DomainError
from epr_ldp.model import SystemSpec, magnetic_example, spectral_decompose
from epr_ldp.montecarlo import (
    EprEnsemble,
    SimConfig,
    empirical_mgf,
    simulate_z_integral,
    tail_estimate,
)
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
from epr_ldp.testing import random_system

X0 = np.array([1.0, 0.0])


def s0_quadrature(spec, x, T, n=400_000):
    """Independent oracle: mean of the accumulated squared rotation signal.

    Mean-start part plus the noise part folded to a single integral,
        int_0^T |N e^{Au} x|^2 du + int_0^T (T-r) tr(N'N e^{Ar} e^{A'r}) dr,
    both evaluated by eigen-action and the trapezoid rule.
    """
    A = spec.A
    N = A - A.T
    mu, V = np.linalg.eig(A)
    W = np.linalg.inv(V)
    u = np.linspace(0.0, T, n + 1)
    exp_mu = np.exp(np.outer(u, mu))
    drift_x = ((exp_mu * (W @ x)) @ V.T).real
    mean_part = float(np.trapezoid(np.sum((drift_x @ N.T) ** 2, axis=1), u))
    E = np.einsum("ik,nk,kj->nij", V, exp_mu, W).real
    C = N.T @ N
    noise_integrand = (T - u) * np.einsum("ij,njk,nik->n", C, E, E)
    return mean_part + float(np.trapezoid(noise_integrand, u))


class TestOffset:
    def test_magnetic_pinned_value(self, pi4_spec):
        assert s0(X0, pi4_spec, 1.0) == pytest.approx(2.385055172910989, rel=1e-12)

    def test_matches_quadrature(self, pi4_spec):
        assert s0(X0, pi4_spec, 1.0) == pytest.approx(
            s0_quadrature(pi4_spec, X0, 1.0), rel=1e-8
        )

    def test_matches_quadrature_generic_angle_and_start(self):
        spec = magnetic_example(math.pi / 3)
        x = np.array([0.4, -1.1])
        assert s0(x, spec, 2.0) == pytest.approx(
            s0_quadrature(spec, x, 2.0), rel=1e-8
        )

    def test_zero_start_reduces_to_half_trace(self, pi4_spec):
        for T in (1.0, 3.0):
            assert s0(np.zeros(2), pi4_spec, T) == pytest.approx(
                trace_closed_form(pi4_spec, T) / 2.0, rel=1e-12
            )

    def test_reversible_system_is_zero(self):
        assert s0(np.ones(2), SystemSpec(np.diag([-1.0, -2.0])), 1.0) == 0.0

    def test_dimension_mismatch(self, pi4_spec):
        with pytest.raises(DimensionError):
            s0(np.ones(3), pi4_spec, 1.0)


class TestLinearCoefficients:
    def test_projection_oracle(self, pi4_spec):
        T = 1.0
        sp = spectral_decompose(pi4_spec)
        ks = kernel_spectrum(spectral_decompose(pi4_spec), T)
        g = g_coefficients(X0, pi4_spec, T)
        (alpha, beta), U = sp.pairs[0], sp.vectors[:, 0]
        overlap = abs(np.vdot(U, X0))
        u = np.linspace(0.0, T, 400_001)
        G = (
            (4.0 * beta**2 / alpha)
            * overlap
            * np.exp(-alpha * u)
            * (np.exp(2.0 * alpha * u) - math.exp(2.0 * alpha * T))
        )
        for i in (0, 1, 2, 5, 10, 19):
            omega, phase = ks.omega[0, i], ks.phase[0, i]
            phi = np.sin(omega * u + phase) / math.sqrt(
                eigenfunction_norm_sq(omega, phase, T)
            )
            proj = float(np.trapezoid(G * phi, u))
            assert g[i] == pytest.approx(proj, rel=1e-8)

    def test_zero_start_zero_coefficients(self, pi4_spec):
        assert np.all(g_coefficients(np.zeros(2), pi4_spec, 1.0) == 0.0)

    def test_conjugate_channels_match(self, pi4_spec):
        g = g_coefficients(X0, pi4_spec, 1.0, j_max=32)
        assert g.shape == (2 * 32,)  # aligned with KernelSpectrum.gammas
        assert np.allclose(np.abs(g[:32]), np.abs(g[32:]), rtol=1e-12)


class TestConditionalMgf:
    def q(self, theta, lam=0.0, T=1.0, j_max=200, x=X0):
        return MgfQuery(x=x, theta=theta, lam=lam, T=T, j_max=j_max)

    def test_query_validation(self):
        with pytest.raises(DomainError):
            MgfQuery(x=X0, theta=0.1, T=0.0)
        with pytest.raises(DomainError):
            MgfQuery(x=X0, theta=0.1, j_max=0)

    def test_theta_zero_is_one(self, pi4_spec):
        assert conditional_mgf(self.q(0.0), pi4_spec) == 1.0

    def test_reversible_is_one(self):
        spec = SystemSpec(np.diag([-1.0, -2.0]))
        assert conditional_mgf(MgfQuery(x=np.ones(2), theta=0.4), spec) == 1.0

    def test_pinned_value(self, pi4_spec):
        # the series oracle truncated at j_max = 200
        assert conditional_mgf_series(self.q(-0.5), pi4_spec) == pytest.approx(
            0.3759036777966844, rel=1e-10
        )

    def test_closed_form_pinned_value(self, pi4_spec):
        # confirmed by the j_max = 2000 series to 1.7e-12
        assert conditional_mgf(self.q(-0.5), pi4_spec) == pytest.approx(
            0.3759036784398398, rel=1e-12
        )

    def test_diverges_at_top_eigenvalue(self, pi4_spec, pi4_spectrum):
        gamma1 = kernel_spectrum(pi4_spectrum, 1.0).gamma_max
        assert conditional_mgf(self.q(1.0 / gamma1), pi4_spec) == math.inf
        assert conditional_mgf(self.q(1.0 / gamma1 + 0.1), pi4_spec) == math.inf
        assert math.isfinite(conditional_mgf(self.q(0.99 / gamma1), pi4_spec))

    def test_monotone_in_theta(self, pi4_spec):
        thetas = [-2.0, -0.5, 0.0, 0.5, 0.9]
        values = [conditional_mgf(self.q(t), pi4_spec) for t in thetas]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))
        assert values[2] == 1.0

    def test_truncation_stable(self, pi4_spec, pi4_spectrum):
        gamma1 = kernel_spectrum(pi4_spectrum, 1.0).gamma_max
        theta = 0.9 / gamma1
        v100 = conditional_mgf_series(self.q(theta, j_max=100), pi4_spec)
        v400 = conditional_mgf_series(self.q(theta, j_max=400), pi4_spec)
        assert v100 == pytest.approx(v400, rel=1e-6)

    def test_log_derivatives_match_moments(self, pi4_spec, pi4_spectrum):
        # d/dtheta log MGF at 0 is the mean; the second derivative is the
        # variance sum over the expansion, including the tail-free parts.
        ks = kernel_spectrum(pi4_spectrum, 1.0)
        g = g_coefficients(X0, pi4_spec, 1.0)
        h = 1e-4

        def logm(theta):
            return math.log(conditional_mgf(self.q(theta), pi4_spec))

        fd1 = (logm(h) - logm(-h)) / (2.0 * h)
        fd2 = (logm(h) - 2.0 * logm(0.0) + logm(-h)) / h**2
        assert fd1 == pytest.approx(s0(X0, pi4_spec, 1.0), rel=1e-6)
        variance = float(np.sum(ks.gammas**2) / 2.0 + np.sum(g**2))
        assert fd2 == pytest.approx(variance, rel=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(
        theta=st.floats(-3.0, 0.8),
        lam=st.floats(-1.5, 0.5),
    )
    def test_property_tilt_invariant(self, pi4_spec, theta, lam):
        base = conditional_mgf(self.q(theta, lam=0.0), pi4_spec)
        tilted = conditional_mgf(self.q(theta, lam=lam), pi4_spec)
        assert tilted == pytest.approx(base, rel=1e-12)


class TestFiniteHorizon:
    def test_zero_tilt_is_zero(self, pi4_spec):
        for T in (1.0, 10.0):
            assert cramer_finite_T(0.0, pi4_spec, T) == 0.0

    def test_reversible_is_zero(self):
        assert cramer_finite_T(0.2, SystemSpec(np.diag([-1.0, -2.0])), 5.0) == 0.0

    def test_converges_to_limit(self, pi4_spec, pi4_spectrum):
        limit = cramer(0.1, pi4_spectrum)
        errs = [abs(cramer_finite_T(0.1, pi4_spec, T) - limit) for T in (5.0, 10.0, 20.0)]
        assert errs[0] <= 1.0
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 5.0 / 20.0

    def test_pinned_medium_horizon(self, pi4_spec):
        assert cramer_finite_T(0.1, pi4_spec, 5.0) == pytest.approx(0.17378965, abs=1e-6)

    def test_large_tilt_diverges_for_long_horizons(self, pi4_spec):
        assert math.isfinite(cramer_finite_T(0.3, pi4_spec, 3.0))
        assert cramer_finite_T(0.3, pi4_spec, 10.0) == math.inf

    def test_rejects_bad_horizon(self, pi4_spec):
        with pytest.raises(DomainError):
            cramer_finite_T(0.1, pi4_spec, 0.0)

    @pytest.mark.parametrize("lam", [0.1, -1.1, 0.5])
    def test_short_horizon_limit(self, pi4_spec, pi4_spectrum, lam):
        # Lambda_T -> theta sum_k 2 beta_k^2/|alpha_k| as T -> 0, at rate O(T)
        theta = 0.5 * lam * (1.0 + lam)
        limit = theta * sum(2.0 * b * b / -a for a, b in pi4_spectrum.pairs)
        for T in (1e-300, 1e-200, 1e-100, 1e-30, 1e-14, 1e-12, 1e-10):
            assert cramer_finite_T(lam, pi4_spec, T) == pytest.approx(limit, rel=1e-10)


_NAN, _INF = math.nan, math.inf
_ENSEMBLE = EprEnsemble(np.array([0.5, 1.0, 2.0]), 1.0, "x")


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda sp, spec: kernel_spectrum(sp, _INF), id="kernel_spectrum-T=inf"),
        pytest.param(lambda sp, spec: kernel_spectrum(sp, _NAN), id="kernel_spectrum-T=nan"),
        pytest.param(lambda sp, spec: kernel_spectrum(sp, 1.0, 2.5), id="kernel_spectrum-j_max=2.5"),
        pytest.param(lambda sp, spec: omega_roots(-1.0, 1.0, 2.5), id="omega_roots-j_max=2.5"),
        pytest.param(lambda sp, spec: trace_closed_form(spec, _INF), id="trace_closed_form-T=inf"),
        pytest.param(lambda sp, spec: trace_closed_form(spec, _NAN), id="trace_closed_form-T=nan"),
        pytest.param(lambda sp, spec: s0(X0, spec, _INF), id="s0-T=inf"),
        pytest.param(lambda sp, spec: s0([_NAN, 0.0], spec, 1.0), id="s0-x=nan"),
        pytest.param(lambda sp, spec: s0([_INF, 0.0], spec, 1.0), id="s0-x=inf"),
        pytest.param(lambda sp, spec: cramer_finite_T(0.1, spec, _INF), id="cramer_finite_T-T=inf"),
        pytest.param(lambda sp, spec: cramer_finite_T(0.1, spec, -_INF), id="cramer_finite_T-T=-inf"),
        pytest.param(lambda sp, spec: cramer_finite_T(_NAN, spec, 1.0), id="cramer_finite_T-lam=nan"),
        pytest.param(lambda sp, spec: MgfQuery(x=X0, theta=0.1, T=_INF), id="MgfQuery-T=inf"),
        pytest.param(lambda sp, spec: MgfQuery(x=X0, theta=_NAN), id="MgfQuery-theta=nan"),
        pytest.param(lambda sp, spec: MgfQuery(x=X0, theta=0.1, lam=_NAN), id="MgfQuery-lam=nan"),
        pytest.param(lambda sp, spec: MgfQuery(x=[0.5, _NAN], theta=0.1), id="MgfQuery-x=nan"),
        pytest.param(lambda sp, spec: conditional_mgf(MgfQuery(x=[_INF, 0.0], theta=0.1), spec),
                     id="conditional_mgf-x=inf"),
        pytest.param(lambda sp, spec: conditional_mgf(MgfQuery(x=X0, theta=-_INF), spec),
                     id="conditional_mgf-theta=-inf"),
        pytest.param(lambda sp, spec: gamma_tail(-1.0, 1.0, -1.0, 201), id="gamma_tail-T=-1"),
        pytest.param(lambda sp, spec: gamma_tail(-1.0, 1.0, _INF, 201), id="gamma_tail-T=inf"),
        pytest.param(lambda sp, spec: log_det_tail(-1.0, 1.0, _INF, 0.1, 201), id="log_det_tail-T=inf"),
        pytest.param(lambda sp, spec: gamma_tail(0.0, 1.0, 1.0, 201), id="gamma_tail-alpha=0"),
        pytest.param(lambda sp, spec: log_det_tail(1.0, 1.0, 1.0, 0.1, 201), id="log_det_tail-alpha=1"),
        pytest.param(lambda sp, spec: log_det_tail(-1.0, 1.0, 1.0, _NAN, 201), id="log_det_tail-theta=nan"),
        pytest.param(lambda sp, spec: gamma_tail(-1.0, _NAN, 1.0, 10), id="gamma_tail-beta=nan"),
        pytest.param(lambda sp, spec: log_det_tail(-1.0, _NAN, 1.0, 0.1, 10), id="log_det_tail-beta=nan"),
        pytest.param(lambda sp, spec: gamma_tail(-_INF, 1.0, 1.0, 10), id="gamma_tail-alpha=-inf"),
        pytest.param(lambda sp, spec: spectrum_gamma_tail(sp, _NAN, 201), id="spectrum_gamma_tail-T=nan"),
        pytest.param(lambda sp, spec: kernel_eval(spec, _NAN, 1.0, 0.2, 0.7), id="kernel_eval-lam=nan"),
        pytest.param(lambda sp, spec: nystrom_spectrum(spec, _NAN, 1.0, n_nodes=16), id="nystrom_spectrum-lam=nan"),
        pytest.param(lambda sp, spec: nystrom_spectrum(spec, 0.0, 1.0, n_nodes=8.5), id="nystrom_spectrum-n_nodes=8.5"),
        pytest.param(lambda sp, spec: empirical_mgf(_ENSEMBLE, _NAN), id="empirical_mgf-lam=nan"),
        pytest.param(lambda sp, spec: empirical_mgf(_ENSEMBLE, _INF), id="empirical_mgf-lam=inf"),
        pytest.param(lambda sp, spec: simulate_z_integral(spec, _INF, X0, SimConfig(T=0.1, dt=0.01, n_traj=4)),
                     id="simulate_z_integral-lam=inf"),
        pytest.param(lambda sp, spec: tail_estimate(_ENSEMBLE, _NAN), id="tail_estimate-x=nan"),
    ],
)
def test_entry_points_reject_bad_inputs(call, pi4_spec, pi4_spectrum):
    # a non-finite or negative horizon, a non-negative alpha, a non-finite
    # tilt, theta, start or threshold or a non-integral size has no
    # meaningful value; each entry point raises DomainError instead of
    # returning nonsense or a raw exception
    with pytest.raises(DomainError):
        call(pi4_spectrum, pi4_spec)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda sp, spec: nystrom_spectrum(spec, 0.0, "1", n_nodes=8),
                     id="nystrom_spectrum-T=str"),
        pytest.param(lambda sp, spec: nystrom_spectrum(spec, "a", 1.0, n_nodes=8),
                     id="nystrom_spectrum-lam=str"),
        pytest.param(lambda sp, spec: gamma_tail(-1.0, 1.0, "1", 5), id="gamma_tail-T=str"),
        pytest.param(lambda sp, spec: gamma_tail(-1.0, 1.0, 10**400, 5), id="gamma_tail-T=huge-int"),
        pytest.param(lambda sp, spec: log_det_tail(-1.0, 1.0, 1.0, "0.1", 5), id="log_det_tail-theta=str"),
        pytest.param(lambda sp, spec: kernel_spectrum(sp, None), id="kernel_spectrum-T=None"),
        pytest.param(lambda sp, spec: kernel_spectrum(sp, True), id="kernel_spectrum-T=True"),
        pytest.param(lambda sp, spec: cramer_finite_T("a", spec, 1.0), id="cramer_finite_T-lam=str"),
        pytest.param(lambda sp, spec: cramer_finite_T(0.1j, spec, 1.0), id="cramer_finite_T-lam=complex"),
        pytest.param(lambda sp, spec: MgfQuery(x=[0.5, "a"], theta=0.1), id="MgfQuery-x=str-entry"),
        pytest.param(lambda sp, spec: MgfQuery(x=[0.5, [1.0]], theta=0.1), id="MgfQuery-x=ragged"),
        pytest.param(lambda sp, spec: MgfQuery(x=X0, theta="0.1"), id="MgfQuery-theta=str"),
        pytest.param(lambda sp, spec: s0(np.array(["a", "b"]), spec, 1.0), id="s0-x=str-array"),
        pytest.param(lambda sp, spec: cramer("a", sp), id="cramer-lam=str"),
        pytest.param(lambda sp, spec: legendre_oracle("a", sp), id="legendre_oracle-x=str"),
        pytest.param(lambda sp, spec: legendre_oracle(_INF, sp), id="legendre_oracle-x=inf"),
        pytest.param(lambda sp, spec: legendre_oracle(-_INF, sp), id="legendre_oracle-x=-inf"),
        pytest.param(lambda sp, spec: rate(10**400, sp), id="rate-x=huge-int"),
    ],
)
def test_entry_points_reject_mistyped_inputs(call, pi4_spec, pi4_spectrum):
    # a horizon, tilt, theta, start or level that is not a (finite) real
    # number raises DomainError, never a raw TypeError, ValueError or
    # OverflowError, and no warning escapes on the way
    with pytest.raises(DomainError):
        call(pi4_spectrum, pi4_spec)


@pytest.mark.filterwarnings("error")
class TestHugeStart:
    """A start whose channel overlaps overflow: documented values, no warning."""

    def test_conditional_mgf(self, pi4_spec):
        up = MgfQuery(x=(1e200, 0.0), theta=0.1, lam=0.0, T=1.0)
        down = MgfQuery(x=(1e200, 0.0), theta=-0.1, lam=0.0, T=1.0)
        assert conditional_mgf(up, pi4_spec) == math.inf
        assert conditional_mgf(down, pi4_spec) == 0.0

    def test_s0(self):
        spec = magnetic_example(math.pi / 4, extended=True)
        assert s0((1e200, 0.0, 0.0), spec, 1.0) == math.inf
        # the beta = 0 channel carries no weight, however large its overlap
        assert s0((0.0, 0.0, 1e200), spec, 1.0) == s0((0.0, 0.0, 0.0), spec, 1.0)


class TestClosedFormVsSeries:
    """The closed form against the eigenvalue-series oracle at j_max = 2000."""

    @pytest.mark.parametrize("T", [1.0, 5.0])
    def test_cumulant(self, pi4_spec, T):
        for lam in (-0.3, 0.1, 0.2):
            closed = cramer_finite_T(lam, pi4_spec, T)
            series = cramer_finite_T_series(lam, pi4_spec, T, 2000)
            assert closed == pytest.approx(series, rel=1e-10)

    @pytest.mark.parametrize("T, rel", [(1.0, 1e-9), (5.0, 1e-8)])
    def test_mgf(self, pi4_spec, T, rel):
        for theta in (-2.0, -0.5, 0.1):
            q = MgfQuery(x=X0, theta=theta, T=T, j_max=2000)
            assert conditional_mgf(q, pi4_spec) == pytest.approx(
                conditional_mgf_series(q, pi4_spec), rel=rel
            )

    def test_extreme_horizon_and_theta(self):
        # T = 1e300, theta = -1e300: the projections underflow to 0, so
        # theta^2 sum g^2/(1 - theta gamma) is 0 (not inf * 0 = NaN)
        rng = np.random.default_rng(2024)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(10):
                d = int(rng.integers(2, 9))
                spec = random_system(rng, d)
                q = MgfQuery(x=rng.standard_normal(d), theta=-1e300, T=1e300)
                assert conditional_mgf_series(q, spec) == conditional_mgf(q, spec)

    def test_long_horizon_correction_is_constant(self, pi4_spec, pi4_spectrum):
        # Lambda - Lambda_T = c/T + o(1/T), far past where e^{|alpha| T}
        # overflows a double
        limit = cramer(0.1, pi4_spectrum)
        scaled = [
            T * (limit - cramer_finite_T(0.1, pi4_spec, T))
            for T in (40.0, 400.0, 4000.0)
        ]
        assert max(scaled) - min(scaled) <= 1e-9
        assert scaled[0] == pytest.approx(0.020938669725, abs=1e-9)


class TestDivergenceBoundary:
    HORIZONS = (0.05, 0.5, 2.0, 10.0, 60.0)

    def systems(self):
        rng = np.random.default_rng(20240)
        styles = ("identity", "scalar", "poly")
        return [random_system(rng, 2 + i % 5, styles[i % 3]) for i in range(60)]

    def test_threshold_sweep(self):
        """theta = 1/gamma_1 diverges in both functions, exactly as the
        spectral layer's comparison says; just below it the MGF is finite."""
        for spec in self.systems():
            sp = spectral_decompose(spec)
            x0 = np.zeros(spec.dim)
            for T in self.HORIZONS:
                gamma1 = kernel_spectrum(sp, T).gamma_max
                theta = 1.0 / gamma1
                assert conditional_mgf(MgfQuery(x=x0, theta=theta, T=T), spec) == math.inf
                # smallest float tilt whose theta = lam(1+lam)/2 reaches 1/gamma_1
                lam = (math.sqrt(1.0 + 8.0 * theta) - 1.0) / 2.0
                while 0.5 * lam * (1.0 + lam) < theta:
                    lam = math.nextafter(lam, math.inf)
                assert cramer_finite_T(lam, spec, T) == math.inf
                below = MgfQuery(x=x0, theta=(1.0 - 1e-9) * theta, T=T)
                assert math.isfinite(conditional_mgf(below, spec))
                # one ulp below, rounding may already reach the zero of w
                ulp_below = MgfQuery(x=x0, theta=math.nextafter(theta, 0.0), T=T)
                assert conditional_mgf(ulp_below, spec) > 0.0
                # from a zero start only the determinant is left, finite
                # exactly below the threshold
                for ratio in np.geomspace(0.2, 5.0, 25):
                    q = MgfQuery(x=x0, theta=ratio * theta, T=T)
                    diverged = conditional_mgf(q, spec) == math.inf
                    assert diverged == (ratio * theta >= 1.0 / gamma1)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 6),
        log_T=st.floats(math.log(1e-3), math.log(1e4)),
        theta=st.floats(-10.0, 10.0),
        lam=st.floats(-3.0, 2.0),
    )
    def test_property_value_or_inf(self, seed, d, log_T, theta, lam):
        rng = np.random.default_rng(seed)
        spec = random_system(rng, d, ("identity", "scalar", "poly")[seed % 3])
        T = math.exp(log_T)
        x0 = rng.standard_normal(d)
        mgf = conditional_mgf(MgfQuery(x=x0, theta=theta, T=T), spec)
        lam_T = cramer_finite_T(lam, spec, T)
        assert isinstance(mgf, float) and 0.0 <= mgf <= math.inf
        assert isinstance(lam_T, float)
        assert math.isfinite(lam_T) or lam_T == math.inf
