"""System validation and spectral decomposition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epr_ldp import model
from epr_ldp.chaos import MgfQuery, conditional_mgf, cramer_finite_T, s0
from epr_ldp.cramer import cramer_domain
from epr_ldp.errors import (
    DataError,
    DimensionError,
    DomainError,
    NumericError,
    ReversibilityError,
)
from epr_ldp.model import (
    SystemSpec,
    magnetic_example,
    mean_epr,
    spectral_decompose,
    validate_system,
)
from epr_ldp.montecarlo import _stationary_root
from epr_ldp.spectral import kernel_eval, nystrom_spectrum, trace_closed_form
from epr_ldp.testing import random_system

from conftest import commuting_q_variants


def check(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise AssertionError(f"no check named {name!r}")


class TestSystemSpec:
    def test_q_defaults_to_identity(self):
        spec = SystemSpec(np.array([[-1.0, 1.0], [-1.0, -1.0]]))
        assert np.array_equal(spec.Q, np.eye(2))
        assert spec.dim == 2

    def test_arrays_are_read_only(self, pi4_spec):
        assert not pi4_spec.A.flags.writeable
        assert not pi4_spec.Q.flags.writeable
        with pytest.raises(ValueError):
            pi4_spec.A[0, 0] = 7.0

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            SystemSpec(np.zeros((2, 3)))

    def test_rejects_mismatched_q(self):
        with pytest.raises(DimensionError):
            SystemSpec(-np.eye(2), np.eye(3))

    def test_rejects_non_finite(self):
        A = np.array([[-1.0, np.nan], [0.0, -1.0]])
        with pytest.raises(DataError):
            SystemSpec(A)


class TestValidation:
    def test_magnetic_passes_all_checks(self, pi4_spec):
        report = validate_system(pi4_spec)
        assert report.passed
        assert all(c.passed for c in report.checks)
        assert len(report.checks) == 9

    def test_non_normal_drift_fails_normality(self):
        report = validate_system(SystemSpec(np.array([[-1.0, 2.0], [0.0, -1.0]])))
        assert not report.passed
        failing = {c.name for c in report.failing()}
        assert "normality" in failing
        # ||A A' - A' A||_F for this triangular drift is exactly sqrt(32).
        assert check(report, "normality").residual == pytest.approx(
            math.sqrt(32.0), rel=1e-12
        )

    def test_symmetric_drift_is_warning_only(self):
        report = validate_system(SystemSpec(np.diag([-1.0, -2.0])))
        assert report.passed  # errors only
        assert [c.name for c in report.failing()] == ["not_symmetric"]
        c = check(report, "not_symmetric")
        assert not c.passed
        assert c.severity == "warning"

    def test_unstable_drift_fails_stability(self):
        report = validate_system(SystemSpec(np.diag([0.5, -1.0])))
        assert not check(report, "stability").passed

    def test_asymmetric_q_fails(self):
        A = np.diag([-1.0, -2.0])
        report = validate_system(SystemSpec(A, np.array([[1.0, 0.3], [0.0, 1.0]])))
        assert not check(report, "q_symmetric").passed

    def test_indefinite_q_fails(self):
        report = validate_system(SystemSpec(np.diag([-1.0, -2.0]), np.diag([1.0, -1.0])))
        assert not check(report, "q_spd").passed

    def test_non_commuting_q_fails(self, pi4_spec):
        report = validate_system(SystemSpec(pi4_spec.A, np.diag([1.0, 2.0])))
        assert not check(report, "aq_commute").passed

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [1e150, 1e200, 1e308])
    def test_huge_drift_fails_scale_without_warning(self, s):
        # the identities below square |A|; checked first, nothing overflows
        report = validate_system(SystemSpec(np.array([[-s, s], [-s, -s]])))
        assert not report.passed
        assert [(c.name, c.severity) for c in report.failing()] == [("scale", "error")]
        assert check(report, "scale").residual >= 2.0 * s

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [1e100, 5e149])
    def test_large_drift_validates_without_overflow(self, s):
        # the commutators square |A|; power-of-two rescaling keeps them finite
        report = validate_system(SystemSpec(np.array([[-s, s], [-s, -s]])))
        assert report.passed
        for c in report.checks:
            assert math.isfinite(c.residual)
            if c.name in ("normality", "commute_a_m"):  # of order eps |A|^2
                assert c.residual <= 1e-15 * s * s

    @pytest.mark.parametrize("s", [1e-6, 1e-11, 1e-100])
    def test_small_non_normal_drift_fails_normality(self, s):
        # each threshold scales with its own identity, with no floor of 1
        report = validate_system(SystemSpec(s * np.array([[-1.0, 2.0], [0.0, -1.0]])))
        assert not report.passed
        assert "normality" in {c.name for c in report.failing()}

    @pytest.mark.parametrize("s", [1e-11, 1e-100, 1e-149])
    def test_small_drift_passes_every_check(self, s):
        spec = magnetic_example(0.5)
        report = validate_system(SystemSpec(s * spec.A, spec.Q))
        assert report.failing() == ()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [0.0, 1e-151, 1e-308])
    def test_tiny_drift_fails_scale(self, s):
        report = validate_system(SystemSpec(np.array([[-s, s], [-s, -s]])))
        assert [(c.name, c.threshold) for c in report.failing()] == [("scale", 1e-150)]

    def test_as_dict_round_trip(self, pi4_spec):
        d = validate_system(pi4_spec).as_dict()
        assert d["passed"] is True
        assert {c["name"] for c in d["checks"]} == {
            "normality", "q_symmetric", "q_spd", "aq_commute", "stability",
            "not_symmetric", "commute_n_q", "commute_m_sqrtq", "commute_a_m",
        }


class TestSpectralDecompose:
    def test_magnetic_pairs(self, pi4_spec):
        sp = spectral_decompose(pi4_spec)
        c = math.cos(math.pi / 4)
        assert sp.dim == 2
        assert sp.has_rotation
        assert sp.pairs[0] == pytest.approx((-c, c), rel=1e-14)
        assert sp.pairs[1] == pytest.approx((-c, -c), rel=1e-14)

    def test_conjugate_channels_adjacent_positive_first(self, pi4_spec):
        sp = spectral_decompose(pi4_spec)
        assert sp.betas[0] > 0 > sp.betas[1]
        assert sp.betas[0] == -sp.betas[1]
        assert sp.alphas[0] == sp.alphas[1]

    def test_vectors_are_drift_eigenvectors(self, pi4_spec):
        sp = spectral_decompose(pi4_spec)
        for k, (alpha, beta) in enumerate(sp.pairs):
            U = sp.vectors[:, k]
            resid = np.linalg.norm(pi4_spec.A @ U - (alpha + 1j * beta) * U)
            assert resid <= 1e-12
            assert abs(np.vdot(U, U) - 1.0) <= 1e-12

    def test_vectors_complete(self, pi4_spec):
        sp = spectral_decompose(pi4_spec)
        P = sp.vectors @ sp.vectors.conj().T
        assert np.max(np.abs(P - np.eye(2))) <= 1e-12

    def test_reversible_drift_decomposes(self):
        # only the large-deviation objects refuse a reversible drift
        sp = spectral_decompose(SystemSpec(np.diag([-2.0, -1.0])))
        assert sp.pairs == ((-2.0, 0.0), (-1.0, 0.0))
        assert not sp.has_rotation
        with pytest.raises(ReversibilityError, match="identically 0"):
            cramer_domain(sp)

    @pytest.mark.parametrize("A", [[[0.5, 1.0], [-1.0, 0.5]], [[0.0, 1.0], [-1.0, 0.0]]],
                             ids=["unstable", "marginal"])
    def test_unstable_drift_refused(self, A):
        # a normal drift with alpha_k >= 0 breaks the stability assumption;
        # every entry point that reads its channels refuses it
        spec = SystemSpec(np.array(A))
        calls = [
            lambda: spectral_decompose(spec),
            lambda: cramer_finite_T(0.1, spec, 1.0),
            lambda: conditional_mgf(MgfQuery(x=[1.0, 0.0], theta=0.1), spec),
            lambda: s0([1.0, 0.0], spec, 1.0),
            lambda: trace_closed_form(spec, 1.0),
            lambda: nystrom_spectrum(spec, 0.0, 1.0, n_nodes=40),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="not stable"):
                call()

    def test_extended_magnetic_has_flat_channel(self):
        sp = spectral_decompose(magnetic_example(math.pi / 4, extended=True))
        c = math.cos(math.pi / 4)
        assert sp.dim == 3
        betas = sorted(sp.betas)
        assert betas == pytest.approx([-c, 0.0, c], rel=1e-14)
        assert np.allclose(sp.alphas, -c)

    def test_tiny_rotation_is_reversible(self):
        # |beta| = 2e-12 is within the 1e-12 (1 + |A|) tolerance that decides
        # reversibility, so the Schur block must not become a rotation pair.
        sp = spectral_decompose(SystemSpec(np.array([[-1.0, 2e-12], [-2e-12, -1.0]])))
        assert sp.pairs == ((-1.0, 0.0), (-1.0, 0.0))
        assert not sp.has_rotation
        with pytest.raises(ReversibilityError):
            cramer_domain(sp)

    def test_channel_arrays_built_once_read_only(self, pi4_spectrum):
        assert pi4_spectrum.alphas is pi4_spectrum.alphas
        assert pi4_spectrum.betas is pi4_spectrum.betas
        assert not pi4_spectrum.alphas.flags.writeable
        assert not pi4_spectrum.betas.flags.writeable

    def test_vectors_always_present(self, pi4_spectrum):
        assert pi4_spectrum.vectors.shape == (2, 2)
        assert pi4_spectrum.vectors.dtype == complex
        assert pi4_spectrum.alphas.shape == (2,)

    def test_non_normal_drift_raises_numeric_error(self):
        spec = SystemSpec(np.array([[-1.0, 2.0], [0.0, -1.0]]))
        with pytest.raises(NumericError, match="is A normal"):
            spectral_decompose(spec)

    @pytest.mark.parametrize("s", [1e-6, 1e-11, 1e-100])
    def test_small_non_normal_drift_raises_numeric_error(self, s):
        # its only eigenvalue is the real -s (twice): no rotation at any scale
        spec = SystemSpec(s * np.array([[-1.0, 2.0], [0.0, -1.0]]))
        with pytest.raises(NumericError, match="is A normal"):
            spectral_decompose(spec)

    @pytest.mark.parametrize("s", [1e-13, 1e-100])
    def test_small_drift_keeps_its_channels(self, s):
        # the tolerances scale with |A|, so a rescaled drift keeps beta/|alpha|
        sp = spectral_decompose(SystemSpec(s * magnetic_example(0.5).A))
        assert sp.betas / np.abs(sp.alphas) == pytest.approx(
            [math.tan(0.5), -math.tan(0.5)], rel=1e-12)
        assert cramer_domain(sp).m == pytest.approx(1.0 / math.tan(0.5) ** 2, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [0.0, 1e-151, 1e-200, 1e-308])
    def test_tiny_drift_raises_domain_error(self, s):
        # below 1e-150 the squares alpha^2, beta^2 leave the normal double range
        spec = SystemSpec(np.array([[-s, s], [-s, -s]]))
        with pytest.raises(DomainError, match="below 1e"):
            spectral_decompose(spec)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [1e151, 1e200, 1e308])
    def test_huge_drift_raises_domain_error(self, s):
        # |A| beyond 1e150 once overflowed inside np.linalg.norm with a warning
        spec = SystemSpec(np.array([[-s, s], [-s, -s]]))
        with pytest.raises(DomainError, match="exceeds 1e"):
            spectral_decompose(spec)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q", [1e151, 1e200, 1e-151, 1e-200])
    def test_out_of_range_noise_fails_scale_and_raises(self, q):
        # |Q| is range-checked like |A|; its commutators once overflowed
        spec = SystemSpec(magnetic_example(0.7).A, q * np.eye(2))
        report = validate_system(spec)
        assert [c.name for c in report.failing()] == ["scale"]
        assert check(report, "scale").threshold == (1e150 if q > 1.0 else 1e-150)
        with pytest.raises(DomainError, match="Q"):
            spectral_decompose(spec)

    @pytest.mark.filterwarnings("error")
    def test_large_drift_below_the_limit_decomposes(self):
        s = 1e149
        sp = spectral_decompose(SystemSpec(np.array([[-s, s], [-s, -s]])))
        assert sp.alphas == pytest.approx([-s, -s], rel=1e-14)
        assert sp.betas == pytest.approx([s, -s], rel=1e-14)

    def test_reduce_preserves_channels(self):
        # the channels depend on the drift alone, so a commuting Q and the
        # identity give the same ones
        A = magnetic_example(math.pi / 3).A
        M = A + A.T
        spec = SystemSpec(A, 1.5 * np.eye(2) - 0.4 * M + 0.1 * M @ M)
        sp0 = spectral_decompose(SystemSpec(A))
        sp1 = spectral_decompose(spec)
        assert np.allclose(sp0.alphas, sp1.alphas, rtol=1e-12)
        assert np.allclose(sp0.betas, sp1.betas, rtol=1e-12)


class TestAnalysisCache:
    def test_one_object_per_spec(self, pi4_spec):
        assert spectral_decompose(pi4_spec) is spectral_decompose(pi4_spec)
        # a shared result must not be writable by any one caller
        assert not spectral_decompose(pi4_spec).vectors.flags.writeable
        twin = SystemSpec(pi4_spec.A, pi4_spec.Q)
        assert spectral_decompose(twin) is not spectral_decompose(pi4_spec)
        assert spectral_decompose(twin).pairs == spectral_decompose(pi4_spec).pairs

    def test_reversibility_checked_on_every_call(self):
        spec = SystemSpec(np.diag([-2.0, -1.0]))
        sp = spectral_decompose(spec)
        for _ in range(2):
            with pytest.raises(ReversibilityError):
                cramer_domain(sp)
        assert spectral_decompose(spec) is sp

    def test_failure_not_cached(self, monkeypatch):
        calls = []
        decompose = model._decompose
        monkeypatch.setattr(model, "_decompose", lambda s: calls.append(s) or decompose(s))
        spec = SystemSpec(np.array([[-1.0, 2.0], [0.0, -1.0]]))  # not normal
        for _ in range(2):
            with pytest.raises(NumericError):
                spectral_decompose(spec)
        assert len(calls) == 2

    def test_one_decomposition_per_spec_across_layers(self, monkeypatch):
        calls = []
        decompose = model._decompose
        monkeypatch.setattr(
            model, "_decompose", lambda s: calls.append(s) or decompose(s)
        )
        for n, theta in enumerate((math.pi / 5, math.pi / 3), start=1):
            spec = magnetic_example(theta)
            x = np.array([0.3, -0.8])
            conditional_mgf(MgfQuery(x=x, theta=0.2, T=2.0), spec)
            cramer_finite_T(0.1, spec, 2.0)
            s0(x, spec, 2.0)
            kernel_eval(spec, 0.1, 2.0, 0.5, 1.5)
            nystrom_spectrum(spec, 0.1, 2.0, n_nodes=16)
            assert len(calls) == n
            assert calls[-1] is spec


class TestMagneticExample:
    def test_angle_domain(self):
        for theta in (math.pi / 2, -math.pi / 2, 2.0):
            with pytest.raises(DomainError):
                magnetic_example(theta)

    def test_zero_angle_is_reversible(self):
        spec = magnetic_example(0.0)
        assert np.array_equal(spec.A, -np.eye(2))
        with pytest.raises(ReversibilityError):
            cramer_domain(spectral_decompose(spec))

    def test_mean_epr_closed_form(self):
        for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
            sp = spectral_decompose(magnetic_example(theta))
            expected = 2.0 * math.sin(theta) ** 2 / math.cos(theta)
            assert mean_epr(sp) == pytest.approx(expected, rel=1e-12)

    def test_mean_epr_pi4_is_sqrt2(self, pi4_spectrum):
        assert mean_epr(pi4_spectrum) == pytest.approx(math.sqrt(2.0), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 6),
    q_style=st.sampled_from(["identity", "scalar", "poly"]),
)
def test_random_systems_satisfy_contract(seed, d, q_style):
    spec = random_system(np.random.default_rng(seed), d, q_style)
    report = validate_system(spec)
    assert report.passed, [c.name for c in report.failing()]

    sp = spectral_decompose(spec)
    assert len(sp.pairs) == d
    assert np.all(sp.alphas < 0)
    # rotating channels come in adjacent conjugate pairs, +beta first
    k = 0
    while k < d:
        if sp.betas[k] != 0.0:
            assert sp.betas[k] > 0
            assert sp.betas[k + 1] == -sp.betas[k]
            assert sp.alphas[k + 1] == sp.alphas[k]
            k += 2
        else:
            k += 1
    if sp.has_rotation:
        assert mean_epr(sp) > 0

    root = _stationary_root(spec)
    gamma = root @ root
    resid = spec.A @ gamma + gamma @ spec.A.T + spec.Q
    scale = max(1.0, float(np.max(np.abs(gamma))))
    assert np.max(np.abs(resid)) <= 1e-9 * scale


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5))
def test_vectors_reconstruct_drift(seed, d):
    spec = random_system(np.random.default_rng(seed), d, "identity")
    sp = spectral_decompose(spec)
    A_rebuilt = sum(
        (alpha + 1j * beta) * np.outer(U, np.conj(U))
        for (alpha, beta), U in zip(sp.pairs, sp.vectors.T)
    )
    assert np.max(np.abs(A_rebuilt.imag)) <= 1e-10
    assert np.max(np.abs(A_rebuilt.real - spec.A)) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([4, 8]),
    gap_exponents=st.lists(st.integers(-12, -1), min_size=3, max_size=3),
    same_beta=st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_near_degenerate_channels_decompose(seed, d, gap_exponents, same_beta):
    # Rotation pairs whose alphas sit 1e-12 ... 1e-1 apart, some with equal
    # beta, placed in a random orthonormal basis: a drift that validates must
    # decompose, and the channels are the planted ones.
    rng = np.random.default_rng(seed)
    n = d // 2
    alphas = -rng.uniform(0.3, 2.0) - np.cumsum([0.0] + [10.0**k for k in gap_exponents[: n - 1]])
    betas = rng.uniform(0.3, 2.0, n)
    for k in range(1, n):
        if same_beta[k - 1]:
            betas[k] = betas[k - 1]
    core = np.zeros((d, d))
    for k, (a, b) in enumerate(zip(alphas, betas)):
        core[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[a, b], [-b, a]]
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    spec = SystemSpec(basis @ core @ basis.T)
    if not validate_system(spec).passed:
        return
    sp = spectral_decompose(spec)
    planted = sorted(
        ((a, s * b) for a, b in zip(alphas, betas) for s in (1.0, -1.0)),
        key=lambda c: (c[0], -abs(c[1]), -c[1]),
    )
    assert np.max(np.abs(np.array(sp.pairs) - np.array(planted))) <= 1e-12
