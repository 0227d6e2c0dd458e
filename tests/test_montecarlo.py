"""Ensemble simulation: exactness, determinism, estimators, cross-scheme bias."""

import contextlib
import hashlib
import math
import multiprocessing
import os
import signal

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

import epr_ldp.montecarlo as mc
from epr_ldp.chaos import s0
from epr_ldp.cramer import cramer_domain
from epr_ldp.errors import ConfigError, DomainError, NumericError
from epr_ldp.model import (
    SystemSpec,
    _sym_eig_sqrt,
    magnetic_example,
    spectral_decompose,
)
from epr_ldp.montecarlo import (
    EprEnsemble,
    SimConfig,
    empirical_mgf,
    simulate_epr,
    simulate_z_integral,
    tail_estimate,
)
from epr_ldp.testing import random_system

SQRT2 = math.sqrt(2.0)


def _reference_windows(gens, n_steps, d):
    """Trajectory-major (n_traj, steps, d) noise windows."""
    for take in mc._windows(n_steps, len(gens), d):
        yield np.stack([g.standard_normal((take, d)) for g in gens])


def reference_epr(spec, config):
    """simulate_epr's samples from the trajectory-major (n_traj, d) stepper
    the library used before its component-major layout: the oracle for it."""
    h, n_steps = mc._step_grid(spec, config)
    d, A = spec.dim, spec.A
    N = A - A.T
    gens = mc._trajectory_generators(config.seed, 0, config.n_traj)
    if config.start == "stationary":
        z = np.array([g.standard_normal(d) for g in gens])
        X = z @ mc._stationary_root(spec)
    else:
        X = np.tile(np.asarray(config.start), (config.n_traj, 1))
    acc = np.zeros(config.n_traj)
    if config.scheme == "exact_ou":
        E, root = mc._exact_step_matrices(spec, 0.0, spec.Q, h)
        K = np.linalg.solve(spec.Q, N)
        for Z in _reference_windows(gens, n_steps, d):
            for s in range(Z.shape[1]):
                X_next = X @ E.T + Z[:, s, :] @ root.T
                acc -= np.sum((X @ K) * X_next, axis=1)
                X = X_next
        return acc / config.T
    sqrt_q = _sym_eig_sqrt(spec.Q)[1]
    C = np.linalg.solve(sqrt_q, N)
    sqrt_h = math.sqrt(h)
    ito = np.zeros(config.n_traj)
    w_cur = np.sum((X @ C.T) ** 2, axis=1)
    time_int = np.zeros(config.n_traj)
    for Z in _reference_windows(gens, n_steps, d):
        for s in range(Z.shape[1]):
            dB = sqrt_h * Z[:, s, :]
            ito += np.sum((X @ C.T) * dB, axis=1)
            X = X + h * (X @ A.T) + dB @ sqrt_q.T
            w_next = np.sum((X @ C.T) ** 2, axis=1)
            time_int += 0.5 * h * (w_cur + w_next)
            w_cur = w_next
    return (ito + 0.5 * time_int) / config.T


def reference_z_integral(spec, lam, x, config):
    """simulate_z_integral from the trajectory-major stepper."""
    h, n_steps = mc._step_grid(spec, config)
    N = spec.A - spec.A.T
    gens = mc._trajectory_generators(config.seed, 0, config.n_traj)
    E, root = mc._exact_step_matrices(spec, lam, np.eye(spec.dim), h)
    Y = np.tile(np.asarray(x, dtype=float), (config.n_traj, 1))
    w_cur = np.sum((Y @ N.T) ** 2, axis=1)
    acc = np.zeros(config.n_traj)
    for Z in _reference_windows(gens, n_steps, spec.dim):
        for s in range(Z.shape[1]):
            Y = Y @ E.T + Z[:, s, :] @ root.T
            w_next = np.sum((Y @ N.T) ** 2, axis=1)
            acc += 0.5 * h * (w_cur + w_next)
            w_cur = w_next
    return acc


class TestSimConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"T": 0.0},
            {"T": -1.0},
            {"T": 1.0, "dt": 0.0},
            {"T": 1.0, "dt": 2.0},
            {"T": 1.0, "n_traj": 0},
            {"T": 1.0, "scheme": "milstein"},
            {"T": 1.0, "start": "origin"},
            {"T": "1.0"},
            {"T": 1.0, "dt": "abc"},
            {"T": 1.0, "dt": True},
            {"T": 1.0, "start": [1, "a"]},
            {"T": 1.0, "start": [[1.0], [2.0, 3.0]]},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, error",
        [({"T": math.inf, "dt": 0.1}, DomainError),
         ({"T": 1.0, "start": (0.0, math.nan)}, DomainError),
         ({"T": 1.0, "dt": 0.1, "start": (math.inf, 0.0)}, DomainError),
         ({"T": 1.0, "n_traj": 2.5}, ConfigError),
         ({"T": 1.0, "n_traj": math.inf}, ConfigError),
         ({"T": 1.0, "seed": 2.5}, ConfigError)],
        ids=["infinite_T", "nan_start", "infinite_start", "fractional_n_traj",
             "infinite_n_traj", "fractional_seed"],
    )
    def test_rejects_unsimulable_requests(self, pi4_spec, kwargs, error):
        # each once escaped as a raw error, as an unstable-step NumericError
        # or as a silent truncation
        with pytest.raises(error):
            simulate_epr(pi4_spec, SimConfig(**kwargs))

    def test_start_vector_coerced(self):
        cfg = SimConfig(T=1.0, start=np.array([1.0, 2.0]))
        assert cfg.start == (1.0, 2.0)

    def test_fingerprint_stable_and_sensitive(self):
        a = SimConfig(T=1.0, dt=0.01, seed=3)
        b = SimConfig(T=1.0, dt=0.01, seed=3)
        c = SimConfig(T=1.0, dt=0.01, seed=4)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert len(a.fingerprint()) == 16
        assert all(ch in "0123456789abcdef" for ch in a.fingerprint())


class TestStationarySampling:
    def test_magnetic_stationary_covariance(self, pi4_spec):
        root = mc._stationary_root(pi4_spec)
        assert np.max(np.abs(root @ root - 0.5 * np.eye(2))) <= 1e-14

    def test_moments_match_covariance(self, pi4_spec):
        # the first deviates of each trajectory's stream, mapped by the root,
        # are the ensemble's stationary starting states
        n = 100_000
        gens = mc._trajectory_generators(41, 0, n)
        draws = mc._start_states(gens, mc._stationary_root(pi4_spec))
        emp = draws @ draws.T / n
        bound = 5.0 * math.sqrt(2.0 / n) * 0.5
        assert np.max(np.abs(emp - 0.5 * np.eye(2))) <= bound

    @pytest.mark.parametrize(
        "A, match",
        [([[0.0, 1.0], [-1.0, 0.0]], "singular"),
         ([[0.5, 1.0], [-1.0, 0.5]], "not positive definite")],
        ids=["singular_m", "unstable_drift"],
    )
    def test_stationary_start_needs_stable_drift(self, A, match):
        # the unstable drift's -Q M^{-1} = -I has a positive determinant
        config = SimConfig(T=1.0, dt=0.1, n_traj=4)
        with pytest.raises(NumericError, match=match):
            simulate_epr(SystemSpec(np.array(A)), config)


class TestExactStep:
    def test_short_step_stays_close(self, pi4_spec):
        x0 = np.array([1.0, -1.0])
        E, root = mc._exact_step_matrices(pi4_spec, 0.0, pi4_spec.Q, 1e-8)
        x1 = E @ x0 + root @ np.random.default_rng(5).standard_normal(2)
        assert np.max(np.abs(x1 - x0)) <= 1e-2

    def test_preserves_stationary_law(self, pi4_spec):
        rng = np.random.default_rng(12)
        n = 4000
        starts = rng.standard_normal((n, 2)) @ mc._stationary_root(pi4_spec)
        E, root = mc._exact_step_matrices(pi4_spec, 0.0, pi4_spec.Q, 0.7)
        stepped = starts @ E.T + rng.standard_normal((n, 2)) @ root.T
        emp = stepped.T @ stepped / n
        assert np.max(np.abs(emp - 0.5 * np.eye(2))) <= 8.0 * math.sqrt(2.0 / n) * 0.5

    @pytest.mark.parametrize("q_style", ["identity", "scalar", "poly"])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_step_matrices_match_expm(self, d, q_style):
        # e^{Dh} of the tilted drift D = A + lam N comes from the channels and
        # Sigma_h from eigh(M); scipy's expm of D h and M h is the reference
        # for both
        spec = random_system(np.random.default_rng(7000 + d), d, q_style)
        A = spec.A
        b = cramer_domain(spectral_decompose(spec)).b
        cases = [(0.0, spec.Q)] + [(lam, np.eye(d)) for lam in (0.0, 0.3 * b, -0.3 * b)]
        for h in (1e-3, 0.1, 2.0):
            for lam, Q in cases:
                D = A + lam * (A - A.T)
                E, root = mc._exact_step_matrices(spec, lam, Q, h)
                M = D + D.T
                E_ref = scipy.linalg.expm(D * h)
                sigma_ref = np.linalg.solve(M, (scipy.linalg.expm(M * h) - np.eye(d)) @ Q)
                for got, want in ((E, E_ref), (root @ root.T, sigma_ref)):
                    scale = max(1.0, float(np.linalg.norm(want)))
                    assert np.linalg.norm(got - want) <= 1e-12 * scale


class TestSimulateEpr:
    def test_deterministic_replay(self, pi4_spec):
        cfg = SimConfig(T=2.0, dt=0.01, n_traj=64, seed=9)
        a = simulate_epr(pi4_spec, cfg)
        b = simulate_epr(pi4_spec, cfg)
        assert np.array_equal(a.samples, b.samples)
        assert a.config == cfg.fingerprint()

    @pytest.mark.parametrize("scheme", ["exact_ou", "euler_maruyama"])
    @pytest.mark.parametrize("start", ["stationary", (1.0, 0.0)])
    @pytest.mark.parametrize(
        "noise, failing",
        [(lambda A: np.array([[2.0, 0.3], [0.3, 1.0]]), "aq_commute"),
         (lambda A: np.eye(2) + 0.3 * (A - A.T), "q_symmetric"),
         (lambda A: -np.eye(2), "q_spd")],
        ids=["noncommuting", "asymmetric", "negative"],
    )
    def test_bad_noise_refused(self, scheme, start, noise, failing):
        # the exact step's Sigma_h assumes AQ = QA; symmetrising it hid a bad Q
        A = magnetic_example(0.7).A
        cfg = SimConfig(T=1.0, dt=0.01, n_traj=4, seed=3, scheme=scheme, start=start)
        with pytest.raises(DomainError, match=failing):
            simulate_epr(SystemSpec(A, noise(A)), cfg)

    @pytest.mark.parametrize("scheme", ["exact_ou", "euler_maruyama"])
    def test_unstable_drift_refused_from_a_fixed_start(self, scheme):
        # the Euler path never decomposes A, so only the stability verdict stops it
        cfg = SimConfig(T=1.0, dt=0.01, n_traj=4, seed=3, scheme=scheme, start=(1.0, 0.0))
        with pytest.raises(DomainError, match="stability"):
            simulate_epr(SystemSpec(np.array([[0.5, 1.0], [-1.0, 0.5]])), cfg)

    def test_window_size_does_not_change_samples(self, pi4_spec, monkeypatch):
        cfg = SimConfig(T=1.0, dt=0.01, n_traj=32, seed=13)
        baseline = simulate_epr(pi4_spec, cfg).samples
        monkeypatch.setattr(mc, "_WINDOW_VALUES", 512)
        chunked = simulate_epr(pi4_spec, cfg).samples
        assert np.array_equal(baseline, chunked)

    @pytest.mark.parametrize("draw_values", [1, 150, 1001, 4800])
    @pytest.mark.parametrize("kind", ["exact_ou", "euler_maruyama", "z"])
    def test_draw_buffer_size_does_not_change_samples(
        self, pi4_spec, monkeypatch, kind, draw_values
    ):
        # 100 steps x 2 components = 200 values per trajectory.  1, 150 and
        # 1001 values stage 16 trajectories at a time in slabs of 1, 4 and 31
        # steps (the last slab ragged); 4800 stages 24 whole trajectories,
        # which leaves a last buffer of 8 of the 32.
        if kind == "z":
            cfg = SimConfig(T=1.0, dt=0.01, n_traj=32, seed=14)
            run = lambda: simulate_z_integral(pi4_spec, 0.2, [0.5, -1.0], cfg)
        else:
            cfg = SimConfig(T=1.0, dt=0.01, n_traj=32, seed=14, scheme=kind)
            run = lambda: simulate_epr(pi4_spec, cfg).samples
        baseline = run()
        monkeypatch.setattr(mc, "_DRAW_VALUES", draw_values)
        assert np.array_equal(baseline, run())

    @pytest.mark.parametrize("block_values, window_values",
                             [(1, None), (448, None), (448, 1920)],
                             ids=["one_step", "ragged", "ragged_windows"])
    @pytest.mark.parametrize("kind", ["exact_ou", "euler_maruyama", "z"])
    def test_block_length_does_not_change_samples(
        self, pi4_spec, monkeypatch, kind, block_values, window_values
    ):
        # 32 trajectories x 2 components over 100 steps: blocks of 1 step, and
        # of 7 steps, ragged at the end of one window of 100 steps (2) or of
        # windows of 30, 30, 30 and 10 steps (2, 2, 2 and 3).
        if kind == "z":
            cfg = SimConfig(T=1.0, dt=0.01, n_traj=32, seed=17)
            run = lambda: simulate_z_integral(pi4_spec, 0.2, [0.5, -1.0], cfg)
        else:
            cfg = SimConfig(T=1.0, dt=0.01, n_traj=32, seed=17, scheme=kind,
                            start=(0.3, -0.2) if kind == "exact_ou" else "stationary")
            run = lambda: simulate_epr(pi4_spec, cfg).samples
        baseline = run()
        monkeypatch.setattr(mc, "_BLOCK_VALUES", block_values)
        if window_values is not None:
            monkeypatch.setattr(mc, "_WINDOW_VALUES", window_values)
        assert np.array_equal(baseline, run())

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 8),
        style=st.sampled_from(["identity", "scalar", "poly"]),
        kind=st.sampled_from(["exact_ou", "euler_maruyama", "z"]),
        fixed_start=st.booleans(),
        n_traj=st.integers(1, 24),
        n_steps=st.integers(1, 30),
    )
    def test_property_matches_trajectory_major_reference(
        self, seed, d, style, kind, fixed_start, n_traj, n_steps
    ):
        # Same draws, same arithmetic; only sums of eight or more terms may
        # round differently (np.sum is pairwise there, einsum sequential).
        rng = np.random.default_rng(seed)
        spec = random_system(rng, d, style)
        x0 = tuple(rng.standard_normal(d))
        T = 0.01 * n_steps
        if kind == "z":
            cfg = SimConfig(T=T, dt=0.01, n_traj=n_traj, seed=seed)
            got = simulate_z_integral(spec, 0.3, x0, cfg)
            ref = reference_z_integral(spec, 0.3, x0, cfg)
        else:
            cfg = SimConfig(T=T, dt=0.01, n_traj=n_traj, seed=seed, scheme=kind,
                            start=x0 if fixed_start else "stationary")
            got = simulate_epr(spec, cfg).samples
            ref = reference_epr(spec, cfg)
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * float(np.max(np.abs(ref))))

    def test_magnetic_ensembles_equal_reference_bitwise(self, pi4_spec, monkeypatch):
        # d = 2: every sum has two terms, so the layouts agree bit for bit,
        # across several drawing windows too (6 steps per window here).
        monkeypatch.setattr(mc, "_WINDOW_VALUES", 3600)
        for scheme in ("exact_ou", "euler_maruyama"):
            cfg = SimConfig(T=0.5, dt=0.01, n_traj=300, seed=15, scheme=scheme)
            assert np.array_equal(simulate_epr(pi4_spec, cfg).samples,
                                  reference_epr(pi4_spec, cfg))
        cfg = SimConfig(T=0.5, dt=0.01, n_traj=300, seed=16)
        assert np.array_equal(simulate_z_integral(pi4_spec, 0.1, [1.0, 0.5], cfg),
                              reference_z_integral(pi4_spec, 0.1, [1.0, 0.5], cfg))

    def test_narrow_ensemble_over_blocks_and_windows_equals_reference_bitwise(
        self, pi4_spec, monkeypatch
    ):
        # 16 trajectories over 250 steps, in windows of 100, 100 and 50 steps
        # cut into blocks of 40 steps (the last of each window ragged).
        monkeypatch.setattr(mc, "_WINDOW_VALUES", 32 * 100)
        monkeypatch.setattr(mc, "_BLOCK_VALUES", 32 * 40)
        for scheme in ("exact_ou", "euler_maruyama"):
            cfg = SimConfig(T=2.5, dt=0.01, n_traj=16, seed=18, scheme=scheme)
            assert np.array_equal(simulate_epr(pi4_spec, cfg).samples,
                                  reference_epr(pi4_spec, cfg))
        cfg = SimConfig(T=2.5, dt=0.01, n_traj=16, seed=19)
        assert np.array_equal(simulate_z_integral(pi4_spec, 0.1, [1.0, 0.5], cfg),
                              reference_z_integral(pi4_spec, 0.1, [1.0, 0.5], cfg))

    def test_samples_read_only(self, pi4_spec):
        ens = simulate_epr(pi4_spec, SimConfig(T=1.0, dt=0.05, n_traj=8, seed=1))
        with pytest.raises(ValueError):
            ens.samples[0] = 0.0

    def test_reversible_system_gives_exact_zero(self):
        spec = SystemSpec(np.diag([-1.0, -2.0]))
        for scheme in ("exact_ou", "euler_maruyama"):
            cfg = SimConfig(T=1.0, dt=0.01, n_traj=16, seed=2, scheme=scheme)
            assert np.all(simulate_epr(spec, cfg).samples == 0.0)

    def test_schemes_differ_but_agree_in_mean(self, pi4_spec):
        exact = simulate_epr(
            pi4_spec, SimConfig(T=10.0, dt=5e-3, n_traj=2000, seed=21)
        )
        euler = simulate_epr(
            pi4_spec,
            SimConfig(T=10.0, dt=5e-3, n_traj=2000, seed=21, scheme="euler_maruyama"),
        )
        assert not np.array_equal(exact.samples, euler.samples)
        for ens in (exact, euler):
            se = ens.samples.std(ddof=1) / math.sqrt(ens.samples.size)
            assert abs(ens.samples.mean() - SQRT2) <= 5.0 * se

    def test_metadata_and_step_warning(self, pi4_spec):
        quiet = simulate_epr(pi4_spec, SimConfig(T=1.0, dt=0.01, n_traj=4, seed=3))
        assert quiet.metadata["warnings"] == []
        assert quiet.metadata["n_steps"] == 100
        noisy = simulate_epr(pi4_spec, SimConfig(T=2.0, dt=0.5, n_traj=4, seed=3))
        assert any("discretization bias" in w for w in noisy.metadata["warnings"])

    def test_default_step_resolution(self, pi4_spec):
        ens = simulate_epr(pi4_spec, SimConfig(T=0.5, n_traj=4, seed=3))
        assert ens.metadata["dt"] == pytest.approx(1e-3, rel=1e-10)

    def test_unstable_discretization_raises(self, pi4_spec):
        cfg = SimConfig(
            T=3000.0, dt=3.0, n_traj=4, seed=0, scheme="euler_maruyama",
            start=(1.0, 0.0),
        )
        with pytest.raises(NumericError):
            simulate_epr(pi4_spec, cfg)

    def test_euler_bias_halves_with_step(self, pi4_spec):
        # first-order weak error: halving dt should roughly halve the bias
        biases = []
        for dt in (0.08, 0.04):
            cfg = SimConfig(T=20.0, dt=dt, n_traj=40_000, seed=77,
                            scheme="euler_maruyama")
            biases.append(simulate_epr(pi4_spec, cfg).samples.mean() - SQRT2)
        ratio = biases[0] / biases[1]
        assert 1.4 <= ratio <= 3.0


def _same_state(a, b) -> bool:
    """Whether two bit-generator state dicts hold equal values throughout."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


class TestStreams:
    """Trajectory k's stream is Philox keyed (seed mod 2^64, k) at counter 0."""

    @pytest.mark.parametrize("seed", [0, 7, -1, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("lo, hi", [(0, 4), (5, 9), (2**40 - 2, 2**40 + 1)])
    def test_generators_match_keyed_philox(self, seed, lo, hi):
        gens = mc._trajectory_generators(seed, lo, hi)
        assert len(gens) == hi - lo
        for k, g in zip(range(lo, hi), gens):
            key = np.array([seed & mc._MASK64, k], dtype=np.uint64)
            ref = np.random.Generator(np.random.Philox(key=key))
            assert _same_state(g.bit_generator.state, ref.bit_generator.state)
            assert np.array_equal(g.standard_normal(1000), ref.standard_normal(1000))
            assert _same_state(g.bit_generator.state, ref.bit_generator.state)

    def test_pinned_ensemble(self, pi4_spec):
        # the samples' sha256, pinned when the streams became key-seeded
        # (same bits as before); a change of any stream or of the exact_ou
        # arithmetic moves it, and must then be stated in CHANGES.md
        cfg = SimConfig(T=0.09, dt=0.01, n_traj=37, seed=3)
        samples = simulate_epr(pi4_spec, cfg).samples
        assert hashlib.sha256(samples.tobytes()).hexdigest() == (
            "efa6244722b69bae244ccf85029c4abc2d8937ceb0f6b39471828c779f414aab"
        )


_GENERATORS = mc._trajectory_generators


def _raise_in_workers(seed, lo, hi):
    if lo > 0:
        raise DomainError(f"raised for trajectories [{lo}, {hi})")
    return _GENERATORS(seed, lo, hi)


def _die_in_workers(seed, lo, hi):
    if lo > 0:
        os._exit(3)
    return _GENERATORS(seed, lo, hi)


def _send_samples(conn, spec, config):
    conn.send(simulate_epr(spec, config).samples)
    conn.close()


def _split_into(monkeypatch, w):
    """Make every ensemble of at least w trajectories run as w ranges."""
    monkeypatch.setattr(mc, "_MIN_TRAJ_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(w)), raising=False)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail a test that blocks longer than ``seconds`` instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestWorkerRanges:
    """Ensembles split over forked workers: same bits for any worker count."""

    @pytest.mark.parametrize("kind", ["exact_ou", "euler_maruyama", "z"])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_samples_identical_for_any_worker_count(self, monkeypatch, d, kind):
        # 37 trajectories (odd, so the ranges differ in length) over 9 steps,
        # drawn in windows of 2 steps.
        rng = np.random.default_rng(8100 + d)
        spec = random_system(rng, d, ("identity", "scalar", "poly")[d % 3])
        x0 = tuple(rng.standard_normal(d))
        monkeypatch.setattr(mc, "_WINDOW_VALUES", 2 * 37 * d)
        if kind == "z":
            cfg = SimConfig(T=0.09, dt=0.01, n_traj=37, seed=d)
            run = lambda: [simulate_z_integral(spec, 0.3, x0, cfg)]
        else:
            cfgs = [SimConfig(T=0.09, dt=0.01, n_traj=37, seed=d, scheme=kind, start=start)
                    for start in ("stationary", x0)]
            run = lambda: [simulate_epr(spec, cfg).samples for cfg in cfgs]
        samples = {}
        for w in (1, 2, 3):
            _split_into(monkeypatch, w)
            assert mc._worker_count(37) == w
            samples[w] = run()
        for w in (2, 3):
            for got, want in zip(samples[w], samples[1]):
                assert np.array_equal(got, want)

    def test_worker_count_rule(self, monkeypatch):
        cpus = os.cpu_count()
        assert 1 <= mc._worker_count(10**9) <= cpus
        assert mc._worker_count(2 * mc._MIN_TRAJ_PER_WORKER - 1) == 1
        _split_into(monkeypatch, 2)
        assert mc._worker_count(2) == 2
        assert mc._worker_count(1) == 1
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert mc._worker_count(2) == 1

    def test_worker_error_keeps_its_class(self, pi4_spec, monkeypatch):
        _split_into(monkeypatch, 2)
        monkeypatch.setattr(mc, "_trajectory_generators", _raise_in_workers)
        with _deadline(60), pytest.raises(DomainError, match=r"\[10, 20\)"):
            simulate_epr(pi4_spec, SimConfig(T=0.1, dt=0.01, n_traj=20, seed=3))

    def test_dead_worker_raises_numeric_error(self, pi4_spec, monkeypatch):
        _split_into(monkeypatch, 2)
        monkeypatch.setattr(mc, "_trajectory_generators", _die_in_workers)
        with _deadline(60), pytest.raises(NumericError, match="worker"):
            simulate_epr(pi4_spec, SimConfig(T=0.1, dt=0.01, n_traj=20, seed=3))

    def test_daemonic_caller_runs_serially(self, pi4_spec, monkeypatch):
        # a daemonic process may not fork workers; it must step every range itself
        cfg = SimConfig(T=0.1, dt=0.01, n_traj=20, seed=3)
        serial = simulate_epr(pi4_spec, cfg).samples
        _split_into(monkeypatch, 2)
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_send_samples, args=(sender, pi4_spec, cfg), daemon=True)
        child.start()
        sender.close()
        try:
            assert receiver.poll(60)
            got = receiver.recv()
        finally:
            child.join(60)
        assert not child.is_alive()
        assert child.exitcode == 0
        assert np.array_equal(got, serial)


class TestEmpiricalMgf:
    def test_zero_tilt_exact(self, pi4_spec):
        ens = simulate_epr(pi4_spec, SimConfig(T=1.0, dt=0.05, n_traj=32, seed=4))
        est = empirical_mgf(ens, 0.0)
        assert est == (0.0, 0.0)

    def test_single_sample_has_infinite_stderr(self):
        ens = EprEnsemble(np.array([1.3]), T=2.0, config="abc")
        assert empirical_mgf(ens, 0.1).stderr == math.inf

    def test_dominating_sample_has_infinite_stderr(self):
        # e^-50 is below half an ulp of 1 + e^-50, so the leave-one-out sum
        # of the larger sample cancels to 0: its log is -inf (the spread was NaN)
        ens = EprEnsemble(np.array([1.0, 2.0]), T=50.0, config="abc")
        est = empirical_mgf(ens, 1.0)
        assert est.value == pytest.approx(2.0 - math.log(2.0) / 50.0, rel=1e-15)
        assert est.stderr == math.inf

    @pytest.mark.parametrize("lam", [1e308, -1e308])
    def test_extreme_tilt_is_not_nan(self, pi4_spec, lam):
        # lam T s overflowed to inf - inf; the shift is now taken on lam s
        ens = simulate_epr(pi4_spec, SimConfig(T=5.0, dt=0.01, n_traj=50, seed=4))
        est = empirical_mgf(ens, lam)
        top = float(ens.samples.max() if lam > 0 else ens.samples.min())
        assert est.value == (math.inf if abs(lam * top) == math.inf else pytest.approx(lam * top))
        assert est.stderr == math.inf

    def test_matches_direct_jackknife(self):
        rng = np.random.default_rng(8)
        samples = rng.normal(1.4, 0.4, size=200)
        ens = EprEnsemble(samples, T=3.0, config="abc")
        lam, T, n = 0.25, 3.0, samples.size
        est = empirical_mgf(ens, lam)
        w = np.exp(lam * T * samples)
        assert est.value == pytest.approx(math.log(w.mean()) / T, rel=1e-12)
        loo = np.array(
            [math.log(np.delete(w, i).mean()) / T for i in range(n)]
        )
        se = math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))
        assert est.stderr == pytest.approx(se, rel=1e-10)


class TestZIntegral:
    def test_mean_matches_offset(self, pi4_spec):
        x = np.array([1.0, 0.0])
        zs = simulate_z_integral(
            pi4_spec, 0.0, x, SimConfig(T=1.0, dt=1e-3, n_traj=20_000, seed=4170)
        )
        target = s0(x, pi4_spec, 1.0)
        se = zs.std(ddof=1) / math.sqrt(zs.size)
        assert abs(zs.mean() - target) <= 3.5 * se

    def test_law_independent_of_tilt(self, pi4_spec):
        x = np.array([1.0, 0.0])
        cfg = SimConfig(T=1.0, dt=2e-3, n_traj=4000, seed=31)
        z0 = simulate_z_integral(pi4_spec, 0.0, x, cfg)
        z1 = simulate_z_integral(pi4_spec, 0.1, x, cfg)
        assert ks_2samp(z0, z1).pvalue > 0.01

    @pytest.mark.parametrize(
        "lam, x", [(math.nan, (0.0, 1.0)), (0.1, (math.nan, 1.0)), (0.1, (math.inf, 1.0))]
    )
    def test_rejects_nan_tilt_or_start(self, pi4_spec, lam, x):
        # each once gave all-NaN samples
        with pytest.raises(DomainError):
            simulate_z_integral(pi4_spec, lam, x, SimConfig(T=0.1, dt=0.01, n_traj=4))

    def test_nonnegative(self, pi4_spec):
        zs = simulate_z_integral(
            pi4_spec, 0.0, [0.5, 0.5], SimConfig(T=0.5, dt=1e-2, n_traj=64, seed=6)
        )
        assert np.all(zs >= 0.0)


class TestTailEstimate:
    def make(self, samples, T=2.0):
        return EprEnsemble(np.asarray(samples, dtype=float), T=T, config="x")

    def test_upper_side_counts(self):
        est = tail_estimate(self.make([0.0, 1.0, 2.0, 3.0]), 2.5)
        assert est.side == "upper"
        assert est.probability == 0.25
        assert est.log_rate == pytest.approx(-math.log(0.25) / 2.0)
        assert not est.censored

    def test_lower_side_counts(self):
        est = tail_estimate(self.make([0.0, 1.0, 2.0, 3.0]), 0.5)
        assert est.side == "lower"
        assert est.probability == 0.25

    def test_no_hits_censored(self):
        est = tail_estimate(self.make([1.0, 1.1, 0.9]), 50.0)
        assert est.censored
        assert est.probability == 0.0
        assert est.log_rate == math.inf

    def test_threshold_at_mean(self, pi4_spec):
        ens = simulate_epr(pi4_spec, SimConfig(T=10.0, dt=5e-3, n_traj=4000, seed=44))
        est = tail_estimate(ens, SQRT2)
        assert 0.3 <= est.probability <= 0.7


class TestNoiseInvariance:
    def test_epr_law_matches_across_noise(self):
        A = magnetic_example(math.pi / 4).A
        M = A + A.T
        variants = [
            SystemSpec(A),
            SystemSpec(A, 0.1 * np.eye(2)),
            SystemSpec(A, 1.5 * np.eye(2) - 0.4 * M + 0.1 * M @ M),
        ]
        ensembles = [
            simulate_epr(spec, SimConfig(T=10.0, dt=5e-3, n_traj=2000, seed=seed))
            for spec, seed in zip(variants, (4174, 4175, 4176))
        ]
        assert ks_2samp(ensembles[0].samples, ensembles[1].samples).pvalue > 0.01
        assert ks_2samp(ensembles[0].samples, ensembles[2].samples).pvalue > 0.01
