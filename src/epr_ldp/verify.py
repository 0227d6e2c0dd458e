"""The ten cross-checks behind `epr-ldp verify` and the acceptance suite.

Each check sets a closed-form result against an independent oracle: the
Legendre search, the Nystrom discretization, the kernel trace or Monte
Carlo ensembles.  The deterministic checks have one size; each Monte Carlo
check takes a row of sizes, seeds, steps, horizons and statistical
thresholds.  ``run_verification`` runs the ``QUICK`` rows and the
acceptance suite its full rows, with frozen seeds.  Each check returns a
plain dict ready for JSON emission.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from . import montecarlo as mc
from .chaos import (MgfQuery, _channel_closed_form, conditional_mgf, cramer_finite_T,
                    cramer_finite_T_series)
from .cramer import cramer, cramer_domain, legendre_oracle, rate, symmetry_residuals
from .errors import DomainError
from .model import SystemSpec, magnetic_example, mean_epr, spectral_decompose
from .spectral import (_nystrom_blocks, _nystrom_eigvals, kernel_spectrum, nystrom_spectrum,
                       spectrum_gamma_tail, trace_closed_form)
from .testing import random_system

__all__ = ["CHECKS", "QUICK", "run_check", "run_verification"]

# Lambda_T(0.1) of the pi/4 magnetic example tends to Lambda(0.1) = 0.177957...
_FINITE_T_TARGET = 0.177957


def _result(passed: bool, **detail) -> dict:
    return {"passed": bool(passed), **detail}


def _classic() -> SystemSpec:
    """d = 2 system with channels (alpha, beta) = (-1, +-1)."""
    return SystemSpec(np.array([[-1.0, 1.0], [-1.0, -1.0]]))


def _benchmark_spectra() -> list:
    """Three magnetic angles plus five frozen random systems with d <= 6."""
    spectra = [
        spectral_decompose(magnetic_example(theta))
        for theta in (math.pi / 6, math.pi / 4, math.pi / 3)
    ]
    rng = np.random.default_rng(417)
    styles = ("identity", "scalar", "poly", "identity", "scalar")
    for d, style in zip((2, 3, 4, 5, 6), styles):
        spectra.append(spectral_decompose(random_system(rng, d, style)))
    return spectra


def _symmetry() -> dict:
    worst_lam = worst_rate = 0.0
    for sp in _benchmark_spectra():
        dom = cramer_domain(sp)
        xm = 3.0 * mean_epr(sp)
        r1, r2 = symmetry_residuals(
            sp, np.linspace(dom.a, dom.b, 101), np.linspace(-xm, xm, 41)
        )
        worst_lam = max(worst_lam, r1)
        worst_rate = max(worst_rate, r2)
    return _result(
        worst_lam <= 1e-12 and worst_rate <= 1e-9,
        lambda_residual=worst_lam, rate_residual=worst_rate,
    )


def _legendre() -> dict:
    worst = 0.0
    for sp in _benchmark_spectra():
        xm = 3.0 * mean_epr(sp)
        for x in np.linspace(-xm, xm, 61):
            closed = rate(float(x), sp).I
            searched = legendre_oracle(float(x), sp)
            worst = max(worst, abs(closed - searched) / (1.0 + closed))
    return _result(worst <= 1e-6, residual=worst)


def _fredholm_residual(spec: SystemSpec, T: float, n_nodes: int = 400) -> float:
    """Worst |log det(I - theta B) - log w| / (1 + |log w|) over the real
    Nystrom blocks B of the channels of spec and theta gamma_1 in
    {-3, 0.5, 0.9}: one ``slogdet`` per case against the Gelfand-Yaglom
    closed form log w.  The determinant uses no root, tail or series
    (gamma_1 only places theta)."""
    gamma_1 = kernel_spectrum(spectral_decompose(spec), T, 1).gamma_max
    worst = 0.0
    for alpha, beta, B in _nystrom_blocks(spec, T, n_nodes):
        for ratio in (-3.0, 0.5, 0.9):
            theta = ratio / gamma_1
            sign, log_det = np.linalg.slogdet(np.eye(n_nodes) - theta * B)
            log_w = _channel_closed_form(alpha, beta, theta, T)[0]
            err = abs(float(log_det) - log_w) / (1.0 + abs(log_w)) if sign > 0 else math.inf
            worst = max(worst, err)
    return worst


def _nystrom() -> dict:
    """The Nystrom top-5 against the analytic spectrum; the phased blocks at
    three tilts against the real ones; the Nystrom Fredholm determinant
    against log w.  The kernel's derivative jumps across u1 = u2, so the
    Gauss-Legendre rule is second order there and the determinant error
    falls like n^-2 (Bornemann, Math. Comp. 79 (2010) 871): 6.2e-5 at
    n = 400 on these cases, 1.5e-5 at 800.  1e-4 holds it at 400."""
    spec = _classic()
    sp = spectral_decompose(spec)
    worst_match = worst_tilt = worst_det = 0.0
    for T in (1.0, 5.0):
        analytic = kernel_spectrum(sp, T).descending().gamma[:5]
        top = nystrom_spectrum(spec, 0.0, T, n_nodes=400)[:5]
        worst_match = max(worst_match, float(np.max(np.abs(top - analytic) / analytic)))
        for lam in (0.0, 0.3, -0.7):
            phased = _nystrom_eigvals(spec, T, 400, lam)[:5]
            worst_tilt = max(worst_tilt, float(np.max(np.abs(phased - top) / top)))
        for system in (spec, magnetic_example(math.pi / 4)):
            worst_det = max(worst_det, _fredholm_residual(system, T))
    return _result(
        worst_match <= 1e-4 and worst_tilt <= 1e-6 and worst_det <= 1e-4,
        relative_error=worst_match, lambda_dependence=worst_tilt, fredholm_residual=worst_det,
    )


def _trace_identity() -> dict:
    worst = 0.0
    for spec in (_classic(), magnetic_example(math.pi / 4)):
        sp = spectral_decompose(spec)
        for T in (1.0, 5.0):
            closed = trace_closed_form(spec, T)
            partial = float(np.sum(kernel_spectrum(sp, T, 200).gammas))
            tail = spectrum_gamma_tail(sp, T, 201)
            worst = max(worst, abs(partial + tail - closed) / (1.0 + abs(closed)))
    expected = 4.0 * (math.exp(-2.0) - 1.0) + 8.0
    worked = abs(trace_closed_form(_classic(), 1.0) - expected) / expected
    return _result(worst <= 1e-6 and worked <= 1e-6,
                   residual=worst, worked_value_error=worked)


def _mgf_vs_mc(n_traj: int, dt: float, seed: int, lams: tuple, max_z: float) -> dict:
    spec = magnetic_example(math.pi / 4)
    x = [1.0, 0.0]
    gamma1 = kernel_spectrum(spectral_decompose(spec), 1.0, 1).gamma_max
    z_scores = []
    for lam in lams:
        samples = mc.simulate_z_integral(
            spec, lam, x, mc.SimConfig(T=1.0, dt=dt, n_traj=n_traj, seed=seed)
        )
        for theta in (-0.5, 0.2 / gamma1):
            w = np.exp(theta * samples)
            se = float(np.std(w, ddof=1)) / math.sqrt(w.size)
            pred = conditional_mgf(MgfQuery(x=x, theta=theta, lam=lam, T=1.0), spec)
            z_scores.append((float(np.mean(w)) - pred) / se)
    return _result(max(abs(z) for z in z_scores) <= max_z, z_scores=z_scores)


def _finite_horizon() -> dict:
    spec = magnetic_example(math.pi / 4)
    sp = spectral_decompose(spec)
    horizons = (5.0, 10.0, 20.0, 40.0)
    errors = [abs(cramer_finite_T(0.1, spec, T) - _FINITE_T_TARGET) for T in horizons]
    converges = all(err <= 5.0 / T for T, err in zip(horizons, errors))

    # the lambda = 0.3 tilt exceeds the top-eigenvalue threshold 1/gamma_1(T)
    # once the horizon is long enough; locate that horizon by bisection
    theta = 0.5 * 0.3 * 1.3
    lo, hi = 1.0, 20.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if theta * kernel_spectrum(sp, mid, 1).gamma_max >= 1.0:
            hi = mid
        else:
            lo = mid
    diverged = all(
        cramer_finite_T(0.3, spec, T) == math.inf for T in (hi + 0.05, 10.0, 20.0, 40.0)
    )
    series_residual = 0.0
    for T in (1.0, 5.0):
        closed = cramer_finite_T(0.1, spec, T)
        series = cramer_finite_T_series(0.1, spec, T, 2000)
        series_residual = max(series_residual, abs(closed - series) / abs(series))
    return _result(
        converges and diverged and series_residual <= 1e-10,
        errors=errors, divergence_threshold=hi, divergence_reported=diverged,
        series_residual=series_residual,
    )


def _lln(T: float, dt: float, n_traj: int, seed: int, control_n_traj: int,
         control_seed: int, max_rel: float, max_control: float) -> dict:
    ens = mc.simulate_epr(magnetic_example(math.pi / 4),
                          mc.SimConfig(T=T, dt=dt, n_traj=n_traj, seed=seed))
    rel = abs(float(np.mean(ens.samples)) - math.sqrt(2.0)) / math.sqrt(2.0)
    control = mc.simulate_epr(
        SystemSpec(np.diag([-1.0, -2.0])),
        mc.SimConfig(T=T, dt=dt, n_traj=control_n_traj, seed=control_seed),
    )
    control_mean = abs(float(np.mean(control.samples)))
    return _result(rel <= max_rel and control_mean <= max_control,
                   relative_error=rel, reversible_mean=control_mean)


def _empirical_mgf(T: float, dt: float, n_traj: int, seed: int, max_z: float) -> dict:
    spec = magnetic_example(math.pi / 4)
    ens = mc.simulate_epr(spec, mc.SimConfig(T=T, dt=dt, n_traj=n_traj, seed=seed))
    est = mc.empirical_mgf(ens, 0.05)
    target = cramer(0.05, spectral_decompose(spec))
    z = (est.value - target) / est.stderr
    return _result(abs(z) <= max_z, z_score=z,
                   estimate=est.value, stderr=est.stderr, closed_form=target)


def _ks_2samp(a, b) -> tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov statistic D and its exact
    p-value, for two samples of one size n.  With h = n D, the p-value is
    Hodges' alternating binomial sum (Ark. Mat. 3 (1958) 469)
    2 sum_{k >= 1} (-1)^(k-1) C(2n, n - kh) / C(2n, n), evaluated in the
    Horner form of ``scipy.stats.ks_2samp``, whose bits it reproduces."""
    n = len(a)
    if len(b) != n or n == 0:
        raise DomainError(f"need two non-empty samples of one size, got {len(a)} and {len(b)}")
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    h = int(np.max(np.abs(np.searchsorted(a, pooled, side="right")
                          - np.searchsorted(b, pooled, side="right"))))
    if h == 0:
        return 0.0, 1.0
    P = 0.0
    for k in range(n // h, -1, -1):
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        P = term * (1.0 - P)
    return h / n, min(max(2.0 * P, 0.0), 1.0)


def _q_invariance(T: float, dt: float, n_traj: int, seeds: tuple, min_p: float) -> dict:
    A = magnetic_example(math.pi / 4).A
    M = A + A.T
    variants = [
        SystemSpec(A),
        SystemSpec(A, 0.1 * np.eye(2)),
        SystemSpec(A, 1.5 * np.eye(2) - 0.4 * M + 0.1 * M @ M),
    ]
    spectra = [spectral_decompose(spec) for spec in variants]
    dom = cramer_domain(spectra[0])
    lam_grid = np.linspace(dom.a, dom.b, 41)
    x_grid = np.linspace(-3.0 * math.sqrt(2.0), 3.0 * math.sqrt(2.0), 21)
    curves = [
        ([cramer(float(lam), sp) for lam in lam_grid], [rate(float(x), sp).I for x in x_grid])
        for sp in spectra
    ]
    identical = all(c == curves[0] for c in curves[1:])
    samples = [
        mc.simulate_epr(spec, mc.SimConfig(T=T, dt=dt, n_traj=n_traj, seed=seed)).samples
        for spec, seed in zip(variants, seeds)
    ]
    p_values = [_ks_2samp(samples[0], other)[1] for other in samples[1:]]
    return _result(identical and min(p_values) > min_p,
                   curves_bit_identical=identical, ks_p_values=p_values)


def _tail_trend(horizons: tuple, dt: float, n_traj: int, seeds: tuple) -> dict:
    spec = magnetic_example(math.pi / 4)
    target = rate(2.2, spectral_decompose(spec)).I
    log_rates = [
        mc.tail_estimate(
            mc.simulate_epr(spec, mc.SimConfig(T=T, dt=dt, n_traj=n_traj, seed=seed)), 2.2
        ).log_rate
        for T, seed in zip(horizons, seeds)
    ]
    distances = [abs(r - target) for r in log_rates]
    return _result(all(d0 > d1 for d0, d1 in zip(distances, distances[1:])),
                   distances=distances, log_rates=log_rates, target_rate=target)


# The ten checks in criterion order, by the name verify.json reports.
CHECKS = {
    "fluctuation_symmetry": _symmetry,
    "legendre_equivalence": _legendre,
    "nystrom_oracle": _nystrom,
    "trace_identity": _trace_identity,
    "fredholm_mgf_vs_mc": _mgf_vs_mc,
    "finite_horizon_convergence": _finite_horizon,
    "lln_mean_epr": _lln,
    "empirical_mgf": _empirical_mgf,
    "q_invariance": _q_invariance,
    "tail_rate_trend": _tail_trend,
}

# The reduced rows of the Monte Carlo checks that ``verify`` runs.
QUICK = {
    "fredholm_mgf_vs_mc": dict(n_traj=20_000, dt=1e-3, seed=4170, lams=(0.0,), max_z=3.5),
    "lln_mean_epr": dict(T=100.0, dt=2e-3, n_traj=64, seed=4171, control_n_traj=8,
                         control_seed=4172, max_rel=0.05, max_control=1e-2),
    "empirical_mgf": dict(T=30.0, dt=2e-3, n_traj=2000, seed=4173, max_z=4.0),
    "q_invariance": dict(T=10.0, dt=5e-3, n_traj=2000, seeds=(4174, 4175, 4176),
                         min_p=0.01),
    "tail_rate_trend": dict(horizons=(5.0, 10.0), dt=5e-3, n_traj=20_000,
                            seeds=(4180, 4181)),
}


def run_check(name: str, row: Optional[dict] = None) -> dict:
    """Run the check ``name`` (with the sizes of ``row`` for a Monte Carlo
    check) and time it: ``{"name", "passed", detail..., "seconds"}``."""
    t0 = time.perf_counter()
    result = {"name": name, **CHECKS[name](**(row or {}))}
    result["seconds"] = round(time.perf_counter() - t0, 3)
    return result


def run_verification() -> dict:
    """Run every check at the ``QUICK`` sizes; returns a JSON-ready report."""
    t_start = time.perf_counter()
    checks = [run_check(name, QUICK.get(name)) for name in CHECKS]
    return {
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
        "total_seconds": round(time.perf_counter() - t_start, 3),
    }
