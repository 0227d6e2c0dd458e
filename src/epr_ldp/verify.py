"""Reduced-scale cross-oracle suite behind the `verify` subcommand.

Each check mirrors one of the full acceptance properties at a scale that
finishes in well under ten minutes total, with seeds frozen so the
statistical checks are reproducible.  Returns a plain dict ready for JSON
emission.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import montecarlo as mc
from .chaos import MgfQuery, conditional_mgf, cramer_finite_T, cramer_finite_T_series
from .cramer import cramer, cramer_domain, legendre_oracle, rate, symmetry_residuals
from .model import (
    SystemSpec,
    magnetic_example,
    mean_epr,
    spectral_decompose,
)
from .spectral import kernel_spectrum, nystrom_spectrum, spectrum_gamma_tail, trace_closed_form
from .testing import random_system

__all__ = ["run_verification"]


def _check(name: str, passed: bool, **detail) -> dict:
    out = {"name": name, "passed": bool(passed)}
    out.update(detail)
    return out


def _symmetry() -> dict:
    rng = np.random.default_rng(417)
    systems = [magnetic_example(math.pi / 4),
               random_system(rng, 3), random_system(rng, 4)]
    worst_lam, worst_rate = 0.0, 0.0
    for spec in systems:
        sp = spectral_decompose(spec)
        dom = cramer_domain(sp)
        xm = 3.0 * mean_epr(sp)
        r1, r2 = symmetry_residuals(
            sp, np.linspace(dom.a, dom.b, 101), np.linspace(-xm, xm, 61)
        )
        worst_lam = max(worst_lam, r1)
        worst_rate = max(worst_rate, r2)
    return _check(
        "fluctuation_symmetry",
        worst_lam <= 1e-12 and worst_rate <= 1e-9,
        lambda_residual=worst_lam, rate_residual=worst_rate,
    )


def _legendre() -> dict:
    sp = spectral_decompose(magnetic_example(math.pi / 4))
    xm = 3.0 * mean_epr(sp)
    worst = 0.0
    for x in np.linspace(-xm, xm, 21):
        closed = rate(float(x), sp).I
        grid = legendre_oracle(float(x), sp, n_grid=801)
        worst = max(worst, abs(closed - grid) / (1.0 + closed))
    return _check("legendre_equivalence", worst <= 1e-6, residual=worst)


def _nystrom() -> dict:
    spec = SystemSpec(np.array([[-1.0, 1.0], [-1.0, -1.0]]))
    sp = spectral_decompose(spec)
    ks = kernel_spectrum(sp, 1.0, 40)
    analytic = np.array([e.gamma for e in ks.descending()[:5]])
    lam_vals = {}
    for lam in (0.0, 0.3):
        lam_vals[lam] = nystrom_spectrum(spec, lam, 1.0, n_nodes=200)[:5]
    rel = np.max(np.abs(lam_vals[0.0] - analytic) / analytic)
    lam_dep = np.max(np.abs(lam_vals[0.0] - lam_vals[0.3]) / analytic)
    return _check(
        "nystrom_oracle", rel <= 1e-3 and lam_dep <= 1e-6,
        relative_error=float(rel), lambda_dependence=float(lam_dep),
    )


def _trace_identity() -> dict:
    worst = 0.0
    for spec in (SystemSpec(np.array([[-1.0, 1.0], [-1.0, -1.0]])),
                 magnetic_example(math.pi / 4)):
        sp = spectral_decompose(spec)
        ks = kernel_spectrum(sp, 1.0, 200)
        total = float(np.sum(ks.gammas)) + spectrum_gamma_tail(sp, 1.0, 201)
        closed = trace_closed_form(spec, 1.0)
        worst = max(worst, abs(total - closed) / (1.0 + abs(closed)))
    return _check("trace_identity", worst <= 1e-6, residual=worst)


def _mgf_vs_mc() -> dict:
    spec = magnetic_example(math.pi / 4)
    x = [1.0, 0.0]
    samples = mc.simulate_z_integral(
        spec, 0.0, x, mc.SimConfig(T=1.0, dt=1e-3, n_traj=20_000, seed=4170)
    )
    theta = -0.5
    w = np.exp(theta * samples)
    se = float(np.std(w, ddof=1)) / math.sqrt(len(w))
    pred = conditional_mgf(MgfQuery(x=x, theta=theta, T=1.0), spec)
    z = (float(np.mean(w)) - pred) / se
    return _check("fredholm_mgf_vs_mc", abs(z) <= 3.5, z_score=float(z),
                  mc_mean=float(np.mean(w)), closed_form=pred, stderr=se)


def _finite_horizon() -> dict:
    spec = magnetic_example(math.pi / 4)
    sp = spectral_decompose(spec)
    target = cramer(0.1, sp)
    err = abs(cramer_finite_T(0.1, spec, 10.0) - target)
    diverged = math.isinf(cramer_finite_T(0.3, spec, 10.0))
    series_residual = 0.0
    for T in (1.0, 5.0):
        closed = cramer_finite_T(0.1, spec, T)
        series = cramer_finite_T_series(0.1, spec, T, 2000)
        series_residual = max(series_residual, abs(closed - series) / abs(series))
    return _check(
        "finite_horizon_convergence",
        err <= 0.5 and diverged and series_residual <= 1e-10,
        error_at_T10=float(err), divergence_reported=diverged,
        series_residual=series_residual,
    )


def _lln() -> dict:
    spec = magnetic_example(math.pi / 4)
    ens = mc.simulate_epr(spec, mc.SimConfig(T=100.0, dt=2e-3, n_traj=64, seed=4171))
    rel = abs(float(np.mean(ens.samples)) - math.sqrt(2.0)) / math.sqrt(2.0)
    rev = mc.simulate_epr(
        SystemSpec(np.diag([-1.0, -2.0])),
        mc.SimConfig(T=100.0, dt=2e-3, n_traj=8, seed=4172),
    )
    rev_mean = abs(float(np.mean(rev.samples)))
    return _check("lln_mean_epr", rel <= 0.05 and rev_mean <= 1e-2,
                  relative_error=float(rel), reversible_mean=rev_mean)


def _empirical_mgf() -> dict:
    spec = magnetic_example(math.pi / 4)
    sp = spectral_decompose(spec)
    ens = mc.simulate_epr(spec, mc.SimConfig(T=30.0, dt=2e-3, n_traj=2000, seed=4173))
    est = mc.empirical_mgf(ens, 0.05)
    target = cramer(0.05, sp)
    z = (est.value - target) / est.stderr
    return _check("empirical_mgf", abs(z) <= 4.0, z_score=float(z),
                  estimate=est.value, stderr=est.stderr, closed_form=target)


def _q_invariance() -> dict:
    A = magnetic_example(math.pi / 4).A
    M = A + A.T
    variants = [
        SystemSpec(A),
        SystemSpec(A, 0.1 * np.eye(2)),
        SystemSpec(A, 2.0 * np.eye(2) - 0.7 * M + 0.3 * (M @ M)),
    ]
    grids = np.linspace(-1.2, 0.2, 41)
    lam_curves = []
    rate_vals = []
    for spec in variants:
        sp = spectral_decompose(spec)
        lam_curves.append([cramer(float(l), sp) for l in grids])
        rate_vals.append([rate(x, sp).I for x in (0.5, 1.0, 2.0)])
    identical = all(lam_curves[0] == c for c in lam_curves[1:]) and all(
        rate_vals[0] == r for r in rate_vals[1:]
    )
    from scipy.stats import ks_2samp  # imported here: scipy.stats costs ~0.8 s at start-up

    ensembles = [
        mc.simulate_epr(spec, mc.SimConfig(T=10.0, dt=5e-3, n_traj=2000, seed=4174 + i))
        for i, spec in enumerate(variants)
    ]
    p_values = [
        float(ks_2samp(ensembles[0].samples, e.samples).pvalue)
        for e in ensembles[1:]
    ]
    return _check(
        "q_invariance", identical and all(p > 0.01 for p in p_values),
        curves_bit_identical=identical, ks_p_values=p_values,
    )


def _tail_trend() -> dict:
    spec = magnetic_example(math.pi / 4)
    sp = spectral_decompose(spec)
    target = rate(2.2, sp).I
    dists = []
    for i, T in enumerate((5.0, 10.0)):
        ens = mc.simulate_epr(spec, mc.SimConfig(T=T, dt=5e-3, n_traj=20_000,
                                                 seed=4180 + i))
        est = mc.tail_estimate(ens, 2.2)
        dists.append(abs(est.log_rate - target))
    return _check("tail_rate_trend", dists[1] < dists[0],
                  distances=dists, target_rate=float(target))


def run_verification() -> dict:
    """Run every reduced-scale cross-check; returns a JSON-ready report."""
    t_start = time.time()
    checks = []
    for fn in (_symmetry, _legendre, _nystrom, _trace_identity, _mgf_vs_mc,
               _finite_horizon, _lln, _empirical_mgf, _q_invariance,
               _tail_trend):
        t0 = time.time()
        result = fn()
        result["seconds"] = round(time.time() - t0, 3)
        checks.append(result)
    return {
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
        "total_seconds": round(time.time() - t_start, 3),
    }
