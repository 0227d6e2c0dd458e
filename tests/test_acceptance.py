"""End-to-end acceptance: ten oracle-backed criteria, one test and one
printed pass/fail line each (run with -s to see the lines on success)."""

import math
import time

import numpy as np
from scipy.stats import ks_2samp

from epr_ldp.chaos import MgfQuery, conditional_mgf, cramer_finite_T
from epr_ldp.cramer import (
    cramer,
    cramer_domain,
    legendre_oracle,
    rate,
    symmetry_residuals,
)
from epr_ldp.model import (
    SystemSpec,
    magnetic_example,
    mean_epr,
    spectral_decompose,
)
from epr_ldp.montecarlo import (
    SimConfig,
    empirical_mgf,
    simulate_epr,
    simulate_z_integral,
    tail_estimate,
)
from epr_ldp.spectral import kernel_spectrum, nystrom_spectrum, trace_closed_form
from epr_ldp.testing import random_system

SQRT2 = math.sqrt(2.0)

# pinned tolerances and budgets, one row per criterion
TOL_LAMBDA_SYMMETRY = 1e-12
TOL_RATE_SYMMETRY = 1e-9
BUDGET_SYMMETRY_S = 1.0
TOL_LEGENDRE_REL = 1e-6
BUDGET_LEGENDRE_S = 10.0
TOL_NYSTROM_REL = 1e-4
TOL_NYSTROM_TILT_REL = 1e-6
BUDGET_NYSTROM_S = 30.0
TOL_TRACE_REL = 1e-6
BUDGET_TRACE_S = 1.0
MGF_MC_SIGMA = 3.0
BUDGET_MGF_MC_S = 300.0
FINITE_T_TARGET = 0.177957
BUDGET_FINITE_T_S = 60.0
LLN_REL_TOL = 0.02
LLN_REVERSIBLE_ABS = 1e-2
BUDGET_LLN_S = 300.0
EMP_MGF_SIGMA = 3.0
BUDGET_EMP_MGF_S = 300.0
BUDGET_Q_INVARIANCE_S = 600.0


def report(number, name, ok, detail):
    print(f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {number:02d} {name}: {detail}"


def benchmark_spectra():
    """Three magnetic angles plus five frozen random systems with d <= 6."""
    spectra = [
        spectral_decompose(magnetic_example(theta))
        for theta in (math.pi / 6, math.pi / 4, math.pi / 3)
    ]
    rng = np.random.default_rng(417)
    styles = ("identity", "scalar", "poly", "identity", "scalar")
    for d, style in zip((2, 3, 4, 5, 6), styles):
        spectra.append(
            spectral_decompose(random_system(rng, d, style))
        )
    return spectra


def test_criterion_01_fluctuation_symmetry():
    t0 = time.perf_counter()
    worst_lambda = worst_rate = 0.0
    for sp in benchmark_spectra():
        dom = cramer_domain(sp)
        mbar = mean_epr(sp)
        res_l, res_i = symmetry_residuals(
            sp,
            np.linspace(dom.a, dom.b, 101),
            np.linspace(-3.0 * mbar, 3.0 * mbar, 41),
        )
        worst_lambda = max(worst_lambda, res_l)
        worst_rate = max(worst_rate, res_i)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_lambda <= TOL_LAMBDA_SYMMETRY
        and worst_rate <= TOL_RATE_SYMMETRY
        and elapsed < BUDGET_SYMMETRY_S
    )
    report(
        1,
        "fluctuation symmetry",
        ok,
        f"max|Lambda(l)-Lambda(-1-l)|={worst_lambda:.2e}, "
        f"max|I(x)-I(-x)+x|={worst_rate:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_legendre_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for sp in benchmark_spectra():
        mbar = mean_epr(sp)
        for x in np.linspace(-3.0 * mbar, 3.0 * mbar, 61):
            closed = rate(float(x), sp).I
            searched = legendre_oracle(float(x), sp)
            worst = max(worst, abs(closed - searched) / (1.0 + closed))
    elapsed = time.perf_counter() - t0
    ok = worst <= TOL_LEGENDRE_REL and elapsed < BUDGET_LEGENDRE_S
    report(
        2,
        "rate vs transform search",
        ok,
        f"worst rel diff={worst:.2e} over 8x61 levels, {elapsed:.2f}s",
    )


def test_criterion_03_discretized_spectrum(classic_spec, classic_spectrum):
    t0 = time.perf_counter()
    worst_match = worst_tilt = 0.0
    for T in (1.0, 5.0):
        analytic = np.array(
            [e.gamma for e in kernel_spectrum(classic_spectrum, T).descending()]
        )[:5]
        tops = []
        for lam in (0.0, 0.3, -0.7):
            discrete = nystrom_spectrum(classic_spec, lam, T, n_nodes=400)[:5]
            tops.append(discrete)
            worst_match = max(
                worst_match, float(np.max(np.abs(discrete - analytic) / analytic))
            )
        for other in tops[1:]:
            worst_tilt = max(
                worst_tilt, float(np.max(np.abs(other - tops[0]) / tops[0]))
            )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_match <= TOL_NYSTROM_REL
        and worst_tilt <= TOL_NYSTROM_TILT_REL
        and elapsed < BUDGET_NYSTROM_S
    )
    report(
        3,
        "discretized spectrum",
        ok,
        f"top-5 rel err={worst_match:.2e}, tilt dependence={worst_tilt:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_04_trace_identity(classic_spec, pi4_spec):
    t0 = time.perf_counter()
    from epr_ldp.spectral import spectrum_gamma_tail

    worst = 0.0
    for spec in (classic_spec, pi4_spec):
        sp = spectral_decompose(spec)
        for T in (1.0, 5.0):
            tr = trace_closed_form(spec, T)
            partial = float(np.sum(kernel_spectrum(sp, T, j_max=200).gammas))
            tail = spectrum_gamma_tail(sp, T, 201)
            worst = max(worst, abs(partial + tail - tr) / (1.0 + abs(tr)))
    worked = trace_closed_form(classic_spec, 1.0)
    expected = 4.0 * (math.exp(-2.0) - 1.0) + 8.0
    worked_rel = abs(worked - expected) / expected
    elapsed = time.perf_counter() - t0
    ok = worst <= TOL_TRACE_REL and worked_rel <= 1e-6 and elapsed < BUDGET_TRACE_S
    report(
        4,
        "trace identity",
        ok,
        f"truncation+tail closure={worst:.2e}, worked value rel={worked_rel:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_05_mgf_vs_monte_carlo(pi4_spec, pi4_spectrum):
    t0 = time.perf_counter()
    x0 = np.array([1.0, 0.0])
    gamma1 = kernel_spectrum(pi4_spectrum, 1.0, 1).gamma_max
    thetas = (-0.5, 0.2 / gamma1)
    worst_z = 0.0
    for lam in (0.0, 0.1):
        zs = simulate_z_integral(
            pi4_spec, lam, x0,
            SimConfig(T=1.0, dt=2.5e-4, n_traj=100_000, seed=510),
        )
        for theta in thetas:
            weights = np.exp(theta * zs)
            se = weights.std(ddof=1) / math.sqrt(weights.size)
            predicted = conditional_mgf(
                MgfQuery(x=x0, theta=theta, lam=lam, T=1.0), pi4_spec
            )
            worst_z = max(worst_z, abs(weights.mean() - predicted) / se)
    elapsed = time.perf_counter() - t0
    ok = worst_z <= MGF_MC_SIGMA and elapsed < BUDGET_MGF_MC_S
    report(
        5,
        "conditional MGF vs sampling",
        ok,
        f"worst |z|={worst_z:.2f} over 2 tilts x 2 thetas (1e5 paths), "
        f"{elapsed:.0f}s",
    )


def test_criterion_06_finite_horizon(pi4_spec, pi4_spectrum):
    t0 = time.perf_counter()
    errs = {
        T: abs(cramer_finite_T(0.1, pi4_spec, T) - FINITE_T_TARGET)
        for T in (5.0, 10.0, 20.0, 40.0)
    }
    converges = all(err <= 5.0 / T for T, err in errs.items())

    # the theta = 0.3 tilt exceeds the top-eigenvalue threshold 1/gamma_1(T)
    # once the horizon is long enough; locate that horizon by bisection
    theta = 0.5 * 0.3 * 1.3
    lo, hi = 1.0, 20.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if theta * kernel_spectrum(pi4_spectrum, mid, 1).gamma_max >= 1.0:
            hi = mid
        else:
            lo = mid
    threshold = hi
    diverges = all(
        cramer_finite_T(0.3, pi4_spec, T) == math.inf
        for T in (threshold + 0.05, 10.0, 20.0, 40.0)
    )
    elapsed = time.perf_counter() - t0
    ok = converges and diverges and elapsed < BUDGET_FINITE_T_S
    report(
        6,
        "finite-horizon convergence",
        ok,
        f"errs={{{', '.join(f'{T:g}: {e:.4f}' for T, e in errs.items())}}}, "
        f"divergence threshold T*={threshold:.2f}, {elapsed:.1f}s",
    )


def test_criterion_07_ensemble_mean(pi4_spec):
    t0 = time.perf_counter()
    ens = simulate_epr(pi4_spec, SimConfig(T=200.0, dt=1e-3, n_traj=64, seed=2026))
    rel = abs(ens.samples.mean() - SQRT2) / SQRT2
    control = simulate_epr(
        SystemSpec(np.diag([-1.0, -2.0])),
        SimConfig(T=200.0, dt=1e-3, n_traj=64, seed=2026),
    )
    control_mean = abs(control.samples.mean())
    elapsed = time.perf_counter() - t0
    ok = (
        rel <= LLN_REL_TOL
        and control_mean <= LLN_REVERSIBLE_ABS
        and elapsed < BUDGET_LLN_S
    )
    report(
        7,
        "long-run mean",
        ok,
        f"rel err={rel * 100:.2f}% vs sqrt2, reversible |mean|={control_mean:.1e}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_08_empirical_mgf(pi4_spec, pi4_spectrum):
    t0 = time.perf_counter()
    ens = simulate_epr(pi4_spec, SimConfig(T=50.0, dt=1e-3, n_traj=10_000, seed=7))
    est = empirical_mgf(ens, 0.05)
    truth = cramer(0.05, pi4_spectrum)
    z = abs(est.value - truth) / est.stderr
    elapsed = time.perf_counter() - t0
    ok = z <= EMP_MGF_SIGMA and elapsed < BUDGET_EMP_MGF_S
    report(
        8,
        "empirical cumulant estimate",
        ok,
        f"|z|={z:.2f} (est={est.value:.6f} vs {truth:.6f}, se={est.stderr:.2e}), "
        f"{elapsed:.0f}s",
    )


def test_criterion_09_noise_invariance(pi4_spec):
    t0 = time.perf_counter()
    A = pi4_spec.A
    M = A + A.T
    variants = [
        SystemSpec(A),
        SystemSpec(A, 0.1 * np.eye(2)),
        SystemSpec(A, 1.5 * np.eye(2) - 0.4 * M + 0.1 * M @ M),
    ]
    spectra = [spectral_decompose(s) for s in variants]
    dom = cramer_domain(spectra[0])
    lam_grid = np.linspace(dom.a, dom.b, 41)
    x_grid = np.linspace(-3.0 * SQRT2, 3.0 * SQRT2, 21)
    base_lambda = [cramer(float(l), spectra[0]) for l in lam_grid]
    base_rate = [rate(float(x), spectra[0]).I for x in x_grid]
    identical = all(
        [cramer(float(l), sp) for l in lam_grid] == base_lambda
        and [rate(float(x), sp).I for x in x_grid] == base_rate
        for sp in spectra[1:]
    )
    ensembles = [
        simulate_epr(spec, SimConfig(T=20.0, dt=5e-3, n_traj=10_000, seed=seed))
        for spec, seed in zip(variants, (200, 201, 202))
    ]
    p_values = [
        ks_2samp(ensembles[0].samples, other.samples).pvalue
        for other in ensembles[1:]
    ]
    elapsed = time.perf_counter() - t0
    ok = identical and min(p_values) > 0.01 and elapsed < BUDGET_Q_INVARIANCE_S
    report(
        9,
        "noise invariance",
        ok,
        f"curves bit-identical={identical}, KS p={p_values[0]:.3f}/{p_values[1]:.3f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_10_tail_rate_trend(pi4_spec, pi4_spectrum):
    t0 = time.perf_counter()
    x_tail = 2.2
    target = rate(x_tail, pi4_spectrum).I
    distances = []
    rates = []
    for T in (10.0, 20.0, 40.0):
        ens = simulate_epr(pi4_spec, SimConfig(T=T, dt=5e-3, n_traj=100_000, seed=55))
        est = tail_estimate(ens, x_tail)
        rates.append(est.log_rate)
        distances.append(abs(est.log_rate - target))
    elapsed = time.perf_counter() - t0
    ok = distances[0] > distances[1] > distances[2]
    report(
        10,
        "tail rate trend",
        ok,
        f"rates={[f'{r:.4f}' for r in rates]} -> I(2.2)={target:.4f}, "
        f"distances={[f'{d:.4f}' for d in distances]}, {elapsed:.0f}s",
    )
