"""End-to-end acceptance: the ten cross-checks of ``epr_ldp.verify`` with
the Monte Carlo checks at full size, one test and one printed pass/fail
line each (run with -s to see the lines on success)."""

import math

from epr_ldp.verify import CHECKS, run_check

# full-size rows of the Monte Carlo checks; the other checks have one size
FULL = {
    "fredholm_mgf_vs_mc": dict(n_traj=100_000, dt=2.5e-4, seed=510, lams=(0.0, 0.1),
                               max_z=3.0),
    "lln_mean_epr": dict(T=200.0, dt=1e-3, n_traj=64, seed=2026, control_n_traj=64,
                         control_seed=2026, max_rel=0.02, max_control=1e-2),
    "empirical_mgf": dict(T=50.0, dt=1e-3, n_traj=10_000, seed=7, max_z=3.0),
    "q_invariance": dict(T=20.0, dt=5e-3, n_traj=10_000, seeds=(200, 201, 202),
                         min_p=0.01),
    "tail_rate_trend": dict(horizons=(10.0, 20.0, 40.0), dt=5e-3, n_traj=100_000,
                            seeds=(55, 55, 55)),
}

# wall-clock budgets, one per criterion (the tail-rate trend has none)
BUDGET_SYMMETRY_S = 1.0
BUDGET_LEGENDRE_S = 10.0
BUDGET_NYSTROM_S = 30.0
BUDGET_TRACE_S = 1.0
BUDGET_MGF_MC_S = 300.0
BUDGET_FINITE_T_S = 60.0
BUDGET_LLN_S = 300.0
BUDGET_EMP_MGF_S = 300.0
BUDGET_Q_INVARIANCE_S = 600.0


def _short(value):
    if isinstance(value, float):
        return f"{value:.3g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_short(v) for v in value) + "]"
    return str(value)


def _criterion(name, budget_s):
    """The test of one check: run it at full size within its budget, print
    its line and assert."""
    number = list(CHECKS).index(name) + 1

    def test():
        result = run_check(name, FULL.get(name))
        ok = result["passed"] and result["seconds"] < budget_s
        detail = ", ".join(f"{key}={_short(value)}" for key, value in result.items()
                           if key not in ("name", "passed"))
        print(f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"criterion {number:02d} {name}: {detail}"

    return test


test_criterion_01_fluctuation_symmetry = _criterion("fluctuation_symmetry", BUDGET_SYMMETRY_S)
test_criterion_02_legendre_equivalence = _criterion("legendre_equivalence", BUDGET_LEGENDRE_S)
test_criterion_03_discretized_spectrum = _criterion("nystrom_oracle", BUDGET_NYSTROM_S)
test_criterion_04_trace_identity = _criterion("trace_identity", BUDGET_TRACE_S)
test_criterion_05_mgf_vs_monte_carlo = _criterion("fredholm_mgf_vs_mc", BUDGET_MGF_MC_S)
test_criterion_06_finite_horizon = _criterion("finite_horizon_convergence", BUDGET_FINITE_T_S)
test_criterion_07_ensemble_mean = _criterion("lln_mean_epr", BUDGET_LLN_S)
test_criterion_08_empirical_mgf = _criterion("empirical_mgf", BUDGET_EMP_MGF_S)
test_criterion_09_noise_invariance = _criterion("q_invariance", BUDGET_Q_INVARIANCE_S)
test_criterion_10_tail_rate_trend = _criterion("tail_rate_trend", math.inf)
