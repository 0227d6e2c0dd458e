"""finite_horizon: one op is one (system, T, lambda) finite-horizon query.

Why: spectral and chaos do most of the work here and cramer only supplies
the Lambda reference.  Horizons are set per system as max|alpha| T in
HORIZONS, so the share of queries past the overflow edge does not depend on
the seed, and every (system, T) gets one tilt inside Lambda's domain (below
the divergence threshold 1/gamma_1) and one past 1/gamma_1, where +inf is the
correct result.  The slow Nystrom ops at short horizons form the latency tail.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from common import Op, check
from epr_ldp import (
    MgfQuery,
    conditional_mgf,
    cramer,
    cramer_domain,
    cramer_finite_T,
    kernel_spectrum,
    log_det_tail,
    magnetic_example,
    nystrom_spectrum,
    spectral_decompose,
    spectrum_gamma_tail,
    trace_closed_form,
)
from epr_ldp.testing import random_system

HORIZONS = (0.5, 2.0, 10.0, 50.0, 200.0, 1000.0)  # max|alpha| * T
# Today the series overflows once max|alpha| T exceeds about 355.
OVERFLOW_HORIZON = 1000.0
NYSTROM_HORIZONS = (0.5, 2.0)
NYSTROM_NODES = 400
J_MAX = 200
STYLES = ("identity", "scalar", "poly")

# Tolerances as in verify.py and tests/test_acceptance.py.
TOL_TRACE_REL = 1e-6
TOL_NYSTROM_REL = 1e-3
APPROACH_CONSTANT = 5.0  # |Lambda_T - Lambda| <= 5 / T once max|alpha| T >= 10
TOL_GAMMA1_REL = 1e-9


def top_gamma(A: np.ndarray, T: float) -> float:
    """Largest kernel eigenvalue 8 beta^2 / (alpha^2 + omega_1^2), with the
    first root of omega cos(omega T) = alpha sin(omega T) found by Brent's
    method; independent of the library's own root solver."""
    best = 0.0
    for ev in np.linalg.eigvals(A):
        alpha, beta = float(ev.real), abs(float(ev.imag))
        if beta == 0.0:
            continue
        eps = 1e-12 * math.pi / T
        omega = brentq(
            lambda w: w * math.cos(w * T) - alpha * math.sin(w * T),
            math.pi / (2 * T) + eps, 3 * math.pi / (2 * T) - eps,
            xtol=1e-15, rtol=1e-15,
        )
        best = max(best, 8.0 * beta * beta / (alpha * alpha + omega * omega))
    return best


def _overflowed(exc: BaseException) -> bool:
    return isinstance(exc, OverflowError)


class Workload:
    work_unit = "(system, T, lambda) queries"
    child_rss = False

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed

    def ops(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        angle = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.15, 1.4))
        systems = [("magnetic", magnetic_example(angle))]
        for d in (2, 4, 6):
            style = STYLES[int(rng.integers(len(STYLES)))]
            systems.append((f"d{d}_{style}", random_system(rng, d, style)))
        ops = []
        for label, spec in systems:
            sp = spectral_decompose(spec)
            dom = cramer_domain(sp)
            lam_in = dom.a + (dom.b - dom.a) * rng.uniform(0.05, 0.95)
            x0 = rng.standard_normal(spec.dim)
            alpha_max = float(np.max(np.abs(sp.alphas)))
            for h in HORIZONS:
                T = h / alpha_max
                gamma1 = top_gamma(spec.A, T)
                theta_out = (1.0 + rng.uniform(0.05, 1.0)) / gamma1
                lam_out = (math.sqrt(1.0 + 8.0 * theta_out) - 1.0) / 2.0
                common = {"spec": spec, "sp": sp, "T": T, "h": h, "x0": x0,
                          "gamma1": gamma1}
                ops.append(Op(
                    f"r{r}.{label}.h{h:g}.in", "inside",
                    {**common, "lam": lam_in,
                     "nystrom": spec.dim == 2 and h in NYSTROM_HORIZONS},
                    _overflowed if h == OVERFLOW_HORIZON else None,
                ))
                ops.append(Op(f"r{r}.{label}.h{h:g}.out", "outside",
                              {**common, "lam": lam_out}))
        return ops

    def run(self, op: Op, tr, ctx) -> int:
        a = op.args
        spec, sp, T, lam = a["spec"], a["sp"], a["T"], a["lam"]
        theta = 0.5 * lam * (1.0 + lam)
        ks = tr.call("spectral.kernel_spectrum", kernel_spectrum, sp, T, J_MAX)
        rel = abs(ks.gamma_max - a["gamma1"]) / a["gamma1"]
        check(rel <= TOL_GAMMA1_REL, f"gamma_1 off by {rel:.2e}")
        query = MgfQuery(x=a["x0"], theta=theta, lam=lam, T=T, j_max=J_MAX)
        mgf = tr.call("chaos.conditional_mgf", conditional_mgf, query, spec)
        lam_T = tr.call("chaos.cramer_finite_T", cramer_finite_T, lam, spec, T, J_MAX)
        if op.kind == "outside":
            check(mgf == math.inf, f"MGF {mgf!r} finite past 1/gamma_1")
            check(lam_T == math.inf, f"Lambda_T {lam_T!r} finite past 1/gamma_1")
            return 1

        check(math.isfinite(lam_T), f"Lambda_T {lam_T!r} inside Lambda's domain")
        # An MGF beyond the double range comes back as +inf (documented) or
        # underflows to 0; either only when |log MGF| ~ T |Lambda_T| is huge.
        check(0.0 < mgf < math.inf or (mgf >= 0.0 and abs(T * lam_T) > 300.0),
              f"MGF {mgf!r} below 1/gamma_1 with T Lambda_T = {T * lam_T:.4g}")
        for alpha, beta in sp.pairs:
            if beta > 0.0:
                tail = tr.call("spectral.log_det_tail", log_det_tail,
                               alpha, beta, T, theta, J_MAX + 1)
                check(math.isfinite(tail), "Fredholm log-det tail not finite")
        lam_inf = tr.call("cramer.cramer", cramer, lam, sp)
        if a["h"] >= 10.0:
            err = abs(lam_T - lam_inf)
            check(err <= APPROACH_CONSTANT / T,
                  f"|Lambda_T - Lambda| = {err:.3e} > 5/T at T={T:.4g}")

        total = float(np.sum(ks.gammas)) + tr.call(
            "spectral.spectrum_gamma_tail", spectrum_gamma_tail, sp, T, J_MAX + 1)
        closed = tr.call("spectral.trace_closed_form", trace_closed_form, spec, T)
        rel = abs(total - closed) / (1.0 + abs(closed))
        check(rel <= TOL_TRACE_REL, f"trace identity residual {rel:.2e}")

        if a["nystrom"]:
            top = tr.call("spectral.nystrom_spectrum", nystrom_spectrum,
                          spec, lam, T, NYSTROM_NODES)[:5]
            analytic = np.array([e.gamma for e in ks.descending()[:5]])
            rel = float(np.max(np.abs(top - analytic) / analytic))
            check(rel <= TOL_NYSTROM_REL, f"Nystrom top-5 off by {rel:.2e}")
        return 1
